"""Multi-level prefix-shingle lexicon: build, lookup, mention detection.

Re-implements (from scratch, deterministically) the reference's runtime
core:

- 4-level lexicon build with weighted majority vote, misclassified
  re-queue, and a final exact residual dictionary:
  /root/reference/ontology/ontology_manager.py:361-548 (``add_to_ontology``)
- lookup most-precise-level-first with caps gating:
  /root/reference/ontology/ontology_manager.py:550-622 (``in_ontology``)
- greedy longest-first n-gram mention detection:
  /root/reference/ontology/ontology_manager.py:665-756 (``detect``)

Data layout (per level)::

    level[first_shingle_word] = [max_ngram_len, min_ngram_len, s0, s1, s2, s3]
    s{b}["*" or "*_rest_of_shingle"] = label            # b = len(wordArr)//(step+1)

The final residual level maps exact canonical words (and their
digit-folded twins) straight to labels.

Determinism deviations from the reference (documented in SURVEY.md §7.6):
ties in the majority vote break on (weight, label) lexicographically
instead of dict insertion order; the equal-size sample of correctly
classified entries re-queued next to wrong ones is the idx-sorted prefix
instead of ``random.sample`` (ontology_manager.py:471,481).
"""

from __future__ import annotations

import gzip
import json
import pickle
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from kawa_ray.config import (
    CAPS_GATED_LABELS,
    COMPOUND_WORD_STEP,
    CONNECTOR,
    LABEL2LABEL,
    LABEL_WEIGHT_FACTORS,
    LEXICON_DEPTH,
    STRIP_CHARS,
    TRANNUM,
    UPPER_ONTOLOGY,
    level_to_shingle_cutoff,
)
from kawa_ray.functions.text import (
    canonical_word,
    cjk_detect,
    cjk_segment_text,
    has_nonstopword,
    word_shingles,
)
from kawa_ray.state.stopwords import stopwords_for

import math


@dataclass
class LexiconIndex:
    """Frozen multi-level lexicon; built once, broadcast to detection workers."""

    levels: list[dict] = field(default_factory=list)   # shingle levels, 0..depth-1
    residual: dict = field(default_factory=dict)       # exact word -> label
    residual_bounds: dict = field(default_factory=dict)  # prefix -> [max_n, min_n]
    target_lang_lexicon: dict = field(default_factory=dict)
    connector: str = CONNECTOR
    compound_word_step: int = COMPOUND_WORD_STEP

    # ---------------------------------------------------------------- build

    @classmethod
    def build(
        cls,
        word2ner: Iterable[Sequence],
        depth: int = LEXICON_DEPTH,
        weight_factors: dict[str, float] | None = None,
        stopwords: frozenset[str] | None = None,
    ) -> "LexiconIndex":
        """Build ``depth`` shingle levels + the exact residual level.

        ``word2ner`` rows are ``(word, label[, weight[, idx]])`` — the
        reference's exchange format (ontology_manager.py:394-411).
        """
        if weight_factors is None:
            weight_factors = LABEL_WEIGHT_FACTORS
        sw = stopwords if stopwords is not None else frozenset()

        # normalise rows to [word, LABEL, weight, idx]
        rows: list[list] = []
        next_idx = 0
        for r in word2ner:
            word = r[0]
            label = str(r[1]).upper()
            weight = float(r[2]) if len(r) > 2 and r[2] is not None else 0.0
            idx = int(r[3]) if len(r) > 3 and r[3] is not None else -1
            if idx < 0:
                idx = next_idx
            next_idx = max(next_idx, idx + 1)
            w, _ = canonical_word(word, sw, do_lower=True)
            rows.append([w, label, weight, idx])

        idx2row = {r[3]: r for r in rows}
        index = cls(levels=[])
        pending = rows
        for level in range(depth):
            cutoff = level_to_shingle_cutoff(level)
            requeue_idx = index._build_level(pending, cutoff, weight_factors)
            if level < depth - 1:
                if len(requeue_idx) > len(pending) / 2:
                    # level too noisy — wipe it and push everything down
                    # (reference ontology_manager.py:519-522)
                    index.levels[-1] = {}
                    pending = pending
                else:
                    pending = [idx2row[i] for i in sorted(requeue_idx)]
                if not pending:
                    for _ in range(level + 1, depth):
                        index.levels.append({})
                    break

        # final self-check: words that still resolve wrongly (or not at all)
        # land in the exact residual dict (reference ontology_manager.py:528-547)
        residual = {}
        bounds: dict[str, list[int]] = {}
        cutoff0 = level_to_shingle_cutoff(0)
        for w, label, _wt, _idx in rows:
            _, got = index.lookup(w, check_caps=False)
            if got != label:
                residual[w] = label
                residual[w.translate(TRANNUM)] = label
                # register span bounds so `detect` still probes spans whose
                # only match lives in the residual dict (the reference's
                # residual entries are invisible to _get_ngram_start_end —
                # ontology_manager.py:543-547 vs :656-663; we fix that)
                folded = w.translate(TRANNUM).split(index.connector)
                prefix = folded[0][:cutoff0]
                n = len(folded)
                prev = bounds.get(prefix, [1, 100])
                bounds[prefix] = [max(n, prev[0]), 2 if n == 2 else min(max(n - 1, 1), prev[1])]
        index.residual = residual
        index.residual_bounds = bounds
        return index

    def _build_level(
        self,
        rows: list[list],
        cutoff: int,
        weight_factors: dict[str, float],
    ) -> set[int]:
        """One majority-vote level; returns idxs to re-queue at the next
        (more precise) level.  Reference ontology_manager.py:418-527."""
        conn = self.connector
        step = self.compound_word_step
        level: dict = {}
        self.levels.append(level)

        # accumulate per (shingle_key, bucket): per-label idx lists + weights
        lex: dict[tuple[str, int], tuple[dict, dict]] = {}
        for word, label, orig_weight, idx in rows:
            lword = word.translate(TRANNUM)  # lookup key is digit-folded
            word_arr = lword.split(conn)
            n = len(word_arr)
            if n == 0:
                continue
            orig_lens = len(lword) + n
            # length prior: shorter words assumed more frequent
            # (reference ontology_manager.py:426-432)
            if orig_weight:
                weight = orig_weight + 1.0 / (1.0 + math.sqrt(orig_lens))
            else:
                weight = 1.0 + 1.0 / (1.0 + math.sqrt(orig_lens))
                weight *= weight_factors.get(label, 1.0)
            bucket = n // (step + 1)
            for shingle in word_shingles(word_arr, cutoff=cutoff, compound_word_step=step):
                if not shingle:
                    continue
                key = (conn.join(shingle), bucket)
                idxs, cnts = lex.setdefault(key, ({}, {}))
                idxs.setdefault(label, []).append(idx)
                cnts[label] = cnts.get(label, 0.0) + weight
                # prefix span-bounds record (ontology_manager.py:460-462)
                prev = level.get(shingle[0], [1, 100])
                level[shingle[0]] = [
                    max(n, prev[0] if len(prev) >= 2 else 1),
                    2 if n == 2 else min(max(n - 1, 1), prev[1] if len(prev) >= 2 else 100),
                ] + (prev[2:] if len(prev) > 2 else [])

        requeue: set[int] = set()
        resolved: dict[tuple[str, int], str] = {}
        for key, (idxs, cnts) in lex.items():
            # deterministic majority: max weight, ties by label name
            win = max(cnts.items(), key=lambda kv: (kv[1], kv[0]))[0]
            right = idxs[win]
            wrong = [i for lab, lst in idxs.items() if lab != win for i in lst]
            if len(wrong) > len(right):
                # hopeless key: drop it, requeue everything
                requeue.update(right)
                requeue.update(wrong)
                continue
            if wrong:
                requeue.update(wrong)
                requeue.update(sorted(right)[: len(wrong)])
            resolved[key] = win

        # attach surviving keys under their prefix buckets
        # (reference ontology_manager.py:495-510)
        for (word, bucket), label in resolved.items():
            prefix = word.split(conn, 1)[0]
            rec = level.get(prefix)
            if rec is None:
                continue
            if len(rec) == 2:
                rec.extend(({}, {}, {}, {}))
            slot = rec[2 + min(3, bucket)]
            rest = "*" + conn + word.split(conn, 1)[1] if conn in word else "*"
            slot[rest] = label

        # prune prefixes with no surviving keys (ontology_manager.py:512-516)
        for k in [k for k, v in level.items() if len(v) <= 2]:
            del level[k]
        return requeue

    # --------------------------------------------------------------- lookup

    def lookup(
        self,
        word: str,
        stopwords: frozenset[str] | set[str] = frozenset(),
        check_caps: bool = True,
        suppress_cjk: bool = False,
        target_lexicon: dict | None = None,
    ) -> tuple[str, str | None]:
        """(canonical word, label|None), most-precise level first
        (reference in_ontology, ontology_manager.py:550-622)."""
        conn = self.connector
        step = self.compound_word_step
        is_cjk = cjk_detect(word) is not None
        cword, word_arr = canonical_word(word, stopwords, conn, suppress_cjk=suppress_cjk)
        if not word_arr or not word_arr[0] or not word_arr[-1]:
            return word, None
        # caps gate (reference ontology_manager.py:568-569) extended for
        # caseless scripts: a CJK/Arabic initial has no case and must pass
        is_caps = (not word_arr[0][:1].islower()) and (not word_arr[-1][:1].islower())
        lword = cword.lower()

        # per-target-language exact lexicon first (ontology_manager.py:571-582)
        tl = target_lexicon if target_lexicon is not None else self.target_lang_lexicon
        for cand in self._exact_variants(lword, is_cjk):
            lab = tl.get(cand)
            if lab is not None:
                return word, lab

        # shingle probes use the digit-folded lower form — the exact key
        # space the build used (_build_level folds before shingling)
        lower_arr = [w.lower().translate(TRANNUM) for w in word_arr]
        bucket = min(3, len(lower_arr) // (step + 1))

        # residual exact dict = the most precise level (ontology_manager.py:588-601)
        for cand in self._exact_variants(lword, is_cjk):
            lab = self.residual.get(cand)
            if lab is not None:
                if check_caps and not is_caps and lab in CAPS_GATED_LABELS:
                    continue
                return lword, lab

        for level in range(len(self.levels) - 1, -1, -1):
            table = self.levels[level]
            if not table:
                continue
            cutoff = level_to_shingle_cutoff(level)
            for shingle in word_shingles(
                lower_arr, cutoff=cutoff, compound_word_step=step, more_shingles=not is_cjk
            ):
                rec = table.get(shingle[0])
                if rec is None or len(rec) < 2 + bucket + 1:
                    continue
                slot = rec[2 + bucket]
                rest = "*" + conn + conn.join(shingle[1:]) if len(shingle) > 1 else "*"
                lab = slot.get(rest)
                if lab is not None:
                    if check_caps and not is_caps and lab in CAPS_GATED_LABELS:
                        continue
                    return lword, lab
        return word, None

    def _exact_variants(self, lword: str, is_cjk: bool) -> list[str]:
        conn = self.connector
        out = [lword, lword.translate(TRANNUM)]
        if is_cjk:
            joined = lword.replace(conn, "")
            out += [joined, joined.translate(TRANNUM)]
        return out

    def ngram_bounds(self, start_word: str) -> tuple[int, int]:
        """Possible compound length range for a start-word prefix across
        levels (reference _get_ngram_start_end, ontology_manager.py:656-663)."""
        lo, hi = -1, 100000
        for table in self.levels:
            rec = table.get(start_word)
            if rec is not None:
                lo, hi = max(lo, rec[0]), min(hi, rec[1])
        rec = self.residual_bounds.get(start_word)
        if rec is not None:
            lo, hi = max(lo, rec[0]), min(hi, rec[1])
        return lo, hi

    # --------------------------------------------------------------- detect

    # Bounded per-index memo sizes.  detect() runs over a FROZEN lexicon
    # (build-time self-checks call ``lookup`` directly while levels are
    # still mutating, so the caches live at the detect call site only).
    # Corpus surfaces repeat heavily (sf0.01: 115k lookups over 21k
    # distinct surfaces; the ratio improves with corpus size), so a
    # surface->result memo removes most lookup/shingle work per actor.
    _LOOKUP_CACHE_MAX = 1 << 18
    _MISS = object()

    def detect(
        self,
        text: str,
        lang: str | None = None,
        check_caps: bool = True,
        label2label: dict[str, str] | None = None,
        tag_type: frozenset[str] | None = None,
        collapse_consecutive: bool = False,
        target_lexicon: dict | None = None,
    ) -> list[tuple[str, int, int, str]]:
        """Greedy longest-first mention detection over whitespace tokens.

        Returns ``[(surface, start, end, label), ...]`` with char offsets
        into the (possibly CJK-resegmented) text — the Arrow-friendly
        lifting of the reference's ``chunk2ner`` dict
        (ontology_manager.py:665-756).
        """
        if label2label is None:
            label2label = LABEL2LABEL
        sw = stopwords_for(lang)
        conn = self.connector
        cutoff = level_to_shingle_cutoff(0)
        # ngram_bounds is a pure function of the frozen levels and sees a
        # tiny key space (start words truncated to the level-0 cutoff)
        bcache = self.__dict__.setdefault("_bounds_cache", {})
        # lookup memo: (lang, caps flag, target-lexicon identity, surface).
        # target lexicons live as long as the detector holding this index
        # (stages/mentions.py) so id() is a stable discriminator here.
        lcache = self.__dict__.setdefault("_lookup_cache", {})
        # token-prep memo, one dict per language (stopword sets differ):
        # raw token -> None (stopword skip) | (lo, hi) ngram bounds.  Folds
        # lower/lstrip/stopword-test/translate/split/truncate/bounds into a
        # single dict get for repeated tokens (Zipf: most are repeats).
        tcaches = self.__dict__.setdefault("_tok_cache", {})
        tcache = tcaches.get(lang)
        if tcache is None:
            tcache = tcaches[lang] = {}
        miss = self._MISS
        lctx = (lang, check_caps, id(target_lexicon))
        if cjk_detect(text):
            text = cjk_segment_text(text)
        sent: list[str | None] = text.strip().split()
        n = len(sent)
        out: list[tuple[str, int, int, str]] = []
        pos = 0
        for i in range(n):
            tok = sent[i]
            if tok is None:
                continue
            bounds = tcache.get(tok, miss)
            if bounds is miss:
                start_word = tok.lower().lstrip(STRIP_CHARS)
                if start_word in sw:
                    bounds = None
                else:
                    start_word = start_word.translate(TRANNUM).split(conn)[0]
                    start_word = start_word[:cutoff]
                    bounds = bcache.get(start_word)
                    if bounds is None:
                        bounds = bcache[start_word] = self.ngram_bounds(start_word)
                if len(tcache) >= self._LOOKUP_CACHE_MAX:
                    tcache.clear()
                tcache[tok] = bounds
            if bounds is None:
                pos += len(tok) + 1
                continue
            lo, hi = bounds
            matched = False
            if lo > 0:
                for j in range(lo - 1, max(hi - 2, -1), -1):
                    if n - i <= j:
                        continue
                    word_arr = [w for w in sent[i : i + 1 + j] if w is not None]
                    if len(word_arr) != 1 + j:
                        continue  # span crosses an already-consumed token
                    surface = " ".join(word_arr).strip(STRIP_CHARS)
                    if not has_nonstopword(word_arr, sw):
                        break
                    if word_arr[-1].lower() in sw:
                        continue
                    hit = lcache.get((lctx, surface), miss)
                    if hit is miss:
                        hit = self.lookup(
                            surface, sw, check_caps=check_caps, suppress_cjk=True,
                            target_lexicon=target_lexicon,
                        )
                        if len(lcache) >= self._LOOKUP_CACHE_MAX:
                            lcache.clear()
                        lcache[(lctx, surface)] = hit
                    _, label = hit
                    if label is None:
                        continue
                    # trailing-dot abbreviation fix (ontology_manager.py:709-712)
                    last = word_arr[-1]
                    if last.endswith(".") and 1 < len(last) <= 3:
                        surface = surface + "."
                    label = label2label.get(label, label)
                    if (tag_type is None or label in tag_type) and label in UPPER_ONTOLOGY:
                        joined = surface.replace(" ", conn)
                        if joined not in sw:
                            sent[i] = joined
                            out.append((joined, pos, pos + len(joined), label))
                            for k in range(i + 1, i + j + 1):
                                sent[k] = None
                            matched = True
                            break
            _ = matched
            pos += len(sent[i]) + 1
        if collapse_consecutive and len(out) > 1:
            # merge adjacent same-label spans separated by one space
            # (reference collapse_consecutive_ner, ontology_manager.py:738-754)
            merged = [out[0]]
            for surface, start, end, label in out[1:]:
                p_surface, p_start, p_end, p_label = merged[-1]
                if label == p_label and start == p_end + 1:
                    merged[-1] = (
                        p_surface + self.connector + surface, p_start, end, label
                    )
                else:
                    merged.append((surface, start, end, label))
            out = merged
        return out

    def tokenize(self, text: str, lang: str | None = None,
                 **detect_kwargs) -> dict:
        """Reference ``tokenize`` (ontology_manager.py:758-779): run
        ``detect`` and splice the compound-joined surfaces back into the
        text by offsets.  Returns ``{"text": retokenised, "mentions":
        [(surface, start, end, label), ...]}`` — the dict-of-spans
        ``chunk2ner`` lifted to ordered tuples."""
        mentions = self.detect(text, lang=lang, **detect_kwargs)
        if cjk_detect(text):
            text = cjk_segment_text(text)
        # splice by span positions: detect emits offsets into the
        # re-joined token stream (compound joins preserve length)
        chars = list(" ".join(text.strip().split()))
        for surface, start, end, _label in mentions:
            chars[start:end] = list(surface)
        out_text = "".join(chars)
        return {"text": out_text, "mentions": mentions}

    # ------------------------------------------------------------ serialise

    def save(self, path: str) -> None:
        """Persist as gzipped JSON (reference save_ontology_file,
        ontology_manager.py:218-229) — pickle-free so artifacts are
        portable across versions."""
        payload = {
            "levels": [
                {k: [v[0], v[1]] + [list(s.items()) for s in v[2:]] for k, v in lvl.items()}
                for lvl in self.levels
            ],
            "residual": self.residual,
            "residual_bounds": self.residual_bounds,
            "target_lang_lexicon": self.target_lang_lexicon,
            "connector": self.connector,
            "compound_word_step": self.compound_word_step,
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(payload, f, ensure_ascii=False)

    @classmethod
    def load(cls, path: str) -> "LexiconIndex":
        with gzip.open(path, "rt", encoding="utf-8") as f:
            payload = json.load(f)
        levels = [
            {
                k: [v[0], v[1]] + [dict(items) for items in v[2:]]
                for k, v in lvl.items()
            }
            for lvl in payload["levels"]
        ]
        return cls(
            levels=levels,
            residual=payload["residual"],
            residual_bounds=payload.get("residual_bounds", {}),
            target_lang_lexicon=payload.get("target_lang_lexicon", {}),
            connector=payload.get("connector", CONNECTOR),
            compound_word_step=payload.get("compound_word_step", COMPOUND_WORD_STEP),
        )

    def __getstate__(self) -> dict:
        # the detect() memos stay behind: they are process-local (keyed
        # on id() of target lexicons) and would make equal lexicons
        # pickle to different bytes
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_bounds_cache", "_lookup_cache", "_tok_cache")}

    def to_bytes(self) -> bytes:
        """Compact binary form for ``ray.put`` broadcast."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(data: bytes) -> "LexiconIndex":
        return pickle.loads(data)
