"""S2 — mention detection: a task-based ``map_batches`` stage.

Each batch gets its ``MentionDetector`` from a one-entry cache in the
worker process (``worker_detector``), keyed by a content digest of
everything the detector is built from: the lexicon, the per-language
target lexicons and the regex-NER switch (mirroring the reference's
class-level lexicon cache, ontology_manager.py:90-106).
Ray pools task workers across Dataset executions, so a worker unpickles
the lexicon once per session and keeps its lookup memos warm across
batches and ``link_pages`` calls; the broadcast ref is read only on a
miss.  The detector is a pure function of its inputs, so a lost worker
only recomputes.  Per-batch work is a per-doc greedy detect (docs are
the parallel unit — never split across batches) plus the regex NER
extractors.

Output mention schema (SURVEY.md §1.3):
``url, mention_id, surface, norm, start, end, label, lang``.
"""

from __future__ import annotations

import hashlib
import pickle

import pyarrow as pa

from kawa_ray.functions.minhash import hash64
from kawa_ray.functions.regex_ner import regex_mentions
from kawa_ray.sources.roster import normalize_surface
from kawa_ray.state.lexicon import LexiconIndex

MENTION_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("mention_id", pa.int64()),
        ("surface", pa.string()),
        ("norm", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("label", pa.string()),
        ("lang", pa.string()),
    ]
)


def mention_id_of(url: str, norm: str, occ: int) -> int:
    """Stable mention identity: hash of (url, norm, occurrence index) —
    reproducible across runs and parallelism levels (FIXTURES.md §4)."""
    return hash64(f"{url}\x00{norm}\x00{occ}") & 0x7FFF_FFFF_FFFF_FFFF


class MentionDetector:
    """Batch callable over (url, text, lang) tables; holds the lexicon
    and its memos."""

    def __init__(self, lexicon: LexiconIndex, with_regex_ner: bool = True,
                 lang_lexicons: dict[str, dict] | None = None):
        self.lexicon = lexicon
        self.with_regex_ner = with_regex_ner
        # per-language exact lexicons (reference per-lang {lang}.json files
        # loaded into the target-language lookup layer,
        # ontology_manager.py:140-144,571-582)
        self.lang_lexicons = lang_lexicons or {}
        # surface -> norm memo: surfaces repeat heavily across docs (same
        # entities); bounded so regex-typed surfaces (phone numbers, IPs —
        # unbounded vocab at corpus scale) can't grow the worker heap
        self._norm_cache: dict[str, str] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        out = {k: [] for k in ("url", "mention_id", "surface", "norm", "start", "end", "label", "lang")}
        norm_cache = self._norm_cache
        if len(norm_cache) > 500_000:
            norm_cache.clear()
        for url, text, lang in zip(urls, texts, langs):
            occ: dict[str, int] = {}
            dets = self.lexicon.detect(
                text, lang=lang,
                target_lexicon=self.lang_lexicons.get(lang),
            )
            if self.with_regex_ner:
                dets = dets + regex_mentions(text)
            for surface, start, end, label in dets:
                norm = norm_cache.get(surface)
                if norm is None:
                    norm = normalize_surface(surface)
                    norm_cache[surface] = norm
                k = occ.get(norm, 0)
                occ[norm] = k + 1
                out["url"].append(url)
                out["mention_id"].append(mention_id_of(url, norm, k))
                out["surface"].append(surface)
                out["norm"].append(norm)
                out["start"].append(start)
                out["end"].append(end)
                out["label"].append(label)
                out["lang"].append(lang)
        return pa.Table.from_pydict(out, schema=MENTION_SCHEMA)


def detector_spec(lexicon: LexiconIndex, with_regex_ner: bool = True,
                  lang_lexicons: dict[str, dict] | None = None):
    """``(key, ref)`` naming one detector: ``ref`` holds the pickled
    inputs, ``key`` is their content digest (never an ObjectRef or
    ``id()``, which name a copy rather than its content)."""
    import ray

    blob = pickle.dumps((lexicon, lang_lexicons or {}, with_regex_ner),
                        protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.blake2b(blob, digest_size=16).hexdigest(), ray.put(blob)


# this worker process's detector: (key, MentionDetector) or None
_WORKER_DETECTOR: tuple[str, MentionDetector] | None = None


def worker_detector(spec) -> MentionDetector:
    """The detector for ``spec``, built at most once per worker process
    while its key stays current; a new key replaces the entry."""
    global _WORKER_DETECTOR
    key, ref = spec
    if _WORKER_DETECTOR is None or _WORKER_DETECTOR[0] != key:
        import ray

        _WORKER_DETECTOR = None  # free the old detector before building
        lexicon, lang_lexicons, with_regex_ner = pickle.loads(ray.get(ref))
        _WORKER_DETECTOR = (key, MentionDetector(lexicon, with_regex_ner,
                                                 lang_lexicons))
    return _WORKER_DETECTOR[1]


def detect_batch(batch: pa.Table, spec) -> pa.Table:
    return worker_detector(spec)(batch)


def mention_stage(ds, lexicon: LexiconIndex, batch_size: int | None = None,
                  with_regex_ner: bool = True,
                  lang_lexicons: dict[str, dict] | None = None):
    """Attach S2 to a (url, text, lang) Dataset as stateless tasks.  The
    default maps each upstream block whole (it fuses with the read and
    extract), so detection runs one task per read block."""
    return ds.map_batches(
        detect_batch,
        fn_kwargs={"spec": detector_spec(lexicon, with_regex_ner, lang_lexicons)},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
