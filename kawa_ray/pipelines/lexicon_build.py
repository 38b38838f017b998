"""Distributed lexicon build: the reference's ``add_to_ontology`` loop
(/root/reference/ontology/ontology_manager.py:361-548, SURVEY.md §2.1 M5)
as a Ray Data pipeline — shingle emission in ``map_batches``, per-key
majority vote in a key-partitioned ``partition_reduce``, misclassified idxs
re-queued to the next (more precise) level by the driver loop.

Bit-for-bit equal to ``LexiconIndex.build``: every order-sensitive fold
(float weight sums, prefix span-bound updates) is replayed inside its
group sorted by the original emission sequence number, so distributed
execution cannot flip a near-tie that the single-process build resolves
by input order.  Equality is asserted in tests/test_lexicon_distributed.py.

The per-level groupby shuffles (shingle_key, bucket) — lexicon-sized,
not corpus-sized; the assembled artifact is then frozen and broadcast to
the detection workers exactly like the single-process build.
"""

from __future__ import annotations

import math

import pandas as pd
import pyarrow as pa

import ray.data as rd

from kawa_ray.config import (
    LEXICON_DEPTH,
    LABEL_WEIGHT_FACTORS,
    TRANNUM,
    level_to_shingle_cutoff,
)
from kawa_ray.functions.text import canonical_word, word_shingles
from kawa_ray.state.lexicon import LexiconIndex

# wide enough for every shingle of one row (word_shingles emits <= ~8)
_SEQ_STRIDE = 64


def _normalize_rows(word2ner, stopwords) -> list[list]:
    """Same normalisation as LexiconIndex.build: [word, LABEL, weight, idx]."""
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
        w, _ = canonical_word(word, stopwords, do_lower=True)
        rows.append([w, label, weight, idx])
    return rows


def _emit_shingles(batch: pa.Table, *, cutoff: int, conn: str, step: int,
                   weight_factors: dict[str, float]) -> pa.Table:
    """Per-row shingle emission with the length-prior weight
    (reference ontology_manager.py:426-462)."""
    out = {k: [] for k in ("key", "bucket", "prefix", "n", "label", "idx",
                            "weight", "seq")}
    for row in batch.to_pylist():
        word, label, orig_weight, idx, pos = (
            row["word"], row["label"], row["weight"], row["idx"], row["pos"]
        )
        lword = word.translate(TRANNUM)
        word_arr = lword.split(conn)
        n = len(word_arr)
        if n == 0:
            continue
        orig_lens = len(lword) + n
        if orig_weight:
            weight = orig_weight + 1.0 / (1.0 + math.sqrt(orig_lens))
        else:
            weight = 1.0 + 1.0 / (1.0 + math.sqrt(orig_lens))
            weight *= weight_factors.get(label, 1.0)
        bucket = n // (step + 1)
        for si, shingle in enumerate(
            word_shingles(word_arr, cutoff=cutoff, compound_word_step=step)
        ):
            if not shingle:
                continue
            out["key"].append(conn.join(shingle))
            out["bucket"].append(bucket)
            out["prefix"].append(shingle[0])
            out["n"].append(n)
            out["label"].append(label)
            out["idx"].append(idx)
            out["weight"].append(weight)
            out["seq"].append(pos * _SEQ_STRIDE + si)
    return pa.Table.from_pydict(
        out,
        schema=pa.schema(
            [("key", pa.string()), ("bucket", pa.int32()), ("prefix", pa.string()),
             ("n", pa.int32()), ("label", pa.string()), ("idx", pa.int64()),
             ("weight", pa.float64()), ("seq", pa.int64())]
        ),
    )


def _vote_group(g: pd.DataFrame) -> pd.DataFrame:
    """Per-(key,bucket) majority vote (reference ontology_manager.py:455-486).
    Rows are replayed in emission order so float sums match the
    single-process fold bit-for-bit."""
    g = g.sort_values("seq")
    idxs: dict[str, list[int]] = {}
    cnts: dict[str, float] = {}
    for label, idx, weight in zip(g["label"], g["idx"], g["weight"]):
        idxs.setdefault(label, []).append(int(idx))
        cnts[label] = cnts.get(label, 0.0) + float(weight)
    win = max(cnts.items(), key=lambda kv: (kv[1], kv[0]))[0]
    right = idxs[win]
    wrong = [i for lab, lst in idxs.items() if lab != win for i in lst]
    key = g["key"].iloc[0]
    bucket = int(g["bucket"].iloc[0])
    if len(wrong) > len(right):
        req = sorted(set(right) | set(wrong))
        return pd.DataFrame(
            {"key": [key] * len(req), "bucket": [bucket] * len(req),
             "label": [""] * len(req), "requeue_idx": req, "resolved": False}
        )
    req = sorted(set(wrong) | set(sorted(right)[: len(wrong)])) if wrong else []
    rows = {
        "key": [key] + [key] * len(req),
        "bucket": [bucket] * (1 + len(req)),
        "label": [win] + [""] * len(req),
        "requeue_idx": [-1] + req,
        "resolved": [True] + [False] * len(req),
    }
    return pd.DataFrame(rows)


def _bounds_group(g: pd.DataFrame) -> pd.DataFrame:
    """Per-prefix span-bound fold in emission order
    (reference ontology_manager.py:460-462 — order-sensitive: a trailing
    n==2 update pins the min bound to 2)."""
    g = g.sort_values("seq")
    mx, mn = 1, 100
    for n in g["n"]:
        n = int(n)
        mx = max(n, mx)
        mn = 2 if n == 2 else min(max(n - 1, 1), mn)
    return pd.DataFrame({"prefix": [g["prefix"].iloc[0]], "max_n": [mx], "min_n": [mn]})


def build_lexicon_distributed(
    word2ner,
    depth: int = LEXICON_DEPTH,
    weight_factors: dict[str, float] | None = None,
    stopwords: frozenset[str] | None = None,
) -> LexiconIndex:
    """Ray-distributed equivalent of ``LexiconIndex.build``."""
    if weight_factors is None:
        weight_factors = LABEL_WEIGHT_FACTORS
    sw = stopwords if stopwords is not None else frozenset()
    rows = _normalize_rows(word2ner, sw)
    idx2row = {r[3]: r for r in rows}

    index = LexiconIndex(levels=[])
    conn, step = index.connector, index.compound_word_step

    pending = rows
    for level_no in range(depth):
        cutoff = level_to_shingle_cutoff(level_no)
        tbl = pa.table(
            {
                "word": [r[0] for r in pending],
                "label": [r[1] for r in pending],
                "weight": [r[2] for r in pending],
                "idx": [r[3] for r in pending],
                "pos": list(range(len(pending))),
            }
        )
        ds = rd.from_arrow(tbl)
        emitted = ds.map_batches(
            lambda b, c=cutoff: _emit_shingles(
                b, cutoff=c, conn=conn, step=step, weight_factors=weight_factors
            ),
            batch_format="pyarrow",
        ).materialize()  # reused by the vote AND bounds branches

        # keys/prefixes are lexicon-cardinality: hash-partitioned reduce
        # (the stages/distinct.py rule), with the order-sensitive
        # per-group folds run in-batch — partitioning on "key" alone
        # co-locates every (key, bucket) group
        from kawa_ray.stages.distinct import partition_reduce

        def _votes_part(g: pd.DataFrame) -> pd.DataFrame:
            frames = [_vote_group(sub) for _, sub in
                      g.groupby(["key", "bucket"], sort=False)]
            return pd.concat(frames, ignore_index=True)

        def _bounds_part(g: pd.DataFrame) -> pd.DataFrame:
            frames = [_bounds_group(sub) for _, sub in
                      g.groupby("prefix", sort=False)]
            return pd.concat(frames, ignore_index=True)

        votes = partition_reduce(
            emitted, "key", _votes_part).to_pandas()  # lexicon-key sized
        bounds = partition_reduce(emitted, "prefix", _bounds_part).to_pandas()

        # assemble the level dict exactly like _build_level
        level: dict = {
            p: [int(mx), int(mn)]
            for p, mx, mn in zip(bounds["prefix"], bounds["max_n"], bounds["min_n"])
        }
        index.levels.append(level)
        resolved = votes[votes["resolved"]]
        for key, bucket, label in zip(resolved["key"], resolved["bucket"], resolved["label"]):
            prefix = key.split(conn, 1)[0]
            rec = level.get(prefix)
            if rec is None:
                continue
            if len(rec) == 2:
                rec.extend(({}, {}, {}, {}))
            slot = rec[2 + min(3, int(bucket))]
            rest = "*" + conn + key.split(conn, 1)[1] if conn in key else "*"
            slot[rest] = label
        for k in [k for k, v in level.items() if len(v) <= 2]:
            del level[k]

        requeue_idx = set(int(i) for i in votes.loc[votes["requeue_idx"] >= 0, "requeue_idx"])
        if level_no < depth - 1:
            if len(requeue_idx) > len(pending) / 2:
                index.levels[-1] = {}
                # pending unchanged (reference ontology_manager.py:519-522)
            else:
                pending = [idx2row[i] for i in sorted(requeue_idx)]
            if not pending:
                for _ in range(level_no + 1, depth):
                    index.levels.append({})
                break

    # residual self-check, distributed: lookup every input word against the
    # built levels (broadcast via closure), collect mismatches (small)
    import ray

    idx_ref = ray.put(index.to_bytes())
    check_tbl = pa.table(
        {
            "word": [r[0] for r in rows],
            "label": [r[1] for r in rows],
            "pos": list(range(len(rows))),
        }
    )

    def check(batch: pa.Table, _ref=idx_ref) -> pa.Table:
        ix = LexiconIndex.from_bytes(ray.get(_ref))
        out = {"word": [], "label": [], "pos": []}
        for row in batch.to_pylist():
            _, got = ix.lookup(row["word"], check_caps=False)
            if got != row["label"]:
                out["word"].append(row["word"])
                out["label"].append(row["label"])
                out["pos"].append(row["pos"])
        return pa.Table.from_pydict(
            out, schema=pa.schema([("word", pa.string()), ("label", pa.string()),
                                   ("pos", pa.int64())])
        )

    miss = rd.from_arrow(check_tbl).map_batches(check, batch_format="pyarrow").to_pandas()
    if miss.empty:
        miss = pd.DataFrame({"word": [], "label": [], "pos": []})
    miss = miss.sort_values("pos")  # replay in input order (dict-build order)
    residual: dict = {}
    res_bounds: dict[str, list[int]] = {}
    cutoff0 = level_to_shingle_cutoff(0)
    for w, label in zip(miss["word"], miss["label"]):
        residual[w] = label
        residual[w.translate(TRANNUM)] = label
        folded = w.translate(TRANNUM).split(conn)
        prefix = folded[0][:cutoff0]
        n = len(folded)
        prev = res_bounds.get(prefix, [1, 100])
        res_bounds[prefix] = [max(n, prev[0]), 2 if n == 2 else min(max(n - 1, 1), prev[1])]
    index.residual = residual
    index.residual_bounds = res_bounds
    return index
