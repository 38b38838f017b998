"""Exact-substring duplicate-span detection (token-level winnowing).

The dedup semantic of Lee et al. 2021 ("Deduplicating Training Data
Makes Language Models Better"): find exact duplicated token runs shared
across (or repeated within) documents and measure how much of each
document they cover.  The suffix-array construction the paper uses is
replaced with the MOSS/winnowing content-defined selection (Schleimer
et al. 2003) over token k-grams: winnowing picks the same (gram hash,
run-relative offset) fingerprints for a given token run wherever it
appears, so any duplicated run of >= K_TOKENS + W_WINDOW - 1 tokens is
guaranteed to share a selected fingerprint with its twin regardless of
alignment — the property fixed-stride chunk hashing lacks (two copies
at different offsets mod stride never share a chunk).

Shape (all stages bounded; no corpus-space driver state):

1. ``map_batches``: per doc, hash every K-token gram (md5 low64),
   winnow with window W keeping (min hash, first-argmin position),
   emit occurrence rows — ~2/W per token, corpus-proportional.
2. ONE hash-partition shuffle on the fingerprint: a whole fingerprint
   lands in one partition, so a per-partition count is global; keep
   occurrences whose fingerprint appears >= 2 times (cross-doc or
   within-doc repeat).  Flagged-occurrence space is duplicate-sized.
3. Hash-partition by doc, merge flagged gram intervals
   [pos, pos + K) per doc -> duplicated-token counts.
4. Census per language: docs, total tokens, docs with a duplicated
   span, duplicated tokens.  Exact SQL oracle (window MIN + argmin
   join + gaps-and-islands interval merge).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from numpy.lib.stride_tricks import sliding_window_view

from kawa_ray.functions.minhash import md5_low64
from kawa_ray.pipelines.docs import _PAIR_PARTITIONS, _WS, _read_docs
from kawa_ray.stages.distinct import fold_groups, partition_reduce

K_TOKENS = 8   # tokens per gram
W_WINDOW = 4   # winnow window (grams); detects runs >= K_TOKENS + W_WINDOW - 1


def winnow_select(hs: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Robust-winnowing selection over one doc's gram-hash array: for
    every full window of ``w`` consecutive gram hashes keep (window min,
    absolute gram position of its first argmin).  Pure kernel shared by
    the pipeline and tests/test_properties.py, where the Schleimer et
    al. guarantee — any shared token run of >= k + w - 1 tokens yields
    a shared selected fingerprint regardless of alignment — is
    hypothesis-tested directly against this function.

    Returns ``(sel_fp, pos)``: the int64-shifted fingerprint per window
    (top bit xor — int64 columns can't carry uint64 > 2^63;
    distinctness, all downstream stages need, survives) and the
    selected absolute position per window (SQL parity: MIN(i) at wmin).
    Callers dedupe repeated (fp, pos) pairs across overlapping windows.
    """
    win = sliding_window_view(hs, w)
    mins = win.min(axis=1)
    pos = win.argmin(axis=1) + np.arange(win.shape[0])
    sel_fp = (mins ^ np.uint64(1 << 63)).view(np.int64)
    return sel_fp, pos


def doc_substring_dup_census(sf_dir: str, k: int = K_TOKENS, w: int = W_WINDOW):
    """-> per-lang (lang, n_docs, total_tokens, docs_with_dups, dup_tokens)."""
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])
    P = _PAIR_PARTITIONS

    # TWO streaming passes, NO materialize (the round-4 winnow shape):
    # the doc/token census pass only SPLITS tokens — no md5 — so the
    # expensive gram hashing runs exactly once, in the occurrence pass,
    # and the occurrence stream (corpus x 2/W-per-token rows, the big
    # intermediate) flows straight into its fp-partition shuffle instead
    # of being pinned in the object store for two consumers.
    def doc_partial(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        n_toks = [len(_WS.split(x.strip())) if x.strip() else 0 for x in texts]
        return pa.table({"lang": t.column("lang"),
                         "n": pa.array(n_toks, pa.int64())})

    def emit_occ(t: pa.Table) -> pa.Table:
        cols = {c: [] for c in ("doc_id", "lang", "fp", "start")}

        # batch-deduped md5 in bounded chunks (md5_low64_per_doc —
        # repeated grams hash once, peak gram-string memory capped),
        # then per-doc winnowing over the aligned hash arrays
        from kawa_ray.functions.minhash import md5_low64_per_doc

        doc_ids = t.column("doc_id").to_pylist()
        langs = t.column("lang").to_pylist()
        texts = t.column("text").to_pylist()
        tok_lists = [_WS.split(x.strip()) if x.strip() else [] for x in texts]

        def per_doc():
            for toks in tok_lists:
                n_grams = len(toks) - k + 1
                yield ([" ".join(toks[i:i + k]) for i in range(n_grams)]
                       if n_grams >= w else [])

        for doc_id, lang, hs in zip(doc_ids, langs,
                                    md5_low64_per_doc(per_doc())):
            if not hs.size:
                continue
            sel_fp, pos = winnow_select(hs, w)
            seen = set()
            for f, p in zip(sel_fp.tolist(), pos.tolist()):
                if (f, p) not in seen:
                    seen.add((f, p))
                    cols["doc_id"].append(doc_id)
                    cols["lang"].append(lang)
                    cols["fp"].append(f)
                    cols["start"].append(p)
        return pa.table({
            "doc_id": pa.array(cols["doc_id"], pa.int64()),
            "lang": pa.array(cols["lang"], pa.string()),
            "fp": pa.array(cols["fp"], pa.int64()),
            "start": pa.array(cols["start"], pa.int64()),
        })

    # per-lang doc/token totals over ALL docs (corpus-space, distributed)
    lang_tot = fold_groups(ds.map_batches(doc_partial, batch_format="pyarrow"),
                           "lang", {"n_docs": (None, "count"),
                                    "total_tokens": ("n", "sum")})

    # stage 2: fingerprint-partitioned duplicate flagging.  The partition
    # hash routes every occurrence of one fingerprint to one partition,
    # so the in-partition count is the global count.
    def flag_part(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("fp", sort=False)["doc_id"].transform("size")
        kept = g.loc[sizes >= 2, ["doc_id", "lang", "start"]]
        return kept.reset_index(drop=True)

    flagged = partition_reduce(ds.map_batches(emit_occ, batch_format="pyarrow"),
                               "fp", flag_part, P)

    # stage 3: doc-partitioned merged-interval lengths
    def spans_part(g: pd.DataFrame) -> pd.DataFrame:
        out_lang, out_dup = [], []
        out_doc = []
        for doc_id, grp in g.groupby("doc_id", sort=False):
            starts = np.sort(grp["start"].to_numpy())
            dup = 0
            cur_s = cur_e = None
            for s in starts.tolist():
                e = s + k
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        dup += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                dup += cur_e - cur_s
            out_doc.append(int(doc_id))
            out_lang.append(grp["lang"].iloc[0])
            out_dup.append(int(dup))
        return pd.DataFrame({"doc_id": pd.Series(out_doc, dtype="int64"),
                             "lang": out_lang,
                             "dup_tokens": pd.Series(out_dup, dtype="int64")})

    per_doc = partition_reduce(flagged, "doc_id", spans_part, P)
    dup_by_lang = fold_groups(per_doc, "lang",
                              {"docs_with_dups": (None, "count"),
                               "dup_tokens": ("dup_tokens", "sum")})
    if dup_by_lang.empty:  # an empty fold is all int64; lang is str
        dup_by_lang = pd.DataFrame(
            {"lang": pd.Series([], dtype="str"),
             "docs_with_dups": pd.Series([], dtype="int64"),
             "dup_tokens": pd.Series([], dtype="int64")}
        )

    out = lang_tot.merge(dup_by_lang, on="lang", how="left")
    out["docs_with_dups"] = out["docs_with_dups"].fillna(0).astype("int64")
    out["dup_tokens"] = out["dup_tokens"].fillna(0).astype("int64")
    return out[["lang", "n_docs", "total_tokens", "docs_with_dups", "dup_tokens"]]


SUBSTRING_DUP_SQL = f"""
WITH docs AS (
  -- the TRIM char set is REAL tab/newline/CR characters (Python escape
  -- processing), matching str.strip(); '\\s+' stays escaped for RE2
  SELECT doc_id, lang,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN []
              ELSE REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')
         END AS toks
  FROM documents
), dl AS (
  SELECT doc_id, lang, LEN(toks) AS n_tokens, toks FROM docs
), grams AS (
  -- i is the 0-based gram position (matches the Ray side)
  SELECT doc_id, i,
         md5_number_lower(ARRAY_TO_STRING(toks[CAST(i + 1 AS INT):CAST(i + {K_TOKENS} AS INT)], ' ')) AS h,
         n_tokens - {K_TOKENS} + 1 AS n_grams
  FROM dl, UNNEST(range(0, n_tokens - {K_TOKENS} + 1)) AS u(i)
  WHERE n_tokens >= {K_TOKENS} + {W_WINDOW} - 1
), wins AS (
  SELECT doc_id, i AS j, n_grams,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND {W_WINDOW - 1} FOLLOWING) AS wmin
  FROM grams
), sel AS (
  -- first-argmin position inside each full window (numpy argmin parity)
  SELECT DISTINCT w.doc_id, w.wmin AS h, MIN(g.i) AS pos
  FROM (SELECT * FROM wins WHERE j <= n_grams - {W_WINDOW}) w
  JOIN grams g
    ON g.doc_id = w.doc_id AND g.i BETWEEN w.j AND w.j + {W_WINDOW - 1}
   AND g.h = w.wmin
  GROUP BY w.doc_id, w.j, w.wmin
), occ AS (
  SELECT DISTINCT doc_id, h, pos FROM sel
), flagged AS (
  SELECT doc_id, pos FROM occ
  WHERE h IN (SELECT h FROM occ GROUP BY h HAVING COUNT(*) >= 2)
), isl AS (
  SELECT doc_id, pos,
         CASE WHEN pos > COALESCE(MAX(pos + {K_TOKENS}) OVER (
                PARTITION BY doc_id ORDER BY pos
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), -1)
              THEN 1 ELSE 0 END AS brk
  FROM flagged
), isl2 AS (
  SELECT doc_id, pos,
         SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos
                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS island
  FROM isl
), merged AS (
  SELECT doc_id, MAX(pos + {K_TOKENS}) - MIN(pos) AS span_tokens
  FROM isl2 GROUP BY doc_id, island
), per_doc AS (
  SELECT doc_id, CAST(SUM(span_tokens) AS BIGINT) AS dup_tokens
  FROM merged GROUP BY doc_id
)
SELECT d.lang,
       COUNT(*) AS n_docs,
       CAST(SUM(d.n_tokens) AS BIGINT) AS total_tokens,
       COUNT(p.doc_id) AS docs_with_dups,
       CAST(COALESCE(SUM(p.dup_tokens), 0) AS BIGINT) AS dup_tokens
FROM dl d LEFT JOIN per_doc p USING (doc_id)
GROUP BY d.lang ORDER BY d.lang
"""
