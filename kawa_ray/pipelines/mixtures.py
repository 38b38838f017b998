"""Training-mixture operators — deterministic stratified sampling and
source re-weighting, the corpus-composition steps between cleaning and
training (the Pile / Dolma "mixing" stage).

* ``stratified_sample_quota`` — take exactly ``quota`` documents per
  language in a deterministic pseudo-random order (md5 of the doc id,
  == DuckDB ``md5_number_lower(CAST(doc_id AS VARCHAR))``).  The Ray
  shape is the partial-top-k pattern: each batch keeps only its local
  ``quota`` smallest hashes per language, so the merge step sees
  ≤ quota × batches × languages rows — never the corpus.
* ``source_mixture_plan`` — per-source token totals and the sampling
  rate that equalises token share across sources, in integer micro
  units (``rate_micro = min(1e6, target_share*1e6 // source_tokens)``)
  so the oracle is integer-exact.  One partial-aggregate pass; the
  plan itself is a tiny driver-side table, which is the realistic
  shape (mixture plans are config-sized).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from kawa_ray.functions.minhash import md5_low64
from kawa_ray.stages.distinct import fold_groups


def _read_docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def stratified_sample_quota(sf_dir: str, quota: int = 5):
    """Exactly ``quota`` docs per language, ordered by the md5 hash of
    the doc id (deterministic shuffle order, tie-broken by doc_id).
    Output: (lang, rk, doc_id) rows, rk = 1..quota."""
    ds = _read_docs(sf_dir, ["doc_id", "lang"])

    def local_topq(df: pd.DataFrame) -> pd.DataFrame:
        h = np.fromiter((md5_low64(str(int(d))) for d in df["doc_id"]),
                        dtype=np.uint64, count=len(df))
        out = pd.DataFrame({"lang": df["lang"].to_numpy(),
                            "doc_id": df["doc_id"].to_numpy(np.int64),
                            "h": h})
        out = out.sort_values(["lang", "h", "doc_id"])
        return out.groupby("lang", as_index=False).head(quota)

    # streaming driver fold: keep only the running top-quota per
    # language while partials arrive, so driver memory is
    # O(quota x languages) regardless of batch count
    running: dict[str, pd.DataFrame] = {}
    for b in ds.map_batches(local_topq, batch_format="pandas").iter_batches(
            batch_format="pandas"):
        for lang, grp in b.groupby("lang"):
            cur = running.get(lang)
            merged = grp if cur is None else pd.concat([cur, grp])
            merged = merged.sort_values(["h", "doc_id"]).head(quota)
            running[lang] = merged
    if not running:
        return pd.DataFrame({"lang": pd.Series([], dtype=object),
                             "rk": pd.Series([], dtype="int64"),
                             "doc_id": pd.Series([], dtype="int64")})
    sel = pd.concat(running.values(), ignore_index=True)
    sel = sel.sort_values(["lang", "h", "doc_id"]).reset_index(drop=True)
    sel["rk"] = sel.groupby("lang").cumcount() + 1
    sel["rk"] = sel["rk"].astype("int64")
    sel["doc_id"] = sel["doc_id"].astype("int64")
    return sel[["lang", "rk", "doc_id"]].reset_index(drop=True)


def _quota_sql(quota: int = 5) -> str:
    return f"""
SELECT lang,
       CAST(ROW_NUMBER() OVER (
         PARTITION BY lang
         ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
       ) AS BIGINT) AS rk,
       doc_id
FROM documents
QUALIFY rk <= {quota}
ORDER BY lang, rk
"""


STRATIFIED_SAMPLE_SQL = _quota_sql()


def source_mixture_plan(sf_dir: str):
    """Per-source token totals + the rate (micro units) that would
    equalise token share across sources: rate = min(1, target/actual)
    where target = total_tokens / n_sources.  Upsampling is left at
    rate 1e6 (sources below target are not repeated — the usual
    down-sample-only plan)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _read_docs(sf_dir, ["text", "source"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.list_value_length(pc.split_pattern_regex(
            pc.utf8_trim_whitespace(t.column("text")), r"\s+"))
        empty = pc.equal(pc.utf8_trim_whitespace(t.column("text")), "")
        toks = pc.if_else(empty, pa.scalar(0, pa.int32()), toks)
        return pa.table({"source": t.column("source"), "n_tokens": toks})

    out = fold_groups(ds.map_batches(partial, batch_format="pyarrow"), "source",
                      {"n_tokens": ("n_tokens", "sum"), "n_docs": (None, "count")})
    total = int(out["n_tokens"].sum())
    n_sources = len(out)
    # integer micro-rate: floor((total/n_sources) * 1e6 / source_tokens)
    target_micro = (total * 1_000_000) // n_sources
    out["rate_micro"] = np.minimum(
        1_000_000,
        target_micro // np.maximum(out["n_tokens"].to_numpy(np.int64), 1),
    ).astype("int64")
    return out[["source", "n_docs", "n_tokens", "rate_micro"]]


SOURCE_MIXTURE_SQL = """
WITH per_source AS (
  SELECT source, COUNT(*) AS n_docs,
         CAST(SUM(CASE WHEN TRIM(text, ' \t\n\r') = '' THEN 0
                       ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r'), '\\s+'))
                  END) AS BIGINT) AS n_tokens
  FROM documents
  GROUP BY source
), tot AS (
  SELECT CAST(SUM(n_tokens) AS BIGINT) AS total,
         COUNT(*) AS n_sources
  FROM per_source
)
SELECT source, n_docs, n_tokens,
       LEAST(1000000,
             ((total * 1000000) // n_sources) // GREATEST(n_tokens, 1))
         AS rate_micro
FROM per_source, tot
ORDER BY source
"""


def pack_sequences_plan(sf_dir: str, seq_len: int = 512, range_size: int = 4096,
                        partitions: int = 64):
    """Concat-and-split sequence packing plan (the GPT-style "pack the
    token stream into fixed-length training sequences" step): documents
    concatenated in doc_id order, cut every ``seq_len`` tokens.  Census
    per language: docs, tokens, and docs straddling a sequence boundary.

    The global prefix sum is reconstructed distributedly: pass 1 folds
    per-range token sums (range = doc_id // range_size) into range
    offsets on the driver (one int per range — size the driver table
    with ``range_size``: at 10^12 docs, range_size=10^6 keeps it at
    10^6 offsets); pass 2 shuffles doc rows by range bucket and
    computes each doc's global start as range_offset + in-range prefix
    — no stage ever sees the whole stream, and the only shuffle is the
    range-bucket hash partition."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from kawa_ray.stages.distinct import partition_reduce

    ds = _read_docs(sf_dir, ["doc_id", "text", "lang"])

    def doc_rows(t: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(t.column("text"))
        toks = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
        toks = pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, pa.int32()), toks)
        doc_id = pc.cast(t.column("doc_id"), pa.int64())
        rng = pc.divide(doc_id, range_size)
        return pa.table({"doc_id": doc_id, "lang": t.column("lang"),
                         "n_tok": pc.cast(toks, pa.int64()),
                         "rng": pc.cast(rng, pa.int64())})

    # LAZY on purpose (round-4 VERDICT item 4): the two consumers below
    # re-run this one cheap regex pass instead of pinning an
    # O(n_docs) rows table in the object store — at 100-TB doc counts
    # recompute is the right trade (the linkage pin-or-spill rule).
    rows = ds.map_batches(doc_rows, batch_format="pyarrow")

    # pass 1: per-range token sums -> global offsets (driver fold over
    # one partial row per range per block)
    sums = fold_groups(rows, "rng", {"s": ("n_tok", "sum")})
    off_ref = ray.put({int(r): int(o) for r, o in
                       zip(sums["rng"], sums["s"].cumsum() - sums["s"])})

    def per_partition(g: pd.DataFrame, _ref=off_ref) -> pd.DataFrame:
        offs = ray.get(_ref)
        out = []
        for r, grp in g.groupby("rng", sort=False):
            grp = grp.sort_values("doc_id")
            tok = grp["n_tok"].to_numpy(np.int64)
            start = offs[int(r)] + np.concatenate(
                [[0], np.cumsum(tok[:-1])]) if tok.size else np.zeros(0, np.int64)
            straddle = (tok >= 1) & (start // seq_len != (start + tok - 1) // seq_len)
            out.append(pd.DataFrame({
                "lang": grp["lang"].to_numpy(),
                "n_docs": 1,
                "n_tokens": tok,
                "n_straddling": straddle.astype(np.int64),
            }))
        if not out:
            return pd.DataFrame({"lang": [], "n_docs": [], "n_tokens": [],
                                 "n_straddling": []})
        return pd.concat(out, ignore_index=True).groupby(
            "lang", as_index=False).sum()

    acc2: dict[str, list[int]] = {}
    folded = partition_reduce(rows, "rng", per_partition, partitions)
    for b in folded.iter_batches(batch_format="pandas"):
        for lang, nd, nt, ns in zip(b["lang"], b["n_docs"],
                                    b["n_tokens"], b["n_straddling"]):
            a = acc2.setdefault(lang, [0, 0, 0])
            a[0] += int(nd); a[1] += int(nt); a[2] += int(ns)
    out = pd.DataFrame(
        [(lg, a[0], a[1], a[2]) for lg, a in acc2.items()],
        columns=["lang", "n_docs", "n_tokens", "n_straddling"])
    for c in ("n_docs", "n_tokens", "n_straddling"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def _pack_sql(seq_len: int = 512) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, lang,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN 0
              ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r'), '\\s+'))
              END AS n_tok
  FROM documents
), o AS (
  SELECT doc_id, lang, n_tok,
         COALESCE(SUM(n_tok) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS start
  FROM toks
)
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(n_tok) AS BIGINT) AS n_tokens,
       CAST(SUM(CASE WHEN n_tok >= 1
                      AND (start // {seq_len}) != ((start + n_tok - 1) // {seq_len})
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_straddling
FROM o
GROUP BY lang
ORDER BY lang
"""


PACK_SEQUENCES_SQL = _pack_sql()


def source_divergence(sf_dir: str):
    """Distribution-drift QA for the mixture: per-source KL divergence
    of the token distribution against the corpus-wide distribution —
    the "did this source drift from the corpus?" monitor a mixture
    pipeline runs per ingest.  KL(source ‖ corpus) =
    Σ_t p_s(t) · ln(p_s(t)/p(t)); each token's term is discretised to
    nano units with ``math.floor`` BEFORE summing (order-free integer
    sum, and math.log == DuckDB LN), so the oracle is exact.  One
    streaming count pass; the (source × vocabulary) count table folds
    on the driver (the same memory class as the distributions being
    compared)."""
    import math

    docs = _read_docs(sf_dir, ["text", "source"])

    def token_rows(df: pd.DataFrame) -> pd.DataFrame:
        flat = df["text"].str.lower().str.split().explode()
        flat = flat[flat.notna()]
        return pd.DataFrame({"source": df["source"].reindex(flat.index).to_numpy(),
                             "token": flat.to_numpy(dtype=object)})

    counts = fold_groups(docs.map_batches(token_rows, batch_format="pandas"),
                         ["source", "token"], {"c": (None, "count")})
    n_s = counts["source"].map(counts.groupby("source")["c"].sum())
    c_g = counts["token"].map(counts.groupby("token")["c"].sum())
    n = float(counts["c"].sum())
    counts["kl"] = [
        math.floor((c / ns) * math.log((c * n) / (ns * cg)) * 1_000_000_000.0)
        for c, ns, cg in zip(counts["c"].astype(float), n_s.astype(float),
                             c_g.astype(float))]
    return counts.groupby("source", as_index=False).agg(
        n_tokens=("c", "sum"), kl_nano=("kl", "sum"))


SOURCE_DIVERGENCE_SQL = """
WITH toks AS (
  SELECT source,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
), u AS (
  SELECT source, UNNEST(t) AS w FROM toks
), sc AS (
  SELECT source, w, CAST(COUNT(*) AS BIGINT) AS c FROM u GROUP BY 1, 2
), ns AS (
  SELECT source, CAST(SUM(c) AS BIGINT) AS n_s FROM sc GROUP BY 1
), g AS (
  SELECT w, CAST(SUM(c) AS BIGINT) AS cg FROM sc GROUP BY 1
), tot AS (
  SELECT CAST(SUM(c) AS BIGINT) AS n FROM sc
)
SELECT sc.source, ns.n_s AS n_tokens,
       CAST(SUM(CAST(FLOOR(
         (CAST(sc.c AS DOUBLE) / CAST(ns.n_s AS DOUBLE))
         * LN(CAST(sc.c AS DOUBLE) * CAST(tot.n AS DOUBLE)
              / (CAST(ns.n_s AS DOUBLE) * CAST(g.cg AS DOUBLE)))
         * 1000000000.0) AS BIGINT)) AS BIGINT) AS kl_nano
FROM sc
JOIN ns USING (source)
JOIN g ON g.w = sc.w
CROSS JOIN tot
GROUP BY sc.source, ns.n_s
ORDER BY sc.source
"""
