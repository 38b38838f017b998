"""DSIR-style data selection — hashed n-gram importance weights (Xie
et al. 2023, "Data Selection for Language Models via Importance
Resampling").  Score every raw-corpus document by how target-like its
hashed unigram+bigram feature counts are: per-bucket log-ratio of the
target distribution (a designated high-quality slice — here the
deterministic ``source IN _TARGET_SOURCES`` slice, the same
reference-slice convention as ``lm_quality``) against the raw corpus,
add-one smoothed over ``_BUCKETS`` hash buckets.

Semantics (mirrored token-for-token in the SQL oracle):

* tokens = whitespace split of the lowercased text (with repetition);
  features = unigrams + space-joined bigrams, bucketed by
  ``md5_low64(feature) % _BUCKETS`` (DuckDB: ``md5_number_lower``);
* lambda_b = floor(1e6 * (ln((ct_b+1)/(Tt+B)) - ln((cr_b+1)/(Tr+B))))
  — discretised to integer micro-nats BEFORE the per-doc sum, so doc
  weights are order-free integer sums, exactly reproducible across
  engines (the repo's standard float-exactness trick);
* per-doc weight = sum of lambda over all feature OCCURRENCES
  (token-less docs weigh 0); a doc is "selected" when its weight
  exceeds the corpus MEAN weight (sum over all docs / n docs, as a
  float) — the floor discretisation biases every lambda down by up to
  one micro-nat, so an absolute w > 0 cut would be degenerate when
  target and raw distributions are close; the mean-relative cut is the
  resampling top-half and stays a streaming scalar;
* census per language: n_docs, n_selected, sum_weight_micro.

Scale shape: three streaming passes, zero shuffles on data-cardinality
keys.  Pass 1 folds per-batch bucket-count partials on the driver —
the fold is _BUCKETS-sized (the model artifact itself, same memory
class as lm_quality's count table; a Ray groupby over config-sized
partials would pay seconds of fixed shuffle cost for nothing).  The
lambda table is ``ray.put`` once and gathered per batch in passes 2/3
— vectorised map_batches (flat token list + np.add.reduceat per batch,
no per-row Python in the hash path).  Pass 2 folds ONLY the two
scalars the threshold needs (total weight, doc count); pass 3 emits
the per-lang census partials against the now-known threshold (per-doc
weights are never held driver-side — recomputing one cheap hash pass
beats materializing a corpus-sized weight column).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd

from kawa_ray.stages.distinct import fold_groups

_WS = re.compile(r"\s+")
_BUCKETS = 8192
# the "high-quality target corpus" slice — deterministic, no external
# data (DSIR's real target would be e.g. Wikipedia/books)
_TARGET_SOURCES = ("src0", "src1", "src2", "src3")


def _doc_buckets(texts) -> tuple[np.ndarray, np.ndarray]:
    """Flat bucket-id array for all unigram+bigram occurrences of a
    batch of texts, plus per-doc occurrence counts (for reduceat)."""
    from kawa_ray.functions.minhash import md5_low64_many

    feats: list[str] = []
    lens = np.empty(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        toks = _WS.split(text.lower().strip()) if text.strip() else []
        n0 = len(feats)
        feats.extend(toks)
        feats.extend(f"{a} {b}" for a, b in zip(toks, toks[1:]))
        lens[i] = len(feats) - n0
    ids = (md5_low64_many(feats) % _BUCKETS).astype(np.int64)
    return ids, lens


def dsir_selection_census(sf_dir: str):
    """-> per-lang (n_docs, n_selected, sum_weight_micro)."""
    import ray

    from kawa_ray.pipelines.docs import _read_docs

    # pruned reads per pass: the count pass needs (text, source), the
    # weight/score passes only (lang, text)
    docs = _read_docs(sf_dir, ["text", "source"])
    docs_score = _read_docs(sf_dir, ["lang", "text"])

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        ids, lens = _doc_buckets(df["text"])
        is_tgt = np.repeat(
            df["source"].isin(_TARGET_SOURCES).to_numpy(), lens)
        cr = np.bincount(ids, minlength=_BUCKETS)
        ct = np.bincount(ids[is_tgt], minlength=_BUCKETS)
        nz = np.flatnonzero(cr)
        return pd.DataFrame({"b": nz.astype("int64"),
                             "ct": ct[nz].astype("int64"),
                             "cr": cr[nz].astype("int64")})

    ct = np.zeros(_BUCKETS, dtype=np.int64)
    cr = np.zeros(_BUCKETS, dtype=np.int64)
    for b in docs.map_batches(count_partial, batch_format="pandas") \
                 .iter_batches(batch_format="pandas"):
        np.add.at(ct, b["b"].to_numpy(), b["ct"].to_numpy())
        np.add.at(cr, b["b"].to_numpy(), b["cr"].to_numpy())
    tt, tr = int(ct.sum()), int(cr.sum())

    # math.log (glibc, the same libm DuckDB's LN uses — numpy's SIMD
    # log can differ by 1 ulp); buckets no raw feature hits never
    # gather, their lambda stays 0
    lam = np.zeros(_BUCKETS, dtype=np.int64)
    for b in np.flatnonzero(cr):
        lam[b] = math.floor(1_000_000.0 * (
            math.log((int(ct[b]) + 1) / (tt + _BUCKETS))
            - math.log((int(cr[b]) + 1) / (tr + _BUCKETS))))
    lam_ref = ray.put(lam)

    def _weights(df: pd.DataFrame) -> np.ndarray:
        lam_w = ray.get(lam_ref)
        ids, lens = _doc_buckets(df["text"])
        contrib = lam_w[ids]
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        return np.where(lens > 0,
                        np.add.reduceat(np.concatenate((contrib, [0])),
                                        offsets),
                        0).astype(np.int64)

    def weight_partial(df: pd.DataFrame) -> pd.DataFrame:
        w = _weights(df)
        return pd.DataFrame({"sum_w": [int(w.sum())], "n": [len(df)]})

    sum_w, n_docs_total = 0, 0
    for b in docs_score.map_batches(weight_partial, batch_format="pandas") \
                 .iter_batches(batch_format="pandas"):
        sum_w += int(b["sum_w"].sum())
        n_docs_total += int(b["n"].sum())
    # int/int true division — the exact DOUBLE DuckDB's integer
    # division produces for the same two values
    thr = sum_w / n_docs_total

    def score(df: pd.DataFrame) -> pd.DataFrame:
        w = _weights(df)
        return pd.DataFrame({"lang": df["lang"].to_numpy(), "w": w,
                             "sel": (w > thr).astype("int64")})

    return fold_groups(docs_score.map_batches(score, batch_format="pandas"),
                       "lang", {"n_docs": (None, "count"),
                                "n_selected": ("sel", "sum"),
                                "sum_weight_micro": ("w", "sum")})


def _dsir_sql() -> str:
    srcs = ",".join(f"'{s}'" for s in _TARGET_SOURCES)
    B = _BUCKETS
    return f"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
), feat AS (
  SELECT doc_id, md5_number_lower(g) % {B} AS b FROM (
    SELECT doc_id, UNNEST(t) AS g FROM toks
    UNION ALL
    SELECT doc_id, UNNEST(list_transform(range(1, LEN(t)),
                                         i -> t[i] || ' ' || t[i + 1])) AS g
    FROM toks WHERE LEN(t) >= 2
  ) q
), tgt AS (
  SELECT f.b, COUNT(*) AS c FROM feat f JOIN documents d USING (doc_id)
  WHERE d.source IN ({srcs}) GROUP BY f.b
), raw AS (
  SELECT b, COUNT(*) AS c FROM feat GROUP BY b
), tot AS (
  SELECT (SELECT CAST(COALESCE(SUM(c), 0) AS BIGINT) FROM tgt) AS tt,
         (SELECT CAST(COALESCE(SUM(c), 0) AS BIGINT) FROM raw) AS tr
), lam AS (
  SELECT r.b,
         CAST(FLOOR(1000000.0 * (LN((COALESCE(t.c, 0) + 1) / (tt + {B}))
                                 - LN((r.c + 1) / (tr + {B}))))
              AS BIGINT) AS lam
  FROM raw r LEFT JOIN tgt t ON t.b = r.b CROSS JOIN tot
), docw AS (
  SELECT f.doc_id, CAST(SUM(l.lam) AS BIGINT) AS w
  FROM feat f JOIN lam l ON l.b = f.b GROUP BY f.doc_id
), thr AS (
  SELECT CAST(SUM(COALESCE(w.w, 0)) AS BIGINT)
         / CAST(COUNT(*) AS BIGINT) AS t
  FROM documents d LEFT JOIN docw w USING (doc_id)
)
SELECT d.lang, COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN COALESCE(w.w, 0) > (SELECT t FROM thr)
                THEN 1 ELSE 0 END) AS BIGINT) AS n_selected,
       CAST(SUM(COALESCE(w.w, 0)) AS BIGINT) AS sum_weight_micro
FROM documents d LEFT JOIN docw w USING (doc_id)
GROUP BY d.lang ORDER BY d.lang
"""


DSIR_SELECTION_SQL = _dsir_sql()
