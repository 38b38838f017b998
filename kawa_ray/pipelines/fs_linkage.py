"""Probabilistic record linkage: Fellegi–Sunter match weights via EM.

Beyond-reference ER operator (the reference links surfaces through its
lexicon + cosine channel only; production entity resolution at corpus
scale — Splink, fastLink, the 1969 Fellegi–Sunter model — estimates
per-field match/non-match probabilities from the *pair-pattern counts*
themselves, unsupervised, then scores every pair with the learned log
weights).  The shape is exactly right for Ray Data because EM never
touches pairs individually:

1. feature pass       — ``map_batches`` derives the comparison fields
                        (vectorized pandas),
2. blocked self-join  — hash-partition on the block key, per-partition
                        pandas merge generates within-block pairs and
                        their binary agreement vectors, then collapses
                        them to **pattern counts** before anything
                        leaves the worker (≤ 2^k rows per partition),
3. tiny shuffle       — ``groupby(pattern).sum`` over ≤ 2^k rows,
4. driver EM          — closed-form m/u/λ updates over the pattern
                        table (2^k rows, k fields — microseconds),
5. (at scale) weights broadcast back into a ``map_batches`` scorer.

At 100 TB the only corpus-sized work is step 2, and it is the standard
blocked-pair generation this repo already bounds (capped exploded
blocks, salted hot keys — ``kawa_ray/stages/pairs.py``); EM itself can
run on a deterministic modulo-sample of pairs (``sample_mod``) since it
only needs pattern *proportions*.

Everything is deterministic and the EM recurrence is SQL-expressible:
``FS_MATCH_WEIGHTS_SQL`` unrolls the fixed two EM iterations as CTEs so
DuckDB reproduces λ/m/u bit-for-bit up to float summation order; both
sides emit floor-discretised micro units (``floor(1e6·x)`` — the same
half-even-vs-half-away dodge used by the quality/sketch oracles).
"""

from __future__ import annotations

import math
import os

import pandas as pd

import ray.data as rd

from kawa_ray.stages.distinct import fold_groups, partition_reduce

# fixed EM spec (part of the operator contract; mirrored by the SQL)
_LAMBDA0 = 0.1
_M0 = 0.9
_U0 = 0.1
_ITERS = 2
_BAL_CENTS_WINDOW = 50_000  # |Δ acctbal| < $500, compared in integer cents


def _features(df: pd.DataFrame) -> pd.DataFrame:
    """Comparison fields, all integer/string exact (cents, not floats)."""
    return pd.DataFrame(
        {
            "id": df["c_custkey"].astype("int64"),
            "blk": df["c_nationkey"].astype("int64"),
            "seg": df["c_mktsegment"],
            "bal_c": (df["c_acctbal"] * 100).round().astype("int64"),
            "suf": df["c_name"].str[-2:],
        }
    )


def _pattern_counts(g: pd.DataFrame) -> pd.DataFrame:
    """One hash partition of blocks -> within-block pair agreement
    pattern counts (vectorized merge; output ≤ 8 rows per partition)."""
    out = []
    for _, blk in g.groupby("blk", sort=False):
        p = blk.merge(blk, on="blk", suffixes=("_a", "_b"))
        p = p[p["id_a"] < p["id_b"]]
        if not len(p):
            continue
        pat = pd.DataFrame(
            {
                "g_seg": (p["seg_a"] == p["seg_b"]).astype("int64"),
                "g_bal": ((p["bal_c_a"] - p["bal_c_b"]).abs() < _BAL_CENTS_WINDOW).astype("int64"),
                "g_suf": (p["suf_a"] == p["suf_b"]).astype("int64"),
            }
        )
        out.append(
            pat.groupby(["g_seg", "g_bal", "g_suf"], as_index=False).size()
            .rename(columns={"size": "n"})
        )
    if not out:
        return pd.DataFrame(
            {"g_seg": pd.Series(dtype="int64"), "g_bal": pd.Series(dtype="int64"),
             "g_suf": pd.Series(dtype="int64"), "n": pd.Series(dtype="int64")}
        )
    return pd.concat(out, ignore_index=True)


def fs_em(patterns: list[tuple[int, ...]], counts: list[int],
          lam: float = _LAMBDA0, m0: float = _M0, u0: float = _U0,
          iters: int = _ITERS):
    """Fellegi–Sunter EM over pattern counts (conditional independence).

    Returns ``(lam, m, u, posteriors)`` after ``iters`` closed-form
    updates.  Pure function over the ≤ 2^k-row pattern table — this is
    the whole "driver-side" cost of the operator.
    """
    k = len(patterns[0]) if patterns else 0
    m = [m0] * k
    u = [u0] * k
    post = []
    for _ in range(iters):
        post = []
        for g in patterns:
            num_m = lam
            num_u = 1.0 - lam
            for j in range(k):
                num_m *= m[j] if g[j] else 1.0 - m[j]
                num_u *= u[j] if g[j] else 1.0 - u[j]
            post.append(num_m / (num_m + num_u))
        total = float(sum(counts))
        wm = sum(p * c for p, c in zip(post, counts))
        wu = sum((1.0 - p) * c for p, c in zip(post, counts))
        lam = wm / total
        m = [sum(p * c * g[j] for p, c, g in zip(post, counts, patterns)) / wm
             for j in range(k)]
        u = [sum((1.0 - p) * c * g[j] for p, c, g in zip(post, counts, patterns)) / wu
             for j in range(k)]
    # final posteriors + log2 match weights under the updated parameters
    post = []
    weight = []
    for g in patterns:
        num_m = lam
        num_u = 1.0 - lam
        w = 0.0
        for j in range(k):
            mm = m[j] if g[j] else 1.0 - m[j]
            uu = u[j] if g[j] else 1.0 - u[j]
            num_m *= mm
            num_u *= uu
            w += math.log2(mm / uu)
        post.append(num_m / (num_m + num_u))
        weight.append(w)
    return lam, m, u, post, weight


def fs_match_weights(sf_dir: str) -> pd.DataFrame:
    """EM-estimated FS pattern table over nation-blocked customer pairs.

    Output: one row per observed agreement pattern with its pair count,
    EM posterior match probability and log2 match weight (micro units).
    """
    ds = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"],
    )
    feats = ds.map_batches(_features, batch_format="pandas")
    # hash-partition whole blocks (all rows of a blk share a partition)
    # so the per-partition merge sees complete blocks; 16 partitions is
    # plenty for 25 nation keys and the shape is key-count- not
    # corpus-scaled
    parts = partition_reduce(feats, "blk", _pattern_counts, 16)
    pat = fold_groups(parts, ["g_seg", "g_bal", "g_suf"], {"n_pairs": ("n", "sum")})
    patterns = list(zip(pat["g_seg"].astype(int), pat["g_bal"].astype(int),
                        pat["g_suf"].astype(int)))
    counts = [int(c) for c in pat["n_pairs"]]
    if not patterns:  # no within-block pairs at all (degenerate input)
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in (
            "g_seg", "g_bal", "g_suf", "n_pairs",
            "posterior_micro", "weight_micro", "lambda_micro")})
    lam, _m, _u, post, weight = fs_em(patterns, counts)
    return pd.DataFrame(
        {
            "g_seg": pat["g_seg"].astype("int64"),
            "g_bal": pat["g_bal"].astype("int64"),
            "g_suf": pat["g_suf"].astype("int64"),
            "n_pairs": pat["n_pairs"].astype("int64"),
            "posterior_micro": [math.floor(1e6 * p) for p in post],
            "weight_micro": [math.floor(1e6 * w) for w in weight],
            "lambda_micro": [math.floor(1e6 * lam)] * len(pat),
        }
    )


def _em_iter_sql(i: int) -> str:
    """One unrolled EM iteration as CTEs: ``p{i}`` attaches posteriors
    under params ``q{i-1}``; ``q{i}`` holds the updated scalars."""
    prev, cur = f"q{i-1}", f"q{i}"
    return f"""
p{i} AS (
  SELECT pat.*, (
    {prev}.lam
      * (CASE WHEN g_seg=1 THEN {prev}.m1 ELSE 1-{prev}.m1 END)
      * (CASE WHEN g_bal=1 THEN {prev}.m2 ELSE 1-{prev}.m2 END)
      * (CASE WHEN g_suf=1 THEN {prev}.m3 ELSE 1-{prev}.m3 END)
  ) / (
    {prev}.lam
      * (CASE WHEN g_seg=1 THEN {prev}.m1 ELSE 1-{prev}.m1 END)
      * (CASE WHEN g_bal=1 THEN {prev}.m2 ELSE 1-{prev}.m2 END)
      * (CASE WHEN g_suf=1 THEN {prev}.m3 ELSE 1-{prev}.m3 END)
    + (1-{prev}.lam)
      * (CASE WHEN g_seg=1 THEN {prev}.u1 ELSE 1-{prev}.u1 END)
      * (CASE WHEN g_bal=1 THEN {prev}.u2 ELSE 1-{prev}.u2 END)
      * (CASE WHEN g_suf=1 THEN {prev}.u3 ELSE 1-{prev}.u3 END)
  ) AS p
  FROM pat, {prev}
),
{cur} AS (
  SELECT SUM(p*n_pairs) / SUM(n_pairs) AS lam,
         SUM(p*n_pairs*g_seg) / SUM(p*n_pairs) AS m1,
         SUM(p*n_pairs*g_bal) / SUM(p*n_pairs) AS m2,
         SUM(p*n_pairs*g_suf) / SUM(p*n_pairs) AS m3,
         SUM((1-p)*n_pairs*g_seg) / SUM((1-p)*n_pairs) AS u1,
         SUM((1-p)*n_pairs*g_bal) / SUM((1-p)*n_pairs) AS u2,
         SUM((1-p)*n_pairs*g_suf) / SUM((1-p)*n_pairs) AS u3
  FROM p{i}
)"""


FS_MATCH_WEIGHTS_SQL = (
    f"""
WITH feat AS (
  SELECT c_custkey AS id,
         c_nationkey AS blk,
         c_mktsegment AS seg,
         CAST(ROUND(c_acctbal * 100) AS BIGINT) AS bal_c,
         substr(c_name, length(c_name) - 1, 2) AS suf
  FROM customer
),
pairs AS (
  SELECT CASE WHEN a.seg = b.seg THEN 1 ELSE 0 END AS g_seg,
         CASE WHEN abs(a.bal_c - b.bal_c) < {_BAL_CENTS_WINDOW} THEN 1 ELSE 0 END AS g_bal,
         CASE WHEN a.suf = b.suf THEN 1 ELSE 0 END AS g_suf
  FROM feat a JOIN feat b ON a.blk = b.blk AND a.id < b.id
),
pat AS (
  SELECT g_seg, g_bal, g_suf, CAST(COUNT(*) AS BIGINT) AS n_pairs
  FROM pairs GROUP BY 1, 2, 3
),
q0 AS (
  SELECT {_LAMBDA0} AS lam, {_M0} AS m1, {_M0} AS m2, {_M0} AS m3,
         {_U0} AS u1, {_U0} AS u2, {_U0} AS u3
),"""
    + _em_iter_sql(1) + ","
    + _em_iter_sql(2)
    + f"""
SELECT pat.g_seg, pat.g_bal, pat.g_suf, pat.n_pairs,
  CAST(FLOOR(1e6 * (
    q2.lam
      * (CASE WHEN g_seg=1 THEN q2.m1 ELSE 1-q2.m1 END)
      * (CASE WHEN g_bal=1 THEN q2.m2 ELSE 1-q2.m2 END)
      * (CASE WHEN g_suf=1 THEN q2.m3 ELSE 1-q2.m3 END)
  ) / (
    q2.lam
      * (CASE WHEN g_seg=1 THEN q2.m1 ELSE 1-q2.m1 END)
      * (CASE WHEN g_bal=1 THEN q2.m2 ELSE 1-q2.m2 END)
      * (CASE WHEN g_suf=1 THEN q2.m3 ELSE 1-q2.m3 END)
    + (1-q2.lam)
      * (CASE WHEN g_seg=1 THEN q2.u1 ELSE 1-q2.u1 END)
      * (CASE WHEN g_bal=1 THEN q2.u2 ELSE 1-q2.u2 END)
      * (CASE WHEN g_suf=1 THEN q2.u3 ELSE 1-q2.u3 END)
  )) AS BIGINT) AS posterior_micro,
  CAST(FLOOR(1e6 * (
      log2((CASE WHEN g_seg=1 THEN q2.m1 ELSE 1-q2.m1 END)
         / (CASE WHEN g_seg=1 THEN q2.u1 ELSE 1-q2.u1 END))
    + log2((CASE WHEN g_bal=1 THEN q2.m2 ELSE 1-q2.m2 END)
         / (CASE WHEN g_bal=1 THEN q2.u2 ELSE 1-q2.u2 END))
    + log2((CASE WHEN g_suf=1 THEN q2.m3 ELSE 1-q2.m3 END)
         / (CASE WHEN g_suf=1 THEN q2.u3 ELSE 1-q2.u3 END))
  )) AS BIGINT) AS weight_micro,
  CAST(FLOOR(1e6 * q2.lam) AS BIGINT) AS lambda_micro
FROM pat, q2
ORDER BY g_seg, g_bal, g_suf
"""
)
