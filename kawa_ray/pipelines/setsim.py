"""Prefix-filter set-similarity self-join — the AllPairs / PPJoin
candidate-generation family (Bayardo et al., WWW 2007; Xiao et al.,
WWW 2008) that production ER systems use when no LSH sketch is wanted:
order every document's token-set by GLOBAL document frequency
(rarest first) and index only each set's PREFIX — the first
``L - ceil(theta*L) + 1`` tokens — because two sets with Jaccard >=
theta must share at least one prefix token.  Candidates then verify
with exact Jaccard.

Reference analogue: kawa blocks mentions by lexicon keys and LSH
bands (ontology_manager.py detect -> block keys); this operator is
the classic sort-based alternative the survey's blocking family
covers, over the ``documents`` table's word-bigram sets.

Scale shape (all exchanges carry narrow int rows, never text):

1. gram pass — per doc, DISTINCT word-bigram md5 hashes (the md5
   low-64 trick shared with every sketch oracle, shifted to int64 so
   signed order == unsigned hash order), exploded to (doc_id, th);
2. df attach — ONE hash-partition exchange on ``th``: every row of a
   hash co-locates, so the partition counts df and emits it attached
   (no separate vocab table, no driver vocab state);
3. prefix — ONE exchange on ``doc_id``: per doc, sort by (df, th)
   and keep the prefix (integer ceil, oracle-exact);
4. candidates — ONE exchange on ``th``: per prefix-token segment
   (2 <= m <= ``max_members``; bigger blocks dropped whole, the
   stopword guard every blocking op here uses) emit pairs passing
   the length filter ``min(L)*T_DEN >= max(L)*T_NUM``;
5. dedupe on ``a`` + exact-Jaccard verify via the shared
   ``docs._verified_edges`` machinery (pairs-space bounded by the
   per-segment caps; gram sets hash-join onto pair endpoints).

Skew: high-df tokens sort LAST, so they almost never enter a prefix —
the method's own hot-key defence; what survives is capped by
``max_members`` exactly as in the oracle.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from kawa_ray.stages.distinct import partition_reduce
from kawa_ray.stages.pairs import block_pairs

_WS = re.compile(r"\s+")

_SS_N = 2                     # word-bigram sets
_SS_T_NUM, _SS_T_DEN = 7, 10  # Jaccard threshold 0.7 as an exact rational
_SS_MAX_MEMBERS = 64
_SS_PARTITIONS = 64

_SHIFT = np.uint64(1 << 63)


def _read_docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=columns)


def _gh_rows(t: pa.Table) -> pa.Table:
    """Per doc, DISTINCT word-``_SS_N``-gram hashes as exploded
    (doc_id, th) rows; th = md5 low-64 XOR 2^63 viewed int64 (signed
    order == unsigned md5_number_lower order, the repo's standard
    transport for Ray pandas blocks)."""
    from kawa_ray.functions.minhash import md5_low64_per_doc, word_ngrams

    texts = t.column("text").to_pylist()
    ids = t.column("doc_id").to_numpy()

    def per_doc():
        for text in texts:
            toks = _WS.split(text.lower().strip()) if text.strip() else []
            yield word_ngrams(toks, _SS_N)

    out_id: list[np.ndarray] = []
    out_th: list[np.ndarray] = []
    for did, hs in zip(ids, md5_low64_per_doc(per_doc())):
        uh = np.unique(hs)
        if uh.size == 0:
            continue
        out_id.append(np.full(uh.size, did, dtype=np.int64))
        out_th.append((uh ^ _SHIFT).view(np.int64))
    if not out_id:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "th": pa.array([], pa.int64())})
    return pa.table({"doc_id": pa.array(np.concatenate(out_id), pa.int64()),
                     "th": pa.array(np.concatenate(out_th), pa.int64())})


def _attach_df(g: pd.DataFrame) -> pd.DataFrame:
    # all rows of a th co-locate; (doc_id, th) is already distinct, so
    # the group size IS the document frequency
    df = g.groupby("th")["doc_id"].transform("size")
    return g.assign(df=df.astype("int64"))


def _prefix_rows(g: pd.DataFrame) -> pd.DataFrame:
    th = g["th"].to_numpy()
    df = g["df"].to_numpy()
    did = g["doc_id"].to_numpy()
    order = np.lexsort((th, df, did))  # group by doc, then (df, th)
    th, df, did = th[order], df[order], did[order]
    starts = np.flatnonzero(np.concatenate(([True], did[1:] != did[:-1])))
    ends = np.concatenate((starts[1:], [len(did)]))
    out_id, out_th, out_l = [], [], []
    for i, j in zip(starts, ends):
        L = j - i
        p = L - ((_SS_T_NUM * L + _SS_T_DEN - 1) // _SS_T_DEN) + 1
        out_id.append(np.full(p, did[i], dtype=np.int64))
        out_th.append(th[i:i + p])
        out_l.append(np.full(p, L, dtype=np.int64))
    return pd.DataFrame({
        "doc_id": np.concatenate(out_id) if out_id else
        pd.Series([], dtype="int64"),
        "th": np.concatenate(out_th) if out_th else
        pd.Series([], dtype="int64"),
        "L": np.concatenate(out_l) if out_l else pd.Series([], dtype="int64"),
    })


def _segment_cand(g: pd.DataFrame) -> pd.DataFrame:
    # each prefix segment (one th) is a block; the length filter keeps
    # pairs whose set sizes can still reach the Jaccard threshold
    did = g["doc_id"].to_numpy("int64")
    ls = g["L"].to_numpy("int64")
    ia, ib = block_pairs(g["th"].to_numpy(), did, _SS_MAX_MEMBERS)
    la, lb = ls[ia], ls[ib]
    ok = np.minimum(la, lb) * _SS_T_DEN >= np.maximum(la, lb) * _SS_T_NUM
    return pd.DataFrame({"a": did[ia[ok]], "b": did[ib[ok]]})


def setsim_join_census(sf_dir: str):
    """One summary row: corpus size, distinct prefix-filter candidate
    pairs, exact-Jaccard-verified match pairs."""
    from kawa_ray.pipelines.docs import _verified_edges

    P = _SS_PARTITIONS
    gh = _read_docs(sf_dir, ["doc_id", "text"]) \
        .map_batches(_gh_rows, batch_format="pyarrow")
    withdf = partition_reduce(gh, "th", _attach_df, partitions=P)
    prefix = partition_reduce(withdf, "doc_id", _prefix_rows, partitions=P)
    tagged = partition_reduce(prefix, "th", _segment_cand, partitions=P)
    cand = partition_reduce(
        tagged, "a", lambda g: g[["a", "b"]].drop_duplicates(),
        partitions=P).materialize()

    n_docs = int(_read_docs(sf_dir, ["doc_id"]).count())
    n_cand = int(cand.count())
    # an all-empty candidate dataset has no schema for the verify's
    # endpoint projection; zero candidates is zero matches
    n_matches = 0 if n_cand == 0 else int(_verified_edges(
        sf_dir, cand, _SS_N, _SS_T_NUM / _SS_T_DEN).count())
    return pd.DataFrame({"n_docs": pd.Series([n_docs], dtype="int64"),
                         "n_candidates": pd.Series([n_cand], dtype="int64"),
                         "n_matches": pd.Series([n_matches], dtype="int64")})


def _setsim_sql(n: int = _SS_N, t_num: int = _SS_T_NUM,
                t_den: int = _SS_T_DEN,
                max_members: int = _SS_MAX_MEMBERS) -> str:
    from kawa_ray.pipelines.docs import _grams_cte

    # the op hashes grams BEFORE every comparison, so the oracle
    # operates on md5_number_lower values throughout (equality AND the
    # (df, th) order are hash-level on both sides; a collision would
    # merge the same two grams in both engines)
    return f"""
WITH {_grams_cte(n)}
, gh AS (SELECT DISTINCT doc_id, md5_number_lower(g) AS th FROM grams)
, dfreq AS (SELECT th, COUNT(*) AS df FROM gh GROUP BY th)
, sized AS (
  SELECT doc_id, th, L,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY df, th) AS rn
  FROM (SELECT doc_id, th, COUNT(*) OVER (PARTITION BY doc_id) AS L
        FROM gh) q
  JOIN dfreq USING (th))
, prefix AS (
  SELECT doc_id, th, L FROM sized
  WHERE rn <= L - ((({t_num} * L) + {t_den} - 1) // {t_den}) + 1)
, seg AS (SELECT th, COUNT(*) AS m FROM prefix GROUP BY th)
, cand AS (
  SELECT DISTINCT p1.doc_id AS a, p2.doc_id AS b
  FROM prefix p1
  JOIN prefix p2 ON p1.th = p2.th AND p1.doc_id < p2.doc_id
  JOIN seg ON seg.th = p1.th
  WHERE seg.m BETWEEN 2 AND {max_members}
    AND LEAST(p1.L, p2.L) * {t_den} >= GREATEST(p1.L, p2.L) * {t_num})
, gsizes AS (SELECT doc_id, COUNT(*) AS nn FROM gh GROUP BY doc_id)
, inter AS (
  SELECT c.a, c.b, COUNT(*) AS i
  FROM cand c
  JOIN gh ga ON ga.doc_id = c.a
  JOIN gh gb ON gb.doc_id = c.b AND gb.th = ga.th
  GROUP BY c.a, c.b)
, matches AS (
  SELECT i.a, i.b FROM inter i
  JOIN gsizes sa ON sa.doc_id = i.a
  JOIN gsizes sb ON sb.doc_id = i.b
  WHERE CAST(i.i AS DOUBLE) / (sa.nn + sb.nn - i.i)
        >= {t_num / t_den})
SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
       (SELECT COUNT(*) FROM cand) AS n_candidates,
       (SELECT COUNT(*) FROM matches) AS n_matches
"""


SETSIM_JOIN_SQL = _setsim_sql()
