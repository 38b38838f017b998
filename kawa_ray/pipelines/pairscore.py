"""Blocked pair-scoring censuses — the string-agreement channels of a
Fellegi-Sunter style match scorer (the north star's "batched
Jaro-Winkler/Levenshtein" scoring family; reference analogue: kawa
scores synonym candidates by surface agreement before the embedding
channel, ontology_builder.py's match counting).

Every census here blocks ``documents`` on the cheap equality key
``lang | n_chars // 8`` (``_block_key``; the multirule ``size`` rule
made finer), emits every within-block pair with the shared emitter
``stages/pairs.py::block_pairs`` (blocks above ``_MAX_MEMBERS``
members are dropped whole, replicated in each oracle — the standard
stopword-block guard), scores the pairs, and returns a histogram —
the score-distribution signal a linkage calibration step consumes.
Each census keeps only its row builder and its scoring of the pairs.

DuckDB's ``levenshtein()`` is BYTE-level over UTF-8 (measured:
levenshtein('日本語テスト','日本語テキスト') = 3, the byte count of the
inserted キ, not 1), so the kernels here work over UTF-8 bytes to keep
the oracles exact; prefixes are sliced by CHARACTER first on both
sides (Python slicing == DuckDB SUBSTRING semantics).

Scale shape (``_census``): ONE hash-partition exchange on the block
key — pairs are generated AND scored inside each partition, only
per-value partial counts leave (histogram rows, never pairs), folded on
the driver by ``fold_groups``; the string kernels are numpy sweeps
vectorised across the pair axis, not per-pair Python loops."""

from __future__ import annotations

import os
import re
from collections.abc import Callable

import numpy as np
import pandas as pd

import ray.data as rd

from kawa_ray.stages.distinct import fold_groups, partition_join, partition_reduce
from kawa_ray.stages.pairs import block_pairs

_WS = re.compile(r"\s+")

_BUCKET = 8         # n_chars // bucket joins lang in the block key
_MAX_MEMBERS = 40   # blocks above this many documents are dropped whole
_PARTITIONS = 64

_ED_PREFIX = 12      # chars scored per document


def _block_key(df: pd.DataFrame, bucket: int) -> np.ndarray:
    """The censuses' equality block key ``lang | n_chars // bucket``
    per row of ``df`` (a null lang keys as the empty string)."""
    return (df["lang"].fillna("") + "|"
            + (df["n_chars"].astype("int64") // bucket).astype(str)
            ).to_numpy(dtype=object)


def _prefix_rows(bucket: int, prefix_chars: int, extra: tuple = ()):
    """Row builder for the prefix-scoring censuses: one (k, doc_id, p)
    row per document, plus each ``extra`` column with nulls as ""."""
    def rows(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in
                                 [("k", "str"), ("doc_id", "int64"),
                                  ("p", "str")]
                                 + [(c, "str") for c in extra]})
        return pd.DataFrame({
            "k": _block_key(df, bucket),
            "doc_id": df["doc_id"].to_numpy("int64"),
            "p": df["text"].fillna("").str.slice(0, prefix_chars)
            .to_numpy(dtype=object),
            **{c: df[c].fillna("").to_numpy(dtype=object) for c in extra},
        })
    return rows


def _census(rows: rd.Dataset, max_members: int, col: str,
            score: Callable[[pd.DataFrame, np.ndarray, np.ndarray],
                            np.ndarray]) -> pd.DataFrame:
    """The shared census shape: rows (k, doc_id, ...) exchange on the
    block key ``k``; per partition ``block_pairs`` emits the capped
    within-block pairs and ``score(g, ia, ib)`` maps them to one int
    histogram value per counted pair; the (col, n_pairs) partials fold
    on the driver."""
    def part(g: pd.DataFrame) -> pd.DataFrame:
        ia, ib = block_pairs(g["k"].to_numpy(), g["doc_id"].to_numpy(),
                             max_members)
        vals = (np.asarray(score(g, ia, ib), dtype=np.int64) if len(ia)
                else np.empty(0, np.int64))
        v, n = np.unique(vals, return_counts=True)
        return pd.DataFrame({col: v, "n_pairs": n.astype(np.int64)})

    return fold_groups(partition_reduce(rows, "k", part, _PARTITIONS),
                       col, {"n_pairs": ("n_pairs", "sum")})


def _encoded(g: pd.DataFrame) -> list[bytes]:
    return [s.encode("utf-8") for s in g["p"]]


def _read(sf_dir: str, extra: tuple = ()) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "text", "n_chars",
                                    *extra])


def lev_bytes_batch(sa: list[bytes], sb: list[bytes]) -> np.ndarray:
    """Levenshtein distance over byte strings, one DP sweep vectorised
    across the whole pair batch.  dp is a (n, lb_max+1) rolling row;
    each (i, j) step is O(n) numpy.  Cells past a pair's true lengths
    hold garbage but are never read: pair r's answer is taken at
    i == len(sa[r]), column len(sb[r]), which depends only on valid
    cells."""
    n = len(sa)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    la = np.fromiter((len(x) for x in sa), dtype=np.int64, count=n)
    lb = np.fromiter((len(x) for x in sb), dtype=np.int64, count=n)
    la_max, lb_max = int(la.max()), int(lb.max())
    res = np.where(la == 0, lb, 0).astype(np.int64)
    if la_max == 0:
        return res
    A = np.frombuffer(
        b"".join(x.ljust(la_max, b"\0") for x in sa), dtype=np.uint8
    ).reshape(n, la_max)
    B = np.frombuffer(
        b"".join(x.ljust(lb_max, b"\0") for x in sb), dtype=np.uint8
    ).reshape(n, lb_max) if lb_max else np.zeros((n, 0), dtype=np.uint8)
    prev = np.tile(np.arange(lb_max + 1, dtype=np.int32), (n, 1))
    cur = np.empty_like(prev)
    for i in range(1, la_max + 1):
        cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(1, lb_max + 1):
            sub = prev[:, j - 1] + (ai != B[:, j - 1])
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1), sub)
        done = la == i
        if done.any():
            res[done] = cur[done, lb[done]]
        prev, cur = cur, prev
    return res


def edit_distance_pairs_census(sf_dir: str, bucket: int = _BUCKET,
                               prefix_chars: int = _ED_PREFIX,
                               max_members: int = _MAX_MEMBERS):
    """Levenshtein distance of the two 12-char text prefixes of every
    blocked pair; output the (distance, n_pairs) histogram."""
    def score(g, ia, ib):
        enc = _encoded(g)
        return lev_bytes_batch([enc[i] for i in ia], [enc[i] for i in ib])

    return _census(_read(sf_dir).map_batches(
        _prefix_rows(bucket, prefix_chars), batch_format="pandas"),
        max_members, "distance", score)


def _edit_distance_sql(bucket: int = _BUCKET,
                       prefix_chars: int = _ED_PREFIX,
                       max_members: int = _MAX_MEMBERS) -> str:
    return f"""
WITH keyed AS (
  SELECT doc_id,
         SUBSTRING(text, 1, {prefix_chars}) AS p,
         lang || '|' || CAST(n_chars // {bucket} AS VARCHAR) AS k
  FROM documents),
sized AS (SELECT *, COUNT(*) OVER (PARTITION BY k) AS m FROM keyed),
pairs AS (
  SELECT levenshtein(a.p, b.p) AS d
  FROM sized a JOIN sized b ON a.k = b.k AND a.doc_id < b.doc_id
  WHERE a.m BETWEEN 2 AND {max_members})
SELECT CAST(d AS BIGINT) AS distance, COUNT(*) AS n_pairs
FROM pairs GROUP BY d ORDER BY d
"""


EDIT_DISTANCE_SQL = _edit_distance_sql()



# ---------------------------------------------------------------------------
# TF-IDF cosine pair scoring
# ---------------------------------------------------------------------------

_TC_SCALE = 1_000_000  # idf in integer micro-units


def _shared(ha: np.ndarray, hb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted, distinct ``ha`` and distinct ``hb``: the positions in
    ``ha`` of the elements both hold, and the mask of ``hb`` that
    marks them."""
    idx = np.searchsorted(ha, hb)
    idx[idx >= ha.size] = 0
    hit = ha[idx] == hb
    return idx[hit], hit


def tfidf_cosine_pairs_census(sf_dir: str, bucket: int = _BUCKET,
                              max_members: int = _MAX_MEMBERS):
    """TF-IDF cosine pair scoring — the weighted-token agreement channel
    (the Dedupe.io / canonical-ER default when no embedding model is
    wanted).  Token sets weighted by integer-micro idf
    (``floor(1e6 * ln(n_docs / df))`` — ``math.log`` is bit-identical
    to DuckDB ``LN``, the lm_quality.py trick), cosine computed in
    float64 from the exact integer dot/norms with one pinned operation
    order (num / (sqrt(na2) * sqrt(nb2))) so op and oracle produce the
    SAME double and the same ``floor(cos * 20)`` bucket.  Pairs come
    from the shared equality blocks (capped); documents with zero
    tokens never enter a block (mirrored in the oracle).  Output:
    (bucket, n_pairs) histogram.

    Three hash-partition exchanges, none carrying text: df attaches on
    the token hash, per-doc norms + block keys attach on doc_id (one
    ``partition_join`` of token and attr rows), pairs score inside the
    block-key partition (one row per (doc, token); ``block_pairs``
    counts each doc once) and only histogram partials leave."""
    import math

    from kawa_ray.functions.minhash import md5_low64_per_doc

    P = _PARTITIONS
    docs = _read(sf_dir)
    n_docs = int(docs.count())

    _ws = _WS

    def tok_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()

        def per_doc():
            for text in df["text"].fillna(""):
                yield (_ws.split(text.lower().strip())
                       if text.strip() else [])

        out_id, out_th = [], []
        for did, hs in zip(ids, md5_low64_per_doc(per_doc())):
            uh = np.unique(hs)
            if uh.size == 0:
                continue
            out_id.append(np.full(uh.size, did, dtype=np.int64))
            out_th.append(uh.view(np.int64))
        return pd.DataFrame({
            "doc_id": np.concatenate(out_id) if out_id else
            pd.Series([], dtype="int64"),
            "th": np.concatenate(out_th) if out_th else
            pd.Series([], dtype="int64"),
        })

    def attach_idf(g: pd.DataFrame) -> pd.DataFrame:
        # (doc_id, th) distinct by construction -> group size == df;
        # math.log per DISTINCT df (handful of values), NOT np.log
        # (SIMD log drifts 1 ulp from DuckDB LN)
        dfreq = g.groupby("th")["doc_id"].transform("size").to_numpy()
        uniq = np.unique(dfreq)
        lut = {int(d): int(math.floor(_TC_SCALE * math.log(n_docs / int(d))))
               for d in uniq}
        w = np.fromiter((lut[int(d)] for d in dfreq), dtype=np.int64,
                        count=len(dfreq))
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                             "th": g["th"].to_numpy(), "w": w})

    tok = docs.map_batches(tok_rows, batch_format="pandas")
    weighted = partition_reduce(tok, "th", attach_idf, partitions=P)

    def attr_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy("int64"),
            "k": _block_key(df, bucket),
        })

    def attach_key(toks: pd.DataFrame, keys: pd.DataFrame) -> pd.DataFrame:
        m = toks.merge(keys, on="doc_id", how="inner")
        n2 = m.groupby("doc_id")["w"].transform(lambda s: (s * s).sum())
        return m.assign(n2=n2.astype("int64"))

    keyed = partition_join(
        [(weighted, "doc_id"),
         (docs.map_batches(attr_rows, batch_format="pandas"), "doc_id")],
        attach_key, partitions=P)

    def score(g, ia, ib):
        did = g["doc_id"].to_numpy()
        # the doc_id exchange reassembles a doc's rows in arbitrary
        # concat order — searchsorted NEEDS each doc's th sorted
        o = np.lexsort((g["th"].to_numpy(), did))
        th, w = g["th"].to_numpy()[o], g["w"].to_numpy()[o]
        u, first, cnt = np.unique(did[o], return_index=True,
                                  return_counts=True)
        sa, sb = np.searchsorted(u, did[ia]), np.searchsorted(u, did[ib])
        a0, a1 = first[sa], first[sa] + cnt[sa]
        b0, b1 = first[sb], first[sb] + cnt[sb]
        num = np.empty(len(ia), dtype=np.int64)
        for r in range(len(ia)):
            idx, hit = _shared(th[a0[r]:a1[r]], th[b0[r]:b1[r]])
            num[r] = (w[a0[r] + idx] * w[b0[r]:b1[r]][hit]).sum()
        n2 = g["n2"].to_numpy("int64")
        na2, nb2 = n2[ia], n2[ib]
        # a doc whose every token has idf 0 (appears in ALL docs) has
        # zero norm; 0/0 is NaN — pin the convention to bucket 0,
        # mirrored in the oracle
        zero = (na2 == 0) | (nb2 == 0)
        den = (np.sqrt(np.where(zero, 1, na2).astype(np.float64))
               * np.sqrt(np.where(zero, 1, nb2).astype(np.float64)))
        return np.where(zero, 0, np.floor(num / den * 20.0)).astype(np.int64)

    return _census(keyed, max_members, "bucket", score)


def _tfidf_cosine_sql(bucket: int = _BUCKET,
                      max_members: int = _MAX_MEMBERS) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents),
gh AS (SELECT DISTINCT doc_id, md5_number_lower(g) AS th
       FROM (SELECT doc_id, UNNEST(t) AS g FROM toks) q),
dfreq AS (SELECT th, COUNT(*) AS df FROM gh GROUP BY th),
w AS (
  SELECT doc_id, th,
         CAST(FLOOR({_TC_SCALE} * LN(
           CAST((SELECT COUNT(*) FROM documents) AS DOUBLE) / df))
           AS BIGINT) AS w
  FROM gh JOIN dfreq USING (th)),
n2 AS (SELECT doc_id, CAST(SUM(w * w) AS BIGINT) AS n2
       FROM w GROUP BY doc_id),
keyed AS (
  SELECT d.doc_id,
         d.lang || '|' || CAST(d.n_chars // {bucket} AS VARCHAR) AS k
  FROM documents d JOIN n2 ON n2.doc_id = d.doc_id),
sized AS (SELECT *, COUNT(*) OVER (PARTITION BY k) AS m FROM keyed),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM sized a JOIN sized b ON a.k = b.k AND a.doc_id < b.doc_id
  WHERE a.m BETWEEN 2 AND {max_members}),
num AS (
  SELECT p.a, p.b, CAST(SUM(wa.w * wb.w) AS BIGINT) AS num
  FROM pairs p
  JOIN w wa ON wa.doc_id = p.a
  JOIN w wb ON wb.doc_id = p.b AND wb.th = wa.th
  GROUP BY p.a, p.b),
scored AS (
  SELECT CASE WHEN na.n2 = 0 OR nb.n2 = 0 THEN 0
         ELSE CAST(FLOOR(CAST(COALESCE(n.num, 0) AS DOUBLE)
              / (SQRT(CAST(na.n2 AS DOUBLE)) * SQRT(CAST(nb.n2 AS DOUBLE)))
              * 20.0) AS BIGINT) END AS bucket
  FROM pairs p
  LEFT JOIN num n ON n.a = p.a AND n.b = p.b
  JOIN n2 na ON na.doc_id = p.a
  JOIN n2 nb ON nb.doc_id = p.b)
SELECT bucket, COUNT(*) AS n_pairs FROM scored
GROUP BY bucket ORDER BY bucket
"""


TFIDF_COSINE_SQL = _tfidf_cosine_sql()



# ---------------------------------------------------------------------------
# Jaro-Winkler pair scoring
# ---------------------------------------------------------------------------

_JW_PREFIX = 16      # chars scored per document


def jw_bytes_batch(sa: list[bytes], sb: list[bytes]) -> np.ndarray:
    """Jaro-Winkler similarity over byte strings, vectorised across the
    pair axis (no per-pair Python loop).  Bit-exact against DuckDB's
    ``jaro_winkler_similarity`` (fuzz-verified over 13k random pairs
    incl. unicode — DuckDB is BYTE-level, like its ``levenshtein``):
    match window ``max(max(la,lb)//2 - 1, 0)``, greedy first-available
    matching, transpositions ``// 2``, sim ``(m/la + m/lb + (m-t)/m)/3``
    with the Winkler boost ``sim + pref*0.1*(1-sim)`` for ``sim > 0.7``
    and a ≤4-byte common prefix; EITHER side empty (including both)
    scores 0.0 — DuckDB's convention, NOT the textbook 1.0 for
    equal-empty.  The greedy scan is ``la_max × lb_max`` O(n)-wide numpy
    steps; matched-char sequences compact via cumsum scatter so the
    transposition count never loops over pairs."""
    n = len(sa)
    res = np.zeros(n, dtype=np.float64)
    if n == 0:
        return res
    la = np.fromiter((len(x) for x in sa), dtype=np.int64, count=n)
    lb = np.fromiter((len(x) for x in sb), dtype=np.int64, count=n)
    la_max, lb_max = int(la.max()), int(lb.max())
    if la_max == 0 or lb_max == 0:
        return res
    A = np.frombuffer(
        b"".join(x.ljust(la_max, b"\0") for x in sa), dtype=np.uint8
    ).reshape(n, la_max)
    B = np.frombuffer(
        b"".join(x.ljust(lb_max, b"\0") for x in sb), dtype=np.uint8
    ).reshape(n, lb_max)
    dist = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    m1 = np.zeros((n, la_max), dtype=bool)
    m2 = np.zeros((n, lb_max), dtype=bool)
    for i in range(la_max):
        found = la <= i          # rows whose s1 ends before i never match
        ai = A[:, i]
        lo = i - dist
        hi = i + dist + 1
        for j in range(lb_max):
            ok = (~found) & (j >= lo) & (j < hi) & (j < lb) \
                & (~m2[:, j]) & (B[:, j] == ai)
            if ok.any():
                m1[ok, i] = True
                m2[ok, j] = True
                found |= ok
    m = m1.sum(axis=1)
    has = m > 0
    if has.any():
        mmax = int(m.max())
        M1 = np.zeros((n, mmax), dtype=np.uint8)
        M2 = np.zeros((n, mmax), dtype=np.uint8)
        r, ii = np.nonzero(m1)
        M1[r, (m1.cumsum(axis=1) - 1)[r, ii]] = A[r, ii]
        r, jj = np.nonzero(m2)
        M2[r, (m2.cumsum(axis=1) - 1)[r, jj]] = B[r, jj]
        colmask = np.arange(mmax)[None, :] < m[:, None]
        t = ((M1 != M2) & colmask).sum(axis=1) // 2
        mf = m.astype(np.float64)
        mdiv = np.where(has, mf, 1.0)
        # rows with an empty side have m == 0 and are masked below; keep
        # their divisors non-zero so no spurious 0/0 warning fires
        ladiv = np.where(la > 0, la, 1)
        lbdiv = np.where(lb > 0, lb, 1)
        sim = (mf / ladiv + mf / lbdiv + (mf - t) / mdiv) / 3.0
        pref = np.zeros(n, dtype=np.int64)
        run = np.ones(n, dtype=bool)
        for k in range(min(4, la_max, lb_max)):
            run &= (k < la) & (k < lb) & (A[:, k] == B[:, k])
            pref += run
        boost = sim > 0.7
        sim = np.where(boost,
                       sim + pref.astype(np.float64) * 0.1 * (1.0 - sim),
                       sim)
        res = np.where(has, sim, 0.0)
    return res


def jaro_winkler_pairs_census(sf_dir: str, bucket: int = _BUCKET,
                              prefix_chars: int = _JW_PREFIX,
                              max_members: int = _MAX_MEMBERS):
    """Jaro-Winkler pair scoring — the classic record-linkage name
    agreement channel (Winkler 1990, the Census Bureau scorer; every
    Fellegi-Sunter implementation ships it).  Same equality blocks and
    histogram shape as the edit-distance census, with similarity
    bucketed ``floor(sim * 20)``; the kernel is bit-exact vs DuckDB so
    the bucket boundaries can never disagree."""
    def score(g, ia, ib):
        enc = _encoded(g)
        sim = jw_bytes_batch([enc[i] for i in ia], [enc[i] for i in ib])
        return np.floor(sim * 20.0)

    return _census(_read(sf_dir).map_batches(
        _prefix_rows(bucket, prefix_chars), batch_format="pandas"),
        max_members, "bucket", score)


def _jaro_winkler_sql(bucket: int = _BUCKET,
                      prefix_chars: int = _JW_PREFIX,
                      max_members: int = _MAX_MEMBERS) -> str:
    return f"""
WITH keyed AS (
  SELECT doc_id,
         SUBSTRING(text, 1, {prefix_chars}) AS p,
         lang || '|' || CAST(n_chars // {bucket} AS VARCHAR) AS k
  FROM documents),
sized AS (SELECT *, COUNT(*) OVER (PARTITION BY k) AS m FROM keyed),
pairs AS (
  SELECT jaro_winkler_similarity(a.p, b.p) AS s
  FROM sized a JOIN sized b ON a.k = b.k AND a.doc_id < b.doc_id
  WHERE a.m BETWEEN 2 AND {max_members})
SELECT CAST(FLOOR(s * 20.0) AS BIGINT) AS bucket, COUNT(*) AS n_pairs
FROM pairs GROUP BY 1 ORDER BY 1
"""


JARO_WINKLER_SQL = _jaro_winkler_sql()



# ---------------------------------------------------------------------------
# Fellegi-Sunter multi-channel match-decision census
# ---------------------------------------------------------------------------

_FS_PREFIX = 16

# channel thresholds + integer FS weights (log-likelihood-ratio style,
# scaled to small ints; the EM-trained analogue lives in fs_linkage.py
# — here the weights are FIXED so the decision census is oracle-exact)
_FS_JW_T = 0.88      # name-channel agreement: Jaro-Winkler on prefixes
_FS_LEV_T = 3        # typo-channel agreement: Levenshtein on prefixes
_FS_W = {            # (agree, disagree) per channel
    "jw": (20, -10),
    "lev": (14, -7),
    "src": (3, -3),
}
_FS_MATCH_T = 20     # total weight >= -> 'match'
_FS_POSSIBLE_T = 0   # total weight >= -> 'possible' (clerical band)


def fs_decision_census(sf_dir: str, bucket: int = _BUCKET,
                       prefix_chars: int = _FS_PREFIX,
                       max_members: int = _MAX_MEMBERS):
    """Fellegi-Sunter match-decision census — the END of the classic ER
    pipeline (Fellegi & Sunter 1969): block, compute a per-pair
    agreement VECTOR over independent channels, sum per-channel
    log-likelihood weights, and cut the score into
    match / possible (clerical review) / nonmatch.  Channels here:
    Jaro-Winkler >= 0.88 on 16-char prefixes (the name channel),
    Levenshtein <= 3 on the same prefixes (the typo channel), and
    source equality (the metadata channel).  Both string kernels are
    bit-exact vs DuckDB, so agreement bits — and therefore patterns,
    weights and decisions — can never disagree with the oracle.
    Output: (pattern, decision, n_pairs), pattern = the 3-bit agreement
    vector; only (pattern, count) partials leave the partitions."""
    jw_thresh = np.float64(_FS_JW_T)

    def score(g, ia, ib):
        enc = _encoded(g)
        pa_b, pb_b = [enc[i] for i in ia], [enc[i] for i in ib]
        src = g["source"].to_numpy(dtype=object)
        c_jw = jw_bytes_batch(pa_b, pb_b) >= jw_thresh
        c_lev = lev_bytes_batch(pa_b, pb_b) <= _FS_LEV_T
        c_src = src[ia] == src[ib]
        return (4 * c_jw.astype(np.int64) + 2 * c_lev.astype(np.int64)
                + c_src.astype(np.int64))

    def _decision(pattern: int) -> str:
        w = (_FS_W["jw"][0] if pattern & 4 else _FS_W["jw"][1]) \
            + (_FS_W["lev"][0] if pattern & 2 else _FS_W["lev"][1]) \
            + (_FS_W["src"][0] if pattern & 1 else _FS_W["src"][1])
        if w >= _FS_MATCH_T:
            return "match"
        if w >= _FS_POSSIBLE_T:
            return "possible"
        return "nonmatch"

    out = _census(_read(sf_dir, ("source",)).map_batches(
        _prefix_rows(bucket, prefix_chars, ("source",)), batch_format="pandas"),
        max_members, "pattern", score)
    out.insert(1, "decision", pd.Series([_decision(int(p))
                                         for p in out["pattern"]],
                                        dtype="str"))
    return out


def _fs_decision_sql(bucket: int = _BUCKET,
                     prefix_chars: int = _FS_PREFIX,
                     max_members: int = _MAX_MEMBERS) -> str:
    jw_a, jw_d = _FS_W["jw"]
    lev_a, lev_d = _FS_W["lev"]
    src_a, src_d = _FS_W["src"]
    return f"""
WITH keyed AS (
  SELECT doc_id,
         SUBSTRING(text, 1, {prefix_chars}) AS p,
         COALESCE(source, '') AS src,
         lang || '|' || CAST(n_chars // {bucket} AS VARCHAR) AS k
  FROM documents),
sized AS (SELECT *, COUNT(*) OVER (PARTITION BY k) AS m FROM keyed),
ch AS (
  SELECT CASE WHEN jaro_winkler_similarity(a.p, b.p)
                   >= CAST({_FS_JW_T} AS DOUBLE) THEN 1 ELSE 0 END AS c_jw,
         CASE WHEN levenshtein(a.p, b.p) <= {_FS_LEV_T}
              THEN 1 ELSE 0 END AS c_lev,
         CASE WHEN a.src = b.src THEN 1 ELSE 0 END AS c_src
  FROM sized a JOIN sized b ON a.k = b.k AND a.doc_id < b.doc_id
  WHERE a.m BETWEEN 2 AND {max_members}),
pat AS (
  SELECT 4*c_jw + 2*c_lev + c_src AS pattern,
         (CASE WHEN c_jw = 1 THEN {jw_a} ELSE {jw_d} END)
         + (CASE WHEN c_lev = 1 THEN {lev_a} ELSE {lev_d} END)
         + (CASE WHEN c_src = 1 THEN {src_a} ELSE {src_d} END) AS w
  FROM ch)
SELECT CAST(pattern AS BIGINT) AS pattern,
       CASE WHEN w >= {_FS_MATCH_T} THEN 'match'
            WHEN w >= {_FS_POSSIBLE_T} THEN 'possible'
            ELSE 'nonmatch' END AS decision,
       COUNT(*) AS n_pairs
FROM pat GROUP BY 1, 2 ORDER BY 1, 2
"""


FS_DECISION_SQL = _fs_decision_sql()



# ---------------------------------------------------------------------------
# Mutual-best (reciprocal top-1) one-to-one match census
# ---------------------------------------------------------------------------

_MB_PREFIX = 16
_MB_THRESHOLD = 0.6   # mutual pairs below this JW are not matches


def mutual_best_match_census(sf_dir: str, bucket: int = _BUCKET,
                             prefix_chars: int = _MB_PREFIX,
                             max_members: int = _MAX_MEMBERS,
                             threshold: float = _MB_THRESHOLD):
    """Reciprocal-best one-to-one matching — the classic record-linkage
    assignment step after pair scoring (the greedy 1:1 constraint of
    census/Splink-style linkage: a record may match at most one other,
    so keep a pair only when each side is the other's top-scoring
    candidate).  Blocks and the Jaro-Winkler channel are the same as
    the other pair censuses; within a block each record's best
    counterpart is the ordered-direction argmax (score DESC, then
    smaller counterpart doc_id — exactly ``ROW_NUMBER`` in the oracle),
    and a pair survives iff best(a) = b AND best(b) = a AND the a<b
    direction's score >= ``threshold``.  Output: the floor(sim*20)
    bucket histogram over surviving mutual pairs.

    Scale shape: each document lives in exactly ONE equality block, so
    the per-record argmax is block-local — the whole operator is the
    shared one-exchange census; each emitted pair is scored in both
    directions (mirroring the oracle's asymmetric scan).  Reference
    analogue: kawa keeps one synonym target per surface in the
    word2ner fix cascade (word2ner_fix.py's best-candidate selection);
    here the decision is the symmetric reciprocal-best rule of the ER
    literature."""
    thr = np.float64(threshold)

    def score(g, ia, ib):
        enc = _encoded(g)
        did = g["doc_id"].to_numpy("int64")
        x, y = np.concatenate((ia, ib)), np.concatenate((ib, ia))
        aid, bid = did[x], did[y]
        s = jw_bytes_batch([enc[i] for i in x], [enc[i] for i in y])
        # per-record best: score DESC, counterpart doc_id ASC (doc_ids
        # are globally unique and blocks never share a doc, so the
        # argmax groups by aid alone across the whole partition)
        o = np.lexsort((bid, -s, aid))
        a_sorted = aid[o]
        first = np.concatenate(([True], a_sorted[1:] != a_sorted[:-1]))
        best = pd.Series(bid[o][first], index=a_sorted[first])
        a_s, b_s, s_s = aid[:len(ia)], bid[:len(ia)], s[:len(ia)]
        ok = ((best.reindex(a_s).to_numpy() == b_s)
              & (best.reindex(b_s).to_numpy() == a_s)
              & (s_s >= thr))
        return np.floor(s_s[ok] * 20.0)

    return _census(_read(sf_dir).map_batches(
        _prefix_rows(bucket, prefix_chars), batch_format="pandas"),
        max_members, "bucket", score)


def _mutual_best_sql(bucket: int = _BUCKET,
                     prefix_chars: int = _MB_PREFIX,
                     max_members: int = _MAX_MEMBERS,
                     threshold: float = _MB_THRESHOLD) -> str:
    return f"""
WITH keyed AS (
  SELECT doc_id,
         SUBSTRING(text, 1, {prefix_chars}) AS p,
         lang || '|' || CAST(n_chars // {bucket} AS VARCHAR) AS k
  FROM documents),
sized AS (SELECT *, COUNT(*) OVER (PARTITION BY k) AS m FROM keyed),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b,
         jaro_winkler_similarity(a.p, b.p) AS s
  FROM sized a JOIN sized b ON a.k = b.k AND a.doc_id <> b.doc_id
  WHERE a.m BETWEEN 2 AND {max_members}),
best AS (
  SELECT a, b, s,
         ROW_NUMBER() OVER (PARTITION BY a ORDER BY s DESC, b ASC) AS rn
  FROM pairs),
mut AS (
  SELECT x.a, x.b, x.s
  FROM best x JOIN best y ON y.a = x.b AND y.b = x.a
  WHERE x.rn = 1 AND y.rn = 1 AND x.a < x.b
        AND x.s >= CAST({threshold} AS DOUBLE))
SELECT CAST(FLOOR(s * 20.0) AS BIGINT) AS bucket, COUNT(*) AS n_pairs
FROM mut GROUP BY 1 ORDER BY 1
"""


MUTUAL_BEST_SQL = _mutual_best_sql()



# ---------------------------------------------------------------------------
# Monge-Elkan hybrid token similarity census
# ---------------------------------------------------------------------------

_ME_TOKENS = 5        # first K tokens per document enter the score
_ME_SCALE = 1_000_000  # per-token JW in integer micro-units


def monge_elkan_pairs_census(sf_dir: str, bucket: int = _BUCKET,
                             k_tokens: int = _ME_TOKENS,
                             max_members: int = _MAX_MEMBERS):
    """Monge-Elkan hybrid similarity (Monge & Elkan 1996) — the classic
    token-level/character-level hybrid for multi-word names:
    ``ME(a,b) = mean_i max_j JW(a_i, b_j)`` over the first K whitespace
    tokens, with the bit-exact Jaro-Winkler kernel inside.  ME is
    asymmetric; the scored direction is pinned to a = smaller doc_id
    (the oracle's ``a.doc_id < b.doc_id``).  Exactness: each token-pair
    JW is floored to integer micro-units FIRST (floor is monotonic, so
    ``max`` commutes), the per-token maxima sum as integers, and the
    bucket is the pure-integer ``(sum * 20) // (1e6 * n_tokens_a)`` —
    no float mean ever happens, so op and oracle can never drift.
    Documents with zero tokens never enter a block (the tfidf-census
    convention).  Output: (bucket, n_pairs) histogram.

    Scale shape: the shared one-exchange census; the <= K*K token-pair
    fan-out per pair is built with repeat/arange index arithmetic and
    scored batch-vectorised (maximum.reduceat on the (pair, i) run
    boundaries), only histogram partials leave."""
    _ws = _WS

    def rows(df: pd.DataFrame) -> pd.DataFrame:
        toks = [_ws.split(t.lower().strip())[:k_tokens] if t.strip() else []
                for t in df["text"].fillna("")]
        keep = np.fromiter((bool(t) for t in toks), dtype=bool,
                           count=len(toks))
        if not keep.any():
            return pd.DataFrame({"k": pd.Series([], dtype="str"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "t": pd.Series([], dtype="str")})
        return pd.DataFrame({
            "k": _block_key(df[keep], bucket),
            "doc_id": df["doc_id"].to_numpy("int64")[keep],
            "t": ["\x1f".join(t) for t, k in zip(toks, keep) if k],
        })

    def score(g, ia, ib):
        toks = [[w.encode("utf-8") for w in t.split("\x1f")]
                for t in g["t"]]
        flat = [w for ts in toks for w in ts]
        nt = np.fromiter((len(ts) for ts in toks), dtype=np.int64,
                         count=len(toks))
        off = np.cumsum(nt) - nt
        na, nb = nt[ia], nt[ib]
        # rows sorted by (pair, i, j): pair p fans out na[p] * nb[p]
        # token pairs, i = r // nb, j = r % nb within it
        cnt = na * nb
        pid = np.repeat(np.arange(len(ia)), cnt)
        r = np.arange(int(cnt.sum())) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ii = r // nb[pid]
        w = np.floor(jw_bytes_batch(
            [flat[i] for i in off[ia][pid] + ii],
            [flat[j] for j in off[ib][pid] + r % nb[pid]])
            * float(_ME_SCALE)).astype(np.int64)
        run_starts = np.flatnonzero(np.concatenate(
            ([True], (pid[1:] != pid[:-1]) | (ii[1:] != ii[:-1]))))
        mx = np.maximum.reduceat(w, run_starts)
        sums = np.add.reduceat(mx, np.flatnonzero(np.concatenate(
            ([True], np.diff(pid[run_starts]) != 0))))
        return (sums * 20) // (_ME_SCALE * na)

    return _census(_read(sf_dir).map_batches(rows, batch_format="pandas"),
                   max_members, "bucket", score)


def _monge_elkan_sql(bucket: int = _BUCKET,
                     k_tokens: int = _ME_TOKENS,
                     max_members: int = _MAX_MEMBERS) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, t FROM (
    SELECT doc_id,
           CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
                ELSE list_slice(regexp_split_to_array(
                       LOWER(TRIM(text, ' \t\n\r')), '\\s+'), 1, {k_tokens})
                END AS t
    FROM documents) q
  WHERE LEN(t) > 0),
tu AS (SELECT doc_id, UNNEST(t) AS tok, GENERATE_SUBSCRIPTS(t, 1) AS i
       FROM toks),
keyed AS (
  SELECT d.doc_id,
         d.lang || '|' || CAST(d.n_chars // {bucket} AS VARCHAR) AS k
  FROM documents d JOIN toks USING (doc_id)),
sized AS (SELECT *, COUNT(*) OVER (PARTITION BY k) AS m FROM keyed),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM sized a JOIN sized b ON a.k = b.k AND a.doc_id < b.doc_id
  WHERE a.m BETWEEN 2 AND {max_members}),
mx AS (
  SELECT p.a, p.b, sa.i,
         MAX(CAST(FLOOR(jaro_winkler_similarity(sa.tok, sb.tok)
             * {_ME_SCALE}) AS BIGINT)) AS mx
  FROM pairs p
  JOIN tu sa ON sa.doc_id = p.a
  JOIN tu sb ON sb.doc_id = p.b
  GROUP BY p.a, p.b, sa.i),
me AS (SELECT a, b, SUM(mx) AS s, COUNT(*) AS na FROM mx GROUP BY a, b)
SELECT CAST((s * 20) // ({_ME_SCALE} * na) AS BIGINT) AS bucket,
       COUNT(*) AS n_pairs
FROM me GROUP BY 1 ORDER BY 1
"""


MONGE_ELKAN_SQL = _monge_elkan_sql()



# ---------------------------------------------------------------------------
# Containment / overlap-coefficient pair census
# ---------------------------------------------------------------------------


def containment_pairs_census(sf_dir: str, bucket: int = _BUCKET,
                             max_members: int = _MAX_MEMBERS):
    """Token-set containment census — the near-containment signal a
    Jaccard dedup misses: a short doc fully quoted inside a long one
    scores low Jaccard but containment 1.0 (the boilerplate/quote
    detector of Lee et al.-style dedup suites).  Scored as the
    symmetric overlap coefficient ``|A ∩ B| / min(|A|, |B|)``
    (Szymkiewicz-Simpson), bucketed by pure-integer
    ``(inter * 20) // min(na, nb)`` so the oracle is exact.  Token
    sets are distinct md5-low64 word hashes (the tfidf-census
    tokenizer); zero-token documents never enter a block.  Output:
    (bucket, n_pairs) histogram over the cheap equality blocks.

    Scale shape: tokenization and hashing are doc-local (NO df
    exchange — unlike tfidf, containment needs no global weights), so
    the operator is the shared one-exchange census with each doc
    carrying its sorted hash array (the setsim gram-carry idiom;
    hashes, never text); intersections are sorted-array searchsorted
    inside the partition and only histogram partials leave."""
    from kawa_ray.functions.minhash import md5_low64_per_doc

    _ws = _WS

    def rows(df: pd.DataFrame) -> pd.DataFrame:
        def per_doc():
            for text in df["text"].fillna(""):
                yield (_ws.split(text.lower().strip())
                       if text.strip() else [])

        hs = [np.unique(h) for h in md5_low64_per_doc(per_doc())]
        keep = np.fromiter((h.size > 0 for h in hs), dtype=bool,
                           count=len(hs))
        if not keep.any():
            return pd.DataFrame({"k": pd.Series([], dtype="str"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "h": pd.Series([], dtype="object")})
        return pd.DataFrame({
            "k": _block_key(df[keep], bucket),
            "doc_id": df["doc_id"].to_numpy("int64")[keep],
            "h": pd.Series([h for h, k in zip(hs, keep) if k],
                           dtype="object"),
        })

    def score(g, ia, ib):
        hs = [np.asarray(h) for h in g["h"]]
        inter = np.fromiter((_shared(hs[x], hs[y])[1].sum()
                             for x, y in zip(ia, ib)),
                            dtype=np.int64, count=len(ia))
        size = np.fromiter((h.size for h in hs), dtype=np.int64,
                           count=len(hs))
        return (inter * 20) // np.minimum(size[ia], size[ib])

    return _census(_read(sf_dir).map_batches(rows, batch_format="pandas"),
                   max_members, "bucket", score)


def _containment_sql(bucket: int = _BUCKET,
                     max_members: int = _MAX_MEMBERS) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents),
gh AS (SELECT DISTINCT doc_id, md5_number_lower(g) AS th
       FROM (SELECT doc_id, UNNEST(t) AS g FROM toks) q),
sz AS (SELECT doc_id, COUNT(*) AS n FROM gh GROUP BY doc_id),
keyed AS (
  SELECT d.doc_id,
         d.lang || '|' || CAST(d.n_chars // {bucket} AS VARCHAR) AS k
  FROM documents d JOIN sz ON sz.doc_id = d.doc_id),
sized AS (SELECT *, COUNT(*) OVER (PARTITION BY k) AS m FROM keyed),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM sized a JOIN sized b ON a.k = b.k AND a.doc_id < b.doc_id
  WHERE a.m BETWEEN 2 AND {max_members}),
inter AS (
  SELECT p.a, p.b, COUNT(*) AS i
  FROM pairs p
  JOIN gh ga ON ga.doc_id = p.a
  JOIN gh gb ON gb.doc_id = p.b AND gb.th = ga.th
  GROUP BY p.a, p.b),
sc AS (
  SELECT CAST((COALESCE(n.i, 0) * 20) // LEAST(sa.n, sb.n) AS BIGINT)
         AS bucket
  FROM pairs p
  LEFT JOIN inter n ON n.a = p.a AND n.b = p.b
  JOIN sz sa ON sa.doc_id = p.a
  JOIN sz sb ON sb.doc_id = p.b)
SELECT bucket, COUNT(*) AS n_pairs FROM sc GROUP BY bucket ORDER BY bucket
"""


CONTAINMENT_SQL = _containment_sql()
