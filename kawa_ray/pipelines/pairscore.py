"""Batched edit-distance pair scoring — the cheap string-agreement
channel of a Fellegi-Sunter style match scorer (the north star's
"batched Jaro-Winkler/Levenshtein" scoring family; reference analogue:
kawa scores synonym candidates by surface agreement before the
embedding channel, ontology_builder.py's match counting).

``edit_distance_pairs_census`` blocks ``documents`` on the cheap
equality key ``lang | n_chars // 8`` (the multirule ``size`` rule made
finer), emits every within-block pair up to a block cap, and scores
each pair with the Levenshtein distance of the two 12-char text
prefixes.  Output: the distance histogram (distance, n_pairs) — the
score-distribution signal a linkage calibration step consumes.

DuckDB's ``levenshtein()`` is BYTE-level over UTF-8 (measured:
levenshtein('日本語テスト','日本語テキスト') = 3, the byte count of the
inserted キ, not 1), so the kernel here DPs over UTF-8 bytes to keep
the oracle exact; prefixes are sliced by CHARACTER first on both sides
(Python slicing == DuckDB SUBSTRING semantics).

Scale shape: ONE hash-partition exchange on the block key — pairs are
generated AND scored inside each partition, only per-distance partial
counts leave (histogram rows, never pairs); the DP is a numpy
(pairs x bytes x bytes) sweep vectorised across the pair axis, not a
per-pair Python loop.  Blocks above the cap are dropped whole
(replicated in the oracle — the standard stopword-block guard)."""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd

import ray.data as rd

from kawa_ray.stages.distinct import partition_join, partition_reduce

_WS = re.compile(r"\s+")

_ED_BUCKET = 8       # n_chars // bucket joins lang in the block key
_ED_PREFIX = 12      # chars scored per document
_ED_MAX_MEMBERS = 40
_ED_PARTITIONS = 64


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


def edit_distance_pairs_census(sf_dir: str, bucket: int = _ED_BUCKET,
                               prefix_chars: int = _ED_PREFIX,
                               max_members: int = _ED_MAX_MEMBERS):
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "text", "n_chars"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"k": pd.Series([], dtype="str"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "p": pd.Series([], dtype="str")})
        return pd.DataFrame({
            "k": df["lang"].fillna("") + "|"
            + (df["n_chars"].astype("int64") // bucket).astype(str),
            "doc_id": df["doc_id"].astype("int64"),
            "p": df["text"].fillna("").str.slice(0, prefix_chars),
        })

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["k"].to_numpy(), kind="stable")
        k = g["k"].to_numpy()[order]
        did = g["doc_id"].to_numpy()[order]
        ps = g["p"].to_numpy()[order]
        pa_b: list[bytes] = []
        pb_b: list[bytes] = []
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.concatenate((starts[1:], [len(k)]))
        for i, j in zip(starts, ends):
            m = j - i
            if m < 2 or m > max_members:
                continue
            mem = sorted(zip(did[i:j].tolist(), ps[i:j].tolist()))
            for x in range(m - 1):
                ebx = mem[x][1].encode("utf-8")
                for y in range(x + 1, m):
                    pa_b.append(ebx)
                    pb_b.append(mem[y][1].encode("utf-8"))
        d = lev_bytes_batch(pa_b, pb_b)
        if d.size == 0:
            return pd.DataFrame({"distance": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        vals, cnts = np.unique(d, return_counts=True)
        return pd.DataFrame({"distance": vals.astype("int64"),
                             "n_pairs": cnts.astype("int64")})

    acc: dict[int, int] = {}
    for batch in partition_reduce(
            docs.map_batches(keyed, batch_format="pandas"), "k", score_part,
            partitions=_ED_PARTITIONS).iter_batches(batch_format="pandas"):
        for dv, n in zip(batch["distance"], batch["n_pairs"]):
            acc[int(dv)] = acc.get(int(dv), 0) + int(n)
    out = pd.DataFrame(sorted(acc.items()), columns=["distance", "n_pairs"])
    out["distance"] = out["distance"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


def _edit_distance_sql(bucket: int = _ED_BUCKET,
                       prefix_chars: int = _ED_PREFIX,
                       max_members: int = _ED_MAX_MEMBERS) -> str:
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

_TC_BUCKET = 8        # same cheap block key as the edit-distance census
_TC_MAX_MEMBERS = 40
_TC_PARTITIONS = 64
_TC_SCALE = 1_000_000  # idf in integer micro-units


def tfidf_cosine_pairs_census(sf_dir: str, bucket: int = _TC_BUCKET,
                              max_members: int = _TC_MAX_MEMBERS):
    """TF-IDF cosine pair scoring — the weighted-token agreement channel
    (the Dedupe.io / canonical-ER default when no embedding model is
    wanted).  Token sets weighted by integer-micro idf
    (``floor(1e6 * ln(n_docs / df))`` — ``math.log`` is bit-identical
    to DuckDB ``LN``, the lm_quality.py trick), cosine computed in
    float64 from the exact integer dot/norms with one pinned operation
    order (num / (sqrt(na2) * sqrt(nb2))) so op and oracle produce the
    SAME double and the same ``floor(cos * 20)`` bucket.  Pairs come
    from the edit-distance census's ``lang | n_chars // 8`` equality
    blocks (capped); documents with zero tokens never enter a block
    (mirrored in the oracle).  Output: (bucket, n_pairs) histogram.

    Three hash-partition exchanges, none carrying text: df attaches on
    the token hash, per-doc norms + block keys attach on doc_id (one
    ``partition_join`` of token and attr rows), pairs score inside the
    block-key partition and only histogram partials leave."""
    import math

    from kawa_ray.functions.minhash import md5_low64_per_doc

    P = _TC_PARTITIONS
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "text", "n_chars"])
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
            "doc_id": df["doc_id"].astype("int64"),
            "k": df["lang"].fillna("") + "|"
            + (df["n_chars"].astype("int64") // bucket).astype(str),
        })

    def attach_key(toks: pd.DataFrame, keys: pd.DataFrame) -> pd.DataFrame:
        m = toks.merge(keys, on="doc_id", how="inner")
        n2 = m.groupby("doc_id")["w"].transform(lambda s: (s * s).sum())
        return m.assign(n2=n2.astype("int64"))

    keyed = partition_join(
        [(weighted, "doc_id"),
         (docs.map_batches(attr_rows, batch_format="pandas"), "doc_id")],
        attach_key, partitions=P)

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        out: dict[int, int] = {}
        for _, blk in g.groupby("k", sort=False):
            per_doc = {did: grp for did, grp in blk.groupby("doc_id",
                                                            sort=False)}
            mem = sorted(per_doc)
            if len(mem) < 2 or len(mem) > max_members:
                continue
            ths, ws, n2s = {}, {}, {}
            for d in mem:
                th = per_doc[d]["th"].to_numpy()
                w = per_doc[d]["w"].to_numpy()
                # the doc_id exchange reassembles a doc's rows in
                # arbitrary concat order — searchsorted NEEDS sorted th
                o = np.argsort(th)
                ths[d], ws[d] = th[o], w[o]
                n2s[d] = int(per_doc[d]["n2"].iloc[0])
            for x in range(len(mem) - 1):
                a = mem[x]
                ta, wa = ths[a], ws[a]
                for y in range(x + 1, len(mem)):
                    b = mem[y]
                    idx = np.searchsorted(ta, ths[b])
                    idx[idx >= ta.size] = 0
                    hit = ta[idx] == ths[b]
                    num = int((wa[idx[hit]].astype(np.int64)
                               * ws[b][hit].astype(np.int64)).sum())
                    if n2s[a] == 0 or n2s[b] == 0:
                        # a doc whose every token has idf 0 (appears in
                        # ALL docs) has zero norm; 0/0 is NaN — pin the
                        # convention to bucket 0, mirrored in the oracle
                        bkt = 0
                    else:
                        cos = num / (np.sqrt(np.float64(n2s[a]))
                                     * np.sqrt(np.float64(n2s[b])))
                        bkt = int(np.floor(cos * 20.0))
                    out[bkt] = out.get(bkt, 0) + 1
        if not out:
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        items = sorted(out.items())
        return pd.DataFrame({"bucket": pd.Series([k for k, _ in items],
                                                 dtype="int64"),
                             "n_pairs": pd.Series([v for _, v in items],
                                                  dtype="int64")})

    acc: dict[int, int] = {}
    for batch in partition_reduce(keyed, "k", score_part, partitions=P) \
            .iter_batches(batch_format="pandas"):
        for bv, n in zip(batch["bucket"], batch["n_pairs"]):
            acc[int(bv)] = acc.get(int(bv), 0) + int(n)
    out = pd.DataFrame(sorted(acc.items()), columns=["bucket", "n_pairs"])
    out["bucket"] = out["bucket"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


def _tfidf_cosine_sql(bucket: int = _TC_BUCKET,
                      max_members: int = _TC_MAX_MEMBERS) -> str:
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

_JW_BUCKET = 8
_JW_PREFIX = 16      # chars scored per document
_JW_MAX_MEMBERS = 40
_JW_PARTITIONS = 64


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


def jaro_winkler_pairs_census(sf_dir: str, bucket: int = _JW_BUCKET,
                              prefix_chars: int = _JW_PREFIX,
                              max_members: int = _JW_MAX_MEMBERS):
    """Jaro-Winkler pair scoring — the classic record-linkage name
    agreement channel (Winkler 1990, the Census Bureau scorer; every
    Fellegi-Sunter implementation ships it).  Same equality blocks and
    histogram shape as the edit-distance census, with similarity
    bucketed ``floor(sim * 20)``; the kernel is bit-exact vs DuckDB so
    the bucket boundaries can never disagree.  Scale shape: ONE
    hash-partition exchange on the block key, pairs generated and
    scored inside the partition, only (bucket, count) partials leave."""
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "text", "n_chars"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"k": pd.Series([], dtype="str"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "p": pd.Series([], dtype="str")})
        return pd.DataFrame({
            "k": df["lang"].fillna("") + "|"
            + (df["n_chars"].astype("int64") // bucket).astype(str),
            "doc_id": df["doc_id"].astype("int64"),
            "p": df["text"].fillna("").str.slice(0, prefix_chars),
        })

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["k"].to_numpy(), kind="stable")
        k = g["k"].to_numpy()[order]
        did = g["doc_id"].to_numpy()[order]
        ps = g["p"].to_numpy()[order]
        pa_b: list[bytes] = []
        pb_b: list[bytes] = []
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.concatenate((starts[1:], [len(k)]))
        for i, j in zip(starts, ends):
            m = j - i
            if m < 2 or m > max_members:
                continue
            mem = sorted(zip(did[i:j].tolist(), ps[i:j].tolist()))
            for x in range(m - 1):
                ebx = mem[x][1].encode("utf-8")
                for y in range(x + 1, m):
                    pa_b.append(ebx)
                    pb_b.append(mem[y][1].encode("utf-8"))
        sim = jw_bytes_batch(pa_b, pb_b)
        if sim.size == 0:
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        vals, cnts = np.unique(
            np.floor(sim * 20.0).astype(np.int64), return_counts=True)
        return pd.DataFrame({"bucket": vals.astype("int64"),
                             "n_pairs": cnts.astype("int64")})

    acc: dict[int, int] = {}
    for batch in partition_reduce(
            docs.map_batches(keyed, batch_format="pandas"), "k", score_part,
            partitions=_JW_PARTITIONS).iter_batches(batch_format="pandas"):
        for bv, nv in zip(batch["bucket"], batch["n_pairs"]):
            acc[int(bv)] = acc.get(int(bv), 0) + int(nv)
    out = pd.DataFrame(sorted(acc.items()), columns=["bucket", "n_pairs"])
    out["bucket"] = out["bucket"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


def _jaro_winkler_sql(bucket: int = _JW_BUCKET,
                      prefix_chars: int = _JW_PREFIX,
                      max_members: int = _JW_MAX_MEMBERS) -> str:
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

_FS_BUCKET = 8
_FS_PREFIX = 16
_FS_MAX_MEMBERS = 40
_FS_PARTITIONS = 64

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


def fs_decision_census(sf_dir: str, bucket: int = _FS_BUCKET,
                       prefix_chars: int = _FS_PREFIX,
                       max_members: int = _FS_MAX_MEMBERS):
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
    vector.

    Scale shape: identical to the other pair censuses — ONE
    hash-partition exchange on the cheap block key, channels computed
    batch-vectorised inside the partition, only (pattern, count)
    partials leave."""
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "text", "n_chars",
                                    "source"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"k": pd.Series([], dtype="str"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "p": pd.Series([], dtype="str"),
                                 "src": pd.Series([], dtype="str")})
        return pd.DataFrame({
            "k": df["lang"].fillna("") + "|"
            + (df["n_chars"].astype("int64") // bucket).astype(str),
            "doc_id": df["doc_id"].astype("int64"),
            "p": df["text"].fillna("").str.slice(0, prefix_chars),
            "src": df["source"].fillna(""),
        })

    jw_thresh = np.float64(_FS_JW_T)

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["k"].to_numpy(), kind="stable")
        k = g["k"].to_numpy()[order]
        did = g["doc_id"].to_numpy()[order]
        ps = g["p"].to_numpy()[order]
        srcs = g["src"].to_numpy()[order]
        pa_b: list[bytes] = []
        pb_b: list[bytes] = []
        sa: list[str] = []
        sb: list[str] = []
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.concatenate((starts[1:], [len(k)]))
        for i, j in zip(starts, ends):
            m = j - i
            if m < 2 or m > max_members:
                continue
            mem = sorted(zip(did[i:j].tolist(), ps[i:j].tolist(),
                             srcs[i:j].tolist()))
            for x in range(m - 1):
                ebx = mem[x][1].encode("utf-8")
                for y in range(x + 1, m):
                    pa_b.append(ebx)
                    pb_b.append(mem[y][1].encode("utf-8"))
                    sa.append(mem[x][2])
                    sb.append(mem[y][2])
        if not pa_b:
            return pd.DataFrame({"pattern": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        c_jw = jw_bytes_batch(pa_b, pb_b) >= jw_thresh
        c_lev = lev_bytes_batch(pa_b, pb_b) <= _FS_LEV_T
        c_src = np.asarray(sa, dtype=object) == np.asarray(sb, dtype=object)
        pattern = (4 * c_jw.astype(np.int64) + 2 * c_lev.astype(np.int64)
                   + c_src.astype(np.int64))
        vals, cnts = np.unique(pattern, return_counts=True)
        return pd.DataFrame({"pattern": vals.astype("int64"),
                             "n_pairs": cnts.astype("int64")})

    acc: dict[int, int] = {}
    for batch in partition_reduce(
            docs.map_batches(keyed, batch_format="pandas"), "k", score_part,
            partitions=_FS_PARTITIONS).iter_batches(batch_format="pandas"):
        for pv, nv in zip(batch["pattern"], batch["n_pairs"]):
            acc[int(pv)] = acc.get(int(pv), 0) + int(nv)

    def _decision(pattern: int) -> str:
        w = (_FS_W["jw"][0] if pattern & 4 else _FS_W["jw"][1]) \
            + (_FS_W["lev"][0] if pattern & 2 else _FS_W["lev"][1]) \
            + (_FS_W["src"][0] if pattern & 1 else _FS_W["src"][1])
        if w >= _FS_MATCH_T:
            return "match"
        if w >= _FS_POSSIBLE_T:
            return "possible"
        return "nonmatch"

    items = sorted(acc.items())
    out = pd.DataFrame({
        "pattern": pd.Series([p for p, _ in items], dtype="int64"),
        "decision": pd.Series([_decision(p) for p, _ in items],
                              dtype="str"),
        "n_pairs": pd.Series([n for _, n in items], dtype="int64"),
    })
    return out.reset_index(drop=True)


def _fs_decision_sql(bucket: int = _FS_BUCKET,
                     prefix_chars: int = _FS_PREFIX,
                     max_members: int = _FS_MAX_MEMBERS) -> str:
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

_MB_BUCKET = 8
_MB_PREFIX = 16
_MB_MAX_MEMBERS = 40
_MB_PARTITIONS = 64
_MB_THRESHOLD = 0.6   # mutual pairs below this JW are not matches


def mutual_best_match_census(sf_dir: str, bucket: int = _MB_BUCKET,
                             prefix_chars: int = _MB_PREFIX,
                             max_members: int = _MB_MAX_MEMBERS,
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
    the per-record argmax is block-local — the whole operator is ONE
    hash-partition exchange on the block key, ordered pairs generated
    and scored batch-vectorised inside the partition (both directions,
    mirroring the oracle's asymmetric scan), only (bucket, count)
    partials leave.  Reference analogue: kawa keeps one synonym target
    per surface in the word2ner fix cascade (word2ner_fix.py's
    best-candidate selection); here the decision is the symmetric
    reciprocal-best rule of the ER literature."""
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "text", "n_chars"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"k": pd.Series([], dtype="str"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "p": pd.Series([], dtype="str")})
        return pd.DataFrame({
            "k": df["lang"].fillna("") + "|"
            + (df["n_chars"].astype("int64") // bucket).astype(str),
            "doc_id": df["doc_id"].astype("int64"),
            "p": df["text"].fillna("").str.slice(0, prefix_chars),
        })

    thr = np.float64(threshold)

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["k"].to_numpy(), kind="stable")
        k = g["k"].to_numpy()[order]
        did = g["doc_id"].to_numpy()[order]
        ps = g["p"].to_numpy()[order]
        aid_l: list[np.ndarray] = []
        bid_l: list[np.ndarray] = []
        pa_b: list[bytes] = []
        pb_b: list[bytes] = []
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.concatenate((starts[1:], [len(k)]))
        for i, j in zip(starts, ends):
            m = j - i
            if m < 2 or m > max_members:
                continue
            mem = sorted(zip(did[i:j].tolist(), ps[i:j].tolist()))
            ids = np.asarray([d for d, _ in mem], dtype=np.int64)
            enc = [p.encode("utf-8") for _, p in mem]
            # ordered pairs (x != y), mirroring the oracle's scan
            ia, ib = np.nonzero(~np.eye(m, dtype=bool))
            aid_l.append(ids[ia])
            bid_l.append(ids[ib])
            pa_b.extend(enc[x] for x in ia)
            pb_b.extend(enc[y] for y in ib)
        if not pa_b:
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        aid = np.concatenate(aid_l)
        bid = np.concatenate(bid_l)
        s = jw_bytes_batch(pa_b, pb_b)
        # per-record best: score DESC, counterpart doc_id ASC (doc_ids
        # are globally unique and blocks never share a doc, so the
        # argmax groups by aid alone across the whole partition)
        o = np.lexsort((bid, -s, aid))
        a_sorted = aid[o]
        first = np.concatenate(([True], a_sorted[1:] != a_sorted[:-1]))
        best = pd.Series(bid[o][first], index=a_sorted[first])
        sel = aid < bid
        a_s, b_s, s_s = aid[sel], bid[sel], s[sel]
        ok = ((best.reindex(a_s).to_numpy() == b_s)
              & (best.reindex(b_s).to_numpy() == a_s)
              & (s_s >= thr))
        if not ok.any():
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        vals, cnts = np.unique(
            np.floor(s_s[ok] * 20.0).astype(np.int64), return_counts=True)
        return pd.DataFrame({"bucket": vals.astype("int64"),
                             "n_pairs": cnts.astype("int64")})

    acc: dict[int, int] = {}
    for batch in partition_reduce(
            docs.map_batches(keyed, batch_format="pandas"), "k", score_part,
            partitions=_MB_PARTITIONS).iter_batches(batch_format="pandas"):
        for bv, nv in zip(batch["bucket"], batch["n_pairs"]):
            acc[int(bv)] = acc.get(int(bv), 0) + int(nv)
    out = pd.DataFrame(sorted(acc.items()), columns=["bucket", "n_pairs"])
    out["bucket"] = out["bucket"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


def _mutual_best_sql(bucket: int = _MB_BUCKET,
                     prefix_chars: int = _MB_PREFIX,
                     max_members: int = _MB_MAX_MEMBERS,
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

_ME_BUCKET = 8
_ME_TOKENS = 5        # first K tokens per document enter the score
_ME_MAX_MEMBERS = 40
_ME_PARTITIONS = 64
_ME_SCALE = 1_000_000  # per-token JW in integer micro-units


def monge_elkan_pairs_census(sf_dir: str, bucket: int = _ME_BUCKET,
                             k_tokens: int = _ME_TOKENS,
                             max_members: int = _ME_MAX_MEMBERS):
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

    Scale shape: ONE hash-partition exchange on the cheap equality
    block key; the <= K*K token-pair fan-out per pair is generated and
    scored batch-vectorised inside the partition (maximum.reduceat on
    the (pair, i) run boundaries), only histogram partials leave."""
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "text", "n_chars"])

    _ws = _WS

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        out_k, out_id, out_t = [], [], []
        for did, lang, text, nch in zip(
                df["doc_id"], df["lang"], df["text"].fillna(""),
                df["n_chars"]):
            toks = (_ws.split(text.lower().strip())[:k_tokens]
                    if text.strip() else [])
            if not toks:
                continue
            out_k.append(f"{lang if lang is not None else ''}|"
                         f"{int(nch) // bucket}")
            out_id.append(int(did))
            out_t.append("\x1f".join(toks))
        return pd.DataFrame({
            "k": pd.Series(out_k, dtype="str"),
            "doc_id": pd.Series(out_id, dtype="int64"),
            "t": pd.Series(out_t, dtype="str"),
        })

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["k"].to_numpy(), kind="stable")
        k = g["k"].to_numpy()[order]
        did = g["doc_id"].to_numpy()[order]
        ts = g["t"].to_numpy()[order]
        pa_b: list[bytes] = []
        pb_b: list[bytes] = []
        pid_l: list[int] = []
        ii_l: list[int] = []
        na_l: list[int] = []      # n_tokens_a per pair ordinal
        npair = 0
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.concatenate((starts[1:], [len(k)]))
        for i, j in zip(starts, ends):
            m = j - i
            if m < 2 or m > max_members:
                continue
            mem = sorted(zip(did[i:j].tolist(), ts[i:j].tolist()))
            toks = [[w.encode("utf-8") for w in t.split("\x1f")]
                    for _, t in mem]
            for x in range(m - 1):
                ta = toks[x]
                for y in range(x + 1, m):
                    tb = toks[y]
                    for ii, wa in enumerate(ta):
                        for wb in tb:
                            pa_b.append(wa)
                            pb_b.append(wb)
                            pid_l.append(npair)
                            ii_l.append(ii)
                    na_l.append(len(ta))
                    npair += 1
        if not pa_b:
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        w = np.floor(jw_bytes_batch(pa_b, pb_b)
                     * float(_ME_SCALE)).astype(np.int64)
        pid = np.asarray(pid_l, dtype=np.int64)
        ii = np.asarray(ii_l, dtype=np.int64)
        # rows are emitted sorted by (pid, ii, j) — reduce on run starts
        key_change = np.concatenate(
            ([True], (pid[1:] != pid[:-1]) | (ii[1:] != ii[:-1])))
        run_starts = np.flatnonzero(key_change)
        mx = np.maximum.reduceat(w, run_starts)
        mx_pid = pid[run_starts]
        pair_starts = np.flatnonzero(
            np.concatenate(([True], mx_pid[1:] != mx_pid[:-1])))
        sums = np.add.reduceat(mx, pair_starts)
        na = np.asarray(na_l, dtype=np.int64)[mx_pid[pair_starts]]
        buckets = (sums * 20) // (_ME_SCALE * na)
        vals, cnts = np.unique(buckets, return_counts=True)
        return pd.DataFrame({"bucket": vals.astype("int64"),
                             "n_pairs": cnts.astype("int64")})

    acc: dict[int, int] = {}
    for batch in partition_reduce(
            docs.map_batches(keyed, batch_format="pandas"), "k", score_part,
            partitions=_ME_PARTITIONS).iter_batches(batch_format="pandas"):
        for bv, nv in zip(batch["bucket"], batch["n_pairs"]):
            acc[int(bv)] = acc.get(int(bv), 0) + int(nv)
    out = pd.DataFrame(sorted(acc.items()), columns=["bucket", "n_pairs"])
    out["bucket"] = out["bucket"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


def _monge_elkan_sql(bucket: int = _ME_BUCKET,
                     k_tokens: int = _ME_TOKENS,
                     max_members: int = _ME_MAX_MEMBERS) -> str:
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

_CT_BUCKET = 8
_CT_MAX_MEMBERS = 40
_CT_PARTITIONS = 64


def containment_pairs_census(sf_dir: str, bucket: int = _CT_BUCKET,
                             max_members: int = _CT_MAX_MEMBERS):
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
    the operator is ONE hash-partition exchange on the block key with
    each doc carrying its sorted hash array (the setsim gram-carry
    idiom; hashes, never text); intersections are sorted-array
    searchsorted inside the partition and only histogram partials
    leave.  Blocks above the cap drop whole, mirrored in the oracle."""
    from kawa_ray.functions.minhash import md5_low64_per_doc

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "text", "n_chars"])

    _ws = _WS

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        def per_doc():
            for text in df["text"].fillna(""):
                yield (_ws.split(text.lower().strip())
                       if text.strip() else [])

        out_k, out_id, out_h = [], [], []
        for did, lang, nch, hs in zip(df["doc_id"], df["lang"],
                                      df["n_chars"],
                                      md5_low64_per_doc(per_doc())):
            uh = np.unique(hs)
            if uh.size == 0:
                continue
            out_k.append(f"{lang if lang is not None else ''}|"
                         f"{int(nch) // bucket}")
            out_id.append(int(did))
            out_h.append(uh)
        return pd.DataFrame({
            "k": pd.Series(out_k, dtype="str"),
            "doc_id": pd.Series(out_id, dtype="int64"),
            "h": pd.Series(out_h, dtype="object"),
        })

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["k"].to_numpy(), kind="stable")
        k = g["k"].to_numpy()[order]
        did = g["doc_id"].to_numpy()[order]
        hs = g["h"].to_numpy()[order]
        out: dict[int, int] = {}
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.concatenate((starts[1:], [len(k)]))
        for i, j in zip(starts, ends):
            m = j - i
            if m < 2 or m > max_members:
                continue
            mem = sorted(zip(did[i:j].tolist(), hs[i:j]))
            for x in range(m - 1):
                ha = np.asarray(mem[x][1])
                na = ha.size
                for y in range(x + 1, m):
                    hb = np.asarray(mem[y][1])
                    idx = np.searchsorted(ha, hb)
                    idx[idx >= na] = 0
                    inter = int((ha[idx] == hb).sum())
                    bkt = (inter * 20) // min(na, hb.size)
                    out[bkt] = out.get(bkt, 0) + 1
        if not out:
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        items = sorted(out.items())
        return pd.DataFrame({
            "bucket": pd.Series([b for b, _ in items], dtype="int64"),
            "n_pairs": pd.Series([n for _, n in items], dtype="int64")})

    acc: dict[int, int] = {}
    for batch in partition_reduce(
            docs.map_batches(keyed, batch_format="pandas"), "k", score_part,
            partitions=_CT_PARTITIONS).iter_batches(batch_format="pandas"):
        for bv, nv in zip(batch["bucket"], batch["n_pairs"]):
            acc[int(bv)] = acc.get(int(bv), 0) + int(nv)
    out = pd.DataFrame(sorted(acc.items()), columns=["bucket", "n_pairs"])
    out["bucket"] = out["bucket"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


def _containment_sql(bucket: int = _CT_BUCKET,
                     max_members: int = _CT_MAX_MEMBERS) -> str:
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
