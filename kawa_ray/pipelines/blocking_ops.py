"""Classic ER candidate-generation methods beyond the reference's own
LSH / lexicon-key blocking: sorted-neighborhood (Hernandez & Stolfo,
SIGMOD 1995) and meta-blocking pair weighting (Papadakis et al., TKDE
2014).  Both are census-shaped (summary-sized outputs) with exact
DuckDB oracles; both run over the ``documents`` table.

Scale shapes
------------
``snm_blocking_census`` is the sort-based blocking family: the global
sort is realised as an ordered-prefix bucket shuffle plus a distributed
prefix sum (the ``pack_sequences_plan`` idiom) — no stage holds more
than one bucket, no driver table bigger than the distinct bucket
prefixes (bounded by langs x charset^2; raise ``bucket_chars`` at
10^12 docs).  The sliding window never materialises pairs as a
dataset: the rank-block shuffle ships two small copies of each rank
row (owner + ghost) and each partition folds its pair census in-batch.

``metablocking_census`` reuses the MinHash-LSH banding stage
(docs._cross_dump_band_rows) and counts, per candidate pair, HOW MANY
band buckets propose it (the CBS weight of Papadakis et al.) — the
pruning signal that lets a 100 TB blocking graph drop low-evidence
pairs before any expensive verify.  Two hash-partition exchanges
(band key, then pair), per-partition in-batch reduction, histogram
partials fold on the driver (weight <= bands rows).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from kawa_ray.stages.distinct import partition_reduce


def _read_docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=columns)


# ---------------------------------------------------------------------------
# sorted-neighborhood blocking
# ---------------------------------------------------------------------------

_SNM_WINDOW = 6
_SNM_KEY_CHARS = 16
_SNM_BUCKET_CHARS = 2
_SNM_PARTITIONS = 64


def snm_blocking_census(sf_dir: str, window: int = _SNM_WINDOW,
                        partitions: int = _SNM_PARTITIONS):
    """Sorted-neighborhood candidate pairs: sort every document by
    ``lang || '|' || substr(text, 1, 16)`` (doc_id tiebreak), slide a
    ``window``-row window, pair each row with its <window predecessors.
    Census over the candidate set, grouped by whether the pair crosses
    a language boundary: pair count, same-source count, summed
    |n_chars| gap — the cheap agreement signals an SNM pass feeds to a
    match scorer.

    Three streaming passes, zero driver state beyond the bucket-offset
    dict (distinct ``lang|2-char-prefix`` strings):

    1. bucket counts -> global rank offsets (driver fold; ordered
       prefix buckets, so lexicographic bucket order == global key
       order);
    2. bucket hash-shuffle -> per-bucket in-partition sort assigns each
       row its GLOBAL rank (offset + position);
    3. rank-block shuffle (block = rank // window): each rank row is
       shipped to its own block (owner) and the next (ghost), so every
       window pair is generated exactly once, in the block of its
       later member — pairs never exist as a dataset, each partition
       folds its census partial in-batch.

    Only (rank, lang, source, n_chars) cross the wide exchanges — the
    16-char sort key dies at pass 2, the text never leaves pass 1/2's
    map stage.  Skew note: a hot key prefix concentrates one bucket on
    one partition; at real CC scale raise ``_SNM_BUCKET_CHARS`` so
    buckets stay fine-grained (they only need to fit a partition)."""
    w = int(window)
    kc, bc = _SNM_KEY_CHARS, _SNM_BUCKET_CHARS

    # pass 1: bucket counts -> rank offsets
    ds1 = _read_docs(sf_dir, ["lang", "text"])

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:  # a 0-row block has no string dtype for .str
            return pd.DataFrame({"bucket": pd.Series([], dtype="str"),
                                 "n": pd.Series([], dtype="int64")})
        # fillna: a NaN key would be silently dropped by the groupby
        # while the SQL oracle's ROW_NUMBER still ranks NULL-key rows —
        # keying on '' keeps op and oracle aligned by construction
        b = df["lang"].fillna("") + "|" + df["text"].fillna("").str.slice(0, bc)
        return b.groupby(b).size().rename("n").rename_axis("bucket").reset_index()

    counts: dict[str, int] = {}
    for batch in ds1.map_batches(bucket_counts, batch_format="pandas") \
                    .iter_batches(batch_format="pandas"):
        for k, n in zip(batch["bucket"], batch["n"]):
            counts[k] = counts.get(k, 0) + int(n)
    offsets: dict[str, int] = {}
    acc = 0
    for k in sorted(counts):  # prefix-bucket order == global key order
        offsets[k] = acc
        acc += counts[k]
    off_ref = ray.put(offsets)

    # pass 2: global ranks
    ds2 = _read_docs(sf_dir, ["doc_id", "lang", "source", "n_chars", "text"])

    def key_rows(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"bucket": pd.Series([], dtype="str"),
                                 "skey": pd.Series([], dtype="str"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "lang": pd.Series([], dtype="str"),
                                 "source": pd.Series([], dtype="str"),
                                 "n_chars": pd.Series([], dtype="int64")})
        lang = df["lang"].fillna("")
        text = df["text"].fillna("")
        return pd.DataFrame({
            "bucket": lang + "|" + text.str.slice(0, bc),
            "skey": lang + "|" + text.str.slice(0, kc),
            "doc_id": df["doc_id"].to_numpy("int64"),
            "lang": df["lang"].to_numpy(),
            "source": df["source"].to_numpy(),
            "n_chars": df["n_chars"].to_numpy("int64"),
        })

    def rank_part(g: pd.DataFrame, _ref=off_ref) -> pd.DataFrame:
        offs = ray.get(_ref)
        out = []
        for bkt, grp in g.groupby("bucket", sort=False):
            grp = grp.sort_values(["skey", "doc_id"], kind="mergesort")
            out.append(pd.DataFrame({
                "rank": offs[bkt] + np.arange(len(grp), dtype=np.int64),
                "lang": grp["lang"].to_numpy(),
                "source": grp["source"].to_numpy(),
                "n_chars": grp["n_chars"].to_numpy("int64"),
            }))
        if not out:
            return pd.DataFrame({"rank": pd.Series([], dtype="int64"),
                                 "lang": pd.Series([], dtype="str"),
                                 "source": pd.Series([], dtype="str"),
                                 "n_chars": pd.Series([], dtype="int64")})
        return pd.concat(out, ignore_index=True)

    ranked = partition_reduce(
        ds2.map_batches(key_rows, batch_format="pandas"),
        "bucket", rank_part, partitions=partitions)

    # pass 3: rank-block shuffle -> in-partition window pairs
    def copies(df: pd.DataFrame) -> pd.DataFrame:
        r = df["rank"].to_numpy(np.int64)
        own = df.assign(g=r // w, owner=True)
        gho = df.assign(g=r // w + 1, owner=False)
        return pd.concat([own, gho], ignore_index=True)

    def pair_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["g", "rank"], kind="mergesort")
        gv = g["g"].to_numpy(np.int64)
        rv = g["rank"].to_numpy(np.int64)
        own = g["owner"].to_numpy(bool)
        langs = g["lang"].to_numpy()
        srcs = g["source"].to_numpy()
        nc = g["n_chars"].to_numpy(np.int64)
        parts = []
        for d in range(1, w):
            if len(gv) <= d:
                break
            # within one g-block ranks are contiguous & complete, so
            # array distance d == rank distance d; the rank check is a
            # guard, not a semantic branch
            m = (gv[d:] == gv[:-d]) & own[d:] & (rv[d:] - rv[:-d] == d)
            if not m.any():
                continue
            parts.append(pd.DataFrame({
                "same_lang": langs[:-d][m] == langs[d:][m],
                "ss": (srcs[:-d][m] == srcs[d:][m]).astype(np.int64),
                "dc": np.abs(nc[d:][m] - nc[:-d][m]),
            }))
        if not parts:
            return pd.DataFrame({"same_lang": pd.Series([], dtype="bool"),
                                 "n_pairs": pd.Series([], dtype="int64"),
                                 "n_same_source": pd.Series([], dtype="int64"),
                                 "sum_abs_dchars": pd.Series([], dtype="int64")})
        p = pd.concat(parts, ignore_index=True)
        return p.groupby("same_lang", as_index=False).agg(
            n_pairs=("ss", "size"), n_same_source=("ss", "sum"),
            sum_abs_dchars=("dc", "sum"))

    acc2: dict[bool, list[int]] = {}
    folded = partition_reduce(
        ranked.map_batches(copies, batch_format="pandas"),
        "g", pair_part, partitions=partitions)
    for batch in folded.iter_batches(batch_format="pandas"):
        for sl, np_, ns, dc in zip(batch["same_lang"], batch["n_pairs"],
                                   batch["n_same_source"],
                                   batch["sum_abs_dchars"]):
            a = acc2.setdefault(bool(sl), [0, 0, 0])
            a[0] += int(np_); a[1] += int(ns); a[2] += int(dc)
    out = pd.DataFrame(
        [(sl, a[0], a[1], a[2]) for sl, a in acc2.items()],
        columns=["same_lang", "n_pairs", "n_same_source", "sum_abs_dchars"])
    for c in ("n_pairs", "n_same_source", "sum_abs_dchars"):
        out[c] = out[c].astype("int64")
    out["same_lang"] = out["same_lang"].astype(bool)
    return out.sort_values("same_lang").reset_index(drop=True)


def _snm_sql(window: int = _SNM_WINDOW) -> str:
    return f"""
WITH ranked AS (
  SELECT doc_id, lang, source, n_chars,
         ROW_NUMBER() OVER (
           ORDER BY lang || '|' || substr(text, 1, {_SNM_KEY_CHARS}), doc_id
         ) - 1 AS r
  FROM documents
), pairs AS (
  SELECT (a.lang = b.lang) AS same_lang,
         CASE WHEN a.source = b.source THEN 1 ELSE 0 END AS ss,
         ABS(a.n_chars - b.n_chars) AS dc
  FROM ranked a JOIN ranked b ON b.r > a.r AND b.r - a.r < {window}
)
SELECT same_lang, COUNT(*) AS n_pairs,
       CAST(SUM(ss) AS BIGINT) AS n_same_source,
       CAST(SUM(dc) AS BIGINT) AS sum_abs_dchars
FROM pairs GROUP BY same_lang ORDER BY same_lang
"""


SNM_BLOCKING_SQL = _snm_sql()


# ---------------------------------------------------------------------------
# meta-blocking (CBS pair weights over MinHash-LSH blocks)
# ---------------------------------------------------------------------------

_MB_MAX_MEMBERS = 64


def _segment_pairs(key_col: str, max_members: int, keep_keys: bool = False):
    """Per-partition equality-block pair emitter: one numpy segment
    split on ``key_col`` (the ``_partitioned_band_pairs`` idiom —
    groupby.map_groups pays per-group dispatch, this pays per
    partition), blocks larger than ``max_members`` dropped whole.
    Emits one (a, b) row per block membership — NOT deduplicated
    across blocks, so callers can count multiplicity (meta-blocking)
    or dedup downstream (union blocking).  ``keep_keys`` adds the
    block key as a column (callers that fuse several keyed rules into
    one shuffle recover the rule from it)."""

    def pairs_part(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g[key_col].to_numpy(), kind="stable")
        keys = g[key_col].to_numpy()[order]
        ids = g["doc_id"].to_numpy()[order]
        out_a: list[int] = []
        out_b: list[int] = []
        out_k: list = []
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        ends = np.concatenate((starts[1:], [len(keys)]))
        for i, j in zip(starts, ends):
            mem = sorted(set(ids[i:j].tolist()))
            if len(mem) < 2 or len(mem) > max_members:
                continue
            for x in range(len(mem) - 1):
                for y in range(x + 1, len(mem)):
                    out_a.append(mem[x])
                    out_b.append(mem[y])
                    if keep_keys:
                        out_k.append(keys[i])
        out = {"a": pd.Series(out_a, dtype="int64"),
               "b": pd.Series(out_b, dtype="int64")}
        if keep_keys:
            out["k"] = pd.Series(out_k, dtype="str")
        return pd.DataFrame(out)

    return pairs_part


def metablocking_census(sf_dir: str, num_perm: int = 64, bands: int = 16,
                        max_members: int = _MB_MAX_MEMBERS):
    """Meta-blocking pair-weight histogram: blocks are the MinHash-LSH
    band buckets (same banding as the cross-dump family), a candidate
    pair's weight is the NUMBER of buckets proposing it (the CBS scheme
    of Papadakis et al.) — weight >= 2 is the standard low-evidence
    pruning gate.  Output: one row per weight with its pair count
    (weight <= bands, so the result is always tiny).

    Buckets larger than ``max_members`` are dropped whole (the
    stopword-like surface guard, identical to the dedup family's
    per-segment caps and replicated exactly in the oracle).  Two
    hash-partition exchanges: band rows on the band key (in-partition
    segment split -> pair emission), pairs on ``a`` (same (a,b) always
    co-locates; in-partition weight count + histogram partial)."""
    from kawa_ray.pipelines.docs import _cross_dump_band_rows

    banded = _cross_dump_band_rows(sf_dir, num_perm, bands) \
        .map_batches(lambda df: df[["doc_id", "band"]], batch_format="pandas")

    pairs_part = _segment_pairs("band", max_members)

    def weight_part(g: pd.DataFrame) -> pd.DataFrame:
        wt = g.groupby(["a", "b"]).size().reset_index(name="w")
        h = wt.groupby("w").size().reset_index(name="n_pairs")
        return pd.DataFrame({"weight": h["w"].astype("int64"),
                             "n_pairs": h["n_pairs"].astype("int64")})

    acc: dict[int, int] = {}
    folded = partition_reduce(
        partition_reduce(banded, "band", pairs_part), "a", weight_part)
    for batch in folded.iter_batches(batch_format="pandas"):
        for wv, n in zip(batch["weight"], batch["n_pairs"]):
            acc[int(wv)] = acc.get(int(wv), 0) + int(n)
    out = pd.DataFrame(sorted(acc.items()), columns=["weight", "n_pairs"])
    out["weight"] = out["weight"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


def _metablocking_sql(num_perm: int = 64, bands: int = 16,
                      max_members: int = _MB_MAX_MEMBERS) -> str:
    from kawa_ray.functions.minhash import _MERSENNE, perm_params
    from kawa_ray.pipelines.docs import _grams_cte

    a, b = perm_params(num_perm)
    perm_rows = ",".join(
        f"({i},{int(ai)},{int(bi)})" for i, (ai, bi) in enumerate(zip(a, b))
    )
    rows_per_band = num_perm // bands
    u64 = 1 << 64
    return f"""
WITH RECURSIVE {_grams_cte(3)}
, perms(i, pa, pb) AS (VALUES {perm_rows})
, hm AS (SELECT doc_id, md5_number_lower(g) % {_MERSENNE} AS hm FROM grams)
, sig AS (
  SELECT doc_id, i,
         MIN(((CAST(pa AS HUGEINT) * hm) % {u64} + pb) % {u64} % {_MERSENNE}) AS v
  FROM hm CROSS JOIN perms GROUP BY doc_id, i)
, bands AS (
  SELECT doc_id, i // {rows_per_band} AS band,
         STRING_AGG(CAST(v AS VARCHAR), ',' ORDER BY i) AS bkey
  FROM sig GROUP BY doc_id, i // {rows_per_band})
, sized AS (
  SELECT doc_id, band, bkey,
         COUNT(*) OVER (PARTITION BY band, bkey) AS m
  FROM bands)
, pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM sized a JOIN sized b
    ON a.band = b.band AND a.bkey = b.bkey AND a.doc_id < b.doc_id
  WHERE a.m <= {max_members})
, weights AS (SELECT a, b, COUNT(*) AS w FROM pairs GROUP BY a, b)
SELECT CAST(w AS BIGINT) AS weight, COUNT(*) AS n_pairs
FROM weights GROUP BY w ORDER BY w
"""


METABLOCKING_SQL = _metablocking_sql()


# ---------------------------------------------------------------------------
# multi-rule union blocking (the Splink-style OR of blocking rules)
# ---------------------------------------------------------------------------

_MR_SIZE_BUCKET = 16


def multirule_blocking_census(sf_dir: str, num_perm: int = 64,
                              bands: int = 16,
                              max_members: int = _MB_MAX_MEMBERS):
    """Union-of-blocking-rules candidate census — production record
    linkage ORs several cheap rules so no single key's misses dominate
    recall (the Splink / Dedupe.io idiom).  Three rules over
    ``documents``:

    * ``band``   — any shared MinHash-LSH band bucket (fuzzy content);
    * ``prefix`` — equal ``lang|16-char text prefix`` (the SNM key as an
      equality rule);
    * ``size``   — equal ``(lang, n_chars // 16)`` bucket (cheap numeric
      agreement).

    Output: one row per rule with its DISTINCT candidate-pair count,
    plus the ``union`` row (distinct pairs proposed by >= 1 rule) —
    the rule-overlap signal that says what each rule adds.  Blocks
    above ``max_members`` are dropped whole (replicated in the oracle).

    All four distinct counts ride ONE pair exchange: each rule's pair
    stream is tagged and unioned lazily, hash-partitioned on ``a``
    (same (a, b) always co-locates), and each partition folds distinct
    per-rule + distinct-overall partials in-batch — candidate pairs
    never reach the driver.  The two EQUALITY rules (prefix, size)
    share one read and one keyed exchange: both keys are emitted
    rule-prefixed into the same shuffle, and the segment splitter
    recovers the rule from the key — three exchanges total (band key,
    equality keys, pairs)."""
    tagged = _multirule_tagged_pairs(sf_dir, num_perm, bands, max_members)

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        per_rule = (g.drop_duplicates(["rule", "a", "b"])
                    .groupby("rule").size().reset_index(name="n_pairs"))
        n_union = len(g.drop_duplicates(["a", "b"]))
        return pd.concat(
            [per_rule, pd.DataFrame({"rule": ["union"], "n_pairs": [n_union]})],
            ignore_index=True)

    acc: dict[str, int] = {}
    folded = partition_reduce(tagged, "a", count_part)
    for batch in folded.iter_batches(batch_format="pandas"):
        for rule, n in zip(batch["rule"], batch["n_pairs"]):
            acc[str(rule)] = acc.get(str(rule), 0) + int(n)
    # the oracle's UNION ALL arm emits ('union', 0) even when no rule
    # proposed a single pair; match it on the degenerate boundary
    acc.setdefault("union", 0)
    out = pd.DataFrame(sorted(acc.items()), columns=["rule", "n_pairs"])
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


def _multirule_tagged_pairs(sf_dir: str, num_perm: int, bands: int,
                            max_members: int) -> rd.Dataset:
    """The lazy union of the three rules' tagged pair streams
    (columns a, b, rule; NOT deduplicated across blocks or rules)."""
    from kawa_ray.pipelines.docs import _cross_dump_band_rows

    band_pairs = partition_reduce(
        _cross_dump_band_rows(sf_dir, num_perm, bands)
        .map_batches(lambda df: df[["doc_id", "band"]], batch_format="pandas"),
        "band", _segment_pairs("band", max_members),
    ).map_batches(lambda df: df.assign(rule="band"), batch_format="pandas")

    _RULE = {"p": "prefix", "s": "size"}

    def equality_rows(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "k": pd.Series([], dtype="str")})
        ids = df["doc_id"].to_numpy("int64")
        bucket = df["n_chars"].to_numpy("int64") // _MR_SIZE_BUCKET
        return pd.DataFrame({
            "doc_id": np.concatenate([ids, ids]),
            "k": pd.concat([
                "p|" + df["lang"] + "|" + df["text"].str.slice(0, _SNM_KEY_CHARS),
                "s|" + df["lang"] + "|" + pd.Series(bucket, index=df.index).astype(str),
            ], ignore_index=True),
        })

    base_pairs = _segment_pairs("k", max_members, keep_keys=True)

    def equality_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = base_pairs(g)
        out["rule"] = out.pop("k").str.slice(0, 1).map(_RULE)
        return out

    eq_pairs = partition_reduce(
        _read_docs(sf_dir, ["doc_id", "lang", "text", "n_chars"])
        .map_batches(equality_rows, batch_format="pandas"),
        "k", equality_pairs,
    )

    return band_pairs.union(eq_pairs)


def _multirule_ctes(num_perm: int = 64, bands: int = 16,
                    max_members: int = _MB_MAX_MEMBERS) -> str:
    """CTE chain through ``tagged`` (rule, a, b) — shared by the pair
    census and the cluster census oracles."""
    from kawa_ray.functions.minhash import _MERSENNE, perm_params
    from kawa_ray.pipelines.docs import _grams_cte

    a, b = perm_params(num_perm)
    perm_rows = ",".join(
        f"({i},{int(ai)},{int(bi)})" for i, (ai, bi) in enumerate(zip(a, b))
    )
    rows_per_band = num_perm // bands
    u64 = 1 << 64
    return f"""{_grams_cte(3)}
, perms(i, pa, pb) AS (VALUES {perm_rows})
, hm AS (SELECT doc_id, md5_number_lower(g) % {_MERSENNE} AS hm FROM grams)
, sig AS (
  SELECT doc_id, i,
         MIN(((CAST(pa AS HUGEINT) * hm) % {u64} + pb) % {u64} % {_MERSENNE}) AS v
  FROM hm CROSS JOIN perms GROUP BY doc_id, i)
, bands AS (
  SELECT doc_id, i // {rows_per_band} AS band,
         STRING_AGG(CAST(v AS VARCHAR), ',' ORDER BY i) AS bkey
  FROM sig GROUP BY doc_id, i // {rows_per_band})
, bsized AS (
  SELECT doc_id, band, bkey,
         COUNT(*) OVER (PARTITION BY band, bkey) AS m
  FROM bands)
, band_pairs AS (
  SELECT DISTINCT a.doc_id AS a, b.doc_id AS b
  FROM bsized a JOIN bsized b
    ON a.band = b.band AND a.bkey = b.bkey AND a.doc_id < b.doc_id
  WHERE a.m <= {max_members})
, pkey AS (
  SELECT doc_id, lang || '|' || substr(text, 1, {_SNM_KEY_CHARS}) AS k,
         COUNT(*) OVER (PARTITION BY lang || '|' || substr(text, 1, {_SNM_KEY_CHARS})) AS m
  FROM documents)
, prefix_pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM pkey a JOIN pkey b ON a.k = b.k AND a.doc_id < b.doc_id
  WHERE a.m <= {max_members})
, skey AS (
  SELECT doc_id, lang || '|' || CAST(n_chars // {_MR_SIZE_BUCKET} AS VARCHAR) AS k,
         COUNT(*) OVER (
           PARTITION BY lang || '|' || CAST(n_chars // {_MR_SIZE_BUCKET} AS VARCHAR)) AS m
  FROM documents)
, size_pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM skey a JOIN skey b ON a.k = b.k AND a.doc_id < b.doc_id
  WHERE a.m <= {max_members})
, tagged AS (
  SELECT 'band' AS rule, a, b FROM band_pairs
  UNION ALL SELECT 'prefix', a, b FROM prefix_pairs
  UNION ALL SELECT 'size', a, b FROM size_pairs)"""


def _multirule_sql(num_perm: int = 64, bands: int = 16,
                   max_members: int = _MB_MAX_MEMBERS) -> str:
    return f"""
WITH RECURSIVE {_multirule_ctes(num_perm, bands, max_members)}
SELECT rule, COUNT(*) AS n_pairs FROM tagged GROUP BY rule
UNION ALL
SELECT 'union', COUNT(*) FROM (SELECT DISTINCT a, b FROM tagged) u
ORDER BY rule
"""


MULTIRULE_BLOCKING_SQL = _multirule_sql()


def multirule_cluster_census(sf_dir: str, num_perm: int = 64,
                             bands: int = 16,
                             max_members: int = _MB_MAX_MEMBERS):
    """Blocking -> transitive closure -> cluster-size histogram: the
    full candidate-generation-to-entity-clusters mini-pipeline over the
    ``documents`` table.  Connected components over the DISTINCT
    multi-rule pair union (``_multirule_closure_labels``, tiered by
    ``clustering.closure_labels``); output one row per cluster size with
    its cluster count, plus the size-1 row computed by arithmetic
    (n_docs - nodes-in-pairs; singletons are never enumerated).  The
    size histogram folds per-label partition partials, never a
    node-space driver table."""
    labels = _multirule_closure_labels(sf_dir, num_perm, bands, max_members)
    n_docs = int(_read_docs(sf_dir, ["doc_id"]).count())
    hist: dict[int, int] = {}
    n_nodes = 0
    if labels is not None:
        def size_part(g: pd.DataFrame) -> pd.DataFrame:
            sizes = g.groupby("lbl").size()  # whole label co-locates
            h = sizes.value_counts()
            return pd.DataFrame({"size": h.index.astype("int64"),
                                 "n_clusters": h.to_numpy("int64"),
                                 "n_nodes": [int(sizes.sum())] + [0] * (len(h) - 1)
                                 if len(h) else pd.Series([], dtype="int64")})

        for batch in partition_reduce(labels, "lbl", size_part) \
                .iter_batches(batch_format="pandas"):
            for sz, n, nn in zip(batch["size"], batch["n_clusters"],
                                 batch["n_nodes"]):
                hist[int(sz)] = hist.get(int(sz), 0) + int(n)
                n_nodes += int(nn)

    hist[1] = hist.get(1, 0) + (n_docs - n_nodes)
    out = pd.DataFrame(sorted(hist.items()), columns=["size", "n_clusters"])
    out["size"] = out["size"].astype("int64")
    out["n_clusters"] = out["n_clusters"].astype("int64")
    return out.reset_index(drop=True)


def _multirule_cluster_sql(num_perm: int = 64, bands: int = 16,
                           max_members: int = _MB_MAX_MEMBERS) -> str:
    return f"""
WITH RECURSIVE {_multirule_ctes(num_perm, bands, max_members)}
, up AS (SELECT DISTINCT a, b FROM tagged)
-- NOTE: inside a WITH RECURSIVE list, DuckDB 1.0 gives a
-- non-self-referencing  "X UNION Y"  CTE UNION ALL semantics
-- (measured: 2x row count); dedup must be an explicit DISTINCT
, nodes AS (SELECT DISTINCT v FROM
            (SELECT a AS v FROM up UNION ALL SELECT b FROM up) q)
, bidir AS (SELECT DISTINCT a, b FROM
            (SELECT a, b FROM up UNION ALL SELECT b, a FROM up) q)
, reach(node, lbl) AS (
  SELECT v, v FROM nodes
  UNION
  SELECT e.b AS node, r.lbl FROM reach r JOIN bidir e ON e.a = r.node
  WHERE r.lbl < e.b
)
, comp AS (SELECT node, MIN(lbl) AS lbl FROM reach GROUP BY node)
, sizes AS (SELECT lbl, COUNT(*) AS sz FROM comp GROUP BY lbl)
, hist AS (SELECT sz, COUNT(*) AS n FROM sizes GROUP BY sz)
SELECT CAST(sz AS BIGINT) AS size, CAST(n AS BIGINT) AS n_clusters FROM hist
UNION ALL
SELECT 1, (SELECT COUNT(*) FROM documents) - (SELECT COUNT(*) FROM nodes)
ORDER BY size
"""


MULTIRULE_CLUSTER_SQL = _multirule_cluster_sql()


# ---------------------------------------------------------------------------
# golden-record survivorship (the merge step after clustering)
# ---------------------------------------------------------------------------


def _multirule_closure_labels(sf_dir: str, num_perm: int, bands: int,
                              max_members: int,
                              with_edges: bool = False):
    """Multi-rule pair union -> distinct edges -> transitive-closure
    labels as a (doc_id, lbl) Dataset, or None when the blocking graph
    is empty.  With ``with_edges`` the return is ``(labels, edges)``
    (the materialized distinct pair union — census consumers like the
    density census need both).  ``clustering.closure_labels`` picks the
    closure tier; ``lbl`` is the component's smallest doc_id as a
    string — consumers must only ever group by lbl, never interpret
    it."""
    from kawa_ray.stages.clustering import closure_labels

    tagged = _multirule_tagged_pairs(sf_dir, num_perm, bands, max_members)
    edges = partition_reduce(
        tagged, "a", lambda g: g[["a", "b"]].drop_duplicates()).materialize()
    labels = None
    if edges.count():
        labels = closure_labels(edges).map_batches(
            lambda df: pd.DataFrame({
                "doc_id": df["node"].astype("int64"),
                "lbl": df["lbl"].astype(str)}),
            batch_format="pandas")
    return (labels, edges) if with_edges else labels


def cluster_survivorship_census(sf_dir: str, num_perm: int = 64,
                                bands: int = 16,
                                max_members: int = _MB_MAX_MEMBERS):
    """Survivorship / golden-record construction — the step a real ER
    pipeline runs AFTER transitive closure: each entity cluster elects
    one canonical value PER ATTRIBUTE by majority vote (ties broken by
    the smallest value, deterministic).  Clusters come from the same
    multi-rule blocking union + closure as ``multirule_cluster_census``;
    singleton documents are their own golden record.  Output: one row
    per (canonical lang, canonical source) with its entity count — a
    langs x sources summary, never an entity-space table.

    Reference analogue: kawa's ontology merge keeps one canonical entry
    per synonym cluster (ontology_builder.py incremental merging); this
    is the record-level generalisation production linkage uses
    (survivorship rules in MDM systems, Splink's cluster metrics).

    Scale shape: pair dedupe + closure exactly as the cluster census
    (``_multirule_closure_labels``); label rows union the
    document attribute stream through ONE doc_id-hash exchange (the
    `_verified_edges` attach idiom) so attributes and labels meet
    without a driver-side node map; the canon vote runs per
    label-partition.  The labeled-member stream materializes once —
    node-space of the BLOCKING GRAPH (<= 2 x edges, the same order the
    census already materializes), never corpus-space.  Singleton census
    = full-corpus census partials minus labeled-doc partials, folded on
    the driver (langs x sources sized)."""
    labels_ds = _multirule_closure_labels(sf_dir, num_perm, bands,
                                          max_members)

    docs = _read_docs(sf_dir, ["doc_id", "lang", "source"])

    # full-corpus (lang, source) census partials -> driver fold
    total: dict[tuple, int] = {}
    for batch in docs.map_batches(
            lambda df: df.groupby(["lang", "source"]).size()
            .reset_index(name="n"),
            batch_format="pandas").iter_batches(batch_format="pandas"):
        for la, so, n in zip(batch["lang"], batch["source"], batch["n"]):
            total[(str(la), str(so))] = total.get((str(la), str(so)), 0) + int(n)

    canon: dict[tuple, int] = {}
    labeled_docs: dict[tuple, int] = {}
    if labels_ds is not None:
        def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                                 "lang": df["lang"].astype(str),
                                 "source": df["source"].astype(str),
                                 "lbl": [None] * len(df)})

        def lab_rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                                 "lang": [None] * len(df),
                                 "source": [None] * len(df),
                                 "lbl": df["lbl"].astype(str)})

        def attach(g: pd.DataFrame) -> pd.DataFrame:
            labs = g.loc[g["lbl"].notna(), ["doc_id", "lbl"]]
            dd = g.loc[g["lbl"].isna(), ["doc_id", "lang", "source"]]
            m = dd.merge(labs, on="doc_id", how="inner")
            return m[["lbl", "lang", "source"]]

        members = partition_reduce(
            docs.map_batches(doc_rows, batch_format="pandas")
            .union(labels_ds.map_batches(lab_rows, batch_format="pandas")),
            "doc_id", attach).materialize()  # blocking-graph node space

        def canon_part(g: pd.DataFrame) -> pd.DataFrame:
            out_l, out_s = [], []
            for _, grp in g.groupby("lbl", sort=False):
                lv = grp.groupby("lang").size().reset_index(name="n") \
                    .sort_values(["n", "lang"], ascending=[False, True])
                sv = grp.groupby("source").size().reset_index(name="n") \
                    .sort_values(["n", "source"], ascending=[False, True])
                out_l.append(lv["lang"].iloc[0])
                out_s.append(sv["source"].iloc[0])
            part = pd.DataFrame({"lang": out_l, "source": out_s})
            return part.groupby(["lang", "source"]).size().reset_index(name="n")

        for batch in partition_reduce(members, "lbl", canon_part) \
                .iter_batches(batch_format="pandas"):
            for la, so, n in zip(batch["lang"], batch["source"], batch["n"]):
                canon[(str(la), str(so))] = \
                    canon.get((str(la), str(so)), 0) + int(n)

        for batch in members.map_batches(
                lambda df: df.groupby(["lang", "source"]).size()
                .reset_index(name="n"),
                batch_format="pandas").iter_batches(batch_format="pandas"):
            for la, so, n in zip(batch["lang"], batch["source"], batch["n"]):
                labeled_docs[(str(la), str(so))] = \
                    labeled_docs.get((str(la), str(so)), 0) + int(n)

    out: dict[tuple, int] = dict(canon)
    for k, n in total.items():
        singles = n - labeled_docs.get(k, 0)
        if singles:
            out[k] = out.get(k, 0) + singles
    rows = sorted(out.items())
    return pd.DataFrame({
        "lang": [k[0] for k, _ in rows],
        "source": [k[1] for k, _ in rows],
        "n_clusters": pd.Series([n for _, n in rows], dtype="int64"),
    })


def _survivorship_sql(num_perm: int = 64, bands: int = 16,
                      max_members: int = _MB_MAX_MEMBERS) -> str:
    return f"""
WITH RECURSIVE {_multirule_ctes(num_perm, bands, max_members)}
, up AS (SELECT DISTINCT a, b FROM tagged)
, nodes AS (SELECT DISTINCT v FROM
            (SELECT a AS v FROM up UNION ALL SELECT b FROM up) q)
, bidir AS (SELECT DISTINCT a, b FROM
            (SELECT a, b FROM up UNION ALL SELECT b, a FROM up) q)
, reach(node, lbl) AS (
  SELECT v, v FROM nodes
  UNION
  SELECT e.b AS node, r.lbl FROM reach r JOIN bidir e ON e.a = r.node
  WHERE r.lbl < e.b
)
, comp AS (SELECT node, MIN(lbl) AS lbl FROM reach GROUP BY node)
, labeled AS (
  SELECT d.doc_id, d.lang, d.source, c.lbl
  FROM documents d JOIN comp c ON c.node = d.doc_id)
, lvotes AS (SELECT lbl, lang, COUNT(*) AS n FROM labeled GROUP BY lbl, lang)
, canon_lang AS (
  SELECT lbl, lang FROM (
    SELECT lbl, lang,
           ROW_NUMBER() OVER (PARTITION BY lbl ORDER BY n DESC, lang) AS rn
    FROM lvotes) q WHERE rn = 1)
, svotes AS (SELECT lbl, source, COUNT(*) AS n FROM labeled
             GROUP BY lbl, source)
, canon_source AS (
  SELECT lbl, source FROM (
    SELECT lbl, source,
           ROW_NUMBER() OVER (PARTITION BY lbl ORDER BY n DESC, source) AS rn
    FROM svotes) q WHERE rn = 1)
, units AS (
  SELECT cl.lang, cs.source
  FROM canon_lang cl JOIN canon_source cs USING (lbl)
  UNION ALL
  SELECT lang, source FROM documents
  WHERE doc_id NOT IN (SELECT node FROM comp))
SELECT lang, source, COUNT(*) AS n_clusters
FROM units GROUP BY lang, source ORDER BY lang, source
"""


SURVIVORSHIP_SQL = _survivorship_sql()


# ---------------------------------------------------------------------------
# Adjusted-Rand cluster-agreement census (clustering quality)
# ---------------------------------------------------------------------------


def _gold_hash_rows(df: pd.DataFrame) -> pd.DataFrame:
    """Exact-duplicate gold partition: md5 hex of the full text — ONE
    definition shared by the ARI and blocking-quality censuses so the
    two can never desynchronize from the oracle's
    ``md5(COALESCE(text, ''))`` convention."""
    import hashlib

    gl = [hashlib.md5(
        (t if isinstance(t, str) else "").encode("utf-8")).hexdigest()
        for t in df["text"]]
    return pd.DataFrame({"doc_id": df["doc_id"].to_numpy("int64"),
                         "glbl": pd.Series(gl, dtype="str")})


def _gold_pairs_fold(g: pd.DataFrame) -> pd.DataFrame:
    """Per-partition C(group, 2) sum over the gold hash groups."""
    sz = g.groupby("glbl").size().to_numpy("int64")
    return pd.DataFrame({"s": pd.Series([int((sz * (sz - 1) // 2).sum())],
                                        dtype="int64")})


_GOLD_PIN_DOCS = 2_000_000


def _pin_gold(gold, n_docs: int):
    """Pin-or-spill the (doc_id, glbl) gold stream for multi-consumer
    censuses (it is otherwise a lazy dataset whose text-read + md5 pass
    re-runs per consumer): object-store pin below 2M docs, /tmp parquet
    beyond (the paragraph-census spill convention).  Returns
    (gold, cleanup) — call cleanup() after the last fold."""
    if n_docs <= _GOLD_PIN_DOCS:
        return gold.materialize(), lambda: None
    import shutil
    import tempfile

    spill = tempfile.mkdtemp(prefix="gold-hash-", dir=tempfile.gettempdir())
    gold.write_parquet(spill)
    return rd.read_parquet(spill), \
        lambda: shutil.rmtree(spill, ignore_errors=True)


def cluster_ari_census(sf_dir: str, num_perm: int = 64, bands: int = 16,
                       max_members: int = _MB_MAX_MEMBERS):
    """Adjusted Rand Index between the multi-rule entity clusters and
    the exact-duplicate gold partition (md5 of the full text) — the
    standard clustering-quality diagnostic (Hubert & Arabie 1985; the
    pair-counting companion of the B³ gate in er_eval): how much
    structure does NEAR-dup closure add over exact dup?  All four pair
    counts are exact integers; only the final ARI is a double, with
    the operation order pinned identically op-side and oracle-side
    (e = sp*sg/C(n,2); ari = (sb - e) / ((sp+sg)/2 - e); degenerate
    denominators pin to 1.0).  Output: one row
    (n_docs, same_both, same_pred, same_gold, ari).

    Scale shape: singleton predicted clusters contribute ZERO to
    same_both and same_pred (C(1,2)=0), so the contingency table only
    ever holds LABELED docs — blocking-graph node space, never corpus
    space.  Three exchanges: the doc_id-hash attach of gold hashes
    onto labels (the survivorship idiom), the lbl-hash contingency
    fold, and a glbl-hash fold of gold group sizes over the full
    corpus stream.  The driver holds four integers."""
    labels_ds = _multirule_closure_labels(sf_dir, num_perm, bands,
                                          max_members)
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n_docs = int(docs.count())

    gold, gold_cleanup = _pin_gold(
        docs.map_batches(_gold_hash_rows, batch_format="pandas"), n_docs)

    # same_gold: C(group,2) summed over exact-text groups, full corpus
    same_gold = 0
    for b in partition_reduce(gold, "glbl", _gold_pairs_fold) \
            .iter_batches(batch_format="pandas"):
        same_gold += int(b["s"].sum())

    same_both = 0
    same_pred = 0
    if labels_ds is not None:
        def g_rows(df: pd.DataFrame) -> pd.DataFrame:
            # numpy construction: dict-of-Series ALIGNS on index, and
            # frames from map_groups/map_batches carry arbitrary indices
            return pd.DataFrame({"doc_id": df["doc_id"].to_numpy("int64"),
                                 "glbl": df["glbl"].to_numpy(dtype=object),
                                 "lbl": pd.Series([None] * len(df),
                                                  dtype="object")})

        def l_rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"doc_id": df["doc_id"].to_numpy("int64"),
                                 "glbl": pd.Series([None] * len(df),
                                                   dtype="object"),
                                 "lbl": df["lbl"].to_numpy(dtype=object)})

        def attach(g: pd.DataFrame) -> pd.DataFrame:
            labs = g.loc[g["lbl"].notna(), ["doc_id", "lbl"]]
            gg = g.loc[g["lbl"].isna(), ["doc_id", "glbl"]]
            return gg.merge(labs, on="doc_id", how="inner")[["lbl", "glbl"]]

        labeled = partition_reduce(
            gold.map_batches(g_rows, batch_format="pandas")
            .union(labels_ds.map_batches(l_rows, batch_format="pandas")),
            "doc_id", attach)

        def cont_part(g: pd.DataFrame) -> pd.DataFrame:
            nij = g.groupby(["lbl", "glbl"]).size().to_numpy("int64")
            np_ = g.groupby("lbl").size().to_numpy("int64")
            return pd.DataFrame({
                "sb": pd.Series([int((nij * (nij - 1) // 2).sum())],
                                dtype="int64"),
                "sp": pd.Series([int((np_ * (np_ - 1) // 2).sum())],
                                dtype="int64")})

        for b in partition_reduce(labeled, "lbl", cont_part) \
                .iter_batches(batch_format="pandas"):
            same_both += int(b["sb"].sum())
            same_pred += int(b["sp"].sum())

    gold_cleanup()
    if n_docs < 2:
        ari = 1.0
    else:
        c2n = n_docs * (n_docs - 1) // 2
        e = (same_pred * same_gold) / float(c2n)
        den = (same_pred + same_gold) / 2.0 - e
        ari = 1.0 if den == 0.0 else (same_both - e) / den
    return pd.DataFrame({
        "n_docs": pd.Series([n_docs], dtype="int64"),
        "same_both": pd.Series([same_both], dtype="int64"),
        "same_pred": pd.Series([same_pred], dtype="int64"),
        "same_gold": pd.Series([same_gold], dtype="int64"),
        "ari": pd.Series([ari], dtype="float64"),
    })


def _cluster_ari_sql(num_perm: int = 64, bands: int = 16,
                     max_members: int = _MB_MAX_MEMBERS) -> str:
    return f"""
WITH RECURSIVE {_multirule_ctes(num_perm, bands, max_members)}
, up AS (SELECT DISTINCT a, b FROM tagged)
, nodes AS (SELECT DISTINCT v FROM
            (SELECT a AS v FROM up UNION ALL SELECT b FROM up) q)
, bidir AS (SELECT DISTINCT a, b FROM
            (SELECT a, b FROM up UNION ALL SELECT b, a FROM up) q)
, reach(node, lbl) AS (
  SELECT v, v FROM nodes
  UNION
  SELECT e.b AS node, r.lbl FROM reach r JOIN bidir e ON e.a = r.node
  WHERE r.lbl < e.b
)
, comp AS (SELECT node, MIN(lbl) AS lbl FROM reach GROUP BY node)
, gold AS (SELECT doc_id, md5(COALESCE(text, '')) AS glbl FROM documents)
, lab AS (
  SELECT c.lbl, g.glbl FROM comp c JOIN gold g ON g.doc_id = c.node)
, cont AS (SELECT lbl, glbl, COUNT(*) AS nij FROM lab GROUP BY lbl, glbl)
, sb AS (SELECT COALESCE(SUM(nij * (nij - 1) // 2), 0) AS same_both
         FROM cont)
, sp AS (SELECT COALESCE(SUM(np * (np - 1) // 2), 0) AS same_pred
         FROM (SELECT SUM(nij) AS np FROM cont GROUP BY lbl) q)
, sg AS (SELECT COALESCE(SUM(ng * (ng - 1) // 2), 0) AS same_gold
         FROM (SELECT COUNT(*) AS ng FROM gold GROUP BY glbl) q)
, nn AS (SELECT COUNT(*) AS n_docs FROM documents)
SELECT CAST(n_docs AS BIGINT) AS n_docs,
       CAST(same_both AS BIGINT) AS same_both,
       CAST(same_pred AS BIGINT) AS same_pred,
       CAST(same_gold AS BIGINT) AS same_gold,
       CASE WHEN n_docs < 2 THEN 1.0
            WHEN (CAST(same_pred + same_gold AS DOUBLE) / 2.0
                  - CAST(same_pred AS DOUBLE) * same_gold
                    / (n_docs * (n_docs - 1) // 2)) = 0 THEN 1.0
            ELSE (CAST(same_both AS DOUBLE)
                  - CAST(same_pred AS DOUBLE) * same_gold
                    / (n_docs * (n_docs - 1) // 2))
                 / (CAST(same_pred + same_gold AS DOUBLE) / 2.0
                    - CAST(same_pred AS DOUBLE) * same_gold
                      / (n_docs * (n_docs - 1) // 2))
       END AS ari
FROM sb, sp, sg, nn
"""


CLUSTER_ARI_SQL = _cluster_ari_sql()


# ---------------------------------------------------------------------------
# blocking quality census (pair completeness + reduction ratio)
# ---------------------------------------------------------------------------


def blocking_quality_census(sf_dir: str, num_perm: int = 64,
                            bands: int = 16,
                            max_members: int = _MB_MAX_MEMBERS):
    """Blocking evaluation — the two standard candidate-generation
    metrics (Christen 2012, ch. 4): **pair completeness** (what
    fraction of true-match pairs survive blocking; the blocking
    recall) and **reduction ratio** (what fraction of the all-pairs
    space blocking prunes).  True matches are the exact-duplicate
    gold pairs (md5 of full text — the same gold as the ARI census);
    candidates are the DISTINCT multi-rule pair union.  Output: one
    row (n_docs, n_candidates, n_gold_pairs, n_matched,
    pair_completeness, reduction_ratio); the two doubles use pinned
    conventions (PC = 1.0 when there are no gold pairs; RR = 1.0
    below 2 docs).

    Scale shape: candidate dedup is the cluster census's a-hash
    exchange; gold-pair counting is a glbl-hash fold of group sizes;
    the matched count attaches gold hashes to candidate endpoints via
    TWO doc_id-hash exchanges (a-side then b-side, edge-space rows
    throughout).  The driver holds four integers."""
    tagged = _multirule_tagged_pairs(sf_dir, num_perm, bands, max_members)
    edges = partition_reduce(
        tagged, "a", lambda g: g[["a", "b"]].drop_duplicates()).materialize()
    n_candidates = int(edges.count())

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    n_docs = int(docs.count())

    gold, gold_cleanup = _pin_gold(
        docs.map_batches(_gold_hash_rows, batch_format="pandas"), n_docs)

    n_gold_pairs = 0
    for b in partition_reduce(gold, "glbl", _gold_pairs_fold) \
            .iter_batches(batch_format="pandas"):
        n_gold_pairs += int(b["s"].sum())

    n_matched = 0
    if n_candidates:
        def edge_rows_a(df: pd.DataFrame) -> pd.DataFrame:
            # build from numpy: frames out of map_groups carry arbitrary
            # indices, and dict-of-Series construction ALIGNS on index
            return pd.DataFrame({"doc_id": df["a"].to_numpy("int64"),
                                 "b": df["b"].to_numpy("int64"),
                                 "glbl": pd.Series([None] * len(df),
                                                   dtype="object")})

        def g_mark(df: pd.DataFrame) -> pd.DataFrame:
            # glbl-is-None marks the edge side (the attach idiom the
            # sibling censuses use — never an in-band doc_id sentinel)
            return pd.DataFrame({"doc_id": df["doc_id"].to_numpy("int64"),
                                 "b": np.zeros(len(df), dtype="int64"),
                                 "glbl": df["glbl"].to_numpy(dtype=object)})

        def attach_a(g: pd.DataFrame) -> pd.DataFrame:
            labs = g.loc[g["glbl"].notna(), ["doc_id", "glbl"]]
            ee = g.loc[g["glbl"].isna(), ["doc_id", "b"]]
            m = ee.merge(labs, on="doc_id", how="inner")
            return pd.DataFrame({"doc_id": m["b"].to_numpy("int64"),
                                 "ga": m["glbl"].to_numpy(dtype=object)})

        half = partition_reduce(
            edges.map_batches(edge_rows_a, batch_format="pandas")
            .union(gold.map_batches(g_mark, batch_format="pandas")),
            "doc_id", attach_a)

        def half_rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"doc_id": df["doc_id"].to_numpy("int64"),
                                 "ga": df["ga"].to_numpy(dtype=object),
                                 "glbl": pd.Series([None] * len(df),
                                                   dtype="object")})

        def g_mark2(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"doc_id": df["doc_id"].to_numpy("int64"),
                                 "ga": pd.Series([None] * len(df),
                                                 dtype="object"),
                                 "glbl": df["glbl"].to_numpy(dtype=object)})

        def attach_b(g: pd.DataFrame) -> pd.DataFrame:
            labs = g.loc[g["glbl"].notna(), ["doc_id", "glbl"]]
            ee = g.loc[g["glbl"].isna(), ["doc_id", "ga"]]
            m = ee.merge(labs, on="doc_id", how="inner")
            n = int((m["ga"] == m["glbl"]).sum())
            return pd.DataFrame({"n": pd.Series([n], dtype="int64")})

        for b in partition_reduce(
                half.map_batches(half_rows, batch_format="pandas")
                .union(gold.map_batches(g_mark2, batch_format="pandas")),
                "doc_id", attach_b).iter_batches(batch_format="pandas"):
            n_matched += int(b["n"].sum())

    gold_cleanup()
    pc = 1.0 if n_gold_pairs == 0 else n_matched / n_gold_pairs
    rr = 1.0 if n_docs < 2 else \
        1.0 - n_candidates / (n_docs * (n_docs - 1) // 2)
    return pd.DataFrame({
        "n_docs": pd.Series([n_docs], dtype="int64"),
        "n_candidates": pd.Series([n_candidates], dtype="int64"),
        "n_gold_pairs": pd.Series([n_gold_pairs], dtype="int64"),
        "n_matched": pd.Series([n_matched], dtype="int64"),
        "pair_completeness": pd.Series([pc], dtype="float64"),
        "reduction_ratio": pd.Series([rr], dtype="float64"),
    })


def _blocking_quality_sql(num_perm: int = 64, bands: int = 16,
                          max_members: int = _MB_MAX_MEMBERS) -> str:
    return f"""
WITH RECURSIVE {_multirule_ctes(num_perm, bands, max_members)}
, up AS (SELECT DISTINCT a, b FROM tagged)
, gold AS (SELECT doc_id, md5(COALESCE(text, '')) AS glbl FROM documents)
, cand AS (SELECT COUNT(*) AS n_candidates FROM up)
, gp AS (SELECT COALESCE(SUM(ng * (ng - 1) // 2), 0) AS n_gold_pairs
         FROM (SELECT COUNT(*) AS ng FROM gold GROUP BY glbl) q)
, mt AS (SELECT COUNT(*) AS n_matched
         FROM up u
         JOIN gold ga ON ga.doc_id = u.a
         JOIN gold gb ON gb.doc_id = u.b AND gb.glbl = ga.glbl)
, nn AS (SELECT COUNT(*) AS n_docs FROM documents)
SELECT CAST(n_docs AS BIGINT) AS n_docs,
       CAST(n_candidates AS BIGINT) AS n_candidates,
       CAST(n_gold_pairs AS BIGINT) AS n_gold_pairs,
       CAST(n_matched AS BIGINT) AS n_matched,
       CASE WHEN n_gold_pairs = 0 THEN 1.0
            ELSE CAST(n_matched AS DOUBLE) / n_gold_pairs
       END AS pair_completeness,
       CASE WHEN n_docs < 2 THEN 1.0
            ELSE 1.0 - CAST(n_candidates AS DOUBLE)
                       / (n_docs * (n_docs - 1) // 2)
       END AS reduction_ratio
FROM cand, gp, mt, nn
"""


BLOCKING_QUALITY_SQL = _blocking_quality_sql()


# ---------------------------------------------------------------------------
# cluster-density census (Splink-style cluster diagnostics)
# ---------------------------------------------------------------------------


def cluster_density_census(sf_dir: str, num_perm: int = 64, bands: int = 16,
                           max_members: int = _MB_MAX_MEMBERS):
    """Intra-cluster edge density — the standard post-linkage cluster
    diagnostic (Splink's cluster metrics): for each entity cluster,
    ``density = n_edges / C(size, 2)``; low-density clusters are the
    chained false merges a reviewer inspects first.  Clusters are the
    multi-rule closure; singletons are excluded (density is undefined
    below 2 nodes).  Buckets are the pure-integer
    ``(n_edges * 20) // (size * (size - 1))`` (0..10 scale: a complete
    cluster lands in bucket 10), so the oracle is exact.  Output:
    (density_bucket, n_clusters) histogram.

    Scale shape: one doc_id-hash exchange attaches the a-endpoint's
    closure label to each edge (closure guarantees both endpoints
    share it), then ONE lbl-hash exchange folds edge counts and
    cluster sizes together (edge-marker rows and label rows ride the
    same union); only histogram partials reach the driver."""
    labels_ds, edges = _multirule_closure_labels(
        sf_dir, num_perm, bands, max_members, with_edges=True)
    if labels_ds is None:
        return pd.DataFrame({"density_bucket": pd.Series([], dtype="int64"),
                             "n_clusters": pd.Series([], dtype="int64")})

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["a"].to_numpy("int64"),
                             "is_edge": np.ones(len(df), dtype=bool),
                             "lbl": pd.Series([None] * len(df),
                                              dtype="object")})

    def lab_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy("int64"),
                             "is_edge": np.zeros(len(df), dtype=bool),
                             "lbl": df["lbl"].to_numpy(dtype=object)})

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        labs = g.loc[~g["is_edge"], ["doc_id", "lbl"]]
        ee = g.loc[g["is_edge"], ["doc_id"]]
        m = ee.merge(labs, on="doc_id", how="inner")
        # edge-count markers and the label rows themselves ride the
        # SAME downstream lbl exchange (is_edge distinguishes them)
        return pd.DataFrame({
            "lbl": np.concatenate([m["lbl"].to_numpy(dtype=object),
                                   labs["lbl"].to_numpy(dtype=object)]),
            "is_edge": np.concatenate([np.ones(len(m), dtype=bool),
                                       np.zeros(len(labs), dtype=bool)]),
        })

    tagged = partition_reduce(
        edges.map_batches(edge_rows, batch_format="pandas")
        .union(labels_ds.map_batches(lab_rows, batch_format="pandas")),
        "doc_id", attach)

    def density_part(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby("lbl")["is_edge"].agg(["sum", "size"])
        e = per["sum"].to_numpy("int64")
        size = (per["size"] - per["sum"]).to_numpy("int64")  # label rows
        ok = size >= 2
        bkt = (e[ok] * 20) // (size[ok] * (size[ok] - 1))
        vals, cnts = np.unique(bkt, return_counts=True)
        return pd.DataFrame({"density_bucket": vals.astype("int64"),
                             "n_clusters": cnts.astype("int64")})

    acc: dict[int, int] = {}
    for b in partition_reduce(tagged, "lbl", density_part) \
            .iter_batches(batch_format="pandas"):
        for dv, nv in zip(b["density_bucket"], b["n_clusters"]):
            acc[int(dv)] = acc.get(int(dv), 0) + int(nv)
    out = pd.DataFrame(sorted(acc.items()),
                       columns=["density_bucket", "n_clusters"])
    out["density_bucket"] = out["density_bucket"].astype("int64")
    out["n_clusters"] = out["n_clusters"].astype("int64")
    return out.reset_index(drop=True)


def _cluster_density_sql(num_perm: int = 64, bands: int = 16,
                         max_members: int = _MB_MAX_MEMBERS) -> str:
    return f"""
WITH RECURSIVE {_multirule_ctes(num_perm, bands, max_members)}
, up AS (SELECT DISTINCT a, b FROM tagged)
, nodes AS (SELECT DISTINCT v FROM
            (SELECT a AS v FROM up UNION ALL SELECT b FROM up) q)
, bidir AS (SELECT DISTINCT a, b FROM
            (SELECT a, b FROM up UNION ALL SELECT b, a FROM up) q)
, reach(node, lbl) AS (
  SELECT v, v FROM nodes
  UNION
  SELECT e.b AS node, r.lbl FROM reach r JOIN bidir e ON e.a = r.node
  WHERE r.lbl < e.b
)
, comp AS (SELECT node, MIN(lbl) AS lbl FROM reach GROUP BY node)
, esz AS (
  SELECT c.lbl, COUNT(*) AS e
  FROM up u JOIN comp c ON c.node = u.a GROUP BY c.lbl)
, csz AS (SELECT lbl, COUNT(*) AS size FROM comp GROUP BY lbl)
, dens AS (
  SELECT (COALESCE(e.e, 0) * 20) // (c.size * (c.size - 1)) AS bkt
  FROM csz c LEFT JOIN esz e ON e.lbl = c.lbl
  WHERE c.size >= 2)
SELECT CAST(bkt AS BIGINT) AS density_bucket, COUNT(*) AS n_clusters
FROM dens GROUP BY bkt ORDER BY bkt
"""


CLUSTER_DENSITY_SQL = _cluster_density_sql()


# ---------------------------------------------------------------------------
# block cleaning (Papadakis block purging + block filtering)
# ---------------------------------------------------------------------------

_BC_PURGE_CAP = 2
_BC_R_NUM, _BC_R_DEN = 1, 2  # each record keeps ceil(1/2) of its blocks
_BC_PIN_DOCS = 2_000_000     # pin the membership stream below this


def block_cleaning_census(sf_dir: str, num_perm: int = 64, bands: int = 16,
                          purge_cap: int = _BC_PURGE_CAP):
    """Block purging + block filtering (Papadakis et al., "Blocking and
    Filtering Techniques for Entity Resolution", CSUR 2020) over the
    MinHash band blocks: purging drops every block larger than
    ``purge_cap`` whole; filtering then keeps, per record, the
    ceil(1/2) SMALLEST of its surviving blocks (size, then block key —
    deterministic).  Output: one row with block and pairwise-comparison
    counts at each stage — the comparison-budget signal block cleaning
    exists to provide.

    Three hash-partition exchanges, none carrying text: block sizes
    attach in-partition on the block key (every member of a block
    co-locates), the per-record rank runs on a doc_id partition, and
    kept-block sizes recount on the block key; all six census scalars
    fold from per-partition partials on the driver."""
    from kawa_ray.pipelines.docs import _cross_dump_band_rows

    mem = _cross_dump_band_rows(sf_dir, num_perm, bands).map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                                 "blk": df["band"].astype(str)}),
        batch_format="pandas")

    def attach_size(g: pd.DataFrame) -> pd.DataFrame:
        # every member of a blk co-locates here, so the group size IS
        # the global block size — attach it AND emit one census marker
        # row per block (doc_id = -1), so the stage-0/1 census streams
        # off this same exchange instead of paying a second one
        out = g.assign(m=g.groupby("blk")["doc_id"].transform("size")
                       .astype("int64"))
        census = out.drop_duplicates("blk").assign(doc_id=np.int64(-1))
        return pd.concat([out, census], ignore_index=True)

    sized = partition_reduce(mem, "blk", attach_size)
    # two consumers (stage-0/1 census; the filtering chain).  The sized
    # membership stream is corpus x bands rows — pin it only while the
    # corpus is small; beyond the ceiling leave it lazy and let each
    # consumer recompute the banding pass (CPU for zero object-store
    # pinning, the pin-or-spill trade linkage.py:268 documents)
    if int(_read_docs(sf_dir, ["doc_id"]).count()) <= _BC_PIN_DOCS:
        sized = sized.materialize()

    # stage-0/1 census: fold the per-block marker rows (one per blk,
    # emitted inside the attach exchange) — a streaming filter, no
    # second exchange
    n_blocks = n_comp = n_blocks_p = n_comp_p = 0
    for batch in sized.map_batches(
            lambda df: df.loc[df["doc_id"] == -1, ["m"]],
            batch_format="pandas").iter_batches(batch_format="pandas"):
        m = batch["m"].to_numpy()
        c = m * (m - 1) // 2
        n_blocks += len(m)
        n_comp += int(c.sum())
        keep = m <= purge_cap
        n_blocks_p += int(keep.sum())
        n_comp_p += int(c[keep].sum())

    def keep_rows(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["m"] <= purge_cap]
        if g.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "blk": pd.Series([], dtype="str")})
        g = g.sort_values(["doc_id", "m", "blk"])
        cnt = g.groupby("doc_id")["blk"].transform("size").to_numpy()
        rn = g.groupby("doc_id").cumcount().to_numpy() + 1
        lim = (_BC_R_NUM * cnt + _BC_R_DEN - 1) // _BC_R_DEN
        return g.loc[rn <= lim, ["doc_id", "blk"]]

    # markers filtered BEFORE the doc_id exchange: their constant key
    # would funnel one row per block onto a single partition at scale
    kept = partition_reduce(
        sized.map_batches(lambda df: df[df["doc_id"] != -1],
                          batch_format="pandas"),
        "doc_id", keep_rows)

    n_blocks_k = n_comp_k = 0
    for batch in partition_reduce(
            kept, "blk",
            lambda g: g.groupby("blk").size().reset_index(name="m")) \
            .iter_batches(batch_format="pandas"):
        m = batch["m"].to_numpy()
        n_blocks_k += int((m >= 2).sum())
        n_comp_k += int((m * (m - 1) // 2).sum())

    return pd.DataFrame({
        "n_blocks": pd.Series([n_blocks], dtype="int64"),
        "n_comparisons": pd.Series([n_comp], dtype="int64"),
        "n_blocks_purged": pd.Series([n_blocks_p], dtype="int64"),
        "n_comp_purged": pd.Series([n_comp_p], dtype="int64"),
        "n_blocks_kept": pd.Series([n_blocks_k], dtype="int64"),
        "n_comp_kept": pd.Series([n_comp_k], dtype="int64"),
    })


def _block_cleaning_sql(num_perm: int = 64, bands: int = 16,
                        purge_cap: int = _BC_PURGE_CAP) -> str:
    from kawa_ray.functions.minhash import _MERSENNE, perm_params
    from kawa_ray.pipelines.docs import _grams_cte

    a, b = perm_params(num_perm)
    perm_rows = ",".join(
        f"({i},{int(ai)},{int(bi)})" for i, (ai, bi) in enumerate(zip(a, b))
    )
    rows_per_band = num_perm // bands
    u64 = 1 << 64
    return f"""
WITH RECURSIVE {_grams_cte(3)}
, perms(i, pa, pb) AS (VALUES {perm_rows})
, hm AS (SELECT doc_id, md5_number_lower(g) % {_MERSENNE} AS hm FROM grams)
, sig AS (
  SELECT doc_id, i,
         MIN(((CAST(pa AS HUGEINT) * hm) % {u64} + pb) % {u64} % {_MERSENNE}) AS v
  FROM hm CROSS JOIN perms GROUP BY doc_id, i)
, mem AS (
  SELECT doc_id, CAST(i // {rows_per_band} AS VARCHAR) || ':' ||
         STRING_AGG(CAST(v AS VARCHAR), ',' ORDER BY i) AS blk
  FROM sig GROUP BY doc_id, i // {rows_per_band})
, bsz AS (SELECT blk, COUNT(*) AS m FROM mem GROUP BY blk)
, purged AS (SELECT doc_id, mem.blk, m FROM mem JOIN bsz USING (blk)
             WHERE m <= {purge_cap})
, ranked AS (
  SELECT doc_id, blk,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY m, blk) AS rn,
         COUNT(*) OVER (PARTITION BY doc_id) AS c
  FROM purged)
, kept AS (SELECT doc_id, blk FROM ranked
           WHERE rn <= (({_BC_R_NUM} * c) + {_BC_R_DEN} - 1) // {_BC_R_DEN})
, ksz AS (SELECT blk, COUNT(*) AS m FROM kept GROUP BY blk)
SELECT (SELECT COUNT(*) FROM bsz) AS n_blocks,
       (SELECT COALESCE(CAST(SUM(m*(m-1)//2) AS BIGINT), 0) FROM bsz)
         AS n_comparisons,
       (SELECT COUNT(*) FROM bsz WHERE m <= {purge_cap}) AS n_blocks_purged,
       (SELECT COALESCE(CAST(SUM(m*(m-1)//2) AS BIGINT), 0) FROM bsz
        WHERE m <= {purge_cap}) AS n_comp_purged,
       (SELECT COUNT(*) FROM ksz WHERE m >= 2) AS n_blocks_kept,
       (SELECT COALESCE(CAST(SUM(m*(m-1)//2) AS BIGINT), 0) FROM ksz)
         AS n_comp_kept
"""


BLOCK_CLEANING_SQL = _block_cleaning_sql()


# ---------------------------------------------------------------------------
# Phonetic (Soundex) blocking census
# ---------------------------------------------------------------------------

_PH_PARTITIONS = 64

# Odell-Russell Soundex groups, SIMPLIFIED: vowels + h/w map to 0 and
# break/collapse like any other group (no h/w-bridging rule — that rule
# needs lookbehind state and buys nothing for blocking recall).  The
# Python kernel and the SQL oracle implement this SAME spec, so the
# oracle is exact by construction.
_SDX_GROUPS = (("aeiouyhw", "0"), ("bfpv", "1"), ("cgjkqsxz", "2"),
               ("dt", "3"), ("l", "4"), ("mn", "5"), ("r", "6"))
_SDX_MAP = {c: d for grp, d in _SDX_GROUPS for c in grp}


def soundex_key(tok: str) -> str:
    """Simplified Soundex over an [a-z]+ token: first letter + the first
    three non-zero digits of the run-collapsed code string (first
    position dropped), zero-padded.  '' for an empty token."""
    if not tok:
        return ""
    digs = [_SDX_MAP[c] for c in tok]
    coll = [digs[0]]
    for d in digs[1:]:
        if d != coll[-1]:
            coll.append(d)
    body = "".join(d for d in coll[1:] if d != "0")
    return tok[0] + (body + "000")[:3]


def phonetic_blocking_census(sf_dir: str):
    """Phonetic blocking census — the oldest ER blocking channel
    (Odell & Russell 1918; every record-linkage toolkit ships Soundex
    blocking).  Key = simplified Soundex of the document's first
    [a-z]+ token; output = the block-size histogram
    (block_size, n_blocks) the blocking-quality step consumes.

    Scale shape: per-batch (key, count) partials are pre-aggregated
    BEFORE the exchange, so the single hash-partition shuffle moves at
    most |batches| x |distinct keys| short rows (Soundex key space is
    ~26 x 7^3); histogram partials fold on the driver.  No pairs, no
    text past the first map."""
    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def key_partials(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df["text"].fillna("").str.lower()
                .str.extract(r"([a-z]+)", expand=False).fillna(""))
        codes, uniq = pd.factorize(toks)
        keys = np.asarray([soundex_key(t) for t in uniq], dtype=object)
        if keys.size == 0:
            return pd.DataFrame({"k": pd.Series([], dtype="str"),
                                 "n": pd.Series([], dtype="int64")})
        k = keys[codes]
        vc = pd.Series(k[k != ""]).value_counts()
        return pd.DataFrame({"k": vc.index.astype(str),
                             "n": vc.to_numpy().astype("int64")})

    def histogram(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"block_size": pd.Series([], dtype="int64"),
                                 "n_blocks": pd.Series([], dtype="int64")})
        vc = g.groupby("k")["n"].sum().value_counts()
        return pd.DataFrame({"block_size": vc.index.astype("int64"),
                             "n_blocks": vc.to_numpy().astype("int64")})

    acc: dict[int, int] = {}
    for batch in partition_reduce(
            docs.map_batches(key_partials, batch_format="pandas"), "k",
            histogram, partitions=_PH_PARTITIONS) \
            .iter_batches(batch_format="pandas"):
        for s, nb in zip(batch["block_size"], batch["n_blocks"]):
            acc[int(s)] = acc.get(int(s), 0) + int(nb)
    out = pd.DataFrame(sorted(acc.items()), columns=["block_size",
                                                     "n_blocks"])
    out["block_size"] = out["block_size"].astype("int64")
    out["n_blocks"] = out["n_blocks"].astype("int64")
    return out.reset_index(drop=True)


def _phonetic_sql() -> str:
    mapped = "tok"
    for grp, d in _SDX_GROUPS:
        mapped = f"regexp_replace({mapped}, '[{grp}]', '{d}', 'g')"
    coll = mapped
    for d in "0123456":
        coll = f"regexp_replace({coll}, '{d}+', '{d}', 'g')"
    return f"""
WITH tok AS (
  SELECT regexp_extract(LOWER(COALESCE(text, '')), '[a-z]+') AS tok
  FROM documents),
keyed AS (
  SELECT substring(tok, 1, 1) ||
         substring(replace(substring({coll}, 2), '0', '') || '000', 1, 3)
         AS k
  FROM tok WHERE tok <> ''),
sizes AS (SELECT k, COUNT(*) AS sz FROM keyed GROUP BY k)
SELECT CAST(sz AS BIGINT) AS block_size, COUNT(*) AS n_blocks
FROM sizes GROUP BY sz ORDER BY sz
"""


PHONETIC_BLOCKING_SQL = _phonetic_sql()
