"""Text-analysis + deduplication suites over the ``documents`` table —
token counting, fingerprinting, quality scoring, language-ID, exact and
near-duplicate detection (MinHash-LSH / SimHash / n-gram Jaccard).

These are the training-data-pipeline operators the task brief mandates
beyond the reference's own inventory; each SQL-expressible one carries a
DuckDB oracle (kept in exact lockstep: whitespace tokenisation =
``regexp_split_to_array(trim(text), '\\s+')``, fingerprint = ``md5``).
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from kawa_ray.functions.minhash import (
    lsh_band_keys,
    md5_low64,
    minhash_signature,
    simhash64,
    simhash_band_keys,
    word_ngrams,
)
from kawa_ray.stages.clustering import closure_labels
from kawa_ray.stages.distinct import (
    fold_groups,
    partition_distinct,
    partition_join,
    partition_reduce,
)
from kawa_ray.stages.pairs import block_pairs

_WS = re.compile(r"\s+")
_PUNCT = re.compile(r"[.!?,;:]")


def _read_docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def docs_per_lang(sf_dir: str):
    return fold_groups(_read_docs(sf_dir, ["lang", "n_chars"]), "lang",
                       {"n_docs": (None, "count"),
                        "total_chars": ("n_chars", "sum")})


DOCS_PER_LANG_SQL = """
SELECT lang, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY lang ORDER BY lang
"""


def token_count_stats(sf_dir: str):
    """Whitespace token counting (Arrow-vectorised per batch) + grouped sums."""
    ds = _read_docs(sf_dir, ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        trimmed = pc.utf8_trim_whitespace(t.column("text"))
        ntoks = pc.if_else(
            pc.equal(trimmed, ""),
            pa.scalar(0, pa.int64()),
            pc.cast(pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+")), pa.int64()),
        )
        return pa.table({"lang": t.column("lang"), "tokens": ntoks})

    return fold_groups(ds.map_batches(partial, batch_format="pyarrow"), "lang",
                       {"total_tokens": ("tokens", "sum"),
                        "n_docs": (None, "count")})


TOKEN_COUNT_SQL = """
SELECT lang,
       CAST(SUM(CASE WHEN TRIM(text) = '' THEN 0
                ELSE ARRAY_LENGTH(REGEXP_SPLIT_TO_ARRAY(TRIM(text), '\\s+')) END) AS BIGINT) AS total_tokens,
       COUNT(*) AS n_docs
FROM documents GROUP BY lang ORDER BY lang
"""


def doc_fingerprints(sf_dir: str):
    """Content fingerprinting (md5) + exact-dedup census per lang."""
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def fp(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["fingerprint"] = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in df["text"]]
        return pa.Table.from_pandas(df[["lang", "fingerprint"]], preserve_index=False)

    # distinct via the shared partitioned distinct (stages/distinct.py)
    # with a fused per-lang partial count — doc-cardinality keys
    return fold_groups(
        partition_distinct(
            ds.map_batches(fp, batch_format="pyarrow"),
            ["lang", "fingerprint"], key_col="fingerprint",
            then=lambda g: g.groupby("lang", as_index=False).size().rename(
                columns={"size": "n"})),
        "lang", {"n_distinct": ("n", "sum")})


DOC_FINGERPRINTS_SQL = """
SELECT lang, COUNT(DISTINCT MD5(text)) AS n_distinct
FROM documents GROUP BY lang ORDER BY lang
"""


def exact_dedup_docs(sf_dir: str):
    """Exact dedup keep-min-doc_id per content hash; returns survivors
    count per lang + duplicate count (hash-partition + per-group first)."""
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def key(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["fingerprint"] = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in df["text"]]
        return pa.Table.from_pandas(df[["doc_id", "lang", "fingerprint"]], preserve_index=False)

    # fingerprint is corpus-cardinality: hash-partitioned keep-first
    # (the stages/distinct.py per-key rule), with the per-lang census
    # folded in-batch so only (lang, partials) leave the shuffle
    def keep_first_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["fingerprint", "doc_id"])
        sizes = g.groupby("fingerprint", sort=False)["doc_id"].transform("size")
        first = g.groupby("fingerprint", sort=False).head(1)
        n_dups = sizes.loc[first.index] - 1
        per_lang = (pd.DataFrame({"lang": first["lang"], "n_dups": n_dups})
                    .groupby("lang", as_index=False)
                    .agg(n_survivors=("n_dups", "size"),
                         n_duplicates=("n_dups", "sum")))
        return per_lang

    return fold_groups(
        partition_reduce(ds.map_batches(key, batch_format="pyarrow"),
                         "fingerprint", keep_first_part),
        "lang", {"n_survivors": ("n_survivors", "sum"),
                 "n_duplicates": ("n_duplicates", "sum")})


EXACT_DEDUP_SQL = """
SELECT lang, COUNT(*) AS n_survivors, CAST(SUM(n - 1) AS BIGINT) AS n_duplicates
FROM (
  SELECT ARG_MIN(lang, doc_id) AS lang, COUNT(*) AS n
  FROM documents GROUP BY MD5(text)
)
GROUP BY lang ORDER BY lang
"""


def cross_dump_dedup_census(sf_dir: str):
    """Cross-dump exact dedup: flag documents of the NEW crawl whose
    content already appeared in an EARLIER dump — the standard CC-dump
    incremental-dedup step.  The earlier dump is modeled as the
    deterministic ``doc_id % 2 == 0`` slice of the corpus (no external
    data; the corpus's engineered exact-dup twins straddle the slice at
    bench scale, so the collision path is genuinely exercised).

    Shape is the one that holds when the OLD dump is itself corpus-
    sized: both dumps stream through ONE hash-partition shuffle on the
    content hash (old-side rows tagged), and the membership test runs
    in-batch per partition — never a broadcast old-dump hash set, never
    driver state.  -> per-lang (lang, n_new, n_dup_vs_old)."""
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def key(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["fingerprint"] = [hashlib.md5(s.encode("utf-8")).hexdigest()
                             for s in df["text"]]
        df["is_old"] = (df["doc_id"].to_numpy("int64") % 2) == 0
        return pa.Table.from_pandas(
            df[["lang", "fingerprint", "is_old"]], preserve_index=False)

    def census_part(g: pd.DataFrame) -> pd.DataFrame:
        old_fps = set(g.loc[g["is_old"], "fingerprint"])
        new = g[~g["is_old"]]
        hit = new["fingerprint"].isin(old_fps)
        return (pd.DataFrame({"lang": new["lang"], "d": hit.astype("int64")})
                .groupby("lang", as_index=False)
                .agg(n_new=("d", "size"), n_dup_vs_old=("d", "sum")))

    return fold_groups(
        partition_reduce(ds.map_batches(key, batch_format="pyarrow"),
                         "fingerprint", census_part),
        "lang", {"n_new": ("n_new", "sum"),
                 "n_dup_vs_old": ("n_dup_vs_old", "sum")})


CROSS_DUMP_DEDUP_SQL = """
WITH old AS (
  SELECT MD5(text) AS h FROM documents WHERE doc_id % 2 = 0
), new AS (
  SELECT lang, MD5(text) AS h FROM documents WHERE doc_id % 2 <> 0
)
SELECT lang, COUNT(*) AS n_new,
       CAST(SUM(CASE WHEN h IN (SELECT h FROM old) THEN 1 ELSE 0 END)
            AS BIGINT) AS n_dup_vs_old
FROM new GROUP BY lang ORDER BY lang
"""


def _cross_dump_band_rows(sf_dir: str, num_perm: int, bands: int) -> rd.Dataset:
    """Shared banding stage of the cross-dump near-dup family: one
    MinHash-LSH band row per (doc, band) with the earlier-dump tag
    (``doc_id % 2 == 0``, as in ``cross_dump_dedup_census``).  Gramless
    docs carry no banding signal (the SQL grams CTE has no rows for
    them either)."""
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def sig(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out_doc, out_lang, out_band, out_old = [], [], [], []
        for doc_id, lang, text in zip(df["doc_id"], df["lang"], df["text"]):
            toks = _WS.split(text.lower().strip()) if text.strip() else []
            sh = word_ngrams(toks, 3)
            if not sh:
                continue
            s = minhash_signature(sh, num_perm, hash_fn=md5_low64)
            is_old = bool(doc_id % 2 == 0)
            for b in lsh_band_keys(s, bands):
                out_doc.append(doc_id)
                out_lang.append(lang)
                out_band.append(b)
                out_old.append(is_old)
        return pa.table({"doc_id": pa.array(out_doc, pa.int64()),
                         "lang": pa.array(out_lang, pa.string()),
                         "band": pa.array(out_band, pa.string()),
                         "is_old": pa.array(out_old, pa.bool_())})

    return ds.map_batches(sig, batch_format="pyarrow")


def cross_dump_banddup_census(sf_dir: str, num_perm: int = 64,
                              bands: int = 16):
    """Cross-dump NEAR-dup gate: new-crawl documents sharing at least
    one MinHash-LSH band key with the earlier dump (the ``doc_id % 2``
    slice, as in ``cross_dump_dedup_census``) — the recall gate that
    feeds a cross-dump exact verify at 100 TB.  Per-lang counts of
    banded new docs and band-collision hits; the engineered near-dup
    twins straddle the slice even at sf0.001, so the collision path
    verifies non-trivially at every scale.

    Two partitioned shuffles, both dumps streamed: band rows (old rows
    tagged) hash-partition on the band key for an in-batch membership
    test, per-doc hit flags hash-partition on doc_id for the OR-fold —
    no broadcast old-dump key set, no driver state."""
    banded = _cross_dump_band_rows(sf_dir, num_perm, bands)

    def hits_part(g: pd.DataFrame) -> pd.DataFrame:
        old_bands = set(g.loc[g["is_old"], "band"])
        new = g[~g["is_old"]]
        if new.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "lang": pd.Series([], dtype="str"),
                                 "hit": pd.Series([], dtype="int64")})
        return (pd.DataFrame(
            {"doc_id": new["doc_id"], "lang": new["lang"],
             "hit": new["band"].isin(old_bands).astype("int64")})
            .groupby(["doc_id", "lang"], as_index=False)["hit"].max())

    def doc_part(g: pd.DataFrame) -> pd.DataFrame:
        per_doc = g.groupby(["doc_id", "lang"], as_index=False)["hit"].max()
        return (per_doc.groupby("lang", as_index=False)
                .agg(n_new_banded=("hit", "size"),
                     n_banddup_vs_old=("hit", "sum")))

    return fold_groups(
        partition_reduce(
            partition_reduce(banded, "band", hits_part),
            "doc_id", doc_part),
        "lang", {"n_new_banded": ("n_new_banded", "sum"),
                 "n_banddup_vs_old": ("n_banddup_vs_old", "sum")})


def _cross_banddup_sql(num_perm: int = 64, bands: int = 16) -> str:
    from kawa_ray.functions.minhash import _MERSENNE, perm_params

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
, old_bands AS (SELECT DISTINCT band, bkey FROM bands WHERE doc_id % 2 = 0)
, newdocs AS (
  SELECT b.doc_id, MAX(CASE WHEN ob.band IS NOT NULL THEN 1 ELSE 0 END) AS hit
  FROM bands b LEFT JOIN old_bands ob ON b.band = ob.band AND b.bkey = ob.bkey
  WHERE b.doc_id % 2 <> 0 GROUP BY b.doc_id)
SELECT d.lang, COUNT(*) AS n_new_banded,
       CAST(SUM(n.hit) AS BIGINT) AS n_banddup_vs_old
FROM newdocs n JOIN documents d USING (doc_id)
GROUP BY d.lang ORDER BY d.lang
"""


def cross_dump_neardup_census(sf_dir: str, num_perm: int = 64,
                              bands: int = 16, threshold: float = 0.8,
                              max_members: int = 200):
    """Cross-dump near-dup VERIFY — the full incremental-dedup shape:
    new-crawl documents whose 3-gram Jaccard against some earlier-dump
    document (the ``doc_id % 2`` slice) clears ``threshold``, with
    candidates gated by shared MinHash-LSH band keys (the
    ``cross_dump_banddup_census`` recall gate, completed here by the
    exact verify that makes it a dedup decision rather than a
    collision census).  -> per-lang (n_new_banded, n_neardup_vs_old).

    Fully partitioned: band rows hash-partition on the band key and
    each band segment emits only OLD×NEW candidate pairs (per-segment
    cap ``max_members`` on the segment's distinct docs, so the pair
    set is deterministic and parallelism-independent); verification is
    the shared distributed Jaccard join (``_verified_edges`` — gram
    sets hash-partition onto pair endpoints, never a driver text
    dict); the census joins the new docs to the verified edges on
    doc_id in one more exchange.  Both dumps stream throughout — no
    broadcast old-dump state, and the band-row stream (corpus×bands
    sized) is never pinned (the winnow lesson): the census denominator
    ("banded new docs" = new docs with ≥1 gram) comes from a separate
    tokenize-only pass that never computes signatures, so the
    expensive MinHash pass runs exactly once."""
    banded = _cross_dump_band_rows(sf_dir, num_perm, bands)

    def explode(g: pd.DataFrame) -> pd.DataFrame:
        # numpy segment split per band key (the _partitioned_band_pairs
        # idiom — mostly singleton bands, per-group dispatch dominates)
        order = np.argsort(g["band"].to_numpy(), kind="stable")
        keys = g["band"].to_numpy()[order]
        ids = g["doc_id"].to_numpy()[order]
        olds = g["is_old"].to_numpy()[order]
        out_a: list[int] = []
        out_b: list[int] = []
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        ends = np.concatenate((starts[1:], [len(keys)]))
        for i, j in zip(starts, ends):
            mem = {int(d): bool(o) for d, o in zip(ids[i:j], olds[i:j])}
            if len(mem) < 2 or len(mem) > max_members:
                continue
            old = sorted(d for d, o in mem.items() if o)
            new = sorted(d for d, o in mem.items() if not o)
            for o in old:
                for nn in new:
                    out_a.append(o)
                    out_b.append(nn)
        return pd.DataFrame({"a": pd.Series(out_a, dtype="int64"),
                             "b": pd.Series(out_b, dtype="int64")})

    cand = _distinct_pairs(
        partition_reduce(banded, "band", explode, _PAIR_PARTITIONS))
    edges = _verified_edges(sf_dir, cand, 3, threshold)

    def new_rows(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        new = df[(df["doc_id"].to_numpy("int64") % 2) != 0]
        # a doc has >=1 gram iff it has >=1 token (word_ngrams of a
        # short-but-nonempty token list is the single joined gram) iff
        # the text is non-blank — vectorised strip beats re-tokenizing
        return new.loc[new["text"].str.strip() != "", ["doc_id", "lang"]]

    def census_part(nd: pd.DataFrame, hits: pd.DataFrame) -> pd.DataFrame:
        # every verified hit's b is a banded new doc
        per_doc = nd.groupby("doc_id", as_index=False)["lang"].max()
        per_doc["hit"] = per_doc["doc_id"].isin(
            hits["b"] if len(hits) else []).astype("int64")
        return (per_doc.groupby("lang", as_index=False)
                .agg(n_new_banded=("hit", "size"),
                     n_neardup_vs_old=("hit", "sum")))

    docs_src = _read_docs(sf_dir, ["doc_id", "lang", "text"])
    return fold_groups(
        partition_join(
            [(docs_src.map_batches(new_rows, batch_format="pyarrow"), "doc_id"),
             (edges, "b")], census_part),
        "lang", {"n_new_banded": ("n_new_banded", "sum"),
                 "n_neardup_vs_old": ("n_neardup_vs_old", "sum")})


def _cross_neardup_sql(num_perm: int = 64, bands: int = 16,
                       threshold: float = 0.8,
                       max_members: int = 200) -> str:
    from kawa_ray.functions.minhash import _MERSENNE, perm_params

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
, seg AS (
  SELECT band, bkey, COUNT(DISTINCT doc_id) AS n
  FROM bands GROUP BY band, bkey)
, cand AS (
  SELECT DISTINCT o.doc_id AS a, n2.doc_id AS b
  FROM bands o
  JOIN bands n2 ON o.band = n2.band AND o.bkey = n2.bkey
  JOIN seg s ON s.band = o.band AND s.bkey = o.bkey
  WHERE o.doc_id % 2 = 0 AND n2.doc_id % 2 <> 0
    AND s.n BETWEEN 2 AND {max_members})
, gsizes AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id)
, inter AS (
  SELECT c.a, c.b, COUNT(*) AS i
  FROM cand c
  JOIN grams ga ON ga.doc_id = c.a
  JOIN grams gb ON gb.doc_id = c.b AND gb.g = ga.g
  GROUP BY c.a, c.b)
, hits AS (
  SELECT DISTINCT i.b AS doc_id
  FROM inter i
  JOIN gsizes sa ON sa.doc_id = i.a
  JOIN gsizes sb ON sb.doc_id = i.b
  WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= {threshold})
, newbanded AS (SELECT DISTINCT doc_id FROM bands WHERE doc_id % 2 <> 0)
SELECT d.lang, COUNT(*) AS n_new_banded,
       CAST(SUM(CASE WHEN h.doc_id IS NOT NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_neardup_vs_old
FROM newbanded nb
JOIN documents d USING (doc_id)
LEFT JOIN hits h ON h.doc_id = nb.doc_id
GROUP BY d.lang ORDER BY d.lang
"""


def punctuation_stats(sf_dir: str):
    """Quality signal: punctuation-char counts per lang (SQL-checkable
    slice of the quality score)."""
    ds = _read_docs(sf_dir, ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = t.column("text")
        return pa.table({
            "lang": t.column("lang"),
            "punct": pc.count_substring_regex(text, "[.!?,;:]"),
            "ws": pc.count_substring(text, " "),
            "chars": pc.utf8_length(text),
        })

    return fold_groups(ds.map_batches(partial, batch_format="pyarrow"), "lang",
                       {"punct_chars": ("punct", "sum"),
                        "space_chars": ("ws", "sum"),
                        "total_chars": ("chars", "sum")})


PUNCT_STATS_SQL = """
SELECT lang,
       CAST(SUM(LENGTH(text) - LENGTH(REGEXP_REPLACE(text, '[.!?,;:]', '', 'g'))) AS BIGINT) AS punct_chars,
       CAST(SUM(LENGTH(text) - LENGTH(REPLACE(text, ' ', ''))) AS BIGINT) AS space_chars,
       CAST(SUM(LENGTH(text)) AS BIGINT) AS total_chars
FROM documents GROUP BY lang ORDER BY lang
"""


# ----------------------------------------------------------------- non-SQL ops

_STOP_EN = frozenset("the a an and or of to in is are was for with on at it this that".split())


def quality_scores(sf_dir: str):
    """Composite quality score (length / punctuation / stopword-ratio /
    mean-word-length heuristics).  Ratios are floor-discretised to 4dp
    (not rounded) so the SQL oracle matches exactly — Python round() is
    half-even, SQL ROUND is half-away, and token-count ratios like 1/32
    land exactly on .xxxx5 boundaries."""
    import math

    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def score(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rows = []
        for doc_id, lang, text in zip(df["doc_id"], df["lang"], df["text"]):
            toks = _WS.split(text.strip()) if text.strip() else []
            n = len(toks)
            stop_ratio = sum(1 for w in toks if w.lower() in _STOP_EN) / n if n else 0.0
            mean_len = float(np.mean([len(w) for w in toks])) if n else 0.0
            punct_ratio = len(_PUNCT.findall(text)) / max(1, len(text))
            length_score = min(1.0, n / 100.0)
            q = 0.4 * length_score + 0.2 * min(1.0, 4 * punct_ratio) + \
                0.2 * min(1.0, 2 * stop_ratio) + 0.2 * min(1.0, mean_len / 8.0)
            rows.append((doc_id, lang, n,
                         math.floor(stop_ratio * 10000) / 10000,
                         math.floor(q * 10000) / 10000))
        out = pd.DataFrame(rows, columns=["doc_id", "lang", "n_tokens", "stop_ratio", "quality"])
        return pa.Table.from_pandas(out, preserve_index=False)

    return ds.map_batches(score, batch_format="pyarrow").to_pandas().sort_values(
        "doc_id"
    ).reset_index(drop=True)


_STOP_EN_SQL = ",".join(f"'{w}'" for w in sorted(_STOP_EN))

# Exact SQL oracle: same tokenisation, same ratio arithmetic in the same
# operation order, same floor discretisation.
QUALITY_SCORES_SQL = f"""
WITH t AS (
  SELECT doc_id, lang, text,
         CASE WHEN TRIM(text) = '' THEN CAST([] AS VARCHAR[])
              ELSE REGEXP_SPLIT_TO_ARRAY(TRIM(text), '\\s+') END AS toks,
         LENGTH(text) - LENGTH(REGEXP_REPLACE(text, '[.!?,;:]', '', 'g')) AS punct
  FROM documents
), s AS (
  SELECT doc_id, lang, LEN(toks) AS n,
         CASE WHEN LEN(toks) = 0 THEN 0.0
              ELSE LEN(LIST_FILTER(toks, x -> LOWER(x) IN ({_STOP_EN_SQL})))
                   / CAST(LEN(toks) AS DOUBLE) END AS stop_ratio,
         CASE WHEN LEN(toks) = 0 THEN 0.0
              ELSE LIST_AGGREGATE(LIST_TRANSFORM(toks, x -> LENGTH(x)), 'sum')
                   / CAST(LEN(toks) AS DOUBLE) END AS mean_len,
         punct / CAST(GREATEST(LENGTH(text), 1) AS DOUBLE) AS punct_ratio
  FROM t
)
SELECT doc_id, lang, n AS n_tokens,
       FLOOR(stop_ratio * 10000) / 10000 AS stop_ratio,
       FLOOR((0.4 * LEAST(1.0, n / 100.0)
              + 0.2 * LEAST(1.0, 4 * punct_ratio)
              + 0.2 * LEAST(1.0, 2 * stop_ratio)
              + 0.2 * LEAST(1.0, mean_len / 8.0)) * 10000) / 10000 AS quality
FROM s ORDER BY doc_id
"""


# compact per-language character/stopword profiles for heuristic language ID
_LANG_HINTS = {
    "en": frozenset("the and of to is in that with for it".split()),
    "es": frozenset("el la los de que en un una por con".split()),
    "fr": frozenset("le la les de que en un une pour avec".split()),
    "de": frozenset("der die das und von zu mit für ist ein".split()),
    "pt": frozenset("o os de que em um uma por com não".split()),
}


def lang_id(sf_dir: str):
    """Heuristic n-gram/stopword language ID (rows-only): per doc the
    argmax language by stopword hits + script detection."""
    from kawa_ray.functions.text import cjk_detect

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def ident(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        preds = []
        for text in df["text"]:
            cjk = cjk_detect(text[:400])
            if cjk:
                preds.append(cjk if cjk in ("zh", "ja", "ko", "th") else "other")
                continue
            toks = [w.lower() for w in _WS.split(text[:1000].strip())]
            best, best_n = "other", 0
            for lang, hints in _LANG_HINTS.items():
                hits = sum(1 for w in toks if w in hints)
                if hits > best_n:
                    best, best_n = lang, hits
            preds.append(best)
        return pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                         "lang_pred": pa.array(preds, pa.string())})

    out = ds.map_batches(ident, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _lang_id_sql() -> str:
    """Exact SQL mirror of ``lang_id``: same script sniff order over the
    first 400 chars, same stopword-hit argmax (first language in hint
    order wins ties, zero hits -> 'other') over the first 1000 chars."""
    hit_cols = []
    for lang, hints in _LANG_HINTS.items():
        words = ",".join(f"'{w}'" for w in sorted(hints))
        hit_cols.append(
            f"LEN(LIST_FILTER(toks, x -> LOWER(x) IN ({words}))) AS h_{lang}"
        )
    hits_sql = ",\n         ".join(hit_cols)
    langs = list(_LANG_HINTS)
    mx = "GREATEST(" + ", ".join(f"h_{l}" for l in langs) + ")"
    argmax = "\n    ".join(
        f"WHEN h_{l} = {mx} THEN '{l}'" for l in langs
    )
    return f"""
WITH t AS (
  SELECT doc_id,
         SUBSTRING(text, 1, 400) AS head400,
         REGEXP_SPLIT_TO_ARRAY(TRIM(SUBSTRING(text, 1, 1000)), '\\s+') AS toks
  FROM documents
), h AS (
  SELECT doc_id, head400,
         {hits_sql}
  FROM t
)
SELECT doc_id,
  CASE
    WHEN regexp_matches(head400, '[一-鿿]') THEN 'zh'
    WHEN regexp_matches(head400, '[가-힣]') THEN 'ko'
    WHEN regexp_matches(head400, '[぀-ヿ]') THEN 'ja'
    WHEN regexp_matches(head400, '[ก-๛]') THEN 'th'
    WHEN regexp_matches(head400, '[ꦀ-꧟]') THEN 'other'
    WHEN {mx} = 0 THEN 'other'
    {argmax}
  END AS lang_pred
FROM h ORDER BY doc_id
"""


LANG_ID_SQL = _lang_id_sql()


# number of hash partitions for candidate-pair generation / pair-space
# joins.  Fixed (NOT derived from cluster CPUs) so the candidate set —
# and hence the dedup census — is identical at any parallelism level;
# with per-segment caps the output is P-independent anyway, P only sets
# the shuffle fan-out.
_PAIR_PARTITIONS = 64
# driver tier ceiling for the candidate-pair tables: up to this many
# pairs, cross-band pair dedup (``_distinct_pairs``) runs as one pandas
# drop_duplicates and the verify stage (``_verified_edges``) broadcasts
# its candidate doc ids; above it both take their exchange paths.  The
# closure of the verified edges picks its own tier (closure_labels).
_DRIVER_EDGE_THRESHOLD = 200_000


def _partitioned_band_pairs(banded, key_col: str, max_members: int,
                            sim_col: str | None = None,
                            max_hamming: int = 0) -> rd.Dataset:
    """Candidate pairs from banded rows via hash-partitioned grouping:
    one ``partition_reduce`` on the key, then ``block_pairs`` per
    partition (groupby(key).map_groups paid ~1.5ms dispatch per group —
    mostly singleton bands, so dispatch dominated the stage).  With
    ``sim_col`` set, pairs within a segment are Hamming-gated (SimHash
    verify).

    All caps are PER BAND SEGMENT (a segment holds every row of one band
    key — the partition hash routes a whole key to one partition), so
    the emitted pair set is deterministic and independent of both P and
    the cluster size.  Returns a deduplicated Dataset (a, b)."""
    def explode(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy("int64")
        ia, ib = block_pairs(g[key_col].to_numpy(), ids, max_members)
        if sim_col is not None:
            # Hamming distance = popcount of the XOR; the 2^63 offset of
            # the int64 transport cancels in the XOR
            sims = g[sim_col].to_numpy("int64")
            bits = np.unpackbits((sims[ia] ^ sims[ib]).view(np.uint8))
            ok = bits.reshape(-1, 64).sum(axis=1) <= max_hamming
            ia, ib = ia[ok], ib[ok]
        return pd.DataFrame({"a": ids[ia], "b": ids[ib]})

    return _distinct_pairs(
        partition_reduce(banded, key_col, explode, _PAIR_PARTITIONS))


def _distinct_pairs(pairs: rd.Dataset) -> rd.Dataset:
    """Dedup (a, b) candidate pairs across bands: the same pair can
    surface from bands routed to different partitions.  Below the driver
    threshold one pandas drop_duplicates beats a whole extra shuffle
    (~1s fixed cost); the a-partitioned distinct is the scale fallback —
    both produce the identical pair set."""
    pairs = pairs.materialize()
    if pairs.count() <= _DRIVER_EDGE_THRESHOLD:
        return rd.from_pandas(pairs.to_pandas().drop_duplicates(["a", "b"]))
    return partition_reduce(pairs, "a",
                            lambda g: g[["a", "b"]].drop_duplicates(),
                            _PAIR_PARTITIONS)


def _candidate_gram_sets(sf_dir: str, ids: set | None, n: int) -> rd.Dataset:
    """Per candidate doc, the set of word-``n``-gram 64-bit hashes as a
    sorted list column (doc_id, grams).  With ``ids`` given (pairs-space
    sized, below the driver threshold) it broadcasts via ``ray.put`` as
    the standard small-side semi-join filter; with ``ids=None`` (the
    scale path) grams are computed for EVERY doc worker-locally — no
    driver-held candidate state — and the verify stage's doc_id-hash
    join drops docs that carry no pair rows.  Either way only the
    hashed gram sets, not texts, enter the verify shuffle."""
    import ray

    ids_ref = None if ids is None else ray.put(
        np.fromiter((int(i) for i in ids), dtype="int64")
    )

    def pick(t: pa.Table, _ref=ids_ref) -> pa.Table:
        import pyarrow.compute as pc

        if _ref is None:
            return t
        want = ray.get(_ref)
        return t.filter(pc.is_in(t.column("doc_id"), pa.array(want, pa.int64())))

    def grams(t: pa.Table) -> pa.Table:
        from kawa_ray.functions.minhash import md5_low64_per_doc

        texts = t.column("text").to_pylist()

        def per_doc():
            for text in texts:
                toks = _WS.split(text.lower().strip()) if text.strip() else []
                yield list(word_ngrams(toks, n))

        # batch-deduped md5 in bounded chunks; packed uint64 blobs
        # survive pandas<->arrow round-trips that mangle ragged list
        # columns (Ray TensorArray)
        out_g = [np.unique(hs).astype("<u8").tobytes()
                 for hs in md5_low64_per_doc(per_doc())]
        return pa.table({"doc_id": t.column("doc_id"),
                         "grams": pa.array(out_g, pa.binary())})

    return (
        _read_docs(sf_dir, ["doc_id", "text"])
        .map_batches(pick, batch_format="pyarrow")
        .map_batches(grams, batch_format="pyarrow")
    )


def _verified_edges(sf_dir: str, cand: rd.Dataset, n: int,
                    threshold: float) -> rd.Dataset:
    """Exact-Jaccard verification of candidate pairs, fully distributed:
    ``partition_join`` of per-doc gram sets onto pair endpoints, then a
    pair-space regroup on ``a`` computing Jaccard per (a, b) — no
    driver loop over pairs, no driver-held text dict (the round-1 shape
    flagged in VERDICT.md item 5).  Returns a Dataset (a, b)."""
    cand = cand.materialize()
    if cand.count() <= _DRIVER_EDGE_THRESHOLD:
        # to_pandas, NOT take_all (take_all costs ~0.8 ms/row)
        cand_pd = cand.to_pandas()
        ends = set(cand_pd["a"].tolist()) | set(cand_pd["b"].tolist())
        if not ends:
            return cand.select_columns(["a", "b"])
        gram_ds = _candidate_gram_sets(sf_dir, ends, n)
    else:
        # scale path (round-2 VERDICT item 4 fixed): NO candidate-space
        # driver set — grams are computed for every doc worker-locally
        # and the doc_id-hash attach join below keeps only docs that
        # carry pair rows.  Trades one gram pass over non-candidates for
        # zero driver state; a dirty 100 TB corpus can't OOM the driver.
        gram_ds = _candidate_gram_sets(sf_dir, None, n)

    def endpoint_rows(df: pd.DataFrame) -> pd.DataFrame:
        a, b = df["a"].to_numpy("int64"), df["b"].to_numpy("int64")
        return pd.DataFrame({"doc_id": np.concatenate([a, b]),
                             "a": np.concatenate([a, a]),
                             "b": np.concatenate([b, b])})

    def attach(ep: pd.DataFrame, gr: pd.DataFrame) -> pd.DataFrame:
        return ep.merge(gr, on="doc_id", how="inner")[["a", "b", "grams"]]

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for (a, b), grp in g.groupby(["a", "b"], sort=False):
            if len(grp) != 2:
                continue
            sa = np.frombuffer(grp["grams"].iloc[0], dtype="<u8")
            sb = np.frombuffer(grp["grams"].iloc[1], dtype="<u8")
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            # union == 0 (two empty gram sets) is Jaccard 1.0 by the
            # convention the round-1 verify used; unreachable while the
            # banding stages skip zero-shingle docs
            if union == 0 or inter / union >= threshold:
                out_a.append(int(a))
                out_b.append(int(b))
        return pd.DataFrame({"a": pd.Series(out_a, dtype="int64"),
                             "b": pd.Series(out_b, dtype="int64")})

    # attach routes endpoints on doc_id, verify regroups each pair on a
    attached = partition_join(
        [(cand.map_batches(endpoint_rows, batch_format="pandas"), "doc_id"),
         (gram_ds, "doc_id")], attach, _PAIR_PARTITIONS)
    return partition_reduce(attached, "a", verify, _PAIR_PARTITIONS)


def _edges_census(sf_dir: str, edges: rd.Dataset) -> pd.DataFrame:
    """Dedup census from a duplicate-edge Dataset with NO corpus-sized
    driver state: n_docs is a metadata count, components come from
    ``closure_labels`` (a component's label is its smallest member, so
    components are the label rows with node == lbl), and singleton
    groups are counted by arithmetic (n_docs - nodes_in_edges +
    components) instead of enumerating ids."""
    n_docs = int(_read_docs(sf_dir, ["doc_id"]).count())
    labels = closure_labels(edges).materialize()
    n_nodes = int(labels.count())
    n_comp = int(labels.filter(expr="node == lbl").count())
    n_groups = n_docs - n_nodes + n_comp
    return pd.DataFrame(
        {"n_docs": [n_docs], "n_groups": [n_groups],
         "n_duplicates": [n_docs - n_groups]}
    )


def _minhash_edges(sf_dir: str, num_perm: int = 64, bands: int = 16,
                   jaccard_threshold: float = 0.8) -> rd.Dataset:
    """Shared MinHash-LSH chain: shingle -> minhash -> band buckets ->
    candidate pairs -> Jaccard-verified duplicate edges (used by the
    census and the keep-best representative selection)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def sig(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out_doc, out_band = [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = _WS.split(text.lower().strip()) if text.strip() else []
            sh = word_ngrams(toks, 3)
            if not sh:
                continue  # no content, no near-dup semantics (and the SQL
                # oracle's gram CTE has no rows for such docs either)
            s = minhash_signature(sh, num_perm, hash_fn=md5_low64)
            for b in lsh_band_keys(s, bands):
                out_doc.append(doc_id)
                out_band.append(b)
        return pa.table({"doc_id": pa.array(out_doc, pa.int64()),
                         "band": pa.array(out_band, pa.string())})

    banded = ds.map_batches(sig, batch_format="pyarrow")
    cand = _partitioned_band_pairs(banded, "band", max_members=200)
    return _verified_edges(sf_dir, cand, 3, jaccard_threshold)


def minhash_dedup_docs(sf_dir: str, num_perm: int = 64, bands: int = 16,
                       jaccard_threshold: float = 0.8):
    """MinHash-LSH near-dup detection: shingle -> minhash -> band buckets
    (groupby) -> candidate pairs -> Jaccard verify -> connected components
    (the canonical pipeline from ray_guide 'Aggregation at scale')."""
    return _edges_census(
        sf_dir, _minhash_edges(sf_dir, num_perm, bands, jaccard_threshold))


def simhash_dedup_docs(sf_dir: str, max_hamming: int = 6):
    """SimHash near-dup: 64-bit fingerprints, banded buckets, Hamming
    verify, connected components.  Rows-only oracle."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def sig(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out_doc, out_band, out_h = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = _WS.split(text.lower().strip()) if text.strip() else []
            if not toks:
                continue  # empty docs carry no signal (matches the SQL oracle)
            h = simhash64(toks, hash_fn=md5_low64)
            for b in simhash_band_keys(h, 4):
                out_doc.append(doc_id)
                out_band.append(b)
                out_h.append(h)
        return pa.table({"doc_id": pa.array(out_doc, pa.int64()),
                         "band": pa.array(out_band, pa.string()),
                         "sim": pa.array([x - (1 << 63) for x in out_h], pa.int64())})

    banded = ds.map_batches(sig, batch_format="pyarrow")
    # Hamming verify happens inside pair generation (sim carried along the
    # band rows) — the census is the only remaining step
    cand = _partitioned_band_pairs(banded, "band", max_members=2000,
                                   sim_col="sim", max_hamming=max_hamming)
    return _edges_census(sf_dir, cand)


def ngram_jaccard_dedup_docs(sf_dir: str, n: int = 3, threshold: float = 0.8,
                             n_keys: int = 2):
    """n-gram Jaccard near-dup: block on each doc's ``n_keys`` smallest
    word-n-gram hashes (bottom-k sketch keys — near-dups share most
    n-grams, hence their minima), verify candidates with exact Jaccard,
    connected components, census.  Precision is exact by construction
    (every reported duplicate passed the exact-Jaccard gate); blocking
    recall is checked against the all-pairs oracle in
    tests/test_text_functions.py.  Rows-only driver check (sketch-based)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def keys(t: pa.Table) -> pa.Table:
        from kawa_ray.functions.minhash import md5_low64_per_doc

        df = t.to_pandas()

        def per_doc():
            for text in df["text"]:
                toks = _WS.split(text.lower().strip()) if text.strip() else []
                yield list(set(word_ngrams(toks, n)))

        out_doc, out_key = [], []
        for doc_id, hs in zip(df["doc_id"], md5_low64_per_doc(per_doc())):
            for h in np.sort(hs)[:n_keys].tolist():
                out_doc.append(doc_id)
                out_key.append(h)
        return pa.table({"doc_id": pa.array(out_doc, pa.int64()),
                         "key": pa.array(out_key, pa.uint64())})

    cand = _partitioned_band_pairs(
        ds.map_batches(keys, batch_format="pyarrow"), "key", max_members=500
    )
    edges = _verified_edges(sf_dir, cand, n, threshold)
    return _edges_census(sf_dir, edges)


def docs_split_assign(sf_dir: str):
    """Deterministic train/test split assignment (hash-free modulo so the
    oracle is SQL-expressible) + per (lang, split) census — the
    train-corpus partitioning shape."""
    ds = _read_docs(sf_dir, ["doc_id", "lang"])

    def assign(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        split = pc.if_else(
            pc.equal(pc.cast(pc.bit_wise_and(t.column("doc_id"), 7), pa.int64()), 0),
            pa.scalar("test"), pa.scalar("train"),
        )
        return pa.table({"lang": t.column("lang"), "split": split})

    return fold_groups(ds.map_batches(assign, batch_format="pyarrow"),
                       ["lang", "split"], {"n_docs": (None, "count")})


DOCS_SPLIT_SQL = """
SELECT lang,
       CASE WHEN doc_id % 8 = 0 THEN 'test' ELSE 'train' END AS split,
       COUNT(*) AS n_docs
FROM documents
GROUP BY 1, 2
ORDER BY lang, split
"""


def docs_sample_stats(sf_dir: str, modulo: int = 20):
    """Deterministic 1/20 sample (doc_id % 20 = 0) + token stats over the
    sample — the bounded-sample pattern used for profiling a 100 TB
    corpus without reading it all (sampling predicate pushes into the
    scan via an expression filter)."""
    ds = _read_docs(sf_dir, ["doc_id", "text", "lang"])

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # vectorised modulo mask (Ray's expr filter can't parse `x % k`)
        mask = pc.equal(
            pc.subtract(t.column("doc_id"),
                        pc.multiply(pc.divide(t.column("doc_id"), modulo), modulo)),
            0,
        )
        return t.filter(mask)

    def stats(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.list_value_length(pc.split_pattern_regex(t.column("text"), r"\s+"))
        return pa.table({"lang": t.column("lang"), "tok": toks})

    out = fold_groups(
        ds.map_batches(keep, batch_format="pyarrow")
        .map_batches(stats, batch_format="pyarrow"),
        "lang", {"tok_sum": ("tok", "sum"), "n_docs": (None, "count")})
    out["avg_tokens"] = (out["tok_sum"] / out["n_docs"]).round(4)
    return out[["lang", "n_docs", "avg_tokens"]]


DOCS_SAMPLE_SQL = r"""
SELECT lang, COUNT(*) AS n_docs,
       ROUND(AVG(len(regexp_split_to_array(text, '\s+'))), 4) AS avg_tokens
FROM documents
WHERE doc_id % 20 = 0
GROUP BY lang
ORDER BY lang
"""


# ------------------------------------------ near-dup census SQL oracles
#
# The dedup suite's sketches are built on md5-low64 (== DuckDB
# md5_number_lower), fixed inlined permutation constants, and
# group-equality band keys — every step of blocking, verification,
# components and census is therefore exactly reproducible in SQL.  The
# Python band keys hash their chunk (partitioning concern only); the
# oracles group by the raw chunk values, which is the same equivalence
# relation.

def _grams_cte(n: int = 3) -> str:
    """toks + word-n-gram (set semantics) CTEs, exactly mirroring
    ``_WS.split(text.lower().strip())`` + ``word_ngrams``."""
    concat = " || ' ' || ".join(f"t[i + {j}]" for j in range(n))
    return f"""
toks AS (
  SELECT doc_id,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
), grams AS (
  SELECT DISTINCT doc_id, UNNEST(gs) AS g FROM (
    SELECT doc_id,
           CASE WHEN LEN(t) = 0 THEN CAST([] AS VARCHAR[])
                WHEN LEN(t) <= {n} THEN [array_to_string(t, ' ')]
                ELSE list_transform(range(1, LEN(t) - {n - 2}), i -> {concat})
                END AS gs
    FROM toks
  ) q
)"""


def _verify_census_sql(threshold: float) -> str:
    """exact-Jaccard verify over ``cand(a, b)`` + min-label closure +
    census — shared tail of all three oracles."""
    return f"""
, gsizes AS (
  SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id
), inter AS (
  SELECT c.a, c.b, COUNT(*) AS i
  FROM cand c
  JOIN grams ga ON ga.doc_id = c.a
  JOIN grams gb ON gb.doc_id = c.b AND gb.g = ga.g
  GROUP BY c.a, c.b
), edges AS (
  SELECT i.a, i.b
  FROM inter i
  JOIN gsizes sa ON sa.doc_id = i.a
  JOIN gsizes sb ON sb.doc_id = i.b
  WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= {threshold}
), adj AS (
  SELECT a AS x, b AS y FROM edges UNION SELECT b, a FROM edges
), reach AS (
  SELECT x AS node, x AS lbl FROM adj
  UNION
  SELECT adj.y AS node, r.lbl FROM reach r JOIN adj ON adj.x = r.node
  WHERE r.lbl < adj.y
), comp AS (
  SELECT node, MIN(lbl) AS lbl FROM reach GROUP BY node
), stats AS (
  SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
         (SELECT COUNT(*) FROM comp) AS n_nodes,
         (SELECT COUNT(DISTINCT lbl) FROM comp) AS n_comp
)
SELECT n_docs, n_docs - n_nodes + n_comp AS n_groups,
       n_nodes - n_comp AS n_duplicates
FROM stats
"""


def _ngram_jaccard_sql(n: int = 3, threshold: float = 0.8, n_keys: int = 2,
                       max_members: int = 500) -> str:
    return f"""
WITH RECURSIVE {_grams_cte(n)}
, ghash AS (
  SELECT doc_id, md5_number_lower(g) AS h FROM grams
), keys2 AS (
  SELECT doc_id, h FROM (
    SELECT doc_id, h,
           ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY h) AS rn
    FROM ghash
  ) WHERE rn <= {n_keys}
), seg AS (
  SELECT h, COUNT(DISTINCT doc_id) AS n FROM keys2 GROUP BY h
), cand AS (
  SELECT DISTINCT k1.doc_id AS a, k2.doc_id AS b
  FROM keys2 k1
  JOIN keys2 k2 ON k1.h = k2.h AND k1.doc_id < k2.doc_id
  JOIN seg ON seg.h = k1.h
  WHERE seg.n BETWEEN 2 AND {max_members}
){_verify_census_sql(threshold)}
"""


def _minhash_sql(num_perm: int = 64, bands: int = 16, threshold: float = 0.8,
                 max_members: int = 200) -> str:
    from kawa_ray.functions.minhash import _MERSENNE, perm_params

    a, b = perm_params(num_perm)
    perm_rows = ",".join(
        f"({i},{int(ai)},{int(bi)})" for i, (ai, bi) in enumerate(zip(a, b))
    )
    rows_per_band = num_perm // bands
    u64 = 1 << 64
    return f"""
WITH RECURSIVE {_grams_cte(3)}
, perms(i, pa, pb) AS (VALUES {perm_rows})
, hm AS (
  SELECT doc_id, md5_number_lower(g) % {_MERSENNE} AS hm FROM grams
), sig AS (
  -- numpy uint64 wraparound semantics: (a*h mod 2^64 + b) mod 2^64 mod p
  SELECT doc_id, i,
         MIN(((CAST(pa AS HUGEINT) * hm) % {u64} + pb) % {u64} % {_MERSENNE}) AS v
  FROM hm CROSS JOIN perms GROUP BY doc_id, i
), bands AS (
  SELECT doc_id, i // {rows_per_band} AS band,
         STRING_AGG(CAST(v AS VARCHAR), ',' ORDER BY i) AS bkey
  FROM sig GROUP BY doc_id, i // {rows_per_band}
), seg AS (
  SELECT band, bkey, COUNT(DISTINCT doc_id) AS n FROM bands GROUP BY 1, 2
), cand AS (
  SELECT DISTINCT b1.doc_id AS a, b2.doc_id AS b
  FROM bands b1
  JOIN bands b2 ON b1.band = b2.band AND b1.bkey = b2.bkey
                AND b1.doc_id < b2.doc_id
  JOIN seg ON seg.band = b1.band AND seg.bkey = b1.bkey
  WHERE seg.n BETWEEN 2 AND {max_members}
){_verify_census_sql(threshold)}
"""


def _simhash_sql(max_hamming: int = 6, max_members: int = 2000) -> str:
    # acc index i reads bit 8*(i//8) + 7 - i%8 of the token hash
    # (np.unpackbits is MSB-first per little-endian byte)
    bit_rows = ",".join(
        f"({i},{8 * (i // 8) + 7 - i % 8})" for i in range(64)
    )
    return f"""
WITH RECURSIVE toks AS (
  SELECT doc_id,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
), th AS (
  SELECT doc_id, md5_number_lower(UNNEST(t)) AS h FROM toks
), bitdef(i, n) AS (VALUES {bit_rows})
, acc AS (
  SELECT doc_id, b.i,
         SUM(CASE WHEN (h >> b.n) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM th CROSS JOIN bitdef b GROUP BY doc_id, b.i
), bit AS (
  SELECT doc_id, i, CASE WHEN s > 0 THEN 1 ELSE 0 END AS v FROM acc
), bandkey AS (
  SELECT doc_id, i // 16 AS band,
         SUM(v * (1 << (i % 16))) AS bkey
  FROM bit GROUP BY doc_id, i // 16
), seg AS (
  SELECT band, bkey, COUNT(DISTINCT doc_id) AS n FROM bandkey GROUP BY 1, 2
), candraw AS (
  SELECT DISTINCT b1.doc_id AS a, b2.doc_id AS b
  FROM bandkey b1
  JOIN bandkey b2 ON b1.band = b2.band AND b1.bkey = b2.bkey
                  AND b1.doc_id < b2.doc_id
  JOIN seg ON seg.band = b1.band AND seg.bkey = b1.bkey
  WHERE seg.n BETWEEN 2 AND {max_members}
), ham AS (
  SELECT c.a, c.b, SUM(CASE WHEN ba.v <> bb.v THEN 1 ELSE 0 END) AS d
  FROM candraw c
  JOIN bit ba ON ba.doc_id = c.a
  JOIN bit bb ON bb.doc_id = c.b AND bb.i = ba.i
  GROUP BY c.a, c.b
), edges AS (
  SELECT a, b FROM ham WHERE d <= {max_hamming}
), adj AS (
  SELECT a AS x, b AS y FROM edges UNION SELECT b, a FROM edges
), reach AS (
  SELECT x AS node, x AS lbl FROM adj
  UNION
  SELECT adj.y AS node, r.lbl FROM reach r JOIN adj ON adj.x = r.node
  WHERE r.lbl < adj.y
), comp AS (
  SELECT node, MIN(lbl) AS lbl FROM reach GROUP BY node
), stats AS (
  SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
         (SELECT COUNT(*) FROM comp) AS n_nodes,
         (SELECT COUNT(DISTINCT lbl) FROM comp) AS n_comp
)
SELECT n_docs, n_docs - n_nodes + n_comp AS n_groups,
       n_nodes - n_comp AS n_duplicates
FROM stats
"""


NGRAM_JACCARD_SQL = _ngram_jaccard_sql()
MINHASH_DEDUP_SQL = _minhash_sql()
SIMHASH_DEDUP_SQL = _simhash_sql()
CROSS_DUMP_BANDDUP_SQL = _cross_banddup_sql()
CROSS_DUMP_NEARDUP_SQL = _cross_neardup_sql()


def _winnow_selected(t: pa.Table, k: int, w: int) -> list[np.ndarray]:
    """Per-doc winnowing fingerprints for one Arrow batch: md5-low64
    every k-char gram (batch-deduped hashing in bounded chunks —
    md5_low64_per_doc), min of each sliding window of ``w`` gram
    hashes, distinct mins per doc."""
    from numpy.lib.stride_tricks import sliding_window_view

    from kawa_ray.functions.minhash import md5_low64_per_doc

    texts = t.column("text").to_pylist()

    def per_doc():
        for text in texts:
            n_grams = len(text) - k + 1
            yield ([text[i:i + k] for i in range(n_grams)]
                   if n_grams >= w else [])

    return [
        (np.unique(sliding_window_view(hs, w).min(axis=1))
         if hs.size else np.empty(0, dtype=np.uint64))
        for hs in md5_low64_per_doc(per_doc())
    ]


def winnow_fp_columns(t: pa.Table, k: int, w: int):
    """Shared '(lang, fp-int64) row columns' construction over a batch's
    winnowing selections — used by doc_winnow_fingerprints AND the
    rehearsal skew instrument (tools/rehearsal_x16.py) so the instrument
    always measures the production stream.  Returns
    (langs, counts, sels, fp_int64): per-doc langs/selection counts, the
    per-doc selection arrays, and the concatenated int64-shifted
    fingerprints (top bit flipped — Ray's aggregate path can't carry
    uint64 > 2^63; the shift preserves distinctness)."""
    sels = _winnow_selected(t, k, w)
    langs = np.asarray(t.column("lang").to_pylist(), dtype=object)
    counts = np.fromiter((s.size for s in sels), dtype=np.int64,
                         count=len(sels))
    fp = (np.concatenate(sels) if sels else np.empty(0, np.uint64))
    return langs, counts, sels, (fp ^ np.uint64(1 << 63)).view(np.int64)


def doc_winnow_fingerprints(sf_dir: str, k: int = 8, w: int = 4):
    """Winnowing document fingerprints (Schleimer et al. 2003, the
    MOSS local-fingerprinting scheme): hash every k-char-gram
    (md5-low64), keep the minimum of each sliding window of ``w``
    consecutive gram hashes, fingerprint = the doc's distinct selected
    hashes.  Census per lang: docs, selected fingerprints, distinct
    fingerprints (shared fingerprints across docs = near-dup signal).
    Exact SQL oracle (window MIN over md5_number_lower grams).

    ONE streaming pass, ONE shuffle, NO materialize (round-3 VERDICT
    item 2: the old shape ``.materialize()``d the fingerprint-expanded
    stream — corpus x tokens rows, the largest intermediate in the repo
    — just to share it between the doc-census and distinct consumers).
    The per-batch doc partials now RIDE the partitioned-distinct
    exchange as passthrough rows (stages/distinct.py
    ``passthrough_col``), and both censuses fold out of the same
    per-partition reduction."""
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def fused(t: pa.Table) -> pa.Table:
        langs, counts, _sels, fp_i64 = winnow_fp_columns(t, k, w)
        # per-batch doc partials (one row per lang in the batch)
        df = pd.DataFrame({"lang": langs, "n": counts})
        g = (df.groupby("lang", sort=False)["n"]
             .agg(n_docs="size", n_fps="sum").reset_index())
        n_f, n_d = len(fp_i64), len(g)
        return pa.table({
            "lang": pa.array(np.concatenate([np.repeat(langs, counts),
                                             g["lang"].to_numpy(object)]),
                             pa.string()),
            "fp": pa.array(np.concatenate([fp_i64, np.zeros(n_d, np.int64)])),
            "is_doc": pa.array([False] * n_f + [True] * n_d),
            "n_docs": pa.array(np.concatenate([np.zeros(n_f, np.int64),
                                               g["n_docs"].to_numpy(np.int64)])),
            "n_fps": pa.array(np.concatenate([np.zeros(n_f, np.int64),
                                              g["n_fps"].to_numpy(np.int64)])),
        })

    # the shared partitioned distinct (stages/distinct.py): fp rows
    # dedup per (lang, fp) partition, doc-partial rows pass through the
    # same exchange, and the per-partition ``then`` folds both into
    # per-lang partial sums — no single-language group, no per-distinct-
    # key aggregate cost, nothing pinned
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        f = g[~g["is_doc"]]
        d = g[g["is_doc"]]
        nd = f.groupby("lang", as_index=False).size().rename(
            columns={"size": "n_distinct"})
        dd = d.groupby("lang", as_index=False)[["n_docs", "n_fps"]].sum()
        return (dd.merge(nd, on="lang", how="outer").fillna(0)
                .astype({c: "int64" for c in ("n_docs", "n_fps", "n_distinct")}))

    return fold_groups(
        partition_distinct(ds.map_batches(fused, batch_format="pyarrow"),
                           ["lang", "fp"], key_col="fp",
                           passthrough_col="is_doc", then=fold),
        "lang", {"n_docs": ("n_docs", "sum"),
                 "n_fingerprints": ("n_fps", "sum"),
                 "n_distinct": ("n_distinct", "sum")})


# GPT-2-style pre-tokenizer shape (contractions | space?+letter-run |
# space?+digit-run | space?+other-run).  Both engines evaluate it with
# RE2 (pyarrow.compute and DuckDB), so parity is by construction — no
# Python-re-vs-RE2 class divergence.
BPE_TOKEN_PAT = r"'(s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+"


def doc_profile_stats(sf_dir: str):
    """Per-language text profile — doc counts, whitespace + BPE-ish
    token totals, punctuation / space / char totals — in ONE
    fully-Arrow-vectorised pass (``pc.split_pattern_regex`` /
    ``count_substring_regex``; no per-row Python).  Merges the round-2
    ``docs_per_lang`` / ``token_count_stats`` / ``punctuation_stats``
    queries so the full registry fits the driver's 50-query correctness
    window; the originals stay pytest-oracled via ``EXTRA_QUERIES``."""
    ds = _read_docs(sf_dir, ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = t.column("text")
        trimmed = pc.utf8_trim_whitespace(text)
        ntoks = pc.if_else(
            pc.equal(trimmed, ""),
            pa.scalar(0, pa.int64()),
            pc.cast(pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+")), pa.int64()),
        )
        return pa.table({
            "lang": t.column("lang"),
            "tokens": ntoks,
            "bpe": pc.count_substring_regex(text, BPE_TOKEN_PAT),
            "punct": pc.count_substring_regex(text, "[.!?,;:]"),
            "spaces": pc.count_substring(text, " "),
            "chars": pc.utf8_length(text),
        })

    return fold_groups(ds.map_batches(partial, batch_format="pyarrow"), "lang", {
        "n_docs": (None, "count"),
        "total_tokens": ("tokens", "sum"),
        "bpe_tokens": ("bpe", "sum"),
        "punct_chars": ("punct", "sum"),
        "space_chars": ("spaces", "sum"),
        "total_chars": ("chars", "sum"),
    })


_BPE_PAT_SQL = BPE_TOKEN_PAT.replace("'", "''")

DOC_PROFILE_SQL = f"""
SELECT lang,
       COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN TRIM(text) = '' THEN 0
                ELSE ARRAY_LENGTH(REGEXP_SPLIT_TO_ARRAY(TRIM(text), '\\s+')) END) AS BIGINT) AS total_tokens,
       CAST(SUM(LEN(REGEXP_EXTRACT_ALL(text, '{_BPE_PAT_SQL}'))) AS BIGINT) AS bpe_tokens,
       CAST(SUM(LENGTH(text) - LENGTH(REGEXP_REPLACE(text, '[.!?,;:]', '', 'g'))) AS BIGINT) AS punct_chars,
       CAST(SUM(LENGTH(text) - LENGTH(REPLACE(text, ' ', ''))) AS BIGINT) AS space_chars,
       CAST(SUM(LENGTH(text)) AS BIGINT) AS total_chars
FROM documents GROUP BY lang ORDER BY lang
"""


def doc_quality_lang(sf_dir: str):
    """Per-document quality score + heuristic language-ID in one batch
    pass (merges the round-2 ``quality_scores`` / ``lang_id`` queries
    for the driver's 50-query window; originals in ``EXTRA_QUERIES``).
    Same floor-discretisation and argmax semantics as the originals —
    the SQL oracle is the join of their two exact oracles."""
    import math

    from kawa_ray.functions.text import cjk_detect

    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def score(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rows = []
        for doc_id, lang, text in zip(df["doc_id"], df["lang"], df["text"]):
            toks = _WS.split(text.strip()) if text.strip() else []
            n = len(toks)
            stop_ratio = sum(1 for w in toks if w.lower() in _STOP_EN) / n if n else 0.0
            mean_len = float(np.mean([len(w) for w in toks])) if n else 0.0
            punct_ratio = len(_PUNCT.findall(text)) / max(1, len(text))
            length_score = min(1.0, n / 100.0)
            q = 0.4 * length_score + 0.2 * min(1.0, 4 * punct_ratio) + \
                0.2 * min(1.0, 2 * stop_ratio) + 0.2 * min(1.0, mean_len / 8.0)
            cjk = cjk_detect(text[:400])
            if cjk:
                pred = cjk if cjk in ("zh", "ja", "ko", "th") else "other"
            else:
                head = [w.lower() for w in _WS.split(text[:1000].strip())]
                pred, best_n = "other", 0
                for lg, hints in _LANG_HINTS.items():
                    hits = sum(1 for w in head if w in hints)
                    if hits > best_n:
                        pred, best_n = lg, hits
            rows.append((doc_id, lang, n,
                         math.floor(stop_ratio * 10000) / 10000,
                         math.floor(q * 10000) / 10000, pred))
        out = pd.DataFrame(rows, columns=["doc_id", "lang", "n_tokens",
                                          "stop_ratio", "quality", "lang_pred"])
        return pa.Table.from_pandas(out, preserve_index=False)

    return ds.map_batches(score, batch_format="pyarrow").to_pandas().sort_values(
        "doc_id"
    ).reset_index(drop=True)


def _doc_quality_lang_sql() -> str:
    return f"""
WITH qres AS ({QUALITY_SCORES_SQL}),
     lres AS ({LANG_ID_SQL})
SELECT qres.doc_id, qres.lang, qres.n_tokens, qres.stop_ratio,
       qres.quality, lres.lang_pred
FROM qres JOIN lres USING (doc_id)
ORDER BY doc_id
"""


DOC_QUALITY_LANG_SQL = _doc_quality_lang_sql()


DOC_WINNOW_SQL = """
WITH grams AS (
  SELECT doc_id, lang, i,
         md5_number_lower(substring(text, CAST(i AS INT), 8)) AS h,
         LENGTH(text) - 8 + 1 AS n_grams
  FROM documents, UNNEST(range(1, LENGTH(text) - 8 + 2)) AS u(i)
  WHERE LENGTH(text) >= 8
), wins AS (
  SELECT doc_id, lang, i, n_grams,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wmin
  FROM grams
), sel AS (
  SELECT DISTINCT doc_id, lang, wmin
  FROM wins WHERE i <= n_grams - 4 + 1
), per_doc AS (
  SELECT doc_id, lang, COUNT(*) AS n_fps FROM sel GROUP BY 1, 2
)
SELECT d.lang,
       COUNT(*) AS n_docs,
       CAST(COALESCE(SUM(p.n_fps), 0) AS BIGINT) AS n_fingerprints,
       (SELECT COUNT(DISTINCT s.wmin) FROM sel s WHERE s.lang = d.lang)
         AS n_distinct
FROM (SELECT DISTINCT doc_id, lang FROM documents) d
LEFT JOIN per_doc p USING (doc_id)
GROUP BY d.lang ORDER BY d.lang
"""


# ------------------------------------------- near-dup representative selection

def _member_token_rows(sf_dir: str) -> rd.Dataset:
    """(node=str(doc_id), lang, ntok) for every document — one streaming
    pass, vectorised; joined against cluster labels downstream."""
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        trimmed = pc.utf8_trim_whitespace(t.column("text"))
        toks = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
        toks = pc.if_else(pc.equal(trimmed, ""), pa.scalar(0, pa.int32()), toks)
        return pa.table({
            "node": pc.cast(t.column("doc_id"), pa.string()),
            "lang": t.column("lang"),
            "ntok": pc.cast(toks, pa.int64()),
        })

    return ds.map_batches(rows, batch_format="pyarrow")


def _keep_best_census(sf_dir: str, edges: rd.Dataset) -> pd.DataFrame:
    """Representative selection over duplicate clusters: per component
    keep the doc with the most tokens (tie: smallest doc_id); census per
    language of (members, kept, dropped).  Components come from
    ``closure_labels``; two hash-partitioned joins follow: attach label
    by node, then the keep-best ranking runs INSIDE the per-lbl
    partition (every member of a lbl hashes to one partition) emitting
    per-lang census partials, so the driver folds ≤ P x n_langs rows —
    never a member-space table."""
    cols = ["lang", "n_members", "n_kept", "n_dropped"]
    labels = closure_labels(edges).materialize()
    if labels.count() == 0:
        return pd.DataFrame({c: pd.Series([], dtype="int64" if c != "lang" else object)
                             for c in cols})
    P = 64

    def rank_census(g: pd.DataFrame) -> pd.DataFrame:
        """Keep-best ranking + per-lang census over a frame that holds
        every member of each lbl it contains."""
        g = g.copy()
        g["doc_int"] = g["node"].astype("int64")
        g = g.sort_values(["lbl", "ntok", "doc_int"],
                          ascending=[True, False, True])
        g["rn"] = g.groupby("lbl").cumcount()
        out = g.groupby("lang").agg(
            n_members=("node", "size"),
            n_kept=("rn", lambda s: int((s == 0).sum())),
            n_dropped=("rn", lambda s: int((s != 0).sum())),
        ).reset_index()
        return out

    def attach_lbl(lab: pd.DataFrame, toks: pd.DataFrame) -> pd.DataFrame:
        return toks.merge(lab[["node", "lbl"]], on="node", how="inner")

    # rank inside the per-lbl partition: only per-lang census
    # partials (<= P x n_langs rows) ever reach the driver
    partials = partition_reduce(
        partition_join([(labels, "node"), (_member_token_rows(sf_dir), "node")],
                       attach_lbl, P),
        "lbl", rank_census, P).to_pandas()
    census = (partials.groupby("lang")[["n_members", "n_kept", "n_dropped"]]
              .sum().reset_index())
    for c in ("n_members", "n_kept", "n_dropped"):
        census[c] = census[c].astype("int64")
    return census.sort_values("lang").reset_index(drop=True)


def minhash_keep_best(sf_dir: str, num_perm: int = 64, bands: int = 16,
                      jaccard_threshold: float = 0.8):
    """Near-dup representative selection: MinHash-LSH clusters (same
    chain as ``minhash_dedup_docs``), keep the longest member per
    cluster (tie: smallest doc_id) — the real-pipeline alternative to
    keep-first dedup.  Exact SQL oracle (the minhash chain's CTEs with a
    ROW_NUMBER keep-best tail)."""
    edges = _minhash_edges(sf_dir, num_perm, bands, jaccard_threshold)
    return _keep_best_census(sf_dir, edges)


def _keep_best_tail() -> str:
    """closure (as in _verify_census_sql) + keep-best census tail."""
    return """
, adj AS (
  SELECT a AS x, b AS y FROM edges UNION SELECT b, a FROM edges
), reach AS (
  SELECT x AS node, x AS lbl FROM adj
  UNION
  SELECT adj.y AS node, r.lbl FROM reach r JOIN adj ON adj.x = r.node
  WHERE r.lbl < adj.y
), comp AS (
  SELECT node, MIN(lbl) AS lbl FROM reach GROUP BY node
), mtok AS (
  SELECT c.node AS doc_id, c.lbl, d.lang,
         CASE WHEN TRIM(d.text, ' \t\n\r') = '' THEN 0
              ELSE LEN(regexp_split_to_array(TRIM(d.text, ' \t\n\r'), '\\s+'))
              END AS ntok
  FROM comp c JOIN documents d ON d.doc_id = c.node
), ranked AS (
  SELECT lang,
         ROW_NUMBER() OVER (PARTITION BY lbl ORDER BY ntok DESC, doc_id ASC) AS rn
  FROM mtok
)
SELECT lang, COUNT(*) AS n_members,
       CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(SUM(CASE WHEN rn = 1 THEN 0 ELSE 1 END) AS BIGINT) AS n_dropped
FROM ranked
GROUP BY lang
ORDER BY lang
"""


def _minhash_keep_best_sql(num_perm: int = 64, bands: int = 16,
                           threshold: float = 0.8, max_members: int = 200) -> str:
    base = _minhash_sql(num_perm, bands, threshold, max_members)
    # reuse the chain through the verified `edges` CTE, swap in the
    # keep-best tail (the census tail starts at the shared ", adj AS")
    head = base[: base.index(", adj AS (")]
    return head + _keep_best_tail()


MINHASH_KEEP_BEST_SQL = _minhash_keep_best_sql()
