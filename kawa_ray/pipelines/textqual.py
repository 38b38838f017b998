"""Web-scale text-quality operators beyond the round-2 suite — the
repetition / decontamination / frequent-items patterns an LLM
training-data pipeline runs over a raw crawl before training.

All three are published techniques, re-expressed Ray-Data-first:

* ``doc_repetition_stats`` — Gopher-style repetition filters (Rae et
  al. 2021, "Scaling Language Models: ... Gopher", appendix A1.1):
  most-frequent-n-gram fraction and duplicated-n-gram fraction per
  document, aggregated per language.  Deviation from the paper
  (documented): fractions are over token occurrences, not characters
  (the character-coverage union is order-dependent and not
  SQL-expressible; the token form keeps an exact integer oracle).
* ``decontam_overlap`` — n-gram train/test decontamination (Brown et
  al. 2020 used 13-grams; ``n`` is a parameter and the synthetic
  corpus' 31-word vocabulary makes ``n=5`` the meaningful scale here):
  flag any candidate document sharing an n-gram with the benchmark
  set.  The benchmark gram set is small by construction (benchmarks
  are thousands of documents, the corpus is billions), so the
  scale-correct shape is: distinct-hash the benchmark grams once,
  ``ray.put`` the set, and filter candidates in ``map_batches`` — a
  broadcast semi-join, never a corpus-wide shuffle.
* ``top_tokens_mg`` — per-language exact top-k frequent tokens via the
  Misra–Gries summary (Misra & Gries 1982): per-batch bounded sketches
  (capacity ``m``), a tiny candidate shuffle (≤ m rows per language
  per batch instead of the full vocabulary), an exact recount of the
  candidate set only, and the MG frequency guarantee
  (missed tokens have count ≤ N/(m+1)) *checked at runtime* — if the
  k-th count doesn't clear the bound the operator falls back to the
  full-vocabulary groupby, so the result is exact either way and
  carries a plain top-k SQL oracle.

Every per-document kernel here is vectorised across the whole batch:
tokenisation is one pandas ``str.split``, n-gram identity is an
iterated injective ``pd.factorize`` pairing (no per-row Python loop,
no hashing collisions — gram equality is exact token-tuple equality,
mirroring the SQL oracle's string grams), and per-doc top/duplicate
counts come from ``np.maximum.reduceat`` / ``np.add.reduceat`` over
run-length-encoded (doc, gram) keys.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from kawa_ray.functions.minhash import md5_low64, word_ngrams
from kawa_ray.stages.distinct import fold_groups, partition_reduce


def _read_docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


# --------------------------------------------------------------------------
# Gopher-style repetition statistics
# --------------------------------------------------------------------------

# (metric, n, micro-threshold): token-adapted Gopher A1.1 thresholds —
# top n-gram fraction ≤ {2: 0.20, 3: 0.18}, duplicated n-gram fraction
# ≤ {5: 0.15, 10: 0.10}.  Micro units = floor(frac * 1e6), integer-exact
# on both engines.
_REP_METRICS = (("top", 2, 200_000), ("top", 3, 180_000),
                ("dup", 5, 150_000), ("dup", 10, 100_000))
_MICRO = 1_000_000


def _gram_codes(codes: np.ndarray, max_n: int) -> dict[int, np.ndarray]:
    """codes[i] = integer id of token i (batch-wide factorized).  Returns
    ``{n: g}`` where ``g[i]`` is an integer id such that
    ``g[i] == g[j]`` iff tokens ``i..i+n-1 == j..j+n-1`` — built by
    iterated injective pairing ``pair(a, b) = a * V + b`` (``b < V``)
    re-factorized each step so values stay small."""
    out: dict[int, np.ndarray] = {}
    vocab = int(codes.max()) + 1 if codes.size else 1
    g = codes.astype(np.int64)
    for n in range(2, max_n + 1):
        tail = codes[n - 1:].astype(np.int64)
        key = g[: tail.size] * vocab + tail
        g = pd.factorize(key)[0].astype(np.int64)
        out[n] = g
    return out


def _per_doc_gram_stats(g: np.ndarray, doc_of_tok: np.ndarray,
                        pos_in_doc: np.ndarray, lens: np.ndarray,
                        n: int, ndocs: int) -> tuple[np.ndarray, np.ndarray]:
    """(top_count, dup_occurrences) per doc for n-grams with ids ``g``
    (g[i] covers tokens i..i+n-1; ids are batch-global so the doc id is
    part of the run key)."""
    top = np.zeros(ndocs, dtype=np.int64)
    dup = np.zeros(ndocs, dtype=np.int64)
    L = g.size
    if L == 0:
        return top, dup
    valid = pos_in_doc[:L] + n <= lens[doc_of_tok[:L]]
    d, gv = doc_of_tok[:L][valid], g[valid]
    if d.size == 0:
        return top, dup
    order = np.lexsort((gv, d))
    ds_, gs_ = d[order], gv[order]
    newrun = np.empty(ds_.size, dtype=bool)
    newrun[0] = True
    newrun[1:] = (ds_[1:] != ds_[:-1]) | (gs_[1:] != gs_[:-1])
    run_starts = np.flatnonzero(newrun)
    run_counts = np.diff(np.append(run_starts, ds_.size))
    run_doc = ds_[run_starts]
    newdoc = np.empty(run_doc.size, dtype=bool)
    newdoc[0] = True
    newdoc[1:] = run_doc[1:] != run_doc[:-1]
    doc_run_starts = np.flatnonzero(newdoc)
    present = run_doc[doc_run_starts]
    top[present] = np.maximum.reduceat(run_counts, doc_run_starts)
    dup[present] = np.add.reduceat(
        np.where(run_counts > 1, run_counts, 0), doc_run_starts)
    return top, dup


def _tokenize_batch(texts: pd.Series) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray, np.ndarray]:
    """Whitespace-tokenise a batch (``text.lower().split()``, the
    oracle convention).  Returns (codes, doc_of_tok, pos_in_doc, lens)."""
    toks = texts.str.lower().str.split()
    lens = toks.str.len().fillna(0).to_numpy(np.int64)
    flat = toks.explode()
    flat = flat[flat.notna()]
    codes = pd.factorize(flat.to_numpy(dtype=object))[0].astype(np.int64)
    starts = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:] if lens.size > 1 else starts[:0])
    doc_of_tok = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    pos_in_doc = np.arange(codes.size, dtype=np.int64) - np.repeat(starts, lens)
    return codes, doc_of_tok, pos_in_doc, lens


def repetition_micro_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Per-document repetition metrics in integer micro units — the
    reusable kernel (also the unit-test surface)."""
    codes, doc_of_tok, pos_in_doc, lens = _tokenize_batch(df["text"])
    ndocs = len(df)
    max_n = max(n for _, n, _ in _REP_METRICS)
    grams = _gram_codes(codes, max_n)
    out = {"lang": df["lang"].to_numpy()}
    pass_mask = np.ones(ndocs, dtype=bool)
    safe_lens = np.maximum(lens, 1)
    for kind, n, thr in _REP_METRICS:
        top, dup = _per_doc_gram_stats(grams[n], doc_of_tok, pos_in_doc,
                                       lens, n, ndocs)
        if kind == "top":
            micro = (top * n * _MICRO) // safe_lens
        else:
            tot = np.maximum(lens - (n - 1), 1)
            micro = (dup * _MICRO) // tot
        out[f"{kind}{n}_micro"] = micro
        pass_mask &= micro <= thr
    out["gopher_pass"] = pass_mask
    return pd.DataFrame(out)


def doc_repetition_stats(sf_dir: str):
    """Per-language census of the Gopher-style repetition metrics:
    doc counts, docs passing all four thresholds, and the per-language
    mean of each metric in integer micro units (floor of the mean, so
    the oracle comparison is integer-exact)."""
    ds = _read_docs(sf_dir, ["text", "lang"])
    cols = [f"{kind}{n}_micro" for kind, n, _ in _REP_METRICS]
    out = fold_groups(
        ds.map_batches(repetition_micro_frame, batch_format="pandas"), "lang",
        {"n_docs": (None, "count"), "n_pass": ("gopher_pass", "sum"),
         **{c: (c, "sum") for c in cols}})
    for c in cols:
        out["avg_" + c] = out.pop(c) // out["n_docs"]
    return out


def _rep_stats_sql() -> str:
    ctes = ["""toks AS (
  SELECT doc_id, lang,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
)"""]
    joins, exprs, passes = [], [], []
    for kind, n, thr in _REP_METRICS:
        concat = " || ' ' || ".join(f"t[i + {j}]" for j in range(n))
        col = f"{kind}{n}_micro"
        ctes.append(f"""occ{n} AS (
  SELECT doc_id, UNNEST(
    CASE WHEN LEN(t) < {n} THEN CAST([] AS VARCHAR[])
         ELSE list_transform(range(1, LEN(t) - {n - 2}), i -> {concat}) END) AS g
  FROM toks
), st{n} AS (
  SELECT doc_id, MAX(c) AS topc,
         CAST(SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS BIGINT) AS dupocc
  FROM (SELECT doc_id, g, COUNT(*) AS c FROM occ{n} GROUP BY 1, 2) q
  GROUP BY 1
)""")
        joins.append(f"LEFT JOIN st{n} USING (doc_id)")
        if kind == "top":
            exprs.append(
                f"(COALESCE(st{n}.topc, 0) * {n} * 1000000)"
                f" // GREATEST(LEN(t), 1) AS {col}")
        else:
            exprs.append(
                f"(COALESCE(st{n}.dupocc, 0) * 1000000)"
                f" // GREATEST(LEN(t) - {n - 1}, 1) AS {col}")
        passes.append(f"{col} <= {thr}")
    per_doc = (f"per_doc AS (\n  SELECT toks.doc_id, lang,\n         "
               + ",\n         ".join(exprs)
               + "\n  FROM toks\n  " + "\n  ".join(joins) + "\n)")
    avgs = ",\n       ".join(
        f"CAST(SUM({c}) AS BIGINT) // COUNT(*) AS avg_{c}"
        for c in (f"{kind}{n}_micro" for kind, n, _ in _REP_METRICS))
    return (
        "WITH " + ",\n".join(ctes) + ",\n" + per_doc + f"""
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN {' AND '.join(passes)} THEN 1 ELSE 0 END) AS BIGINT)
         AS n_pass,
       {avgs}
FROM per_doc
GROUP BY lang
ORDER BY lang
""")


DOC_REPETITION_SQL = _rep_stats_sql()


# --------------------------------------------------------------------------
# n-gram decontamination
# --------------------------------------------------------------------------

_BENCHMARK_SOURCES = ("src0", "src7")


def _benchmark_gram_hashes(docs: rd.Dataset, benchmark_sources, n: int) -> set[int]:
    """Collect the benchmark slice's distinct gram hashes (bounded by
    the benchmark's size — the small side by construction)."""

    def bench_grams(df: pd.DataFrame) -> pd.DataFrame:
        hs: set[int] = set()
        for text in df[df["source"].isin(benchmark_sources)]["text"]:
            hs.update(md5_low64(g) for g in word_ngrams(text.lower().split(), n))
        return pd.DataFrame({"h": np.fromiter(hs, dtype=np.uint64, count=len(hs))})

    bench_set: set[int] = set()
    for b in docs.map_batches(bench_grams, batch_format="pandas").iter_batches(
            batch_format="pandas"):
        bench_set.update(int(x) for x in b["h"])
    return bench_set


def _fold_decontam_census(flagged: rd.Dataset) -> pd.DataFrame:
    """Driver fold of the per-batch per-language partials (≤ one row per
    language per batch) into the census frame."""
    acc: dict[str, list[int]] = {}
    for b in flagged.iter_batches(batch_format="pandas"):
        for lang, nd, nc in zip(b["lang"], b["n_docs"], b["n_contaminated"]):
            a = acc.setdefault(lang, [0, 0])
            a[0] += int(nd); a[1] += int(nc)
    out = pd.DataFrame([(lg, a[0], a[1]) for lg, a in acc.items()],
                       columns=["lang", "n_docs", "n_contaminated"])
    for c in ("n_docs", "n_contaminated"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def decontam_overlap(sf_dir: str, n: int = 5,
                     benchmark_sources: tuple[str, ...] = _BENCHMARK_SOURCES):
    """Flag candidate documents sharing any word n-gram with the
    benchmark slice (``source IN benchmark_sources``).  Gram identity =
    ``md5_low64`` of the space-joined gram (== DuckDB
    ``md5_number_lower``), gram extraction = the dedup suite's
    ``word_ngrams`` set semantics.  Benchmark grams are collected once
    and broadcast via ``ray.put``; candidates stream through one
    ``map_batches`` filter.  Per-language census output."""
    docs = _read_docs(sf_dir, ["text", "lang", "source"])
    ref = ray.put(_benchmark_gram_hashes(docs, benchmark_sources, n))

    # stateless task (not an actor pool): the broadcast set is fetched
    # with a plasma-local ray.get per batch — free after the first fetch
    # per worker, and the stage scales to every CPU
    def flag(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        grams = ray.get(_ref)
        keep = ~df["source"].isin(benchmark_sources)
        cand = df[keep]
        hit = np.fromiter(
            (any(md5_low64(g) in grams
                 for g in word_ngrams(t.lower().split(), n))
             for t in cand["text"]),
            dtype=np.int64, count=len(cand))
        out = pd.DataFrame({"lang": cand["lang"].to_numpy(),
                            "n_docs": 1, "n_contaminated": hit})
        return out.groupby("lang", as_index=False).sum()

    return _fold_decontam_census(docs.map_batches(flag, batch_format="pandas"))


def _decontam_sql(n: int = 5,
                  benchmark_sources: tuple[str, ...] = _BENCHMARK_SOURCES) -> str:
    concat = " || ' ' || ".join(f"t[i + {j}]" for j in range(n))
    src_list = ", ".join(f"'{s}'" for s in benchmark_sources)
    # same short-doc collapse as word_ngrams: <= n tokens -> one gram
    gram_list = f"""CASE WHEN LEN(t) = 0 THEN CAST([] AS VARCHAR[])
         WHEN LEN(t) <= {n} THEN [array_to_string(t, ' ')]
         ELSE list_transform(range(1, LEN(t) - {n - 2}), i -> {concat}) END"""
    return f"""
WITH toks AS (
  SELECT doc_id, lang, source,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
), grams AS (
  SELECT doc_id, lang, source, md5_number_lower(g) AS h
  FROM (SELECT doc_id, lang, source, UNNEST({gram_list}) AS g FROM toks) q
), bench AS (
  SELECT DISTINCT h FROM grams WHERE source IN ({src_list})
), flagged AS (
  SELECT g.doc_id, g.lang,
         MAX(CASE WHEN b.h IS NOT NULL THEN 1 ELSE 0 END) AS hit
  FROM grams g LEFT JOIN bench b USING (h)
  WHERE g.source NOT IN ({src_list})
  GROUP BY 1, 2
), cands AS (
  SELECT doc_id, lang, 0 AS hit FROM toks
  WHERE source NOT IN ({src_list}) AND LEN(t) = 0
)
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(hit) AS BIGINT) AS n_contaminated
FROM (SELECT * FROM flagged UNION ALL SELECT * FROM cands) q
GROUP BY lang
ORDER BY lang
"""


DECONTAM_SQL = _decontam_sql()


# --------------------------------------------------------------------------
# Misra–Gries two-pass exact top-k tokens
# --------------------------------------------------------------------------

def _mg_compress(tokens: np.ndarray, counts: np.ndarray,
                 capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress an exact/summary count vector to ≤ capacity entries, the
    Misra–Gries way: subtract the (capacity+1)-th largest count from
    all, keep positives.  Retained count underestimates the true count
    by at most the total decremented mass."""
    if counts.size <= capacity:
        return tokens, counts
    kth = np.partition(counts, counts.size - capacity - 1)[counts.size - capacity - 1]
    kept = counts - kth
    mask = kept > 0
    return tokens[mask], kept[mask]


def _lang_token_counts(df: pd.DataFrame):
    """Vectorised (lang, token) occurrence counts for a batch: factorize
    both columns, combine into one injective int key, count with
    ``np.unique`` — no pandas string groupby in the hot path.  Returns
    (langs_u, toks_u, lang_idx, tok_idx, counts, tcodes, toks_u_codes)
    where the first five describe the count table."""
    toks = df["text"].str.lower().str.split()
    flat = toks.explode()
    flat = flat[flat.notna()]
    lang_of = df["lang"].reindex(flat.index).to_numpy()
    lcodes, langs_u = pd.factorize(lang_of)
    tcodes, toks_u = pd.factorize(flat.to_numpy(dtype=object))
    if len(toks_u) == 0:
        z = np.zeros(0, dtype=np.int64)
        return langs_u, toks_u, z, z, z, tcodes, lcodes
    key = lcodes.astype(np.int64) * len(toks_u) + tcodes
    uk, counts = np.unique(key, return_counts=True)
    return (langs_u, toks_u, uk // len(toks_u), uk % len(toks_u),
            counts.astype(np.int64), tcodes, lcodes)


def top_tokens_mg(sf_dir: str, k: int = 5, capacity: int = 64):
    """Exact per-language top-k tokens with a Misra–Gries candidate
    pass.  Phase 1 sends ≤ capacity (lang, token, partial-count) rows
    per language per batch (never the full vocabulary) plus exact
    per-language occurrence totals; phase 2 merges the summaries and
    re-compresses; phase 3 recounts ONLY the candidate tokens exactly.
    The MG guarantee (a token absent from the summary has true count
    ≤ N/(capacity+1)) is checked against the k-th recounted value — on
    failure the operator falls back to the full-vocabulary groupby, so
    the output is exact either way (ties broken count desc, token asc)."""
    ds = _read_docs(sf_dir, ["text", "lang"])

    def sketch(df: pd.DataFrame) -> pd.DataFrame:
        langs_u, toks_u, li, ti, counts, _, _ = _lang_token_counts(df)
        rows = []
        for lc in range(len(langs_u)):
            m = li == lc
            t, c = _mg_compress(toks_u[ti[m]], counts[m], capacity)
            rows.append(pd.DataFrame({"lang": langs_u[lc], "token": t, "cnt": c}))
            rows.append(pd.DataFrame({"lang": [langs_u[lc]], "token": [""],
                                      "cnt": [int(counts[m].sum())]}))
        return (pd.concat(rows, ignore_index=True) if rows
                else pd.DataFrame({"lang": [], "token": [], "cnt": []}))

    # streaming driver fold of the per-batch summaries — MG summaries
    # are mergeable (merge = add counts, re-compress to capacity;
    # Agarwal et al. 2013), so the driver holds ≤ capacity+batch rows
    # per language at any time and no Ray shuffle is needed (a groupby
    # over the tiny summary rows costs ~4 s of fixed overhead at any
    # data size — the wrong tool for config-sized merges)
    running: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for b in ds.map_batches(sketch, batch_format="pandas").iter_batches(
            batch_format="pandas"):
        for lang, grp in b.groupby("lang"):
            is_tot = grp["token"] == ""
            totals[lang] = totals.get(lang, 0) + int(grp.loc[is_tot, "cnt"].sum())
            cur = running.setdefault(lang, {})
            for t, c in zip(grp.loc[~is_tot, "token"], grp.loc[~is_tot, "cnt"]):
                cur[t] = cur.get(t, 0) + int(c)
            if len(cur) > capacity:
                ts, cs = _mg_compress(
                    np.array(list(cur.keys()), dtype=object),
                    np.fromiter(cur.values(), dtype=np.int64, count=len(cur)),
                    capacity)
                running[lang] = dict(zip(ts, (int(x) for x in cs)))
    cand: dict[str, np.ndarray] = {
        lang: np.array(list(cur.keys()), dtype=object)
        for lang, cur in running.items()}
    # union across languages: counting a token for a language it isn't a
    # candidate in only ADDS exactly-counted rows, never corrupts one
    cand_union = sorted({t for ts in cand.values() for t in ts})
    cand_ref = ray.put(frozenset(cand_union))

    def recount(df: pd.DataFrame, _ref=cand_ref) -> pd.DataFrame:
        cand_set = ray.get(_ref)
        langs_u, toks_u, li, ti, counts, _, _ = _lang_token_counts(df)
        # candidate filter on the batch VOCABULARY (tiny), then a
        # boolean gather over the count table — no per-token isin
        keep_tok = np.fromiter((t in cand_set for t in toks_u),
                               dtype=bool, count=len(toks_u))
        m = keep_tok[ti] if len(toks_u) else np.zeros(0, dtype=bool)
        return pd.DataFrame({"lang": langs_u[li[m]],
                             "token": toks_u[ti[m]],
                             "cnt": counts[m]})

    # exact recount fold: ≤ |candidates| × languages keys on the driver
    exact = fold_groups(ds.map_batches(recount, batch_format="pandas"),
                        ["lang", "token"], {"cnt": ("cnt", "sum")})
    exact = exact.sort_values(["lang", "cnt", "token"],
                              ascending=[True, False, True])
    topk = exact.groupby("lang").head(k).reset_index(drop=True)
    # MG guarantee check: every token outside the candidate set has true
    # count <= N/(capacity+1); the k-th kept count must clear that bound
    # or top-k might live outside the candidates.
    # driven off totals, not topk groups: a language whose merged summary
    # compressed to zero candidates has NO topk group at all — that must
    # trigger the exact fallback, not silently drop the language
    ok = True
    grp_of = {lang: grp for lang, grp in topk.groupby("lang")}
    for lang, n_lang in totals.items():
        if n_lang <= 0:
            continue
        grp = grp_of.get(lang)
        # absent tokens have true count <= N/(capacity+1); the k-th kept
        # count must strictly clear it (integer-exact comparison)
        if (grp is None or len(grp) < k
                or int(grp["cnt"].iloc[-1]) * (capacity + 1) <= n_lang):
            ok = False
    if not ok:  # exact fallback: full-vocabulary shuffle
        def full_counts(df: pd.DataFrame) -> pd.DataFrame:
            langs_u, toks_u, li, ti, counts, _, _ = _lang_token_counts(df)
            return pd.DataFrame({"lang": langs_u[li], "token": toks_u[ti],
                                 "cnt": counts})

        # token is vocabulary-cardinality: hash-partition on token (all
        # langs of a token co-locate), merge counts in-batch
        exact = (
            partition_reduce(
                ds.map_batches(full_counts, batch_format="pandas"),
                "token",
                lambda g: g.groupby(["lang", "token"], sort=False,
                                    as_index=False)["cnt"].sum(),
            )
            .to_pandas()
        ).sort_values(["lang", "cnt", "token"], ascending=[True, False, True])
        topk = exact.groupby("lang").head(k).reset_index(drop=True)
    topk["cnt"] = topk["cnt"].astype("int64")
    return topk[["lang", "token", "cnt"]].reset_index(drop=True)


TOP_TOKENS_SQL = """
WITH toks AS (
  SELECT lang,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
), u AS (
  SELECT lang, UNNEST(t) AS token FROM toks
), c AS (
  SELECT lang, token, COUNT(*) AS cnt,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY COUNT(*) DESC, token ASC) AS rn
  FROM u GROUP BY 1, 2
)
SELECT lang, token, cnt FROM c
WHERE rn <= 5
ORDER BY lang, cnt DESC, token
"""


# --------------------------------------------------------------------------
# Bloom-gated decontamination
# --------------------------------------------------------------------------

_BLOOM_BITS_PER_KEY = 16   # ~0.04% fp rate at k=4
_BLOOM_HASHES = 4


def _bloom_build(hashes: set[int], m_bits: int) -> np.ndarray:
    """Deterministic Bloom filter over 64-bit gram hashes: k=4 probe
    positions derived from fixed 16-bit slices of each hash (no RNG)."""
    bits = np.zeros((m_bits + 63) // 64, dtype=np.uint64)
    for h in hashes:
        for i in range(_BLOOM_HASHES):
            pos = ((h >> (16 * i)) & 0xFFFF | ((h >> (i * 7)) << 16)) % m_bits
            bits[pos >> 6] |= np.uint64(1 << (pos & 63))
    return bits


def _bloom_probe(bits: np.ndarray, m_bits: int, h: int) -> bool:
    for i in range(_BLOOM_HASHES):
        pos = ((h >> (16 * i)) & 0xFFFF | ((h >> (i * 7)) << 16)) % m_bits
        if not (int(bits[pos >> 6]) >> (pos & 63)) & 1:
            return False
    return True


def decontam_overlap_bloom(sf_dir: str, n: int = 5,
                           benchmark_sources: tuple[str, ...] = _BENCHMARK_SOURCES):
    """Bloom-gated decontamination — identical output to
    ``decontam_overlap`` (same SQL oracle; equality also pinned in
    tests), but candidates stream against a BLOOM FILTER of the
    benchmark grams (16 bits/key ≈ 32× smaller than the exact hash set)
    and only Bloom-positive documents pay the exact-set verification —
    the sketch-gate-then-verify shape that keeps the broadcast small
    when the benchmark set grows."""
    docs = _read_docs(sf_dir, ["text", "lang", "source"])
    bench_set = _benchmark_gram_hashes(docs, benchmark_sources, n)
    m_bits = max(64, _BLOOM_BITS_PER_KEY * max(1, len(bench_set)))
    bloom_ref = ray.put(_bloom_build(bench_set, m_bits))
    exact_ref = ray.put(bench_set)

    def flag(df: pd.DataFrame, _b=bloom_ref, _e=exact_ref,
             _m=m_bits) -> pd.DataFrame:
        bits = ray.get(_b)
        exact = None  # fetched lazily: only Bloom-positive docs need it
        keep = ~df["source"].isin(benchmark_sources)
        cand = df[keep]
        hits = []
        for t in cand["text"]:
            # lazy per-gram scan with the exact operator's short-circuit:
            # verify on each Bloom-positive, stop at the first true hit
            hit = 0
            for g in word_ngrams(t.lower().split(), n):
                h = md5_low64(g)
                if not _bloom_probe(bits, _m, h):
                    continue
                if exact is None:
                    exact = ray.get(_e)
                if h in exact:
                    hit = 1
                    break
            hits.append(hit)
        out = pd.DataFrame({"lang": cand["lang"].to_numpy(),
                            "n_docs": 1, "n_contaminated": hits})
        return out.groupby("lang", as_index=False).sum()

    return _fold_decontam_census(docs.map_batches(flag, batch_format="pandas"))
