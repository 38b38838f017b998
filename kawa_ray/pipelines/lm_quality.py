"""LM-perplexity quality scoring — the CCNet shape (Wenzek et al.
2020: score crawl text with a language model trained on a clean
reference corpus; high perplexity ⇒ low quality).  CCNet uses KenLM
5-gram models; here the model is a bigram LM with add-one smoothing
trained on the reference slice (``source IN _REFERENCE_SOURCES``), so
the whole thing is deterministic and exactly SQL-oracle-able — the
plumbing (train pass → model artifact → broadcast → vectorised scoring
pass) is the real KenLM shape, the model is the sandbox stand-in.

Semantics (mirrored token-for-token in the oracle):

* vocabulary V = distinct tokens of the reference slice; scoring-time
  tokens outside V map to ``<unk>``;
* P(cur | prev) = (c(prev,cur) + 1) / (c(prev,·) + |V| + 1);
* per-position cost = floor(−ln P × 1e6) — discretised BEFORE summing
  so the per-doc sum is an order-free integer sum (a raw double SUM
  would be addition-order-dependent and unreproducible across
  engines);
* per-doc mean nll = sum // n_positions; docs with < 2 tokens have no
  bigram positions and are not scored;
* census per language: docs scored, docs flagged
  (mean nll > ``_FLAG_MICRO``), floor-mean of the per-doc means.

Scale notes: the trained count table is the model artifact — bounded
by the reference corpus' bigram vocabulary.  Per-batch count partials
stream back to a driver fold (the folded dict is the same memory class
as the model itself; a Ray groupby over config-sized partials costs
seconds of fixed shuffle overhead for nothing), then the cost table is
``ray.put`` once and gathered per batch (at real scale: a KenLM binary
loaded per actor in ``__init__``).  The scoring pass is one streaming
``map_batches`` with numpy gather + bincount — no per-row Python, no
shuffle.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

import ray
import ray.data as rd

from kawa_ray.stages.distinct import fold_groups

_REFERENCE_SOURCES = ("src0", "src7")
_FLAG_MICRO = 3_500_000  # mean nll > 3.5 nats ~ perplexity > 33
_MICRO = 1_000_000.0


def _read_docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _split(texts: pd.Series):
    toks = texts.str.lower().str.split()
    lens = toks.str.len().fillna(0).to_numpy(np.int64)
    flat = toks.explode()
    flat = flat[flat.notna()]
    return flat, lens


def _lm_model_ref(docs, reference_sources: tuple[str, ...]):
    """Train pass (reference slice, streaming driver fold) -> ray.put
    handle to the discretised sparse cost model.  Shared by the census
    and the CCNet bucketing — semantics unchanged from round 3."""

    # ---- train pass over the reference slice: vocab + bigram counts
    def train_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["source"].isin(reference_sources)].reset_index(drop=True)
        flat, lens = _split(df["text"])
        codes, uniq = pd.factorize(flat.to_numpy(dtype=object))
        doc_idx = np.repeat(np.arange(lens.size), lens)
        if codes.size > 1:
            same = doc_idx[:-1] == doc_idx[1:]
            key = codes[:-1][same].astype(np.int64) * len(uniq) + codes[1:][same]
            uk, c = np.unique(key, return_counts=True)
            bg = pd.DataFrame({"prev": uniq[uk // len(uniq)],
                               "cur": uniq[uk % len(uniq)],
                               "c": c.astype(np.int64)})
        else:
            bg = pd.DataFrame({"prev": [], "cur": [], "c": []})
        vocab = pd.DataFrame({"prev": uniq, "cur": "", "c": 0})
        return pd.concat([bg, vocab], ignore_index=True)

    # streaming driver fold of the per-block count partials: the folded
    # table IS the model artifact (same memory class as the final model);
    # the partials are config-sized, not corpus-sized
    counts = fold_groups(docs.map_batches(train_partial, batch_format="pandas"),
                         ["prev", "cur"], {"c": ("c", "sum")})
    is_vocab = counts["cur"] == ""
    vocab = counts.loc[is_vocab, "prev"].tolist()  # sorted, distinct
    bigram_c = list(zip(counts.loc[~is_vocab, "prev"].tolist(),
                        counts.loc[~is_vocab, "cur"].tolist(),
                        counts.loc[~is_vocab, "c"].tolist()))
    w2i = {w: i for i, w in enumerate(vocab)}
    unk = len(vocab)                     # <unk> id
    vs = len(vocab)
    cprev = np.zeros(vs + 1, dtype=np.int64)
    for p, _cu, c in bigram_c:
        cprev[w2i[p]] += c
    # Pre-discretised SPARSE cost model, built with math.log (glibc,
    # the same libm DuckDB's LN uses — numpy's SIMD log can differ by
    # 1 ulp).  An unseen bigram's cost depends only on its PREV token
    # (c = 0), so the model is one default array (V+1 entries) plus a
    # dict override per SEEN bigram — the same memory class as the
    # count table itself, never (V+1)^2 (a real vocabulary would make
    # the dense matrix impossible).  The scoring hot path stays a pure
    # integer gather + a hash-map override on seen pairs.
    import math

    default = np.empty(vs + 1, dtype=np.int64)
    for p in range(vs + 1):
        default[p] = math.floor(
            -math.log(1.0 / (cprev[p] + vs + 1.0)) * 1_000_000.0)
    seen = sorted(
        (w2i[p] * (vs + 1) + w2i[cu],
         math.floor(-math.log((c + 1.0) / (cprev[w2i[p]] + vs + 1.0))
                    * 1_000_000.0))
        for p, cu, c in bigram_c)
    seen_keys = np.fromiter((k for k, _ in seen), dtype=np.int64, count=len(seen))
    seen_vals = np.fromiter((v for _, v in seen), dtype=np.int64, count=len(seen))
    return ray.put((w2i, unk, vs, default, seen_keys, seen_vals))


def _score_rows(df: pd.DataFrame, model) -> pd.DataFrame:
    """Per-doc integer mean-nll for one batch under an unpacked model
    tuple; keeps a ``doc_id`` column when the input has one.  The
    vectorised gather/bincount hot path, unchanged from round 3."""
    w2i, unk_id, vs_t, default, seen_keys, seen_vals = model
    df = df.reset_index(drop=True)
    flat, lens = _split(df["text"])
    # vocab-id mapping through the batch VOCABULARY (factorize
    # once, dict-lookup per distinct token only) — a per-token
    # pandas .map(dict) was the hot spot at sf0.1
    tcodes, toks_u = pd.factorize(flat.to_numpy(dtype=object))
    vocab_ids = np.fromiter(
        (w2i.get(t, unk_id) for t in toks_u),
        dtype=np.int64, count=len(toks_u))
    codes = (vocab_ids[tcodes] if len(toks_u)
             else np.zeros(0, dtype=np.int64))
    doc_idx = np.repeat(np.arange(lens.size), lens)
    same = (doc_idx[:-1] == doc_idx[1:]
            if codes.size > 1 else np.zeros(0, bool))
    prev, cur = codes[:-1][same], codes[1:][same]
    d = doc_idx[:-1][same]
    micro = default[prev].copy()
    key = prev * (vs_t + 1) + cur
    # vectorised sparse override: binary-search the sorted seen-
    # bigram keys (model-sized), patch matching positions
    if seen_keys.size:
        idx = np.searchsorted(seen_keys, key)
        idx_c = np.minimum(idx, seen_keys.size - 1)
        hit = seen_keys[idx_c] == key
        micro[hit] = seen_vals[idx_c[hit]]
    ndocs = len(df)
    s = np.bincount(d, weights=micro, minlength=ndocs).astype(np.int64)
    npos = np.bincount(d, minlength=ndocs).astype(np.int64)
    scored = npos > 0
    mean = s[scored] // npos[scored]
    cols = {"lang": df["lang"].to_numpy()[scored],
            "mean_nll": mean.astype(np.int64)}
    if "doc_id" in df.columns:
        cols = {"doc_id": df["doc_id"].to_numpy()[scored], **cols}
    return pd.DataFrame(cols)


def lm_perplexity_scores(sf_dir: str,
                         reference_sources: tuple[str, ...] = _REFERENCE_SOURCES):
    """Per-language census of bigram-LM mean-nll scores (integer micro
    units): (lang, n_scored, n_flagged, avg_nll_micro)."""
    docs = _read_docs(sf_dir, ["text", "lang", "source"])
    model_ref = _lm_model_ref(docs, reference_sources)

    # ---- scoring pass over every document: stateless task, the model
    # table arrives via a plasma-local ray.get per batch (free after the
    # first fetch per worker; the stage scales to every CPU)
    def score(df: pd.DataFrame, _ref=model_ref) -> pd.DataFrame:
        rows = _score_rows(df, ray.get(_ref))
        out = pd.DataFrame({
            "lang": rows["lang"],
            "n_scored": 1,
            "n_flagged": (rows["mean_nll"] > _FLAG_MICRO).astype(np.int64),
            "nll_sum": rows["mean_nll"],
        })
        return out.groupby("lang", as_index=False).sum()

    # per-language partials are a handful of rows per batch — fold on
    # the driver instead of paying a Ray shuffle
    acc: dict[str, list[int]] = {}
    for b in docs.map_batches(score, batch_format="pandas").iter_batches(
            batch_format="pandas"):
        for lang, ns, nf, sm in zip(b["lang"], b["n_scored"],
                                    b["n_flagged"], b["nll_sum"]):
            a = acc.setdefault(lang, [0, 0, 0])
            a[0] += int(ns); a[1] += int(nf); a[2] += int(sm)
    out = pd.DataFrame(
        [(lg, a[0], a[1], a[2] // a[0]) for lg, a in acc.items()],
        columns=["lang", "n_scored", "n_flagged", "avg_nll_micro"])
    for c in ("n_scored", "n_flagged", "avg_nll_micro"):
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def ccnet_bucket_census(sf_dir: str,
                        reference_sources: tuple[str, ...] = _REFERENCE_SOURCES):
    """CCNet's head/middle/tail split (Wenzek et al. 2020): rank every
    scored document within its language by LM mean-nll and cut at the
    per-language terciles — head = the best-scoring third, the slice
    CCNet feeds to pretraining first.  Ranks use the deterministic
    order (mean_nll ASC, doc_id ASC); head ends at ceil(n/3), middle at
    ceil(2n/3).  -> (lang, bucket, n_docs, avg_nll_micro).

    Scale shape: train fold + one streaming scoring pass as in
    ``lm_perplexity_scores``, then ONE hash-partition shuffle of the
    (doc_id, lang, mean_nll) rows on lang and an in-partition lexsort.
    Exact terciles need each language's scores co-located — fine here
    and honest at single-language-shard scale; production CCNet derives
    the cutoffs from a per-language SAMPLE and this function's bucket
    rule is exactly what that sample pass would replicate."""
    import math

    from kawa_ray.stages.distinct import partition_reduce

    train_docs = _read_docs(sf_dir, ["text", "lang", "source"])
    model_ref = _lm_model_ref(train_docs, reference_sources)
    docs = _read_docs(sf_dir, ["doc_id", "text", "lang"])

    def score(df: pd.DataFrame, _ref=model_ref) -> pd.DataFrame:
        return _score_rows(df, ray.get(_ref))

    def bucket_part(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lang, grp in g.groupby("lang", sort=False):
            nll = grp["mean_nll"].to_numpy(np.int64)
            ids = grp["doc_id"].to_numpy(np.int64)
            order = np.lexsort((ids, nll))
            n = len(order)
            h = math.ceil(n / 3.0)
            m = math.ceil(2 * n / 3.0)
            bucket = np.full(n, "tail", dtype=object)
            bucket[:m] = "middle"
            bucket[:h] = "head"
            d = pd.DataFrame({"lang": lang, "bucket": bucket,
                              "nll": nll[order]})
            out.append(d.groupby(["lang", "bucket"], as_index=False)
                       .agg(n_docs=("nll", "size"), nll_sum=("nll", "sum")))
        if not out:
            return pd.DataFrame({"lang": pd.Series([], dtype="str"),
                                 "bucket": pd.Series([], dtype="str"),
                                 "n_docs": pd.Series([], dtype="int64"),
                                 "avg_nll_micro": pd.Series([], dtype="int64")})
        allr = pd.concat(out, ignore_index=True)
        allr["avg_nll_micro"] = (allr["nll_sum"] // allr["n_docs"]).astype("int64")
        allr["n_docs"] = allr["n_docs"].astype("int64")
        return allr[["lang", "bucket", "n_docs", "avg_nll_micro"]]

    out = (
        partition_reduce(
            docs.map_batches(score, batch_format="pandas"),
            "lang", bucket_part)
        .to_pandas()
    )
    return out.sort_values(["lang", "bucket"]).reset_index(drop=True)


def _lm_per_doc_cte(reference_sources: tuple[str, ...]) -> str:
    src_list = ", ".join(f"'{s}'" for s in reference_sources)
    return f"""toks AS (
  SELECT doc_id, lang, source,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
), u AS (
  SELECT doc_id, lang, source, UNNEST(t) AS w FROM toks
), vt AS (
  SELECT DISTINCT w FROM u WHERE source IN ({src_list})
), v AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS vs FROM vt
), bg AS (
  SELECT doc_id, lang, source,
         UNNEST(t[1:LEN(t) - 1]) AS prev,
         UNNEST(t[2:LEN(t)]) AS cur
  FROM toks WHERE LEN(t) >= 2
), cb AS (
  SELECT prev, cur, CAST(COUNT(*) AS BIGINT) AS c
  FROM bg WHERE source IN ({src_list}) GROUP BY 1, 2
), cp AS (
  SELECT prev, CAST(SUM(c) AS BIGINT) AS cprev FROM cb GROUP BY 1
), mapped AS (
  SELECT b.doc_id, b.lang,
         -- OOV sentinel contains a SPACE so no whitespace-split token can
         -- ever collide with it (a literal '<unk>' token in the corpus
         -- must stay a distinct in-vocab key, as it does on the Ray side)
         CASE WHEN pv.w IS NULL THEN '< unk >' ELSE b.prev END AS mprev,
         CASE WHEN cv.w IS NULL THEN '< unk >' ELSE b.cur END AS mcur
  FROM bg b
  LEFT JOIN vt pv ON pv.w = b.prev
  LEFT JOIN vt cv ON cv.w = b.cur
), scored AS (
  SELECT m.doc_id, m.lang,
         CAST(FLOOR(-LN((COALESCE(cb.c, 0) + 1.0)
                        / (COALESCE(cp.cprev, 0) + v.vs + 1.0))
                    * 1000000.0) AS BIGINT) AS micro
  FROM mapped m
  LEFT JOIN cb ON cb.prev = m.mprev AND cb.cur = m.mcur
  LEFT JOIN cp ON cp.prev = m.mprev
  CROSS JOIN v
), per_doc AS (
  SELECT doc_id, lang,
         CAST(SUM(micro) AS BIGINT) // COUNT(*) AS mean_nll
  FROM scored GROUP BY 1, 2
)"""


def _lm_sql(reference_sources: tuple[str, ...] = _REFERENCE_SOURCES) -> str:
    return f"""
WITH {_lm_per_doc_cte(reference_sources)}
SELECT lang, COUNT(*) AS n_scored,
       CAST(SUM(CASE WHEN mean_nll > {_FLAG_MICRO} THEN 1 ELSE 0 END) AS BIGINT)
         AS n_flagged,
       CAST(SUM(mean_nll) AS BIGINT) // COUNT(*) AS avg_nll_micro
FROM per_doc
GROUP BY lang
ORDER BY lang
"""


def _ccnet_sql(reference_sources: tuple[str, ...] = _REFERENCE_SOURCES) -> str:
    return f"""
WITH {_lm_per_doc_cte(reference_sources)}
, ranked AS (
  SELECT lang, mean_nll,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY mean_nll, doc_id) AS rn,
         COUNT(*) OVER (PARTITION BY lang) AS n
  FROM per_doc
), bucketed AS (
  SELECT lang, mean_nll,
         CASE WHEN rn <= CAST(CEIL(n / 3.0) AS BIGINT) THEN 'head'
              WHEN rn <= CAST(CEIL(2 * n / 3.0) AS BIGINT) THEN 'middle'
              ELSE 'tail' END AS bucket
  FROM ranked
)
SELECT lang, bucket, COUNT(*) AS n_docs,
       CAST(SUM(mean_nll) AS BIGINT) // COUNT(*) AS avg_nll_micro
FROM bucketed GROUP BY lang, bucket ORDER BY lang, bucket
"""


LM_PERPLEXITY_SQL = _lm_sql()
CCNET_BUCKET_SQL = _ccnet_sql()


# --------------------------------------------------------------------------
# PMI collocations (Church & Hanks 1990) — top bigram associations
# --------------------------------------------------------------------------

def pmi_collocations(sf_dir: str, min_count: int = 5, k: int = 10):
    """Global top-k word bigrams by pointwise mutual information:
    PMI(x,y) = ln( (c_xy * N_uni * N_uni) / (N_big * c_x * c_y) )
    over corpus-wide bigram/unigram counts, bigrams below ``min_count``
    dropped.  One bounded count shuffle (the bigram vocabulary), PMI
    arithmetic on the driver as a single int64-ratio ln per bigram
    (bit-exact vs the oracle).  Ties broken (pmi desc, prev, cur)."""
    docs = _read_docs(sf_dir, ["text"])

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        # one row per bigram (prev, cur) and per unigram (tok, "")
        flat, lens = _split(df["text"])
        tok = flat.to_numpy(dtype=object)
        doc_idx = np.repeat(np.arange(lens.size), lens)
        same = doc_idx[:-1] == doc_idx[1:]
        return pd.DataFrame({
            "prev": np.concatenate([tok[:-1][same], tok]),
            "cur": np.concatenate([tok[1:][same],
                                   np.full(tok.size, "", dtype=object)])})

    # driver fold of the bigram-vocabulary-sized counts (no shuffle)
    counts = fold_groups(docs.map_batches(gram_rows, batch_format="pandas"),
                         ["prev", "cur"], {"c": (None, "count")})
    uni = counts[counts["cur"] == ""].set_index("prev")["c"]
    bg = counts[counts["cur"] != ""].copy()
    n_uni = int(uni.sum())
    n_big = int(bg["c"].sum())
    bg = bg[bg["c"] >= min_count].copy()
    cx = bg["prev"].map(uni).to_numpy(np.float64)
    cy = bg["cur"].map(uni).to_numpy(np.float64)
    cxy = bg["c"].to_numpy(np.float64)
    # float64 products in the SAME left-to-right order as the oracle's
    # CAST-each-factor-then-multiply — int64 products would wrap silently
    # once c*n_uni^2 exceeds 2^63 (plausible at large corpora) while the
    # BIGINT oracle raises; ln via math.log (glibc == DuckDB LN; numpy's
    # SIMD log drifts by 1 ulp)
    import math

    fn, fb = float(n_uni), float(n_big)
    ratio = (cxy * fn * fn) / (fb * cx * cy)
    bg["pmi"] = [math.log(r) for r in ratio]
    bg = bg.sort_values(["pmi", "prev", "cur"],
                        ascending=[False, True, True]).head(k)
    bg["c"] = bg["c"].astype("int64")
    return bg[["prev", "cur", "c", "pmi"]].reset_index(drop=True)


def _pmi_sql(min_count: int = 5, k: int = 10) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(text, ' \t\n\r')), '\\s+')
              END AS t
  FROM documents
), u AS (
  SELECT UNNEST(t) AS w FROM toks
), uni AS (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM u GROUP BY 1
), nu AS (
  SELECT CAST(SUM(c) AS BIGINT) AS n_uni FROM uni
), bgr AS (
  SELECT UNNEST(t[1:LEN(t) - 1]) AS prev, UNNEST(t[2:LEN(t)]) AS cur
  FROM toks WHERE LEN(t) >= 2
), bg AS (
  SELECT prev, cur, CAST(COUNT(*) AS BIGINT) AS c FROM bgr GROUP BY 1, 2
), nb AS (
  SELECT CAST(SUM(c) AS BIGINT) AS n_big FROM bg
)
SELECT bg.prev, bg.cur, bg.c,
       -- cast EACH factor before multiplying (float64 products in the
       -- same order as the Ray path): the BIGINT product form overflows
       -- loudly at large corpora while numpy would wrap silently
       LN((CAST(bg.c AS DOUBLE) * CAST(nu.n_uni AS DOUBLE) * CAST(nu.n_uni AS DOUBLE))
          / (CAST(nb.n_big AS DOUBLE) * CAST(ux.c AS DOUBLE) * CAST(uy.c AS DOUBLE))) AS pmi
FROM bg
JOIN uni ux ON ux.w = bg.prev
JOIN uni uy ON uy.w = bg.cur
CROSS JOIN nu CROSS JOIN nb
WHERE bg.c >= {min_count}
ORDER BY pmi DESC, bg.prev ASC, bg.cur ASC
LIMIT {k}
"""


PMI_COLLOCATIONS_SQL = _pmi_sql()
