"""Trained quality-classifier data selection — the GPT-3 / FineWeb
filtering shape: fit a linear classifier that separates a curated
"positive" slice from the rest of the crawl, then score EVERY document
and keep the high-scoring ones (Brown et al. 2020 §A trained their
quality filter on WebText-vs-CommonCrawl labels; FineWeb-Edu scores
with a learned regressor).  The sandbox positives are the deterministic
``source IN _POSITIVE_SOURCES`` slice (the same reference-slice
convention as ``dsir`` / ``lm_quality``; the real pipeline would label
Wikipedia/books positive), and the model is logistic-style full-batch
gradient descent — the distributed-training loop itself is the
operator.

Exact-reproducibility design (every float op mirrored in the SQL
oracle, the repo's standard tricks):

* features per doc (all double, identical op order both engines):
  x1 = min(1, n_tokens/100), x2 = stopword ratio, x3 = min(1,
  mean_token_len/8), x4 = min(1, 4*punct_ratio) — the ``quality_scores``
  heuristic family, plus the bias x0 = 1;
* squashing = the "fast sigmoid" s(z) = 0.5 + z/(2*(1+|z|)) — unlike
  exp(), every operation (abs/add/mul/div) is an exactly-specified
  IEEE-754 primitive, so numpy and DuckDB agree bit-for-bit;
* per-row gradient contributions (s - y)*x_j are floor-discretised to
  integer micros BEFORE summing, so the full-batch gradient is an
  order-free integer sum; weights update in double from those integers
  (lr = {_LR}, a power of two) — T = 2 unrolled iterations;
* selection is mean-relative via INTEGER cross-multiplication
  (micro_score * n_docs > total_micro — no float threshold at all):
  with near-inseparable synthetic features the scores cluster tightly
  around the base rate, so an absolute 0.5 cut would be degenerate
  (the DSIR lesson), while the top-half-by-score cut is the actual
  resampling decision and stays exact.

Scale shape: four streaming passes over the pruned (text[, source])
columns — one per GD iteration, one for the two selection scalars, one
for the census — zero shuffles on data-cardinality keys; each pass is
flat-token vectorised (arrow split + np.bincount segment sums, no
per-row Python in the feature path); the "model" crossing the driver
is five floats.  Recomputing cheap features per pass beats
materializing a corpus-sized feature table (the DSIR trade).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from kawa_ray.pipelines.docs import _STOP_EN, _read_docs
from kawa_ray.stages.distinct import fold_groups
from kawa_ray.state.checkpoint import ShardWorker

_POSITIVE_SOURCES = ("src0", "src1", "src2", "src3", "src4")
_LR = 4.0
_ITERS = 2
_MICRO = 1_000_000.0


def _features(t: pa.Table) -> pd.DataFrame:
    """Per-doc (y?, x1..x4) feature frame — fully vectorised: one arrow
    regex split, flat-token length/stopword kernels, np.bincount
    segment sums.  Columns mirror the SQL ``f`` CTE bit-for-bit."""
    import pyarrow.compute as pc

    text = t.column("text")
    # trim EXACTLY the oracle's character set (' \t\n\r') — a full
    # Unicode-whitespace trim would diverge from TRIM(text, ' \t\n\r')
    # on \f/\v/ideographic-space edges and shift every downstream
    # feature (review finding; latent on the current corpus)
    trimmed = pc.utf8_trim(text, " \t\n\r")
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    raw_n = pc.list_value_length(toks).to_numpy().astype("int64")
    empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
    n = np.where(empty, 0, raw_n)

    flat = pc.list_flatten(toks)
    tok_len = pc.utf8_length(flat).to_numpy().astype("int64")
    is_stop = pd.Series(pc.utf8_lower(flat).to_pandas()).isin(_STOP_EN).to_numpy()
    docidx = np.repeat(np.arange(len(raw_n)), raw_n)
    sumlen = np.bincount(docidx, weights=tok_len.astype("float64"), minlength=len(raw_n))
    stop_cnt = np.bincount(docidx, weights=is_stop.astype("float64"), minlength=len(raw_n))

    chars = pc.utf8_length(text).to_numpy().astype("int64")
    punct = pc.count_substring_regex(text, "[.!?,;:]").to_numpy().astype("int64")

    nf = n.astype("float64")
    zero = np.zeros(len(nf))
    stop_ratio = np.divide(stop_cnt, nf, out=zero.copy(), where=n > 0)
    mean_len = np.divide(sumlen, nf, out=zero.copy(), where=n > 0)
    punct_ratio = punct / np.maximum(chars, 1).astype("float64")

    df = pd.DataFrame({
        "x1": np.minimum(1.0, n / 100.0),
        "x2": stop_ratio,
        "x3": np.minimum(1.0, mean_len / 8.0),
        "x4": np.minimum(1.0, 4.0 * punct_ratio),
    })
    if "source" in t.schema.names:
        df["y"] = np.where(
            pd.Series(t.column("source").to_pylist()).isin(_POSITIVE_SOURCES),
            1.0, 0.0)
    if "lang" in t.schema.names:
        df["lang"] = t.column("lang").to_pylist()
    return df


def _scores(df: pd.DataFrame, w: tuple[float, ...]) -> np.ndarray:
    """Fast-sigmoid scores under weights ``w`` — the exact chained-add
    order of the SQL z expression."""
    z = np.full(len(df), w[0])
    z = z + w[1] * df["x1"].to_numpy()
    z = z + w[2] * df["x2"].to_numpy()
    z = z + w[3] * df["x3"].to_numpy()
    z = z + w[4] * df["x4"].to_numpy()
    return 0.5 + z / (2.0 * (1.0 + np.abs(z)))


def train_weights(sf_dir: str) -> tuple[float, ...]:
    """The distributed training loop: ``_ITERS`` full-batch GD passes
    over (text, source); each pass folds five integer gradient
    components + a row count on the driver."""
    docs_train = _read_docs(sf_dir, ["text", "source"])
    w = (0.0, 0.0, 0.0, 0.0, 0.0)
    for _ in range(_ITERS):
        def grad_partial(t: pa.Table, w=w) -> pd.DataFrame:
            df = _features(t)
            r = _scores(df, w) - df["y"].to_numpy()
            row = {"n": len(df),
                   "g0": int(np.floor(r * _MICRO).sum())}
            for j in (1, 2, 3, 4):
                row[f"g{j}"] = int(
                    np.floor((r * df[f"x{j}"].to_numpy()) * _MICRO).sum())
            return pd.DataFrame([row])

        g = np.zeros(5, dtype=np.int64)
        n_total = 0
        for b in docs_train.map_batches(grad_partial, batch_format="pyarrow") \
                           .iter_batches(batch_format="pandas"):
            n_total += int(b["n"].sum())
            for j in range(5):
                g[j] += int(b[f"g{j}"].sum())
        w = tuple(w[j] - _LR * ((float(g[j]) / _MICRO) / float(n_total))
                  for j in range(5))
    return w


def selection_scalars(sf_dir: str, w: tuple[float, ...]) -> tuple[int, int]:
    """One scoring pass folding the two selection scalars: total micro
    score and doc count (selected = micro * nn > sw, integer-exact)."""
    def total_partial(t: pa.Table) -> pd.DataFrame:
        df = _features(t)
        micro = np.floor(_scores(df, w) * _MICRO).astype("int64")
        return pd.DataFrame({"sw": [int(micro.sum())], "n": [len(df)]})

    sw, nn = 0, 0
    for b in _read_docs(sf_dir, ["text"]) \
            .map_batches(total_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pandas"):
        sw += int(b["sw"].sum())
        nn += int(b["n"].sum())
    return sw, nn


def quality_classifier_census(sf_dir: str):
    """-> per-lang (n_docs, n_selected, sum_score_micro)."""
    w = train_weights(sf_dir)
    sw, nn = selection_scalars(sf_dir, w)
    docs_score = _read_docs(sf_dir, ["lang", "text"])

    def census(t: pa.Table) -> pd.DataFrame:
        df = _features(t)
        micro = np.floor(_scores(df, w) * _MICRO).astype("int64")
        out = pd.DataFrame({"lang": df["lang"], "micro": micro})
        # integer cross-multiplied mean comparison — no float threshold
        out["sel"] = (out["micro"] * nn > sw).astype("int64")
        return out

    return fold_groups(docs_score.map_batches(census, batch_format="pyarrow"),
                       "lang", {"n_docs": (None, "count"),
                                "n_selected": ("sel", "sum"),
                                "sum_score_micro": ("micro", "sum")})


class ClassifyWorker(ShardWorker):
    """Per-shard classify-and-write worker (checkpoint layer contract:
    weights + selection scalars load once per actor in __init__)."""

    def __init__(self, stage, out_dir, fingerprint, *, w, sw, nn,
                 columns=None):
        super().__init__(stage, out_dir, fingerprint, columns)
        # required keyword-only: a missing model would otherwise write
        # a valid-looking EMPTY corpus and checkpoint it as done
        self.w, self.sw, self.nn = tuple(w), int(sw), int(nn)

    def transform(self, table: pa.Table, pid: int) -> pa.Table:
        df = _features(table)
        micro = np.floor(_scores(df, self.w) * _MICRO).astype("int64")
        keep = (micro * self.nn) > self.sw
        return table.filter(pa.array(keep))


def classify_corpus(sf_dir: str, out_root: str | None = None,
                    n_shards: int = 8, concurrency: int = 4) -> dict:
    """Train the quality classifier, then WRITE the selected documents
    as partitioned Parquet, resumable per shard — `kawa_ray.cli
    classify`, the GPT-3-style filter as a materializing pipeline.
    The kept set is byte-decided by the same integer comparison the
    census reports, so the written corpus is driver-checkable against
    ``quality_classifier_census``'s n_selected (tests assert equality).
    Returns {census: DataFrame(lang, n_kept), manifest, out_root, w}."""
    import hashlib
    import json
    import os

    from kawa_ray.pipelines.clean_corpus import _ensure_shards
    from kawa_ray.state.checkpoint import (
        read_lang_census,
        run_sharded_stage,
        stage_output_paths,
    )

    if out_root is None:
        base = os.path.basename(os.path.normpath(sf_dir))
        out_root = f"/tmp/kawa_ray_classify/{base}-v1"
    src = os.path.join(sf_dir, "documents.parquet")

    # the trained model is itself a checkpoint artifact: a resume with
    # an unchanged input skips the 3 training/scoring passes entirely
    # (w is a deterministic function of the input + constants)
    os.makedirs(out_root, exist_ok=True)
    model_path = os.path.join(out_root, "model.json")
    ident = {"src": os.path.abspath(src), "src_mtime": os.path.getmtime(src),
             "iters": _ITERS, "lr": _LR, "version": "v1",
             "sources": list(_POSITIVE_SOURCES)}
    model = None
    if os.path.exists(model_path):
        with open(model_path) as f:
            stored = json.load(f)
        if stored.get("ident") == ident:
            model = stored
    if model is None:
        w = train_weights(sf_dir)
        sw, nn = selection_scalars(sf_dir, w)
        model = {"ident": ident, "w": list(w), "sw": sw, "nn": nn}
        tmp = f"{model_path}.tmp{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(model, f)  # float repr round-trips exactly
        os.replace(tmp, model_path)
    w = tuple(model["w"])
    sw, nn = int(model["sw"]), int(model["nn"])
    shard_paths = _ensure_shards(sf_dir, os.path.join(out_root, "shards"),
                                 n_shards)
    fp_raw = json.dumps({"w": list(w), "sw": sw, "nn": nn, "version": "v1",
                         "input": shard_paths,
                         "src_mtime": os.path.getmtime(src)})
    fingerprint = hashlib.blake2b(fp_raw.encode(), digest_size=8).hexdigest()
    manifest = run_sharded_stage(
        shard_paths, stage="classify", out_root=out_root,
        fingerprint=fingerprint, worker_cls=ClassifyWorker,
        worker_kwargs={"columns": ["doc_id", "text", "lang"],
                       "w": list(w), "sw": sw, "nn": nn},
        concurrency=concurrency,
    )
    census = read_lang_census(stage_output_paths(out_root, "classify"))
    return {"census": census, "manifest": manifest, "out_root": out_root,
            "w": w}


def _z_sql(a: str) -> str:
    """The chained-add linear score — identical association order to
    ``_scores``; ``a`` is the weight-row alias."""
    return (f"(((({a}.a0) + {a}.a1 * x1) + {a}.a2 * x2)"
            f" + {a}.a3 * x3) + {a}.a4 * x4")


def _grad_sql(score_cte: str) -> str:
    comps = ["CAST(SUM(FLOOR((s - y) * 1000000.0)) AS BIGINT) AS g0"]
    comps += [
        f"CAST(SUM(FLOOR(((s - y) * x{j}) * 1000000.0)) AS BIGINT) AS g{j}"
        for j in (1, 2, 3, 4)
    ]
    return f"SELECT {', '.join(comps)}, COUNT(*) AS n FROM {score_cte}"


def _step_sql(prev: str, grad: str) -> str:
    return ", ".join(
        f"{prev}.a{j} - {_LR} * ((CAST({grad}.g{j} AS DOUBLE) / 1000000.0)"
        f" / {grad}.n) AS a{j}"
        for j in range(5))


def _unrolled_iters_sql(sig: str) -> str:
    """One s{i}/g{i}/w{i} CTE triple per GD iteration, generated from
    the SAME ``_ITERS`` constant the Python loop uses — bumping the
    constant keeps oracle and engine in lockstep (review finding)."""
    out = []
    for i in range(1, _ITERS + 1):
        prev = f"w{i - 1}"
        out.append(f""", s{i} AS (
  SELECT f.*, {sig.replace('z', f'({_z_sql(prev)})')} AS s
  FROM f CROSS JOIN {prev}
), g{i} AS ({_grad_sql(f"s{i}")}
), w{i} AS (
  SELECT {_step_sql(prev, f"g{i}")} FROM {prev} CROSS JOIN g{i}
)""")
    return "".join(out)


def _classifier_sql() -> str:
    srcs = ",".join(f"'{s}'" for s in _POSITIVE_SOURCES)
    stop = ",".join(f"'{s}'" for s in sorted(_STOP_EN))
    sig = "0.5 + z / (2.0 * (1.0 + ABS(z)))"
    return f"""
WITH t AS (
  SELECT lang, source, text,
         CASE WHEN TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')
              END AS toks
  FROM documents
), f AS (
  SELECT lang,
         CASE WHEN source IN ({srcs}) THEN 1.0 ELSE 0.0 END AS y,
         LEAST(1.0, LEN(toks) / 100.0) AS x1,
         CASE WHEN LEN(toks) = 0 THEN 0.0
              ELSE LEN(LIST_FILTER(toks, x -> LOWER(x) IN ({stop})))
                   / CAST(LEN(toks) AS DOUBLE) END AS x2,
         LEAST(1.0, (CASE WHEN LEN(toks) = 0 THEN 0.0
                     ELSE LIST_AGGREGATE(LIST_TRANSFORM(toks, x -> LENGTH(x)), 'sum')
                          / CAST(LEN(toks) AS DOUBLE) END) / 8.0) AS x3,
         LEAST(1.0, 4.0 * ((LENGTH(text)
                            - LENGTH(REGEXP_REPLACE(text, '[.!?,;:]', '', 'g')))
                           / CAST(GREATEST(LENGTH(text), 1) AS DOUBLE))) AS x4
  FROM t
), w0 AS (
  SELECT 0.0 AS a0, 0.0 AS a1, 0.0 AS a2, 0.0 AS a3, 0.0 AS a4
){_unrolled_iters_sql(sig)}, scored AS (
  SELECT f.lang,
         CAST(FLOOR(({sig.replace('z', f'({_z_sql(f"w{_ITERS}")})')}) * 1000000.0)
              AS BIGINT) AS micro
  FROM f CROSS JOIN w{_ITERS}
), tot AS (
  SELECT CAST(SUM(micro) AS BIGINT) AS sw, COUNT(*) AS nn FROM scored
)
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN micro * nn > sw THEN 1 ELSE 0 END) AS BIGINT)
           AS n_selected,
       CAST(SUM(micro) AS BIGINT) AS sum_score_micro
FROM scored CROSS JOIN tot
GROUP BY lang ORDER BY lang
"""


QUALITY_CLASSIFIER_SQL = _classifier_sql()
