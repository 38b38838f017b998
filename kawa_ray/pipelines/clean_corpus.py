"""Materialize-the-cleaned-corpus pipeline — the workload a training-
data engine runs most: filter the raw corpus by quality rules and WRITE
the survivors as partitioned Parquet, resumable per partition.

Shape (all machinery shared with the flagship's checkpointed variant,
kawa_ray/state/checkpoint.py):

1. **shard prep** — the input is re-sharded by ``doc_id % n_shards``
   into one file per shard (at 100 TB the input is already thousands of
   files and this step disappears; here it stands in for that layout
   and is itself skip-if-exists).
2. **clean stage** — a checkpointed ``run_sharded_stage``: each shard
   independently drops documents failing the Gopher repetition
   thresholds (kawa_ray/pipelines/textqual.py) or shorter than
   ``min_tokens``, and writes a ``part-<pid>.parquet`` with lineage id
   + throughput metrics in the stage manifest.  A re-run recomputes
   ONLY missing partitions (crash-resume; verified by mtime in
   tests/test_clean_corpus.py).
3. **census** — per-language kept-document counts read back from the
   written parts; the DuckDB oracle recomputes the same predicate from
   the raw table, so the query is driver-checkable end-to-end THROUGH
   the write path (what's on disk is what the census counted).
"""

from __future__ import annotations

import hashlib
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from kawa_ray.pipelines.textqual import _REP_METRICS, repetition_micro_frame
from kawa_ray.state.checkpoint import ShardWorker, run_sharded_stage, stage_output_paths

_MIN_TOKENS = 5
_VERSION = "v1"


def _keep_mask(df: pd.DataFrame) -> pd.Series:
    micro = repetition_micro_frame(df)
    n_tok = df["text"].str.lower().str.split().str.len().fillna(0)
    return micro["gopher_pass"] & (n_tok >= _MIN_TOKENS)


class CleanWorker(ShardWorker):
    def transform(self, table: pa.Table, pid: int) -> pa.Table:
        df = table.to_pandas()
        keep = _keep_mask(df).to_numpy()
        return pa.Table.from_pandas(df[keep], preserve_index=False)


def _ensure_shards(sf_dir: str, shards_dir: str, n_shards: int) -> list[str]:
    os.makedirs(shards_dir, exist_ok=True)
    paths = [os.path.join(shards_dir, f"shard-{i:03d}.parquet") for i in range(n_shards)]
    marker = os.path.join(shards_dir, "_input.json")
    src = os.path.join(sf_dir, "documents.parquet")
    ident = {"src": os.path.abspath(src), "mtime": os.path.getmtime(src),
             "n_shards": n_shards}
    if os.path.exists(marker) and all(os.path.exists(p) for p in paths):
        with open(marker) as f:
            if json.load(f) == ident:
                return paths
    table = pq.read_table(src, columns=["doc_id", "text", "lang"])
    import pyarrow.compute as pc

    bucket = pc.cast(
        pc.subtract(table.column("doc_id"),
                    pc.multiply(pc.divide(table.column("doc_id"), n_shards),
                                n_shards)),
        pa.int64())
    for i, p in enumerate(paths):
        part = table.filter(pc.equal(bucket, i))
        tmp = f"{p}.tmp{os.getpid()}"
        pq.write_table(part, tmp)
        os.replace(tmp, p)
    with open(marker, "w") as f:
        json.dump(ident, f)
    return paths


def clean_corpus(sf_dir: str, out_root: str | None = None, n_shards: int = 8,
                 concurrency: int = 4) -> dict:
    """Run the pipeline; returns {census: DataFrame(lang, n_kept),
    manifest: dict, out_root: str}."""
    if out_root is None:
        base = os.path.basename(os.path.normpath(sf_dir))
        out_root = f"/tmp/kawa_ray_clean/{base}-{_VERSION}"
    shard_paths = _ensure_shards(sf_dir, os.path.join(out_root, "shards"), n_shards)
    src = os.path.join(sf_dir, "documents.parquet")
    fp_raw = json.dumps({"metrics": _REP_METRICS, "min_tokens": _MIN_TOKENS,
                         "version": _VERSION, "input": shard_paths,
                         # a regenerated source invalidates clean parts even
                         # though the shard file NAMES are unchanged
                         "src_mtime": os.path.getmtime(src)})
    fingerprint = hashlib.blake2b(fp_raw.encode(), digest_size=8).hexdigest()
    manifest = run_sharded_stage(
        shard_paths, stage="clean", out_root=out_root, fingerprint=fingerprint,
        worker_cls=CleanWorker, worker_kwargs={"columns": ["doc_id", "text", "lang"]},
        concurrency=concurrency,
    )
    from kawa_ray.state.checkpoint import read_lang_census

    census = read_lang_census(stage_output_paths(out_root, "clean"))
    return {"census": census, "manifest": manifest, "out_root": out_root}


def docs_clean_write(sf_dir: str):
    """Registry query: the write-path census (lang, n_kept)."""
    return clean_corpus(sf_dir)["census"]


def _clean_census_sql() -> str:
    # same per-doc micro metrics as textqual's oracle, filter tail
    from kawa_ray.pipelines.textqual import _rep_stats_sql

    base = _rep_stats_sql()
    # reuse everything up to the final SELECT (the per_doc CTE), then a
    # filter census instead of the averages
    head = base[: base.rindex("SELECT lang, COUNT(*) AS n_docs")]
    passes = " AND ".join(
        f"{kind}{n}_micro <= {thr}" for kind, n, thr in _REP_METRICS)
    return head + f"""SELECT per_doc.lang, COUNT(*) AS n_kept
FROM per_doc
JOIN toks ON toks.doc_id = per_doc.doc_id
WHERE {passes} AND LEN(toks.t) >= {_MIN_TOKENS}
GROUP BY per_doc.lang
ORDER BY per_doc.lang
"""


DOCS_CLEAN_WRITE_SQL = _clean_census_sql()


def docs_clean_dedup_census(sf_dir: str):
    """Composed cleaning pipeline: Gopher-filter (same predicate as the
    write pipeline) THEN exact dedup (keep min doc_id per content hash),
    censused per language — the operators chain as plain Dataset
    transforms, and the single SQL oracle covers the composition."""
    import hashlib

    import ray.data as rd

    from kawa_ray.stages.distinct import fold_groups, partition_reduce

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang", "text"])

    def filter_and_fingerprint(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        out = df[_keep_mask(df).to_numpy()].copy()
        out["fingerprint"] = [hashlib.md5(s.encode("utf-8")).hexdigest()
                              for s in out["text"]]
        return out[["doc_id", "lang", "fingerprint"]]

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").drop_duplicates("fingerprint")
        return g.groupby("lang", as_index=False).size().rename(
            columns={"size": "n"})

    return fold_groups(
        partition_reduce(
            ds.map_batches(filter_and_fingerprint, batch_format="pandas"),
            "fingerprint", keep_first, 64),
        "lang", {"n_survivors": ("n", "sum")})


def _clean_dedup_sql() -> str:
    from kawa_ray.pipelines.textqual import _REP_METRICS, _rep_stats_sql

    base = _rep_stats_sql()
    head = base[: base.rindex("SELECT lang, COUNT(*) AS n_docs")]
    passes = " AND ".join(
        f"{kind}{n}_micro <= {thr}" for kind, n, thr in _REP_METRICS)
    return head + f""", kept AS (
  SELECT per_doc.doc_id, per_doc.lang, toks.t
  FROM per_doc
  JOIN toks ON toks.doc_id = per_doc.doc_id
  WHERE {passes} AND LEN(toks.t) >= {_MIN_TOKENS}
)
SELECT lang, COUNT(*) AS n_survivors
FROM (
  SELECT ARG_MIN(k.lang, k.doc_id) AS lang
  FROM kept k JOIN documents d ON d.doc_id = k.doc_id
  GROUP BY MD5(d.text)
)
GROUP BY lang
ORDER BY lang
"""


DOCS_CLEAN_DEDUP_SQL = _clean_dedup_sql()
