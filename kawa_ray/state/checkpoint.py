"""Per-partition checkpointing with lineage ids + throughput/skew metrics.

The north rule requires every stage to be "resumable from per-partition
checkpoints carrying lineage ids and per-partition throughput/skew
metrics".  The reference gets resume by `os.path.exists` checks on whole
JSON/TSV checkpoints between builder phases
(/root/reference/ontology/ontology_builder.py:186,286,361,393,458,611);
here the unit is the *input shard*, so a failed 100 TB run re-does only
the missing shards, not the stage.

Layout per stage::

    <root>/<stage>/part-<pid:05d>.parquet     one output file per input shard
    <root>/<stage>/_manifest.json             {stage, fingerprint, partitions:
                                               {pid: {lineage_id, input, rows_in,
                                                rows_out, bytes, seconds,
                                                rows_per_sec}}, skew: {...}}

A partition is DONE iff its part file exists AND its manifest entry
matches the stage fingerprint (config hash) — a config change invalidates
everything, a crash mid-run leaves done shards reusable.  Shard work is
dispatched as a Ray Data pipeline over a tiny dataset of shard descriptors
(``from_items`` -> ``map_batches(Worker, batch_size=1)``), so missing
shards run concurrently under the streaming executor with actor-pool
state (lexicon) loaded once per worker.  Part files are written
atomically (tmp + rename) so a killed task never leaves a corrupt part.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq


def lineage_id(stage: str, input_path: str, fingerprint: str) -> str:
    """Deterministic per-partition lineage id: the same (stage, shard,
    config) always maps to the same id across runs and cluster sizes."""
    raw = f"{stage}\x00{os.path.basename(input_path)}\x00{fingerprint}"
    return hashlib.blake2b(raw.encode(), digest_size=12).hexdigest()


def _atomic_write_table(table: pa.Table, path: str) -> int:
    tmp = f"{path}.tmp{os.getpid()}"
    pq.write_table(table, tmp)
    n = os.path.getsize(tmp)
    os.replace(tmp, path)
    return n


@dataclass
class StageManifest:
    stage: str
    fingerprint: str
    dir: str

    @property
    def path(self) -> str:
        return os.path.join(self.dir, "_manifest.json")

    def load(self) -> dict:
        if os.path.exists(self.path):
            with open(self.path) as f:
                m = json.load(f)
            if m.get("fingerprint") == self.fingerprint and m.get("stage") == self.stage:
                return m
        return {"stage": self.stage, "fingerprint": self.fingerprint, "partitions": {}}

    def done_pids(self, shard_paths: list[str] | None = None) -> set[int]:
        """Finished partitions.  With ``shard_paths`` given, an entry only
        counts as done if its recorded ``input`` still equals the current
        pid -> shard mapping — a renamed/reordered shard list under a
        same-named input dir must NOT reuse parts computed from different
        shards (round-1 ADVICE)."""
        m = self.load()
        done = set()
        for pid_s, ent in m.get("partitions", {}).items():
            pid = int(pid_s)
            part = os.path.join(self.dir, f"part-{pid:05d}.parquet")
            if not (os.path.exists(part) and ent.get("lineage_id")):
                continue
            if shard_paths is not None and (
                pid >= len(shard_paths) or ent.get("input") != shard_paths[pid]
            ):
                continue
            done.add(pid)
        return done

    def merge(self, new_entries: dict[int, dict]) -> dict:
        """Merge per-partition entries + recompute the skew summary."""
        m = self.load()
        for pid, ent in new_entries.items():
            m["partitions"][str(pid)] = ent
        parts = list(m["partitions"].values())
        if parts:
            secs = [p["seconds"] for p in parts]
            rows = [p["rows_out"] for p in parts]
            mean_s = sum(secs) / len(secs)
            m["skew"] = {
                "n_partitions": len(parts),
                "rows_out_total": sum(rows),
                "seconds_mean": round(mean_s, 4),
                "seconds_max": round(max(secs), 4),
                # straggler factor: max/mean partition duration (1.0 = no skew)
                "straggler_factor": round(max(secs) / mean_s, 3) if mean_s > 0 else 1.0,
                "rows_out_max": max(rows),
            }
        os.makedirs(self.dir, exist_ok=True)
        tmp = f"{self.path}.tmp{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(m, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        return m


METRICS_SCHEMA = pa.schema(
    [
        ("pid", pa.int32()),
        ("lineage_id", pa.string()),
        ("input", pa.string()),
        ("rows_in", pa.int64()),
        ("rows_out", pa.int64()),
        ("bytes", pa.int64()),
        ("seconds", pa.float64()),
    ]
)


class ShardWorker:
    """Actor-pool callable over shard-descriptor batches (batch_size=1).

    Subclasses implement ``transform(table, pid) -> table``; state that
    must load once per worker (lexicon, cluster map) belongs in
    ``__init__`` — the actor-pool contract (SURVEY.md §7.4).
    """

    def __init__(self, stage: str, out_dir: str, fingerprint: str,
                 columns: list[str] | None = None):
        self.stage = stage
        self.out_dir = out_dir
        self.fingerprint = fingerprint
        self.columns = columns

    def transform(self, table: pa.Table, pid: int) -> pa.Table:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {k: [] for k in METRICS_SCHEMA.names}
        for row in batch.to_pylist():
            pid, path = int(row["pid"]), row["path"]
            t0 = time.monotonic()
            table = pq.read_table(path, columns=self.columns)
            result = self.transform(table, pid)
            part = os.path.join(self.out_dir, f"part-{pid:05d}.parquet")
            nbytes = _atomic_write_table(result, part)
            dt = time.monotonic() - t0
            out["pid"].append(pid)
            out["lineage_id"].append(lineage_id(self.stage, path, self.fingerprint))
            out["input"].append(path)
            out["rows_in"].append(table.num_rows)
            out["rows_out"].append(result.num_rows)
            out["bytes"].append(nbytes)
            out["seconds"].append(dt)
        return pa.Table.from_pydict(out, schema=METRICS_SCHEMA)


def run_sharded_stage(shard_paths: list[str], stage: str, out_root: str,
                      fingerprint: str, worker_cls, worker_kwargs: dict,
                      concurrency: int = 4) -> dict:
    """Run ``worker_cls`` over every shard not already checkpointed;
    merge metrics into the stage manifest.  Returns the manifest dict."""
    import ray.data as rd

    stage_dir = os.path.join(out_root, stage)
    os.makedirs(stage_dir, exist_ok=True)
    manifest = StageManifest(stage=stage, fingerprint=fingerprint, dir=stage_dir)
    done = manifest.done_pids(shard_paths)
    # stale parts beyond the current shard range (a previous run with more
    # shards / different input) would otherwise be globbed into downstream
    # reads — remove them; in-range non-done parts are safely overwritten
    part_re = re.compile(r"^part-(\d+)\.parquet$")
    for f in os.listdir(stage_dir):
        m = part_re.match(f)
        if m and int(m.group(1)) >= len(shard_paths):
            os.remove(os.path.join(stage_dir, f))
    todo = [
        {"pid": pid, "path": p}
        for pid, p in enumerate(shard_paths)
        if pid not in done
    ]
    if todo:
        metrics_ds = rd.from_items(todo).map_batches(
            worker_cls,
            fn_constructor_kwargs={
                "stage": stage, "out_dir": stage_dir, "fingerprint": fingerprint,
                **worker_kwargs,
            },
            batch_format="pyarrow",
            batch_size=1,
            concurrency=min(concurrency, max(1, len(todo))),
        )
        entries = {
            int(r["pid"]): {
                "lineage_id": r["lineage_id"],
                "input": r["input"],
                "rows_in": int(r["rows_in"]),
                "rows_out": int(r["rows_out"]),
                "bytes": int(r["bytes"]),
                "seconds": round(float(r["seconds"]), 4),
                "rows_per_sec": round(int(r["rows_out"]) / float(r["seconds"]), 1)
                if float(r["seconds"]) > 0 else 0.0,
            }
            for r in metrics_ds.take_all()  # one small row per shard
        }
    else:
        entries = {}
    return manifest.merge(entries)


def stage_output_paths(out_root: str, stage: str) -> list[str]:
    stage_dir = os.path.join(out_root, stage)
    return sorted(
        os.path.join(stage_dir, f)
        for f in os.listdir(stage_dir)
        if f.startswith("part-") and f.endswith(".parquet")
    )


def read_lang_census(parts: list[str]):
    """Per-language row counts read back from WRITTEN parts — the
    what's-on-disk census every materializing pipeline reports
    (clean_corpus, classify_corpus): the disk is the source of truth,
    so the census is checkable end-to-end THROUGH the write path."""
    import ray.data as rd

    from kawa_ray.stages.distinct import fold_groups

    return fold_groups(rd.read_parquet(parts, columns=["lang"]), "lang",
                       {"n_kept": (None, "count")})
