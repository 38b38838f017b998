"""Checkpointed/resumable flagship pipeline (north rule: "every stage
resumable from per-partition checkpoints carrying lineage ids and
per-partition throughput/skew metrics").

Three checkpointed stages under ``out_root``::

    mentions/   per input shard: extract (S1) + detect (S2) -> mentions part
    graph/      global phase (S3-S6): nodes -> pairs -> scores -> components;
                artifacts: edges.parquet + norm2cluster.json  (one partition —
                the graph lives in the distinct-surface space, corpus-size
                independent)
    clusters/   per mentions shard: attach entity_cluster via the broadcast
                component map -> final clusters part

Re-running after a crash (or after deleting part files) recomputes ONLY
the missing partitions; finished parts are never touched (verified by
mtime in tests/test_checkpoint.py).  The reference's analogue is the
builder's `os.path.exists` phase-resume
(/root/reference/ontology/ontology_builder.py:186,286,361,393,458,611),
made per-partition.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time

import pyarrow as pa

import ray
import ray.data as rd

from kawa_ray.config import LinkageConfig
from kawa_ray.stages.extract import extract_batch
from kawa_ray.stages.mentions import detector_spec, worker_detector
from kawa_ray.state.checkpoint import (
    ShardWorker,
    StageManifest,
    lineage_id,
    run_sharded_stage,
    stage_output_paths,
    _atomic_write_table,
)


def config_fingerprint(cfg: LinkageConfig, n_entities: int,
                       pages_dir: str = "") -> str:
    """Covers config AND input identity: a regenerated corpus (different
    directory / generator version) must invalidate checkpointed parts."""
    raw = json.dumps(
        {
            "cfg": sorted(cfg.__dict__.items()),
            "n_entities": n_entities,
            "input": os.path.basename(os.path.normpath(pages_dir)) if pages_dir else "",
        }
    )
    return hashlib.blake2b(raw.encode(), digest_size=8).hexdigest()


class MentionShardWorker(ShardWorker):
    """S1+S2 per shard; the detector comes from the same
    ``detector_spec`` as ``link_pages``' detection tasks."""

    def __init__(self, stage, out_dir, fingerprint, spec=None):
        super().__init__(stage, out_dir, fingerprint, columns=["url", "html", "lang"])
        self.detector = worker_detector(spec)

    def transform(self, table: pa.Table, pid: int) -> pa.Table:
        return self.detector(extract_batch(table))


class ClusterShardWorker(ShardWorker):
    """Attach entity_cluster to a mentions shard via the broadcast map."""

    def __init__(self, stage, out_dir, fingerprint, cmap_ref=None):
        super().__init__(stage, out_dir, fingerprint,
                         columns=["url", "mention_id", "norm"])
        self.cmap = ray.get(cmap_ref)

    def transform(self, table: pa.Table, pid: int) -> pa.Table:
        from kawa_ray.pipelines.linkage import attach_clusters

        return attach_clusters(table, self.cmap)


def _graph_stage(out_root: str, fingerprint: str, cfg: LinkageConfig,
                 embed_obj) -> dict[str, str]:
    """S3-S6 over the checkpointed mentions; resumable as one partition."""
    from kawa_ray.pipelines.linkage import (
        build_nodes,
        candidate_pairs,
        cluster_norms,
        kb_alias_lookup,
        score_pairs,
    )

    stage_dir = os.path.join(out_root, "graph")
    manifest = StageManifest(stage="graph", fingerprint=fingerprint, dir=stage_dir)
    cmap_path = os.path.join(stage_dir, "norm2cluster.json")
    if 0 in manifest.done_pids() and os.path.exists(cmap_path):
        with open(cmap_path) as f:
            return json.load(f)

    os.makedirs(stage_dir, exist_ok=True)
    t0 = time.monotonic()
    mention_paths = stage_output_paths(out_root, "mentions")
    mentions = rd.read_parquet(mention_paths)
    nodes = build_nodes(mentions)
    ent_of = kb_alias_lookup(embed_obj) if cfg.kb_blocking else None
    pairs = candidate_pairs(nodes, cfg, ent_of=ent_of)
    scored = score_pairs(pairs, cfg, embed_obj, ent_of=ent_of)
    # distinct-surface-pair sized; to_pandas, NOT take_all (per-row
    # Python-dict cost ~0.8 ms/row)
    edges_tbl = pa.Table.from_pandas(scored.to_pandas(), preserve_index=False)
    n_bytes = _atomic_write_table(
        edges_tbl if edges_tbl.num_rows else pa.table({"a": pa.array([], pa.string())}),
        os.path.join(stage_dir, "part-00000.parquet"),
    )
    cmap = cluster_norms(rd.from_arrow(edges_tbl) if edges_tbl.num_rows else scored, nodes, cfg)
    tmp = cmap_path + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(cmap, f)
    os.replace(tmp, cmap_path)
    dt = time.monotonic() - t0
    manifest.merge(
        {
            0: {
                "lineage_id": lineage_id("graph", "mentions/*", fingerprint),
                "input": "mentions/*",
                "rows_in": mentions.count(),
                "rows_out": edges_tbl.num_rows,
                "bytes": n_bytes,
                "seconds": round(dt, 4),
                "rows_per_sec": round(edges_tbl.num_rows / dt, 1) if dt > 0 else 0.0,
            }
        }
    )
    return cmap


def link_pages_checkpointed(pages_dir: str, out_root: str,
                            cfg: LinkageConfig | None = None,
                            n_entities: int = 300,
                            concurrency: int = 8) -> dict:
    """Resumable end-to-end linkage.  Returns
    ``{clusters: Dataset, norm2cluster: dict, manifests: {stage: dict}}``."""
    from kawa_ray.pipelines.linkage import _pool_size, default_artifacts
    from kawa_ray.state.lang_resources import target_lexicons_by_lang

    cfg = cfg or LinkageConfig()
    fp = config_fingerprint(cfg, n_entities, pages_dir)
    lexicon, embed_obj = default_artifacts(n_entities)
    shards = sorted(glob.glob(os.path.join(pages_dir, "pages", "part-*.parquet")))

    m_mentions = run_sharded_stage(
        shards, "mentions", out_root, fp, MentionShardWorker,
        {"spec": detector_spec(
            lexicon, lang_lexicons=target_lexicons_by_lang(n_entities))},
        concurrency=_pool_size(concurrency),
    )
    cmap = _graph_stage(out_root, fp, cfg, embed_obj)
    mention_parts = stage_output_paths(out_root, "mentions")
    m_clusters = run_sharded_stage(
        mention_parts, "clusters", out_root, fp, ClusterShardWorker,
        {"cmap_ref": ray.put(cmap)},
        concurrency=_pool_size(concurrency),
    )
    clusters = rd.read_parquet(stage_output_paths(out_root, "clusters"))
    graph_manifest = StageManifest(
        stage="graph", fingerprint=fp, dir=os.path.join(out_root, "graph")
    ).load()
    return {
        "clusters": clusters,
        "norm2cluster": cmap,
        "manifests": {"mentions": m_mentions, "graph": graph_manifest,
                      "clusters": m_clusters},
    }
