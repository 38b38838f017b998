"""Resume semantics of the checkpointed flagship pipeline
(north rule: per-partition checkpoints, lineage ids, skew metrics).

- full run == non-checkpointed run (identical cluster assignments)
- deleting some part files + re-running recomputes ONLY those partitions
  (untouched parts keep their mtime)
- manifests carry lineage ids and per-partition seconds/rows_per_sec +
  a skew summary
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from kawa_ray.pipelines.linkage import link_pages
from kawa_ray.pipelines.linkage_ckpt import link_pages_checkpointed
from kawa_ray.sources.pages import ensure_pages


@pytest.fixture(scope="module")
def ckpt_run(tmp_path_factory, ray_session):
    pages_dir = ensure_pages("0.001")
    root = str(tmp_path_factory.mktemp("ckpt"))
    res = link_pages_checkpointed(pages_dir, root, concurrency=2)
    return pages_dir, root, res


def _cluster_map(ds) -> dict:
    return {r["mention_id"]: r["entity_cluster"] for r in ds.take_all()}


def test_checkpointed_matches_direct(ckpt_run):
    pages_dir, _root, res = ckpt_run
    direct = link_pages(pages_dir)
    assert _cluster_map(res["clusters"]) == _cluster_map(direct["clusters"])


def test_checkpointed_mentions_match_direct(ckpt_run):
    """Both entry points build their detector from the same inputs, so
    the checkpointed mentions parts equal link_pages' mentions."""
    import pandas as pd

    pages_dir, root, _res = ckpt_run
    cols = ["mention_id", "surface", "norm", "start", "end", "label"]

    def rows(df):
        return df[cols].sort_values(cols).reset_index(drop=True)

    parts = pd.read_parquet(os.path.join(root, "mentions"))
    direct = link_pages(pages_dir)["mentions"].to_pandas()
    assert len(parts) > 0
    pd.testing.assert_frame_equal(rows(parts), rows(direct))


def test_manifest_lineage_and_metrics(ckpt_run):
    _pages, root, res = ckpt_run
    for stage in ("mentions", "graph", "clusters"):
        m = res["manifests"][stage]
        assert m["partitions"], stage
        for ent in m["partitions"].values():
            assert ent["lineage_id"]
            assert ent["seconds"] >= 0
            assert "rows_per_sec" in ent
        assert m["skew"]["straggler_factor"] >= 1.0
        # manifest persisted on disk next to the parts
        with open(os.path.join(root, stage, "_manifest.json")) as f:
            on_disk = json.load(f)
        assert on_disk["partitions"].keys() == m["partitions"].keys()


def test_resume_recomputes_only_missing(ckpt_run):
    pages_dir, root, res = ckpt_run
    before = _cluster_map(res["clusters"])

    kept = os.path.join(root, "mentions", "part-00000.parquet")
    victim = os.path.join(root, "mentions", "part-00001.parquet")
    kept_mtime = os.path.getmtime(kept)
    os.remove(victim)
    # also drop a clusters part to exercise resume of the final stage
    os.remove(os.path.join(root, "clusters", "part-00001.parquet"))

    res2 = link_pages_checkpointed(pages_dir, root, concurrency=2)
    assert os.path.getmtime(kept) == kept_mtime  # untouched part not rewritten
    assert os.path.exists(victim)  # missing part regenerated
    assert _cluster_map(res2["clusters"]) == before


def test_fingerprint_invalidates(ckpt_run, tmp_path):
    """A different config fingerprint must not reuse stale parts."""
    from kawa_ray.config import LinkageConfig
    from kawa_ray.pipelines.linkage_ckpt import config_fingerprint

    fp1 = config_fingerprint(LinkageConfig(), 300)
    fp2 = config_fingerprint(LinkageConfig(edge_threshold=0.9), 300)
    assert fp1 != fp2
