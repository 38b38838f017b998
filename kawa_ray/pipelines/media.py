"""Multimodal pipeline queries: binary media columns processed by
actor-pool stages (decode stubbed — see kawa_ray/stages/multimodal.py).

The media table is synthesised deterministically from the documents
table's doc_ids inside ``map_batches`` (payloads are born distributed,
never on the driver), mirroring how a real corpus would carry bytes in a
``binary`` column next to typed metadata.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray.data as rd

from kawa_ray.pipelines.linkage import _pool_size
from kawa_ray.stages.distinct import fold_groups
from kawa_ray.stages.multimodal import (
    MediaResizePlan,
    media_feature_stage,
    synth_media_table,
)


def _media_ds(sf_dir: str) -> rd.Dataset:
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def synth(t: pa.Table) -> pa.Table:
        return synth_media_table([int(d) for d in t.column("doc_id").to_pylist()])

    return docs.map_batches(synth, batch_format="pyarrow")


_SIZE_CENSUS = {"n_items": (None, "count"), "avg_width": ("width", "sum"),
                "n_width": ("width", "count"),
                "avg_height": ("height", "sum"),
                "n_height": ("height", "count"),
                "max_frames": ("n_frames", "max"),
                "total_bytes": ("n_bytes", "sum")}


def _mean_sizes(out):
    """AVG(width), AVG(height) from the width/height sums: SUM(col) /
    COUNT(col), floor-discretised (not round: Python/pandas round
    half-even, SQL ROUND half-away — floor matches bit-for-bit on both
    sides)."""
    for c in ("width", "height"):
        out[f"avg_{c}"] = np.floor(out[f"avg_{c}"] / out.pop(f"n_{c}")
                                   * 1000) / 1000
    return out


def media_feature_census(sf_dir: str):
    """decode(stub) -> features -> per media_type census.  The binary
    payload column is dropped by the feature stage before the shuffle."""
    feats = media_feature_stage(_media_ds(sf_dir), batch_size=64, concurrency=_pool_size(4))
    return _mean_sizes(fold_groups(feats, "media_type", _SIZE_CENSUS))


# header fields regenerate in SQL from md5_number_lower (the payload
# derivation in stages/multimodal.py); video n_frames applies the
# extractor's frame_stride=4 sampling ((raw+3)//4)
_MEDIA_FIELDS_SQL = """
WITH m AS (
  SELECT doc_id AS media_id, doc_id % 3 AS kind,
         md5_number_lower('media:' || CAST(doc_id AS VARCHAR) || ':'
                          || CAST(doc_id % 3 AS VARCHAR)) AS v
  FROM documents
), f AS (
  SELECT media_id,
         CASE kind WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
              ELSE 'video' END AS media_type,
         16 + CAST((v & 255) AS BIGINT) % 240 AS width,
         16 + CAST(((v >> 8) & 255) AS BIGINT) % 240 AS height,
         CASE WHEN kind = 2
              THEN CAST(FLOOR((2 + CAST(((v >> 24) & 255) AS BIGINT) % 30 + 3)
                              / 4) AS BIGINT)
              WHEN kind = 1 THEN 2 + CAST(((v >> 24) & 255) AS BIGINT) % 30
              ELSE 1 END AS n_frames,
         12 + 64 + CAST(((v >> 32) & 255) AS BIGINT) % 192 AS n_bytes
  FROM m
)
"""

MEDIA_FEATURE_CENSUS_SQL = _MEDIA_FIELDS_SQL + """
SELECT media_type, COUNT(*) AS n_items,
       FLOOR(AVG(width) * 1000) / 1000 AS avg_width,
       FLOOR(AVG(height) * 1000) / 1000 AS avg_height,
       CAST(MAX(n_frames) AS INT) AS max_frames,
       CAST(SUM(n_bytes) AS BIGINT) AS total_bytes
FROM f GROUP BY media_type ORDER BY media_type
"""

MEDIA_RESIZE_SQL = _MEDIA_FIELDS_SQL + """
SELECT media_type,
       CAST(SUM(CASE WHEN GREATEST(width, height) > 64 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_resized,
       COUNT(*) AS n_items
FROM f GROUP BY media_type ORDER BY media_type
"""


def media_census_plan(sf_dir: str, max_side: int = 64):
    """Per-type media census + resize plan in one actor-pool pass:
    decode(stub) -> features -> resize plan -> grouped census with the
    resize counts folded in.  Merges the round-2 ``media_feature_census``
    / ``media_resize_plan`` queries (both stay pytest-oracled via
    ``EXTRA_QUERIES``) so the full registry fits the driver's 50-query
    window."""
    feats = media_feature_stage(_media_ds(sf_dir), batch_size=64, concurrency=_pool_size(4))
    planned = feats.map_batches(MediaResizePlan(max_side), batch_format="pyarrow")

    def flag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        shrunk = pc.or_(
            pc.less(t.column("target_width"), t.column("width")),
            pc.less(t.column("target_height"), t.column("height")),
        )
        return pa.table(
            {
                "media_type": t.column("media_type"),
                "width": t.column("width"),
                "height": t.column("height"),
                "n_frames": t.column("n_frames"),
                "n_bytes": t.column("n_bytes"),
                "needs_resize": pc.cast(shrunk, pa.int64()),
            }
        )

    return _mean_sizes(fold_groups(
        planned.map_batches(flag, batch_format="pyarrow"), "media_type",
        {**_SIZE_CENSUS, "n_resized": ("needs_resize", "sum")}))


MEDIA_CENSUS_PLAN_SQL = _MEDIA_FIELDS_SQL + """
SELECT media_type, COUNT(*) AS n_items,
       FLOOR(AVG(width) * 1000) / 1000 AS avg_width,
       FLOOR(AVG(height) * 1000) / 1000 AS avg_height,
       CAST(MAX(n_frames) AS INT) AS max_frames,
       CAST(SUM(n_bytes) AS BIGINT) AS total_bytes,
       CAST(SUM(CASE WHEN GREATEST(width, height) > 64 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_resized
FROM f GROUP BY media_type ORDER BY media_type
"""


def media_resize_plan(sf_dir: str, max_side: int = 64):
    """Resize planning over decoded metadata (stateless stage chained
    after the actor-pool decode): items needing a resize, per type."""
    feats = media_feature_stage(_media_ds(sf_dir), batch_size=64, concurrency=_pool_size(4))
    planned = feats.map_batches(
        MediaResizePlan(max_side), batch_format="pyarrow"
    )

    def flag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        shrunk = pc.or_(
            pc.less(t.column("target_width"), t.column("width")),
            pc.less(t.column("target_height"), t.column("height")),
        )
        return pa.table(
            {
                "media_type": t.column("media_type"),
                "needs_resize": pc.cast(shrunk, pa.int64()),
            }
        )

    return fold_groups(planned.map_batches(flag, batch_format="pyarrow"),
                       "media_type", {"n_resized": ("needs_resize", "sum"),
                                      "n_items": (None, "count")})
