"""S1 — HTML -> text extraction stage (stateless map_batches).

Zero-copy Arrow in, Arrow out; the ``html`` binary column is dropped on
output so no later stage (or shuffle) ever moves page payloads
(SURVEY.md §7.6 "wide records").
"""

from __future__ import annotations

import pyarrow as pa

from kawa_ray.functions.html import extract_text


def extract_batch(batch: pa.Table) -> pa.Table:
    """(url, html, lang, ...) -> (url, text, lang).  Pure per-row function
    of ``html`` only — byte-identical output at any parallelism."""
    texts = pa.array(
        [extract_text(v) for v in batch.column("html").to_pylist()], pa.string()
    )
    return pa.table(
        {
            "url": batch.column("url"),
            "text": texts,
            "lang": batch.column("lang"),
        }
    )


def extract_stage(ds, batch_size: int | None = None):
    """Attach S1 to a pages Dataset (columns: url, html, lang).  The
    default maps each read block whole, so Ray fuses read and extract
    into one task per file instead of bundling blocks to a row count."""
    return ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=batch_size)
