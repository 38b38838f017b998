"""Pin-or-spill for multi-consumer census streams.

A stream that several folds read (a gold-hash table, a paragraph gram
stream) is pinned in the object store at fixture scale and spilled to
parquet under the temp dir beyond it, so each consumer streams from
disk instead of re-running the upstream pass.  The context manager owns
the spill directory: it is deleted when the block exits, also when a
fold inside it raises.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile

import ray.data as rd


@contextlib.contextmanager
def pinned_or_spilled(ds: rd.Dataset, spill: bool, prefix: str):
    """Yield ``ds`` materialized (``spill`` False) or written to a fresh
    ``<prefix>*`` directory under the temp dir and read back lazily
    (``spill`` True).  The directory is removed on exit; every consumer
    must drain inside the ``with`` block."""
    if not spill:
        yield ds.materialize()
        return
    path = tempfile.mkdtemp(prefix=prefix, dir=tempfile.gettempdir())
    try:
        ds.write_parquet(path)
        yield rd.read_parquet(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
