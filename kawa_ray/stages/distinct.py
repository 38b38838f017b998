"""The package's one keyed exchange, and exact high-cardinality DISTINCT.

Ray's ``groupby().aggregate()`` pays ~2 ms per DISTINCT KEY (measured:
deduping 3.5 M rows to 160 k keys took 345 s, BASELINE.md "per-
distinct-key" note), so exact distincts over doc/edge/pair-cardinality
keys must hash-partition and deduplicate in-batch with pandas — the
cost is then per PARTITION, not per key.

Single-exchange rule: every hash-partitioned reduce in the package is
one ``partition_reduce(ds, key_col, fn, partitions)`` call, and
``route_parts`` is the only code that turns a key into a partition id.
No other module writes a ``part`` column or groups by one
(tests/test_distinct_helpers.py scans for both).  Int keys route by
value, so a composite or salted route is one int column the caller
computes with ``route_parts`` and keeps below ``partitions``: each
``fn`` call then sees exactly one route value.  A chain of exchanges
routes each step on its own key column.  Which exchange backend runs
is decided here and nowhere else.

Join rule: a keyed join of two or more Datasets is one
``partition_join(sides, fn, partitions)`` call, itself one
``partition_reduce``.  Each side keeps its own columns and dtypes, so
no caller pads sides to one schema or marks them with a sentinel, a
flag or a None payload, and no caller unions streams into
``partition_reduce`` (tests/test_distinct_helpers.py scans for it).

Fold rule: a histogram whose per-partition partial rows reach the
driver is summed by ``fold_counts`` and by no hand-written dict loop
(tests/test_distinct_helpers.py scans for the ``acc.get(int(k), 0) +``
shape).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd


def partition_reduce(ds: rd.Dataset, key_col: str,
                     fn: Callable[[pd.DataFrame], pd.DataFrame],
                     partitions: int = 64) -> rd.Dataset:
    """Hash-partition on ``key_col`` and run ``fn`` once per PARTITION.

    The replacement for ``groupby(<data-cardinality key>).aggregate()``
    / ``.map_groups()``: those pay the per-distinct-key dispatch cost
    documented at the top of this module; this pays per partition.
    All rows of one key co-locate (``route_parts``), so ``fn`` sees
    every row of each of its keys and must reduce the groups internally
    (an in-batch pandas groupby).  ``fn`` never sees the internal
    ``part`` column.
    """
    def assign(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(part=route_parts(df[key_col], partitions))

    return (
        ds.map_batches(assign, batch_format="pandas")
        .groupby("part")
        .map_groups(lambda g: fn(g.drop(columns="part")),
                    batch_format="pandas")
    )


def partition_join(sides: list[tuple[rd.Dataset, str]],
                   fn: Callable[..., pd.DataFrame],
                   partitions: int = 64) -> rd.Dataset:
    """Keyed join: route every side on its key column and run
    ``fn(*frames)`` once per partition, frame *i* holding every row of
    side *i* routed there.

    A side travels as one row per (input batch, route) whose payload is
    that route's Arrow slice in IPC form, so each frame comes back with
    its side's own columns and Arrow dtypes (full-range int64, bytes
    and str unchanged; nothing is padded, so nothing is promoted).
    Every batch sends all ``partitions`` routes, empty slices included:
    a side with no rows in a partition still arrives as an empty frame
    with its columns.  Ray never maps an empty batch, so only a side
    with no rows at all arrives column-less; ``fn`` sees that as an
    empty frame.  Keys route by ``route_parts``: equal keys of the same
    kind meet, and int routes below ``partitions`` route by value.
    """
    def ipc(t: pa.Table) -> bytes:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        return sink.getvalue().to_pybytes()

    def encode(i: int, key_col: str):
        def rows(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            route = route_parts(t.column(key_col).to_pandas(), partitions)
            t = t.take(np.argsort(route, kind="stable"))
            n = np.bincount(route, minlength=partitions)
            empty = ipc(t.slice(0, 0))
            return pa.table({
                "route": pa.array(np.arange(partitions, dtype=np.int64)),
                "side": pa.array(np.full(partitions, i, dtype=np.int64)),
                "rows": pa.array(n.astype(np.int64)),
                "payload": pa.array(
                    [ipc(t.slice(lo, k)) if k else empty
                     for lo, k in zip(np.cumsum(n) - n, n)],
                    pa.large_binary()),
            })
        return rows

    n_sides = len(sides)  # never close over ``sides``: its Datasets would
    # ride every task's pickled closure, lineage and all

    def join(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for i in range(n_sides):
            mine = g[g["side"] == i]
            full = mine.loc[mine["rows"] > 0, "payload"]
            # empty slices only carry the schema: decode one of them
            tables = [pa.ipc.open_stream(b).read_all()
                      for b in (full if len(full) else mine["payload"][:1])]
            frames.append(
                pa.concat_tables(tables, promote_options="permissive")
                .to_pandas() if tables else pd.DataFrame())
        return fn(*frames)

    encoded = [ds.map_batches(encode(i, key), batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)
               for i, (ds, key) in enumerate(sides)]
    return partition_reduce(encoded[0].union(*encoded[1:]), "route", join,
                            partitions)


def route_parts(k: pd.Series, P: int):
    """Deterministic partition ids for a key Series — the only routing
    function in the package (``partition_reduce`` calls it on every
    exchange; callers use it only to build a composite int route key).
    Stable across batches regardless of pandas dtype promotion: integer
    keys route by value (``k % P``, so a key already in ``[0, P)`` is
    its own partition); integral floats (an int column a null-free
    concat/cast promoted) are normalised back to int64 so they land
    WITH their int-batch twins; numeric keys with nulls or fractions
    are rejected loudly — silently hash-routing a promoted batch would
    split a key across partitions and duplicate its group in every
    consumer; int-bearing object columns normalise to int64; everything
    else routes by the vectorised pandas value hash (C per element — a
    per-row Python digest loop was the dominant cost of the assign
    stage on string keys).  Routing only needs within-run determinism;
    no output depends on WHICH partition a key lands in."""
    kind = k.dtype.kind
    if kind == "O":
        probe = next((x for x in k if x is not None), None)
        if isinstance(probe, (int, np.integer)):
            # mixed int/str columns raise here (loud), never split
            return k.to_numpy("int64") % P
        return (pd.util.hash_pandas_object(k, index=False)
                .to_numpy() % P).astype("int64")
    if kind in "iu":
        return k.to_numpy("int64") % P
    if kind == "f":
        a = k.to_numpy("float64")
        with np.errstate(invalid="ignore"):
            ints = a.astype("int64")
        if np.isnan(a).any() or (ints != a).any():
            raise TypeError(
                f"partition key column has nulls or fractional floats "
                f"(dtype {k.dtype}); keys must be integral or string")
        return ints % P
    return (pd.util.hash_pandas_object(k, index=False)
            .to_numpy() % P).astype("int64")


def partition_distinct(ds: rd.Dataset, cols: list[str], key_col: str,
                       partitions: int = 64,
                       then: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
                       passthrough_col: str | None = None,
                       ) -> rd.Dataset:
    """Exact distinct rows over ``cols``: one ``partition_reduce`` call
    that deduplicates, then runs ``then``.

    ``key_col`` must be one of ``cols`` (any single column works:
    duplicate rows agree on every column, so they always co-locate).
    ``then``, if given, runs per partition on the deduplicated frame —
    fuse the follow-up reduction (e.g. a per-group partial count) into
    the same shuffle instead of paying a second one.
    ``passthrough_col``, if given, names a bool column: rows where it is
    True ride the SAME shuffle but skip deduplication (they reach
    ``then`` verbatim) — lets a caller carry per-batch partial rows
    through the one exchange instead of materializing the stream to
    feed two consumers.
    """
    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        if passthrough_col is not None:
            thru = g[g[passthrough_col]]
            g = pd.concat([g[~g[passthrough_col]].drop_duplicates(cols), thru],
                          ignore_index=True)
        else:
            g = g.drop_duplicates(cols)
        return g if then is None else then(g)

    return partition_reduce(ds, key_col, dedup, partitions)


def fold_counts(ds: rd.Dataset, key: str, count: str) -> pd.DataFrame:
    """Sum partial histogram rows ``(key, count)`` on the driver: one
    row per distinct key, sorted by key, both columns int64, RangeIndex.
    No rows (or an empty Dataset) gives the same typed frame, empty.
    Partials are histogram-sized, never data-sized."""
    parts = [pd.DataFrame({key: b[key].to_numpy("int64"),
                           count: b[count].to_numpy("int64")})
             for b in ds.iter_batches(batch_format="pandas") if len(b)]
    if not parts:
        return pd.DataFrame({key: pd.Series([], dtype="int64"),
                             count: pd.Series([], dtype="int64")})
    return (pd.concat(parts, ignore_index=True)
            .groupby(key, sort=True)[count].sum().reset_index())
