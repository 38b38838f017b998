"""The package's one keyed exchange, its one grouped fold, and exact
high-cardinality DISTINCT.

Ray's ``groupby().aggregate()`` pays ~2 ms per DISTINCT KEY (measured:
deduping 3.5 M rows to 160 k keys took 345 s, BASELINE.md "per-
distinct-key" note), so exact distincts over doc/edge/pair-cardinality
keys must hash-partition and deduplicate in-batch with pandas — the
cost is then per shuffled block, not per key.

Single-exchange rule: every hash-partitioned reduce in the package is
one ``partition_reduce(ds, key_col, fn, partitions)`` call, and
``route_parts`` is the only code that turns a key into a partition id.
No other module writes a ``part`` column or groups by one
(tests/test_distinct_helpers.py scans for both).  The exchange is one
``sort("part")``; ``fn`` then runs once per shuffled block, and a block
holds every row of each route it contains, usually several routes.
Int keys route by value, so a composite or salted route is one int
column the caller computes with ``route_parts`` and keeps below
``partitions``: all rows of one route value reach the same ``fn``
call, which may also hold other route values (a salted caller whose
rows are replicated across routes deduplicates them itself).  A chain
of exchanges routes each step on its own key column.  Which exchange
backend runs is decided here and nowhere else.

Join rule: a keyed join of two or more Datasets is one
``partition_join(sides, fn, partitions)`` call, itself one
``partition_reduce``.  Each side keeps its own columns and dtypes, so
no caller pads sides to one schema or marks them with a sentinel, a
flag or a None payload, and no caller unions streams into
``partition_reduce`` (tests/test_distinct_helpers.py scans for it).

Grouped-fold rule: a grouped result whose keys are config-sized (a
lang, an event type, a label, a time window, a histogram bucket) is one
``fold_groups(ds, by, aggs)`` call: per-block pyarrow partials folded
on the driver, no exchange (a Ray ``groupby().aggregate()`` pays
seconds of fixed shuffle cost at any data size).  No module runs a Ray
grouped aggregate or ``map_groups``, or sums batch rows into a dict by
hand (tests/test_distinct_helpers.py scans for all of these), and
``partition_reduce`` exchanges with a sort, so nothing in the package
calls ``Dataset.groupby``.
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
    """Hash-partition on ``key_col`` and run ``fn`` once per shuffled
    block.

    The replacement for ``groupby(<data-cardinality key>).aggregate()``
    / ``.map_groups()``: those pay the per-distinct-key dispatch cost
    documented at the top of this module; this pays per block.  The one
    exchange is ``sort("part")`` on the ``route_parts`` id, and a sort
    output block holds every row of each ``part`` value it contains
    (the guarantee Ray's own ``map_groups`` rests on).  So ``fn`` runs
    about once per input block, not once per route: it sees every row
    of each of its keys, usually many routes at once, and must reduce
    the groups internally (an in-batch pandas groupby).  ``fn`` never
    sees the internal ``part`` column or an empty frame.
    """
    def assign(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(part=route_parts(df[key_col], partitions))

    def run(g: pd.DataFrame):
        out = fn(g.drop(columns="part"))
        # an empty pandas block with an object column breaks Ray's block
        # size estimate; as Arrow it keeps its columns and sizes to 0
        return pa.Table.from_pandas(out, preserve_index=False) \
            if isinstance(out, pd.DataFrame) and out.empty else out

    return (
        ds.map_batches(assign, batch_format="pandas")
        .sort("part")
        .map_batches(run, batch_format="pandas", batch_size=None)
    )


def partition_join(sides: list[tuple[rd.Dataset, str]],
                   fn: Callable[..., pd.DataFrame],
                   partitions: int = 64) -> rd.Dataset:
    """Keyed join: route every side on its key column and run
    ``fn(*frames)`` once per shuffled block of the one
    ``partition_reduce`` exchange, frame *i* holding every row of side
    *i* routed to that block's routes (usually several).

    A side travels as one row per (input batch, route) whose payload is
    that route's Arrow slice in IPC form; each side is decoded once per
    block, so each frame comes back with its side's own columns and
    Arrow dtypes (full-range int64, bytes and str unchanged; nothing is
    padded, so nothing is promoted).  Every batch sends all
    ``partitions`` routes, empty slices included: a side with no rows in
    a block still arrives as an empty frame with its columns.  Ray never
    maps an empty batch, so only a side with no rows at all arrives
    column-less; ``fn`` sees that as an empty frame.  Keys route by
    ``route_parts``: equal keys of the same kind meet in one call, and
    int routes below ``partitions`` route by value.
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
    ``then``, if given, runs per block on the deduplicated frame —
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


_COMBINE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def fold_groups(ds: rd.Dataset, by: str | list[str],
                aggs: dict[str, tuple[str | None, str]]) -> pd.DataFrame:
    """Grouped fold of a key-cardinality result on the driver:
    ``SELECT by, aggs FROM ds GROUP BY by ORDER BY by`` as a DataFrame.

    ``aggs`` maps an output column to ``(input_col, op)``, ``op`` one of
    ``sum``, ``count``, ``min``, ``max``; ``(None, "count")`` is
    COUNT(*), ``(col, "count")`` is COUNT(col).  Each block is reduced
    by a pyarrow ``group_by(by).aggregate`` in one ``map_batches``
    (one row per block and key); the driver buffers those rows as they
    stream in and folds the buffer into its one-row-per-key table once
    the buffer outgrows it, so it holds O(distinct keys) rows and the
    fold costs O(partial rows) in total.  SQL semantics: a null key is
    its own group; a group whose inputs are all null gets null for
    sum/min/max and 0 for count.  The frame is sorted by ``by`` (nulls
    last) on a RangeIndex; counts and integer sums are int64, float
    sums float64, min/max keep the input dtype (an integer column
    holding a null converts to float64 with NaN, as pandas converts
    it).  An empty input gives the zero-row frame with the same
    columns, all int64: no input dtype reaches the fold (asking Ray for
    the schema would run the input's plan again), so a caller whose
    empty result needs another dtype types it.

    Only for results whose key cardinality is config-sized (a lang, an
    event type, a label, a time window): every distinct key reaches
    the driver.  Data-cardinality keys go through ``partition_reduce``.
    """
    keys = [by] if isinstance(by, str) else list(by)
    pairs = list(dict.fromkeys(aggs.values()))  # distinct (col, op)
    cols = [f"_a{i}" for i in range(len(pairs))]

    def reduce(t: pa.Table, specs: list, names: list[str]) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(specs)
        return g.select(keys + names).rename_columns(keys + cols)

    def partial(t: pa.Table) -> pa.Table:
        # pyarrow names each result "<col>_<op>" ("count_all" for COUNT(*))
        return reduce(t, [([], "count_all") if c is None else (c, op)
                          for c, op in pairs],
                      ["count_all" if c is None else f"{c}_{op}"
                       for c, op in pairs])

    combine = [(c, _COMBINE[op]) for c, (_, op) in zip(cols, pairs)]

    def fold(tables: list[pa.Table]) -> pa.Table:
        return reduce(pa.concat_tables(tables, promote_options="permissive"),
                      combine, [f"{c}_{op}" for c, op in combine])

    buf, kept, fresh = [], 0, 0  # the folded table (kept rows), then partials
    for b in ds.map_batches(partial, batch_format="pyarrow", batch_size=None,
                            zero_copy_batch=True).iter_batches(
            batch_format="pyarrow", batch_size=None):
        if not b.num_rows:  # an empty input block may come back column-less
            continue
        buf.append(b)
        fresh += b.num_rows
        if fresh > kept:
            buf = [fold(buf)]
            kept, fresh = buf[0].num_rows, 0
    if not buf:  # no rows: Ray never maps an empty block, so no dtype
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in keys + list(aggs)})
    acc = (fold(buf) if len(buf) > 1 else buf[0]).sort_by([(k, "ascending") for k in keys])
    out = {k: acc.column(k) for k in keys}
    for name, pair in aggs.items():
        col = acc.column(cols[pairs.index(pair)])
        if pair[1] in ("sum", "count") and (pa.types.is_integer(col.type)
                                            or pa.types.is_boolean(col.type)):
            col = col.cast(pa.int64())
        out[name] = col
    return pa.table(out).to_pandas()
