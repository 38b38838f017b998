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
"""

from __future__ import annotations

from collections.abc import Callable

import pandas as pd

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
    import numpy as np

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
