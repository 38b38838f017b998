"""Relational operator suite over the driver's TPC-H-ish tables —
grouped aggregates, broadcast joins, top-k, sort, filter, distinct,
window dedup (SURVEY.md §2.6 coverage: B2, B7, B9, M4 mappings).

Every query takes ``sf_dir`` and returns a small result; inputs are
column-pruned at the read and grouped aggregates run as per-block
partials folded on the driver (``stages/distinct.fold_groups``) — no
shuffle for a key-cardinality result at any scale.  Float aggregates
are rounded (2 decimals) in lockstep with the oracle SQL.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from kawa_ray.stages.distinct import (
    fold_groups,
    partition_distinct,
    partition_join,
    partition_reduce,
)


def _read(sf_dir: str, table: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def q1_pricing_summary(sf_dir: str):
    """Grouped aggregate with per-batch partials (TPC-H Q1 shape)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        return t.append_column("revenue", pc.multiply(
            t.column("l_extendedprice"), pc.subtract(1, t.column("l_discount"))))

    out = fold_groups(ds.map_batches(partial, batch_format="pyarrow"),
                      ["l_returnflag", "l_linestatus"],
                      {"sum_qty": ("l_quantity", "sum"),
                       "sum_price": ("l_extendedprice", "sum"),
                       "revenue": ("revenue", "sum"),
                       "n": (None, "count")})
    for c in ("sum_qty", "sum_price", "revenue"):
        out[c] = out[c].round(2)
    return out


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       COUNT(*) AS n
FROM lineitem
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q3_top_orders(sf_dir: str, partitions: int = 64, k: int = 10):
    """Join chain + grouped sum + top-k with scale-correct sides: the
    customer segment (the genuinely small side) broadcasts once via
    ``ray.put`` and filters orders with a vectorised ``pc.is_in``; the
    big orders⋈lineitem side is a hash-partitioned semi-join
    (``partition_join`` on orderkey, in-partition ``isin`` + pandas
    groupby-sum) — no driver-held orderkey set, no per-row ``in`` loop
    (round-1 VERDICT item 6).  Top-k is per-partition then a P*k driver
    merge."""
    import pyarrow.compute as pc

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_keys = cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"].to_numpy(
        dtype="int64"
    )
    seg_ref = ray.put(seg_keys)
    P = partitions

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def order_rows(t: pa.Table, _ref=seg_ref) -> pa.Table:
        keys = ray.get(_ref)
        t = t.filter(pc.is_in(t.column("o_custkey"), pa.array(keys, pa.int64())))
        return pa.table({"key": pc.cast(t.column("o_orderkey"), pa.int64())})

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def li_rows(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["rev"] = df["l_extendedprice"] * (1 - df["l_discount"])
        g = df.groupby("l_orderkey", sort=False)["rev"].sum().reset_index()
        key = g["l_orderkey"].to_numpy(dtype="int64")
        return pa.table({"key": pa.array(key),
                         "rev": pa.array(g["rev"], pa.float64())})

    def semi_join_topk(od: pd.DataFrame, li_part: pd.DataFrame) -> pd.DataFrame:
        keep = li_part[li_part["key"].isin(od["key"])] if len(od) else od
        if keep.empty:
            return pd.DataFrame({"l_orderkey": pd.Series([], dtype="int64"),
                                 "revenue": pd.Series([], dtype="float64")})
        summed = keep.groupby("key", sort=False)["rev"].sum().reset_index()
        summed.columns = ["l_orderkey", "revenue"]
        summed["revenue"] = summed["revenue"].round(2)
        return summed.sort_values(
            ["revenue", "l_orderkey"], ascending=[False, True]
        ).head(k)

    parts = partition_join(
        [(orders.map_batches(order_rows, batch_format="pyarrow"), "key"),
         (li.map_batches(li_rows, batch_format="pyarrow"), "key")],
        semi_join_topk, P).to_pandas()
    out = parts.sort_values(["revenue", "l_orderkey"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


Q3_SQL = """
SELECT l_orderkey, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY l_orderkey
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


def orders_by_priority(sf_dir: str):
    out = fold_groups(_read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]),
                      "o_orderpriority",
                      {"n": (None, "count"), "total": ("o_totalprice", "sum")})
    out["total"] = out["total"].round(2)
    return out


ORDERS_BY_PRIORITY_SQL = """
SELECT o_orderpriority, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total
FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def nation_customer_balance(sf_dir: str):
    """Broadcast dimension join (nation) + grouped aggregate."""
    _ndf = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nat = dict(zip(_ndf["n_nationkey"], _ndf["n_name"]))
    nat_ref = ray.put(nat)
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def attach(t: pa.Table, _ref=nat_ref) -> pa.Table:
        m = ray.get(_ref)
        df = t.to_pandas()
        df["n_name"] = df["c_nationkey"].map(m)
        return pa.Table.from_pandas(df[["n_name", "c_acctbal"]],
                                    preserve_index=False)

    out = fold_groups(cust.map_batches(attach, batch_format="pyarrow"), "n_name",
                      {"n_customers": (None, "count"),
                       "acctbal": ("c_acctbal", "sum")})
    out["acctbal"] = out["acctbal"].round(2)
    return out


NATION_CUSTOMER_BALANCE_SQL = """
SELECT n_name, COUNT(*) AS n_customers, ROUND(SUM(c_acctbal), 2) AS acctbal
FROM customer JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name ORDER BY n_name
"""


def top_parts_by_price(sf_dir: str):
    """Distributed sort + limit (top-k)."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
    out = ds.sort(["p_retailprice", "p_partkey"], descending=[True, False]).limit(10).to_pandas()
    out["p_retailprice"] = out["p_retailprice"].round(2)
    return out


TOP_PARTS_SQL = """
SELECT p_partkey, p_name, ROUND(p_retailprice, 2) AS p_retailprice
FROM part ORDER BY p_retailprice DESC, p_partkey LIMIT 10
"""


def lineitem_filtered_stats(sf_dir: str):
    """Predicate pushdown + filter + global aggregate."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_quantity", "l_discount", "l_extendedprice"],
    )

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[(df["l_discount"] >= 0.05) & (df["l_quantity"] < 25)]
        return pa.table(
            {
                "n": pa.array([len(df)], pa.int64()),
                "revenue": pa.array([float((df["l_extendedprice"] * df["l_discount"]).sum())]),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {"n": [int(parts["n"].sum())], "revenue": [round(float(parts["revenue"].sum()), 2)]}
    )


LINEITEM_FILTER_SQL = """
SELECT COUNT(*) AS n, ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue
FROM lineitem WHERE l_discount >= 0.05 AND l_quantity < 25
"""


def distinct_suppliers_per_flag(sf_dir: str):
    """count(distinct) per group — per-batch set partials merged driver-side
    semantics via groupby over (flag, suppkey) pairs."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_suppkey"])

    def pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    # suppkey is data-cardinality: the shared partitioned distinct with
    # the per-flag partial count fused into the same shuffle
    return fold_groups(
        partition_distinct(
            ds.map_batches(pairs, batch_format="pyarrow"),
            ["l_returnflag", "l_suppkey"], key_col="l_suppkey",
            then=lambda g: (g.groupby("l_returnflag", as_index=False).size()
                            .rename(columns={"size": "n"}))),
        "l_returnflag", {"n_suppliers": ("n", "sum")})


DISTINCT_SUPPLIERS_SQL = """
SELECT l_returnflag, COUNT(DISTINCT l_suppkey) AS n_suppliers
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def events_by_type(sf_dir: str):
    out = fold_groups(_read(sf_dir, "events", ["event_type", "value"]),
                      "event_type",
                      {"n": (None, "count"), "total": ("value", "sum"),
                       "vmin": ("value", "min"), "vmax": ("value", "max")})
    for c in ("total", "vmin", "vmax"):
        out[c] = out[c].round(2)
    return out


EVENTS_BY_TYPE_SQL = """
SELECT event_type, COUNT(*) AS n, ROUND(SUM(value), 2) AS total,
       ROUND(MIN(value), 2) AS vmin, ROUND(MAX(value), 2) AS vmax
FROM events GROUP BY event_type ORDER BY event_type
"""


def hourly_event_counts(sf_dir: str):
    """Tumbling-window aggregate expressed as floor(ts/size) grouping
    (ray_guide 'Streaming-shaped workloads')."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def bucket(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64())
        hour = pc.divide(us, 3_600_000_000)
        return pa.table({"hour": hour, "event_type": t.column("event_type")})

    return fold_groups(ds.map_batches(bucket, batch_format="pyarrow"),
                       ["hour", "event_type"], {"n": (None, "count")})


HOURLY_EVENTS_SQL = """
SELECT CAST(FLOOR(EPOCH(ts) / 3600) AS BIGINT) AS hour, event_type, COUNT(*) AS n
FROM events GROUP BY hour, event_type ORDER BY hour, event_type
"""


def top_users_by_value(sf_dir: str):
    # user_id is data-cardinality: hash-partitioned sums (the
    # stages/distinct.py rule), per-partition top-10 (each user is whole
    # in one partition, so the global top-10 survives), tiny driver merge
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def part_top(g: pd.DataFrame) -> pd.DataFrame:
        s = (g.groupby("user_id", sort=False, as_index=False)["value"].sum()
             .rename(columns={"value": "total"}))
        s["total"] = s["total"].round(2)
        return s.sort_values(["total", "user_id"],
                             ascending=[False, True]).head(10)

    out = partition_reduce(ds, "user_id", part_top).to_pandas()
    return (
        out.sort_values(["total", "user_id"], ascending=[False, True]).head(10).reset_index(drop=True)
    )


TOP_USERS_SQL = """
SELECT user_id, ROUND(SUM(value), 2) AS total
FROM events GROUP BY user_id ORDER BY total DESC, user_id LIMIT 10
"""


def events_dedup_first(sf_dir: str):
    """Exact dedup keep-first: hash-partition groupby + head(1)
    (SURVEY.md §2.6 'exact dedup = hash-partition + per-group first')."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    # partition on user_id (co-locates every (user, type) group); the
    # keep-first runs as one in-batch sort + grouped head per partition
    def first_rows(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"])
        g = g.groupby(["user_id", "event_type"], sort=False).head(1)
        return g[["user_id", "event_type", "event_id"]].rename(
            columns={"event_id": "first_event_id"}
        )

    out = partition_reduce(ds, "user_id", first_rows).to_pandas()
    return out.sort_values(["user_id", "event_type"]).reset_index(drop=True)


EVENTS_DEDUP_SQL = """
SELECT user_id, event_type, event_id AS first_event_id
FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                               ORDER BY ts, event_id) AS rn
  FROM events
) WHERE rn = 1
ORDER BY user_id, event_type
"""


def user_sessions(sf_dir: str, gap_minutes: int = 30):
    """Gap-based sessionisation: per-user event stream split where the
    inter-event gap exceeds ``gap_minutes`` — the windowed-aggregate shape
    (no window op in the reference, composed here as a user-keyed
    ``partition_reduce`` over time-sorted rows; the oracle uses SQL
    LAG/SUM windows)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sessions_part(g: pd.DataFrame) -> pd.DataFrame:
        # vectorised across the partition's users: a session break is a
        # user change OR an over-gap step (ties/zero gaps never break,
        # matching the per-user fold)
        g = g.sort_values(["user_id", "ts"])
        new_user = g["user_id"].ne(g["user_id"].shift())
        gaps = g["ts"].diff().dt.total_seconds()
        sid = (new_user | (gaps > gap_minutes * 60)).cumsum()
        sizes = g.assign(sid=sid).groupby(["user_id", "sid"], sort=False).size()
        out = (sizes.groupby(level=0)
               .agg(n_sessions="size", max_session_events="max")
               .reset_index())
        out["user_id"] = out["user_id"].astype("int64")
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["max_session_events"] = out["max_session_events"].astype("int64")
        return out

    out = partition_reduce(ds, "user_id", sessions_part).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


USER_SESSIONS_SQL = """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, SUM(brk) OVER (PARTITION BY user_id ORDER BY ts) AS session_id
  FROM o
), c AS (
  SELECT user_id, session_id, COUNT(*) AS n FROM s GROUP BY 1, 2
)
SELECT user_id, COUNT(*) AS n_sessions, MAX(n) AS max_session_events
FROM c GROUP BY user_id ORDER BY user_id
"""


def region_revenue(sf_dir: str):
    """4-table broadcast-join chain: region -> nation -> customer ->
    orders, rolled up to revenue per region (the reference's dict-join
    cascades, SURVEY.md §2.6 'Joins/lookups', at TPC-H shape).  Small
    sides (region/nation/customer maps) broadcast once; only orders
    streams."""
    import ray

    _rdf = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    region = dict(zip(_rdf["r_regionkey"], _rdf["r_name"]))
    _n2 = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    nation2region = {k: region[r] for k, r in zip(_n2["n_nationkey"], _n2["n_regionkey"])}
    _c2 = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    cust2nation = dict(zip(_c2["c_custkey"], _c2["c_nationkey"]))
    maps_ref = ray.put((nation2region, cust2nation))

    def partial(t: pa.Table, _ref=maps_ref) -> pa.Table:
        n2r, c2n = ray.get(_ref)
        df = t.to_pandas()
        df["region"] = df["o_custkey"].map(c2n).map(n2r).fillna("UNKNOWN")
        return pa.Table.from_pandas(
            df[["region", "o_totalprice", "o_orderkey"]], preserve_index=False)

    out = fold_groups(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow"),
        "region", {"revenue": ("o_totalprice", "sum"),
                   "n_orders": ("o_orderkey", "count")})
    out["revenue"] = out["revenue"].round(2)
    return out


REGION_REVENUE_SQL = """
SELECT r_name AS region,
       ROUND(SUM(o_totalprice), 2) AS revenue,
       COUNT(o_orderkey) AS n_orders
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
ORDER BY region
"""


def event_value_quantiles(sf_dir: str, n_bins: int = 4096):
    """Approximate per-type quantiles (p50/p90/p99) of event values via a
    two-pass mergeable histogram: global min/max, then fixed-bin counts
    summed per batch — the sketch path for quantiles over data too large
    to sort (rows-only; accuracy gated vs DuckDB quantile_cont in
    tests/test_quantiles.py)."""
    import numpy as np
    import ray

    ds = _read(sf_dir, "events", ["event_type", "value"])
    mm = fold_groups(ds, "event_type",
                     {"lo": ("value", "min"), "hi": ("value", "max")})
    bounds = {r["event_type"]: (r["lo"], r["hi"]) for _, r in mm.iterrows()}
    b_ref = ray.put(bounds)

    def hist(t: pa.Table, _ref=b_ref) -> pa.Table:
        bd = ray.get(_ref)
        df = t.to_pandas()
        out = {"event_type": [], "bin": [], "n": []}
        for et, g in df.groupby("event_type", sort=False):
            lo, hi = bd[et]
            width = max(hi - lo, 1e-12)
            bins = np.minimum(
                ((g["value"].to_numpy() - lo) / width * n_bins).astype(np.int64),
                n_bins - 1,
            )
            uniq, counts = np.unique(bins, return_counts=True)
            out["event_type"] += [et] * len(uniq)
            out["bin"] += uniq.tolist()
            out["n"] += counts.tolist()
        return pa.Table.from_pydict(out)

    agg = fold_groups(ds.map_batches(hist, batch_format="pyarrow"),
                      ["event_type", "bin"], {"n": ("n", "sum")})
    rows = []
    for et, g in agg.groupby("event_type"):
        lo, hi = bounds[et]
        width = max(hi - lo, 1e-12)
        g = g.sort_values("bin")
        cum = g["n"].cumsum()
        total = int(g["n"].sum())
        qs = {}
        for q in (0.5, 0.9, 0.99):
            target = q * total
            idx = (cum >= target).idxmax()
            b = int(g.loc[idx, "bin"])
            qs[q] = lo + (b + 0.5) / n_bins * width
        rows.append({"event_type": et, "n": total,
                     "p50": round(qs[0.5], 2), "p90": round(qs[0.9], 2),
                     "p99": round(qs[0.99], 2)})
    import pandas as _pd

    return _pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)


# Exact SQL oracle for the histogram sketch itself (not the true
# quantiles): same two-pass bin/cum/first-crossing arithmetic in the
# same operation order, so doubles match bit-for-bit.  Accuracy vs true
# quantile_cont stays gated in tests/test_quantiles.py.
EVENT_VALUE_QUANTILES_SQL = """
WITH mm AS (
  SELECT event_type, MIN(value) AS lo,
         GREATEST(MAX(value) - MIN(value), 1e-12) AS width
  FROM events GROUP BY event_type
), binned AS (
  SELECT e.event_type,
         LEAST(CAST(FLOOR((e.value - mm.lo) / mm.width * 4096) AS BIGINT), 4095) AS bin
  FROM events e JOIN mm USING (event_type)
), hist AS (
  SELECT event_type, bin, COUNT(*) AS n FROM binned GROUP BY 1, 2
), cum AS (
  SELECT event_type, bin,
         SUM(n) OVER (PARTITION BY event_type ORDER BY bin) AS cum,
         SUM(n) OVER (PARTITION BY event_type) AS total
  FROM hist
), qs AS (
  SELECT event_type, CAST(MAX(total) AS BIGINT) AS n,
         MIN(bin) FILTER (WHERE cum >= 0.5 * total) AS b50,
         MIN(bin) FILTER (WHERE cum >= 0.9 * total) AS b90,
         MIN(bin) FILTER (WHERE cum >= 0.99 * total) AS b99
  FROM cum GROUP BY event_type
)
SELECT q.event_type, q.n,
       ROUND(mm.lo + (q.b50 + 0.5) / 4096 * mm.width, 2) AS p50,
       ROUND(mm.lo + (q.b90 + 0.5) / 4096 * mm.width, 2) AS p90,
       ROUND(mm.lo + (q.b99 + 0.5) / 4096 * mm.width, 2) AS p99
FROM qs q JOIN mm USING (event_type)
ORDER BY event_type
"""


def approx_distinct_users(sf_dir: str, b: int = 12):
    """HyperLogLog distinct-user estimate per event_type: per-batch
    register arrays merged by elementwise max in one event_type-keyed
    ``partition_reduce`` (the mergeable-sketch
    pattern for COUNT DISTINCT over data too large for exact sets);
    2^b registers -> ~1.04/sqrt(2^b) ≈ 1.6% relative error.  Accuracy
    gated vs exact DuckDB counts in tests/test_quantiles.py; the sketch
    arithmetic itself has an exact SQL oracle (the hash is the low 8
    md5 bytes little-endian == DuckDB ``md5_number_lower``)."""
    import hashlib
    import struct

    m = 1 << b
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out = {"event_type": [], "registers": []}
        for et, g in df.groupby("event_type", sort=False):
            regs = np.zeros(m, dtype=np.int8)
            for u in g["user_id"]:
                h = struct.unpack(
                    "<Q", hashlib.md5(f"u:{int(u)}".encode()).digest()[8:]
                )[0]
                idx = h & (m - 1)
                w = h >> b
                rank = (64 - b) - int(w).bit_length() + 1
                if rank > regs[idx]:
                    regs[idx] = rank
            out["event_type"].append(et)
            out["registers"].append(regs.tolist())
        return pa.Table.from_pydict(
            out, schema=pa.schema([("event_type", pa.string()),
                                   ("registers", pa.list_(pa.int8(), m))])
        )

    def estimate(registers) -> int:
        regs = np.maximum.reduce([np.asarray(r, dtype=np.int8) for r in registers])
        # standard HLL estimator with small-range correction
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64))
        zeros = int((regs == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)
        return int(round(est))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        per_type = g.groupby("event_type", sort=False)["registers"]
        return pd.DataFrame([(et, estimate(r)) for et, r in per_type],
                            columns=["event_type", "approx_users"])

    out = partition_reduce(ds.map_batches(partial, batch_format="pyarrow"),
                           "event_type", merge).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


# Exact SQL oracle for the HLL sketch itself: identical hash (DuckDB
# md5_number_lower == low-8-bytes-LE of md5), identical register/rank
# arithmetic (rank = 53 - bit_length(h >> 12) via LENGTH(bin(w))), and
# the identical estimator expression incl. small-range correction.
APPROX_DISTINCT_SQL = """
WITH hashed AS (
  SELECT DISTINCT event_type,
         md5_number_lower('u:' || CAST(user_id AS VARCHAR)) AS h
  FROM events
), rr AS (
  SELECT event_type, CAST(h & 4095 AS BIGINT) AS idx,
         CASE WHEN (h >> 12) = 0 THEN 53
              ELSE 53 - LENGTH(bin(h >> 12)) END AS rank
  FROM hashed
), regs AS (
  SELECT event_type, idx, MAX(rank) AS reg FROM rr GROUP BY 1, 2
), est AS (
  SELECT event_type,
         SUM(POWER(2.0, -reg)) + (4096 - COUNT(*)) * 1.0 AS s,
         4096 - COUNT(*) AS zeros
  FROM regs GROUP BY event_type
)
SELECT event_type,
       CAST(ROUND(CASE WHEN (0.7213 / (1 + 1.079 / 4096)) * 4096 * 4096 / s
                            <= 2.5 * 4096 AND zeros > 0
                       THEN 4096 * LN(4096 / CAST(zeros AS DOUBLE))
                       ELSE (0.7213 / (1 + 1.079 / 4096)) * 4096 * 4096 / s END)
            AS BIGINT) AS approx_users
FROM est ORDER BY event_type
"""


def top_events_per_user(sf_dir: str, k: int = 3):
    """Grouped top-k: each user's k highest-value events — per-batch
    partial top-k (combiner) then per-group final top-k, so the shuffle
    moves at most k rows per (user, batch), not the event stream."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["user_id", "value", "event_id"],
                            ascending=[True, False, True])
        return pa.Table.from_pandas(df.groupby("user_id", sort=False).head(k),
                                    preserve_index=False)

    def final_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "value", "event_id"],
                          ascending=[True, False, True])
        g = g.groupby("user_id", sort=False).head(k).copy()
        g["rank"] = g.groupby("user_id", sort=False).cumcount() + 1
        return g[["user_id", "rank", "event_id", "value"]]

    out = partition_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id", final_part,
    ).to_pandas()
    return out.sort_values(["user_id", "rank"]).reset_index(drop=True)


TOP_EVENTS_PER_USER_SQL = """
SELECT user_id, rank, event_id, value
FROM (
  SELECT user_id, event_id, value,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY value DESC, event_id) AS rank
  FROM events
)
WHERE rank <= 3
ORDER BY user_id, rank
"""


def events_window_counts(sf_dir: str, window_sec: int = 900):
    """Tumbling-window aggregate: 15-minute windows per event_type —
    the streaming-window operator shape (window key computed per batch,
    partial counts combined, one small global groupby)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        # resolution-agnostic epoch seconds (pandas may hand us ns OR us)
        epoch = df["ts"].astype("datetime64[s]").astype("int64")
        df["window_start"] = pd.to_datetime(
            (epoch // window_sec) * window_sec, unit="s"
        )
        return pa.Table.from_pandas(df[["event_type", "window_start", "value"]],
                                    preserve_index=False)

    out = fold_groups(ds.map_batches(partial, batch_format="pyarrow"),
                      ["event_type", "window_start"],
                      {"n": (None, "count"), "value_sum": ("value", "sum")})
    out["value_sum"] = out["value_sum"].round(2)
    return out


EVENTS_WINDOW_SQL = """
SELECT event_type,
       to_timestamp((CAST(FLOOR(epoch(ts)) AS BIGINT) // 900) * 900)
         AT TIME ZONE 'UTC' AS window_start,
       COUNT(*) AS n,
       ROUND(SUM(value), 2) AS value_sum
FROM events
GROUP BY 1, 2
ORDER BY event_type, window_start
"""


def purchase_asof_click(sf_dir: str, partitions: int = 64):
    """AS-OF JOIN: each purchase event joins its user's most recent
    click at-or-before the purchase timestamp — a custom operator Ray
    Data lacks, built as a hash-partitioned co-partition on the join
    key + in-partition per-user sort + ``searchsorted`` probe.

    Partitioning assumption (documented per the brief): both sides are
    co-partitioned by ``user_id`` and one user's click history fits a
    worker's memory — the natural regime for per-user activity streams;
    a hot user would be handled by splitting their clicks into sorted
    runs, not by salting (as-of needs the full ordered history).
    Aggregated per user so the result is small; DuckDB's native
    ``ASOF JOIN`` is the oracle."""
    import numpy as np

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "value"])
    P = partitions

    def rows(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["event_type"].isin(["purchase", "click"])]
        return pa.table({
            "user_id": pa.array(df["user_id"], pa.int64()),
            "ts": pa.array(df["ts"].astype("int64")),  # us epoch
            "is_purchase": pa.array(
                (df["event_type"] == "purchase").astype("int8")
            ),
            "value": pa.array(df["value"], pa.float64()),
        })

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        out = {"user_id": [], "n_purchases": [], "n_matched": [],
               "click_value_sum": []}
        for uid, grp in g.groupby("user_id", sort=False):
            clicks = grp[grp["is_purchase"] == 0].sort_values("ts")
            purch = grp[grp["is_purchase"] == 1]
            ct = clicks["ts"].to_numpy()
            cv = clicks["value"].to_numpy()
            # most recent click with click.ts <= purchase.ts (inclusive)
            idx = np.searchsorted(ct, purch["ts"].to_numpy(), side="right") - 1
            matched = idx >= 0
            out["user_id"].append(int(uid))
            out["n_purchases"].append(int(len(purch)))
            out["n_matched"].append(int(matched.sum()))
            out["click_value_sum"].append(
                float(cv[idx[matched]].sum()) if matched.any() else 0.0
            )
        return pd.DataFrame(out)

    out = partition_reduce(ds.map_batches(rows, batch_format="pyarrow"),
                           "user_id", asof, P).to_pandas()
    out = out[out["n_purchases"] > 0]
    out["click_value_sum"] = out["click_value_sum"].round(2)
    return out.sort_values("user_id").reset_index(drop=True)


PURCHASE_ASOF_SQL = """
WITH p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT user_id, ts, value FROM events WHERE event_type = 'click'),
j AS (
  SELECT p.user_id, p.ts, c.value
  FROM p ASOF LEFT JOIN c ON p.user_id = c.user_id AND p.ts >= c.ts
)
SELECT user_id, COUNT(*) AS n_purchases,
       COUNT(value) AS n_matched,
       ROUND(COALESCE(SUM(value), 0), 2) AS click_value_sum
FROM j GROUP BY user_id ORDER BY user_id
"""


def purchase_window_range_join(sf_dir: str):
    """RANGE (interval-stabbing) JOIN: every event joins every purchase
    attribution window ``[purchase.ts, purchase.ts + 1h]`` it falls in —
    intervals overlap freely across users, so this is the genuine
    interval-join case (not disjoint binning).

    Distributed shape: time-bucket replication — each interval is
    replicated to every 1-hour bucket it overlaps (≤2 here since the
    window equals the bucket width), events go to exactly one bucket,
    and the in-bucket stab count is two vectorised ``searchsorted``
    probes over the bucket's sorted start/end arrays
    (#starts <= ts  -  #ends < ts).  Partitioning assumption: one time
    bucket's intervals fit a worker (bound by purchase rate x window);
    longer windows raise the replication factor, not the algorithm."""
    import numpy as np

    W_US = 3600 * 1_000_000  # bucket width == attribution window (1h)
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def rows(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        us = df["ts"].astype("datetime64[us]").astype("int64")
        out = {"bucket": [], "kind": [], "event_type": [], "t0": [], "t1": []}
        # one row per event in its bucket
        out["bucket"] += (us // W_US).tolist()
        out["kind"] += ["e"] * len(df)
        out["event_type"] += df["event_type"].tolist()
        out["t0"] += us.tolist()
        out["t1"] += [0] * len(df)
        # intervals (purchases) replicated per overlapped bucket —
        # vectorised: window == bucket width, so every interval
        # [s, s + W] overlaps exactly buckets s//W and s//W + 1
        p = us[df["event_type"] == "purchase"].to_numpy()
        if len(p):
            b0 = p // W_US
            out["bucket"] += np.concatenate([b0, b0 + 1]).tolist()
            out["kind"] += ["i"] * (2 * len(p))
            out["event_type"] += [""] * (2 * len(p))
            s2 = np.tile(p, 2)
            out["t0"] += s2.tolist()
            out["t1"] += (s2 + W_US).tolist()
        return pa.table({
            "bucket": pa.array(out["bucket"], pa.int64()),
            "kind": pa.array(out["kind"], pa.string()),
            "event_type": pa.array(out["event_type"], pa.string()),
            "t0": pa.array(out["t0"], pa.int64()),
            "t1": pa.array(out["t1"], pa.int64()),
        })

    def stab(g: pd.DataFrame) -> pd.DataFrame:
        iv = g[g["kind"] == "i"]
        ev = g[g["kind"] == "e"]
        if ev.empty:
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "total_matches": pd.Series([], dtype="int64"),
                                 "n_events": pd.Series([], dtype="int64")})
        starts = np.sort(iv["t0"].to_numpy())
        ends = np.sort(iv["t1"].to_numpy())
        ts = ev["t0"].to_numpy()
        # inclusive [start, end] stab count
        k = (np.searchsorted(starts, ts, side="right")
             - np.searchsorted(ends, ts, side="left"))
        out = pd.DataFrame({"event_type": ev["event_type"].to_numpy(),
                            "k": k})
        gsum = out.groupby("event_type", sort=False).agg(
            total_matches=("k", "sum"), n_events=("k", lambda s: int((s > 0).sum()))
        ).reset_index()
        return gsum

    def stab_buckets(g: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([stab(b) for _, b in g.groupby("bucket", sort=False)],
                         ignore_index=True)

    out = fold_groups(
        partition_reduce(ds.map_batches(rows, batch_format="pyarrow"),
                         "bucket", stab_buckets),
        "event_type", {"total_matches": ("total_matches", "sum"),
                       "n_events": ("n_events", "sum")})
    return out[out["total_matches"] > 0].reset_index(drop=True)


PURCHASE_RANGE_JOIN_SQL = """
WITH p AS (
  SELECT ts AS s, ts + INTERVAL 1 HOUR AS e FROM events
  WHERE event_type = 'purchase'
), j AS (
  SELECT ev.event_id, ev.event_type
  FROM events ev JOIN p ON ev.ts BETWEEN p.s AND p.e
)
SELECT event_type, COUNT(*) AS total_matches,
       COUNT(DISTINCT event_id) AS n_events
FROM j GROUP BY event_type ORDER BY event_type
"""


# --------------------------------------------------------------------------
# round 3: anti-join / rollup / pivot — completing the relational family
# --------------------------------------------------------------------------

def customers_without_big_orders(sf_dir: str, price: float = 300000.0,
                                 partitions: int = 64):
    """Hash-partitioned ANTI-join: customers with NO order above
    ``price``, census per market segment.  Same scale shape as the q3
    semi-join — one ``partition_join`` on custkey, each hash partition
    resolves its keys with a vectorised ``isin``, nothing is held on
    the driver."""
    P = partitions
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])

    def cust_rows(t: pa.Table) -> pa.Table:
        key = pc.cast(t.column("c_custkey"), pa.int64())
        return pa.table({
            "key": key,
            "seg": t.column("c_mktsegment"),
            "bal": pc.cast(t.column("c_acctbal"), pa.float64()),
        })

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def order_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("o_totalprice"), price))
        return pa.table({"key": pc.cast(t.column("o_custkey"), pa.int64())})

    def anti(c: pd.DataFrame, od: pd.DataFrame) -> pd.DataFrame:
        keep = c[~c["key"].isin(od["key"])] if len(od) else c
        if keep.empty:
            return pd.DataFrame({"c_mktsegment": pd.Series([], dtype=object),
                                 "n_customers": pd.Series([], dtype="int64"),
                                 "acctbal": pd.Series([], dtype="float64")})
        out = keep.groupby("seg", sort=False).agg(
            n_customers=("key", "size"), acctbal=("bal", "sum")).reset_index()
        return out.rename(columns={"seg": "c_mktsegment"})

    out = fold_groups(
        partition_join(
            [(cust.map_batches(cust_rows, batch_format="pyarrow"), "key"),
             (orders.map_batches(order_rows, batch_format="pyarrow"), "key")],
            anti, P),
        "c_mktsegment", {"n_customers": ("n_customers", "sum"),
                         "acctbal": ("acctbal", "sum")})
    out["acctbal"] = out["acctbal"].round(2)
    return out


CUSTOMERS_ANTI_JOIN_SQL = """
SELECT c_mktsegment, COUNT(*) AS n_customers,
       ROUND(SUM(c_acctbal), 2) AS acctbal
FROM customer
WHERE NOT EXISTS (
  SELECT 1 FROM orders
  WHERE o_custkey = c_custkey AND o_totalprice > 300000.0
)
GROUP BY c_mktsegment
ORDER BY c_mktsegment
"""


def lineitem_rollup(sf_dir: str):
    """ROLLUP(l_returnflag, l_linestatus): the hierarchy-subtotal
    aggregate.  One partial-aggregated groupby produces the base cells;
    the subtotal and grand-total rows are derived from the (tiny) base
    table on the driver — rollups never need a second corpus pass.
    NULL group values are encoded as 'ALL' in lockstep with the
    oracle's COALESCE."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])

    base = fold_groups(ds, ["l_returnflag", "l_linestatus"],
                       {"n": (None, "count"), "sum_qty": ("l_quantity", "sum")})
    sub = base.groupby("l_returnflag", as_index=False).agg(
        n=("n", "sum"), sum_qty=("sum_qty", "sum"))
    sub["l_linestatus"] = "ALL"
    tot = pd.DataFrame({"l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
                        "n": [base["n"].sum()], "sum_qty": [base["sum_qty"].sum()]})
    out = pd.concat([base, sub, tot], ignore_index=True)
    out["sum_qty"] = out["sum_qty"].round(2)
    return out[["l_returnflag", "l_linestatus", "n", "sum_qty"]].sort_values(
        ["l_returnflag", "l_linestatus"]).reset_index(drop=True)


LINEITEM_ROLLUP_SQL = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       COUNT(*) AS n, ROUND(SUM(l_quantity), 2) AS sum_qty
FROM lineitem
GROUP BY ROLLUP (l_returnflag, l_linestatus)
ORDER BY l_returnflag, l_linestatus
"""


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_pivot(sf_dir: str):
    """PIVOT: per-user wide counts by event type (one column per type).
    Per-batch crosstab partials sum under one small groupby — the
    long→wide reshape never materialises the long table."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"]).size().unstack(fill_value=0)
        for t in _EVENT_TYPES:
            if t not in g.columns:
                g[t] = 0
        g = g[list(_EVENT_TYPES)].reset_index()
        g.columns = ["user_id"] + [f"n_{t}" for t in _EVENT_TYPES]
        return g

    cols = [f"n_{t}" for t in _EVENT_TYPES]
    out = partition_reduce(
        ds.map_batches(partial, batch_format="pandas"),
        "user_id",
        lambda g: g.groupby("user_id", sort=False, as_index=False)[cols].sum(),
    ).to_pandas()
    for t in _EVENT_TYPES:
        out[f"n_{t}"] = out[f"n_{t}"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


EVENTS_PIVOT_SQL = """
SELECT user_id,
       COUNT(*) FILTER (WHERE event_type = 'click') AS n_click,
       COUNT(*) FILTER (WHERE event_type = 'error') AS n_error,
       COUNT(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
       COUNT(*) FILTER (WHERE event_type = 'signup') AS n_signup,
       COUNT(*) FILTER (WHERE event_type = 'view') AS n_view
FROM events
GROUP BY user_id
ORDER BY user_id
"""


def events_props_stats(sf_dir: str):
    """Semi-structured JSON parsing: decode the ``props`` JSON column,
    extract ``k``, aggregate per event type (count, sum, distinct ks).
    JSON decode is inherently per-record (same in every engine); the
    aggregation side stays batch-partial — per-batch (type, k) distinct
    pairs are domain-bounded, so they fold on the driver."""
    import json

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ks = [json.loads(s)["k"] for s in df["props"]]
        out = pd.DataFrame({"event_type": df["event_type"].to_numpy(), "k": ks})
        g = out.groupby(["event_type", "k"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    rows = fold_groups(ds.map_batches(partial, batch_format="pandas"),
                       ["event_type", "k"], {"n": ("n", "sum")})
    return rows.assign(kn=rows["k"] * rows["n"]).groupby(
        "event_type", as_index=False).agg(
        n=("n", "sum"), sum_k=("kn", "sum"), n_distinct_k=("k", "size"))


EVENTS_PROPS_SQL = """
SELECT event_type, COUNT(*) AS n,
       CAST(SUM(CAST(props->>'k' AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(COUNT(DISTINCT CAST(props->>'k' AS BIGINT)) AS BIGINT)
         AS n_distinct_k
FROM events
GROUP BY event_type
ORDER BY event_type
"""


def events_rolling_max(sf_dir: str, window: int = 3):
    """Rolling-window aggregate: per user, events ordered by
    (ts, event_id), the 3-event rolling mean of ``value``; output each
    user's maximum rolling mean.  Scale shape = the as-of join's: hash
    co-partition by user, per-user ordered arrays inside the partition
    (one user's history per worker, never the corpus)."""
    import numpy as np

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def rolling(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy(np.int64)
        # per-row micro-discretisation BEFORE the window sum (the repo's
        # float-exact convention): integer window sums are order-free, so
        # parity no longer leans on DuckDB's windowed-AVG implementation
        # detail of adding frame values in ascending index order
        v = np.floor(g["value"].to_numpy(np.float64) * 1e6).astype(np.int64)
        n = v.size
        if n == 0:
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "max_rolling_mean": pd.Series([], dtype="float64")})
        newu = np.empty(n, dtype=bool)
        newu[0] = True
        newu[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(newu)
        lens = np.diff(np.append(starts, n))
        pos = np.arange(n) - np.repeat(starts, lens)
        # full windows: exact int64 sums of the w shifted arrays;
        # boundary rows (< w-1 per user) in a small loop
        s = np.zeros(n, dtype=np.int64)
        for off in range(window - 1, -1, -1):
            sh = np.empty(n, dtype=np.int64)
            sh[off:] = v[: n - off] if off else v
            sh[:off] = 0
            s = s + sh
        mean = (s.astype(np.float64) / float(window)) / 1e6
        for i in np.flatnonzero(pos < window - 1):
            acc = int(v[i - pos[i]: i + 1].sum())
            mean[i] = (float(acc) / float(pos[i] + 1)) / 1e6
        best = np.maximum.reduceat(mean, starts)
        return pd.DataFrame({"user_id": pd.Series(u[starts], dtype="int64"),
                             "max_rolling_mean": best})

    out = partition_reduce(ds, "user_id", rolling, 64).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


EVENTS_ROLLING_SQL = """
WITH e AS (
  SELECT user_id, ts, event_id,
         CAST(FLOOR(value * 1000000.0) AS BIGINT) AS micro
  FROM events
), r AS (
  SELECT user_id,
         (CAST(SUM(micro) OVER w AS DOUBLE)
          / CAST(COUNT(*) OVER w AS DOUBLE)) / 1000000.0 AS m
  FROM e
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
)
SELECT user_id, MAX(m) AS max_rolling_mean
FROM r GROUP BY user_id ORDER BY user_id
"""


def events_asof_join(sf_dir: str, buckets: int = 8):
    """As-of join over the event stream: each 'purchase' picks up the
    user's most recent strictly-earlier 'click' (order = (ts, event_id))
    — the classic "attribute a conversion to the last touch" join that
    Ray Data has no native operator for.  Composition: ONE hash-partition
    exchange on user_id co-locates each user's full stream, an in-batch
    sort + per-user cumulative max of click timestamps implements the
    as-of lookup vectorised (no pair expansion, no per-row loop), and
    per-partition census partials fold on the driver.  Output: per
    user-bucket (user_id % buckets) purchase counts, matched counts and
    the summed click->purchase gap in microseconds.

    Reference analogue: the builder's event-stream enrichment joins
    (/root/reference/ontology/ontology_builder.py semi-join family);
    scale note: only (user_id, ts, event_id, event_type) cross the
    exchange — value/props are pruned at the read."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    _SENT = np.iinfo(np.int64).min

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = g["ts"].astype("int64").to_numpy()
        click_ts = np.where((g["event_type"] == "click").to_numpy(),
                            ts_us, _SENT)
        # cummax within user: strictly-earlier rows only can be clicks
        # at a purchase row (its own click_ts is the sentinel)
        last = (pd.DataFrame({"u": g["user_id"].to_numpy(), "c": click_ts})
                .groupby("u", sort=False)["c"].cummax().to_numpy())
        purch = (g["event_type"] == "purchase").to_numpy()
        matched = purch & (last != _SENT)
        bucket = g["user_id"].to_numpy("int64") % buckets
        part = pd.DataFrame({
            "bucket": bucket[purch],
            "n": 1,
            "m": matched[purch].astype("int64"),
            "gap": np.where(matched, ts_us - last, 0)[purch],
        })
        return (part.groupby("bucket", as_index=False)
                .agg(n_purchases=("n", "sum"), n_matched=("m", "sum"),
                     sum_gap_us=("gap", "sum")))

    return fold_groups(partition_reduce(ds, "user_id", fold), "bucket",
                       {c: (c, "sum") for c in
                        ("n_purchases", "n_matched", "sum_gap_us")})


EVENTS_ASOF_SQL = """
WITH ordered AS (
  SELECT user_id, event_type, epoch_us(ts) AS ts_us,
         MAX(CASE WHEN event_type = 'click' THEN epoch_us(ts) END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS last_click
  FROM events
)
SELECT user_id % 8 AS bucket,
       COUNT(*) AS n_purchases,
       CAST(SUM(CASE WHEN last_click IS NOT NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_matched,
       CAST(COALESCE(SUM(CASE WHEN last_click IS NOT NULL
                               THEN ts_us - last_click END), 0)
            AS BIGINT) AS sum_gap_us
FROM ordered
WHERE event_type = 'purchase'
GROUP BY 1 ORDER BY 1
"""
