"""Builder-ETL operator parity (SURVEY.md §2.2) over the driver tables.

Each operator re-expresses one dataflow shape from the reference's
ontology builder as an idiomatic Ray Data pipeline, with a DuckDB oracle
where SQL-expressible:

- grouped collect_set         (B5, /root/reference/ontology/ontology_builder.py:283-352)
- grouped majority vote       (B7, ontology_builder.py:389-453; M5 vote at
                               ontology_manager.py:471)
- count + keep-top-fraction   (B2, ontology_builder.py:90-111)
- connected components        (B3, ontology_builder.py:113-181 — the
                               incremental synonym-cluster merge)
- bounded semi-join expansion (B11, ontology_builder.py:1172-1207 — the
                               ≤3-round multilingual BFS)

Grouped results fold per-block partials on the driver
(``stages/distinct.fold_groups``) and per-key reduces run once per
partition (``stages/distinct.partition_reduce``).
"""

from __future__ import annotations

import math
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from kawa_ray.stages.distinct import fold_groups, partition_distinct, partition_reduce


def _read(sf_dir: str, table: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


# ---------------------------------------------------------------- B5: collect_set

def suppliers_per_nation(sf_dir: str):
    """Grouped collect_set: sorted distinct supplier names per nation —
    the shape of the builder's en/word2en adjacency accumulation (B5)."""
    ds = _read(sf_dir, "supplier", ["s_nationkey", "s_name"])

    def collect(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates().sort_values("s_name")
               .groupby("s_nationkey", as_index=False)["s_name"]
               .agg(n_suppliers="size", suppliers=",".join))
        return out.astype({"s_nationkey": "int64"})

    out = partition_reduce(ds, "s_nationkey", collect).to_pandas()
    return out.sort_values("s_nationkey").reset_index(drop=True)


SUPPLIERS_PER_NATION_SQL = """
SELECT s_nationkey,
       COUNT(DISTINCT s_name) AS n_suppliers,
       string_agg(DISTINCT s_name, ',' ORDER BY s_name) AS suppliers
FROM supplier
GROUP BY s_nationkey
ORDER BY s_nationkey
"""


# ------------------------------------------------------------ B7: majority vote

def majority_event_type(sf_dir: str):
    """Per-user majority vote with deterministic tie-break (max count,
    then lexicographically smallest type) — the yago_step1 grouped vote
    (B7) / add_to_ontology majority label (M5)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        return (
            t.group_by(["user_id", "event_type"])
            .aggregate([("event_type", "count")])
            .rename_columns(["user_id", "event_type", "n"])
        )

    # user_id is data-cardinality: ONE hash-partitioned shuffle merges
    # the per-batch partial counts AND takes the vote in-batch (the
    # stages/distinct.py per-key rule; the old shape paid two per-key
    # Ray ops — a (user,type) aggregate then a per-user map_groups)
    def vote_part(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["user_id", "event_type"], sort=False, as_index=False)
             ["n"].sum().rename(columns={"n": "n_events"}))
        c = c.sort_values(["user_id", "n_events", "event_type"],
                          ascending=[True, False, True])
        top = c.groupby("user_id", sort=False).head(1)
        return pd.DataFrame(
            {
                "user_id": top["user_id"].astype("int64"),
                "majority_type": top["event_type"],
                "n_events": top["n_events"].astype("int64"),
            }
        )

    out = partition_reduce(
        ds.map_batches(partial, batch_format="pyarrow"), "user_id", vote_part
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


MAJORITY_EVENT_TYPE_SQL = """
WITH c AS (
  SELECT user_id, event_type, COUNT(*) AS n FROM events GROUP BY 1, 2
), r AS (
  SELECT user_id, event_type, n,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY n DESC, event_type) AS rn
  FROM c
)
SELECT user_id, event_type AS majority_type, n AS n_events
FROM r WHERE rn = 1
ORDER BY user_id
"""


# --------------------------------------------------- B2: count + top fraction

def top_type_tokens(sf_dir: str, keep_fraction: float = 0.25):
    """Token census over part.p_type, keep the top ``keep_fraction`` of
    distinct tokens by count (ties lexicographic) — create_wn_cat's
    Counter + keep_percentage (B2)."""
    ds = _read(sf_dir, "part", ["p_type"])

    def toks(t: pa.Table) -> pa.Table:
        return pa.table({"tok": pc.list_flatten(pc.split_pattern(t.column("p_type"), " "))})

    # distinct-token sized: tiny
    df = fold_groups(ds.map_batches(toks, batch_format="pyarrow"), "tok",
                     {"n": (None, "count")})
    k = math.ceil(len(df) * keep_fraction)
    df = df.sort_values(["n", "tok"], ascending=[False, True]).head(k)
    return df.reset_index(drop=True)


TOP_TYPE_TOKENS_SQL = """
WITH toks AS (
  SELECT unnest(string_split(p_type, ' ')) AS tok FROM part
), c AS (
  SELECT tok, COUNT(*) AS n FROM toks GROUP BY tok
), r AS (
  SELECT tok, n,
         ROW_NUMBER() OVER (ORDER BY n DESC, tok) AS rn,
         COUNT(*) OVER () AS total
  FROM c
)
SELECT tok, n FROM r
WHERE rn <= CEIL(total * 0.25)
ORDER BY n DESC, tok
"""


# --------------------------------------------- B3: connected components (graph)

def _user_bucket_edges(sf_dir: str) -> rd.Dataset:
    """Deterministic co-occurrence graph: users sharing an
    (event_type, hour-of-day) activity bucket are linked via consecutive
    members of the sorted bucket list (a spanning path per bucket — same
    components as the full clique at O(n) edges per bucket)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def buckets(t: pa.Table) -> pa.Table:
        hour = pc.hour(t.column("ts"))
        # cohort = user_id % 7 keeps the graph multi-component (users only
        # co-occur within their cohort), so the census is non-trivial
        cohort = pc.cast(pc.subtract(
            t.column("user_id"),
            pc.multiply(pc.floor(pc.divide(pc.cast(t.column("user_id"), pa.float64()), 7.0)), 7.0),
        ), pa.int64())
        bucket = pc.binary_join_element_wise(
            t.column("event_type"), pc.cast(hour, pa.string()),
            pc.cast(cohort, pa.string()), "#"
        )
        return pa.table({"user_id": t.column("user_id"), "bucket": bucket})

    def path_edges(g: pd.DataFrame) -> pd.DataFrame:
        # consecutive members of each bucket's sorted distinct users
        g = g.drop_duplicates().sort_values(["bucket", "user_id"])
        ids = g["user_id"].to_numpy("int64")
        bkt = g["bucket"].to_numpy()
        same = bkt[1:] == bkt[:-1]
        return pd.DataFrame({"a": ids[:-1][same], "b": ids[1:][same]})

    return partition_reduce(ds.map_batches(buckets, batch_format="pyarrow"),
                            "bucket", path_edges)


def user_components(sf_dir: str):
    """Connected components over the user co-occurrence graph (B3's
    incremental synonym-cluster merge, done as one closure).  Returns the
    per-component census (component = min member id).  Rows-only oracle;
    tests check the distributed label-propagation path returns identical
    components to driver union-find."""
    from kawa_ray.stages.clustering import union_find_components

    edges = _user_bucket_edges(sf_dir).to_pandas().drop_duplicates()
    users = sorted(int(u) for u in _read(sf_dir, "events", ["user_id"]).unique("user_id"))
    comp = union_find_components(
        [(int(a), int(b)) for a, b in zip(edges["a"], edges["b"])], [int(u) for u in users]
    )
    census: dict[int, int] = {}
    for u, c in comp.items():
        census[c] = census.get(c, 0) + 1
    out = pd.DataFrame(
        {"component": sorted(census), "n_users": [census[c] for c in sorted(census)]}
    )
    return out.reset_index(drop=True)


# Exact SQL oracle for the components census: min-label closure via a
# recursive CTE (bucket cliques have identical connectivity to the
# spanning-path edges the Ray side builds), pruned to labels below the
# target node — only the component-min label must reach every member.
USER_COMPONENTS_SQL = """
WITH RECURSIVE ub AS (
  SELECT DISTINCT user_id,
         event_type || '#' || CAST(date_part('hour', ts) AS VARCHAR)
                    || '#' || CAST(user_id % 7 AS VARCHAR) AS bucket
  FROM events
), edges AS (
  SELECT DISTINCT a.user_id AS a, b.user_id AS b
  FROM ub a JOIN ub b USING (bucket)
  WHERE a.user_id <> b.user_id
), reach(node, lbl) AS (
  SELECT DISTINCT user_id, user_id FROM events
  UNION
  SELECT e.b AS node, r.lbl FROM reach r JOIN edges e ON e.a = r.node
  WHERE r.lbl < e.b
)
SELECT lbl AS component, COUNT(*) AS n_users
FROM (SELECT node, MIN(lbl) AS lbl FROM reach GROUP BY node)
GROUP BY lbl ORDER BY component
"""


# ------------------------------------------- B11: bounded semi-join expansion

def expand_user_set(sf_dir: str, n_rounds: int = 3, seed_below: int = 5):
    """≤3-round bounded BFS from seed users over the shared-bucket graph —
    create_multilingual_examples' seed expansion (B11).  Each round is a
    broadcast semi-join: membership set -> filter bucket rows -> new
    members.  Output: (user_id, round_reached)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def buckets(t: pa.Table) -> pa.Table:
        hour = pc.hour(t.column("ts"))
        bucket = pc.binary_join_element_wise(
            t.column("event_type"), pc.cast(hour, pa.string()), "#"
        )
        return pa.table({"user_id": t.column("user_id"), "bucket": bucket})

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["user_id", "bucket"]).aggregate([])

    # per-batch distinct partial; cross-batch duplicates are harmless
    # (semi-join rounds are set-semantics) and the table is reused every round
    ub = ds.map_batches(buckets, batch_format="pyarrow").map_batches(
        batch_distinct, batch_format="pyarrow"
    ).materialize()

    reached: dict[int, int] = {}
    frontier = {int(u) for u in ub.unique("user_id") if int(u) < seed_below}
    for u in frontier:
        reached[u] = 0
    for rnd in range(1, n_rounds + 1):
        f_ref = ray.put(frontier)

        def hit_buckets(t: pa.Table, _ref=f_ref) -> pa.Table:
            fr = ray.get(_ref)
            mask = pa.array([int(u) in fr for u in t.column("user_id").to_pylist()])
            return t.filter(mask).select(["bucket"])

        hot = set(ub.map_batches(hit_buckets, batch_format="pyarrow").unique("bucket"))
        b_ref = ray.put(hot)

        def members(t: pa.Table, _ref=b_ref) -> pa.Table:
            hb = ray.get(_ref)
            mask = pa.array([b in hb for b in t.column("bucket").to_pylist()])
            return t.filter(mask).select(["user_id"])

        new = {
            int(u) for u in ub.map_batches(members, batch_format="pyarrow").unique("user_id")
        } - set(reached)
        if not new:
            break
        for u in new:
            reached[u] = rnd
        frontier = new

    out = pd.DataFrame(
        {"user_id": sorted(reached), "round_reached": [reached[u] for u in sorted(reached)]}
    )
    return out.reset_index(drop=True)


EXPAND_USER_SET_SQL = """
WITH ub AS (
  SELECT DISTINCT user_id,
         event_type || '#' || CAST(date_part('hour', ts) AS VARCHAR) AS bucket
  FROM events
), s0 AS (
  SELECT DISTINCT user_id FROM ub WHERE user_id < 5
), s1 AS (
  SELECT DISTINCT b.user_id
  FROM ub a JOIN ub b USING (bucket)
  WHERE a.user_id IN (SELECT user_id FROM s0)
), s2 AS (
  SELECT DISTINCT b.user_id
  FROM ub a JOIN ub b USING (bucket)
  WHERE a.user_id IN (SELECT user_id FROM s1)
), s3 AS (
  SELECT DISTINCT b.user_id
  FROM ub a JOIN ub b USING (bucket)
  WHERE a.user_id IN (SELECT user_id FROM s2)
)
SELECT user_id,
       CASE WHEN user_id IN (SELECT user_id FROM s0) THEN 0
            WHEN user_id IN (SELECT user_id FROM s1) THEN 1
            WHEN user_id IN (SELECT user_id FROM s2) THEN 2
            ELSE 3 END AS round_reached
FROM s3
ORDER BY user_id
"""


# ------------------------------------------- iterative graph algorithm: PageRank

def user_pagerank(sf_dir: str, iterations: int = 2, max_members: int = 200,
                  k: int = 10):
    """Integer-discretised PageRank (d = 0.85 = 17/20) over the user
    co-occurrence graph (same buckets as ``user_components``; edges =
    distinct in-bucket pairs, buckets above ``max_members`` users
    skipped — the hot-key cap, mirrored in the oracle).  All arithmetic
    is BIGINT: pr0 = 1e9 // N and each contribution is
    ``(17 * pr(v)) // (20 * deg(v))`` floored BEFORE the (order-free)
    integer sum, so two engines agree bit-for-bit and the fixed
    ``iterations`` unroll into SQL CTEs.  No dangling-mass
    redistribution (documented deviation from the classic formulation;
    isolated users keep the teleport term).

    Execution shape: the EDGE stream never leaves the workers — each
    iteration is one streaming ``map_batches`` over the adjacency rows
    with the pr/deg NODE table broadcast via ``ray.put`` (PageRank's
    node table is the broadcastable state — 16 bytes/node; the
    all-shuffle label-propagation variant is the fallback if the node
    table outgrows a worker, at ~4 extra sorts per iteration it is
    strictly worse until then), per-batch partial sums folding on the
    driver (node-space bounded).  Returns top-``k`` users by
    (pr desc, user_id asc)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def buckets(t: pa.Table) -> pa.Table:
        hour = pc.hour(t.column("ts"))
        salt = pc.cast(
            pc.subtract(t.column("user_id"),
                        pc.multiply(pc.divide(t.column("user_id"), 7), 7)),
            pa.string())
        bucket = pc.binary_join_element_wise(
            t.column("event_type"), pc.cast(hour, pa.string()), salt, "#")
        return pa.table({"user_id": pc.cast(t.column("user_id"), pa.int64()),
                         "bucket": bucket})

    def clique_edges(g: pd.DataFrame) -> pd.DataFrame:
        from kawa_ray.stages.pairs import block_pairs

        ids = g["user_id"].to_numpy("int64")
        ia, ib = block_pairs(g["bucket"].to_numpy(), ids, max_members)
        return pd.DataFrame({"a": ids[ia], "b": ids[ib]})

    ub = partition_reduce(
        ds.map_batches(buckets, batch_format="pyarrow")
        .map_batches(lambda t: t.group_by(["user_id", "bucket"]).aggregate([]),
                     batch_format="pyarrow"),
        "bucket", clique_edges)
    # exact distinct edges (in-bucket distinct already; dedup across
    # buckets) via the shared partitioned distinct (stages/distinct.py —
    # a Ray multi-key aggregate pays per DISTINCT KEY: 160k edge keys
    # measured 345 s at sf0.1).  Symmetrised into adjacency rows once,
    # kept materialised across iterations.
    edges = partition_distinct(ub, ["a", "b"], key_col="a").materialize()
    adj = edges.map_batches(
        lambda df: pd.DataFrame({
            "node": pd.concat([df["a"], df["b"]], ignore_index=True).astype("int64"),
            "nbr": pd.concat([df["b"], df["a"]], ignore_index=True).astype("int64"),
        }),
        batch_format="pandas",
    ).materialize()

    # degree table: per-block partial counts fold on the driver
    d = fold_groups(adj, "node", {"d": (None, "count")})
    deg = dict(zip(d["node"].tolist(), d["d"].tolist()))

    users = sorted(int(u) for u in _read(sf_dir, "events", ["user_id"]).unique("user_id"))
    n = len(users)
    base = (3 * 1_000_000_000) // (20 * n)  # (1-d) = 3/20
    pr = {u: 1_000_000_000 // n for u in users}

    for _ in range(iterations):
        state_ref = ray.put((pr, deg))

        def contribute(df: pd.DataFrame, _ref=state_ref) -> pd.DataFrame:
            pr_t, deg_t = ray.get(_ref)
            node = df["node"].to_numpy("int64")
            # vectorised gathers through pandas int64 hash maps
            prv = pd.Series(node).map(pr_t).to_numpy("int64")
            dv = pd.Series(node).map(deg_t).to_numpy("int64")
            c = (17 * prv) // (20 * dv)
            return pd.DataFrame({"u": df["nbr"].to_numpy("int64"), "c": c})

        s = fold_groups(adj.map_batches(contribute, batch_format="pandas"), "u",
                        {"c": ("c", "sum")})
        sums = dict(zip(s["u"].tolist(), s["c"].tolist()))
        pr = {u: base + sums.get(u, 0) for u in users}

    out = pd.DataFrame({"user_id": list(pr), "pr_nano": list(pr.values())})
    out = out.sort_values(["pr_nano", "user_id"], ascending=[False, True]).head(k)
    out["user_id"] = out["user_id"].astype("int64")
    out["pr_nano"] = out["pr_nano"].astype("int64")
    return out.reset_index(drop=True)


def _pagerank_sql(iterations: int = 2, max_members: int = 200, k: int = 10) -> str:
    it_ctes = []
    prev = "pr0"
    for i in range(1, iterations + 1):
        it_ctes.append(f"""c{i} AS (
  SELECT adj.nbr AS node,
         CAST(SUM((17 * {prev}.pr) // (20 * deg.d)) AS BIGINT) AS s
  FROM adj
  JOIN {prev} ON {prev}.node = adj.node
  JOIN deg ON deg.node = adj.node
  GROUP BY adj.nbr
), pr{i} AS (
  SELECT users.u AS node,
         CAST(3 AS BIGINT) * 1000000000 // (20 * n.n) + COALESCE(c{i}.s, 0) AS pr
  FROM users CROSS JOIN n
  LEFT JOIN c{i} ON c{i}.node = users.u
)""")
        prev = f"pr{i}"
    return f"""
WITH ub AS (
  SELECT DISTINCT user_id,
         event_type || '#' || CAST(date_part('hour', ts) AS VARCHAR)
                    || '#' || CAST(user_id % 7 AS VARCHAR) AS bucket
  FROM events
), bsize AS (
  SELECT bucket, COUNT(*) AS m FROM ub GROUP BY 1
), edges AS (
  SELECT DISTINCT a.user_id AS a, b.user_id AS b
  FROM ub a
  JOIN ub b USING (bucket)
  JOIN bsize USING (bucket)
  WHERE a.user_id < b.user_id AND bsize.m BETWEEN 2 AND {max_members}
), adj AS (
  SELECT a AS node, b AS nbr FROM edges
  UNION ALL SELECT b, a FROM edges
), users AS (
  SELECT DISTINCT user_id AS u FROM events
), n AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n FROM users
), deg AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS d FROM adj GROUP BY 1
), pr0 AS (
  SELECT u AS node, CAST(1000000000 AS BIGINT) // n.n AS pr FROM users CROSS JOIN n
), {", ".join(it_ctes)}
SELECT node AS user_id, pr AS pr_nano
FROM pr{iterations}
ORDER BY pr DESC, user_id ASC
LIMIT {k}
"""


USER_PAGERANK_SQL = _pagerank_sql()
