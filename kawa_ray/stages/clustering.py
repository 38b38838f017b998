"""S6 — transitive closure over an edge Dataset.

``closure_labels(edges_ds)`` is the one entry point: it returns a
``(node, lbl)`` Dataset in which every node of the edge set carries the
smallest member of its component, and it alone picks the tier from the
edge count:

* up to ``_DRIVER_EDGE_THRESHOLD`` (2.5M) edges, an exact union-find on
  the driver — edges live in the distinct-surface / pair space, never
  corpus space (the same trade as the reference ontology builder's
  incremental synonym-cluster merging), and its node table holds at
  most 2 x edges entries;
* beyond that, bucketed min-label propagation with per-round pointer
  jumping (``label_propagation_components_bucketed``), which holds no
  node-space table in any one heap.

Both tiers induce the same partition with the same labels
(tests/test_linkage_e2e.py, tests/test_dedup_census.py,
tests/test_er_round5.py force the bucketed tier).
"""

from __future__ import annotations

from collections.abc import Iterable

import pandas as pd

# driver tier ceiling: up to this many edges the union-find runs on the
# driver (edge space, never corpus space; at most 2 x edges nodes)
_DRIVER_EDGE_THRESHOLD = 2_500_000


def _lp_partitions(n_edges: int) -> tuple[int, int]:
    """Partition count P and pointer-jump salt S for the bucketed LP,
    sized from the input like ``candidate_pairs``: about one partition
    per 4k adjacency rows (two per edge), capped at 64, with S =
    min(8, P) and P a multiple of S.  Every graph large enough to
    reach that tier in production (> 2.5M edges) gets P = 64, S = 8;
    a small graph forced onto it does not pay 64 partitions of
    per-block task overhead per exchange."""
    p = min(64, 2 * n_edges // 4096 + 1)
    s = min(8, p)
    return p - p % s, s


class UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self):
        self.parent: dict = {}
        self.rank: dict = {}

    def find(self, x):
        p = self.parent
        if x not in p:
            p[x] = x
            self.rank[x] = 0
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:  # path compression
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def union_find_components(edges: Iterable[tuple[str, str]],
                          nodes: Iterable[str] = ()) -> dict[str, str]:
    """node -> component id (the lexicographically smallest member)."""
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    for n in nodes:
        uf.find(n)
    # canonical component label = min member, deterministic across runs
    members: dict = {}
    for x in list(uf.parent):
        members.setdefault(uf.find(x), []).append(x)
    out: dict[str, str] = {}
    for _, mem in members.items():
        label = min(mem)
        for x in mem:
            out[x] = label
    return out


def closure_labels(edges_ds):
    """Connected components of an edge Dataset (cols ``a``, ``b``; any
    dtype, compared as strings) as a ``(node, lbl)`` Dataset: one row per
    node that occurs in an edge, ``lbl`` = the component's smallest
    member.  The tier follows the edge count (module docstring)."""
    import pyarrow as pa
    import ray.data as rd

    edges = edges_ds.map_batches(
        lambda df: pd.DataFrame({"a": df["a"].astype(str),
                                 "b": df["b"].astype(str)}),
        batch_format="pandas",
    ).materialize()
    n_edges = edges.count()
    if n_edges <= _DRIVER_EDGE_THRESHOLD:
        groups = {}
        if n_edges:
            edf = edges.to_pandas()  # edge space; NOT take_all (per-row cost)
            groups = union_find_components(zip(edf["a"], edf["b"]))
        return rd.from_arrow(pa.table(
            {"node": pa.array(list(groups), pa.string()),
             "lbl": pa.array(list(groups.values()), pa.string())}))
    return label_propagation_components_bucketed(edges)


def _pointer_jump(labels, P: int, S: int):
    """One pointer-jumping step on a (node, lbl) label table:
    ``lbl[x] <- lbl[lbl[x]]`` — composes the label function with itself,
    so chains halve and, interleaved with one hash-to-min propagation
    per round, closure converges in O(log diameter) rounds instead of
    O(diameter) (round-4 VERDICT item 1: a 16x blocking graph already
    exceeded 20-round diameters; the Kiveris et al. 2014 star-contraction
    family makes the same shuffle-count trade).  Two exchanges:

      1. resolve: answer rows (key=node, val=lbl) union per-batch-DEDUPED
         query rows (key=lbl) co-route by hash(key) — every label value
         is itself a node id, so the answer is always co-located.  Query
         dedup bounds hot-label fan-in to one row per upstream batch.
         Emits only REAL shortcuts (jlbl != lbl), so converged components
         contribute zero jmap rows.
      2. rewrite: label rows co-locate with their shortcut via a SALTED
         label route — route = route_parts(lbl, P/S) * S +
         route_parts(node, S), an int below P that routes by value —
         and jmap rows replicate xS, one per salt.  A reduce call may
         hold several salts of one label bucket, so it keys its
         shortcut map on the deduplicated ``lbl``.  The salt bounds the
         hot-label funnel (a converged giant component's label rows) to
         1/S of the component per route at the price of S small
         (lbl, jlbl) rows per shortcut;
         partitioning assumption: a component's label
         rows / S must fit a worker's batch (``_lp_partitions`` sizes
         P and S from the edge count; the documented trade — no exact
         distributed closure avoids co-locating a component's rows
         somewhere).
    """
    import numpy as np

    from kawa_ray.stages.distinct import (
        partition_join,
        partition_reduce,
        route_parts,
    )

    B = P // S

    def qa_rows(df: pd.DataFrame) -> pd.DataFrame:
        q = df["lbl"].drop_duplicates()
        keys = pd.concat([df["node"], q], ignore_index=True)
        return pd.DataFrame({
            "key": keys,
            "val": pd.concat([df["lbl"],
                              pd.Series([None] * len(q), dtype=object)],
                             ignore_index=True),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        ans = g[g["val"].notna()]
        amap = pd.Series(ans["val"].to_numpy(), index=ans["key"].to_numpy())
        qk = g.loc[g["val"].isna(), "key"].drop_duplicates()
        j = amap.reindex(qk.to_numpy())
        if j.isna().any():
            raise RuntimeError("pointer jump queried a label with no "
                               "co-located answer row; labels must be node ids")
        out = pd.DataFrame({"lbl": qk.to_numpy(), "jlbl": j.to_numpy()})
        return out[out["lbl"] != out["jlbl"]]

    jmap = partition_reduce(labels.map_batches(qa_rows, batch_format="pandas"),
                            "key", resolve, P)

    def lab_route(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(route=route_parts(df["lbl"], B) * S
                         + route_parts(df["node"], S))

    def jmap_route(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        base = route_parts(df["lbl"], B)
        return pd.DataFrame({
            "lbl": np.repeat(df["lbl"].to_numpy(dtype=object), S),
            "jlbl": np.repeat(df["jlbl"].to_numpy(dtype=object), S),
            "route": np.repeat(base * S, S) + np.tile(np.arange(S), n),
        })

    def rewrite(lab: pd.DataFrame, jm: pd.DataFrame) -> pd.DataFrame:
        if jm.empty:
            return lab[["node", "lbl"]]
        jm = jm.drop_duplicates("lbl")  # one row per salt in this call
        m = pd.Series(jm["jlbl"].to_numpy(), index=jm["lbl"].to_numpy())
        return pd.DataFrame({"node": lab["node"],
                             "lbl": lab["lbl"].map(m).fillna(lab["lbl"])})

    return partition_join(
        [(labels.map_batches(lab_route, batch_format="pandas"), "route"),
         (jmap.map_batches(jmap_route, batch_format="pandas"), "route")],
        rewrite, P)


def label_propagation_components_bucketed(edges_ds, max_rounds: int = 20):
    """Broadcast-free distributed connected components: hash-to-min
    propagation + one pointer-jumping step per round -> O(log diameter)
    rounds (round-4 VERDICT item 1; raw hash-to-min is O(diameter) and
    real blocking graphs exceeded the 20-round budget at just 16x).

    Each round is two hash-partition propagation shuffles plus the two
    ``_pointer_jump`` exchanges — no driver-held or broadcast label
    table, so it holds at graphs whose node space exceeds worker memory
    (the scale path for S6 above the driver union-find's bound; the two
    are proven equivalent in tests, incl. a seeded random graph and a
    path graph of diameter >> max_rounds that only converges via the
    jump):

      1. join label rows (node, lbl) and edge rows (node, nbr) on
         node — co-located, so an in-batch pandas groupby tags
         every edge with its node's current label (cost per shuffled
         block, not per node: Ray's map_groups/aggregate pay ~1.5-2 ms per
         distinct key, the stages/distinct.py rule);
      2. partition the emitted (nbr, candidate_label) rows by hash(nbr),
         in-batch groupby-min — hash-to-min propagation.  The node's
         own current label rides along in ``old`` (empty-string
         sentinel on neighbour rows; "" sorts before every string, so
         max() recovers exactly the one self row's label), making the
         convergence check a remote per-batch partial count + scalar
         sum instead of a third label-table shuffle;
      3. pointer jump ``lbl <- lbl[lbl]`` (see ``_pointer_jump``).

    Convergence is checked on the PROPAGATION step: labels decrease
    monotonically (lbl[x] <= x is invariant under both min-merge and
    jump), and a propagation fixpoint is exactly "every component
    carries its min label", at which point the jump is the identity.
    """
    import pandas as pd
    import pyarrow as pa

    from kawa_ray.stages.distinct import (
        partition_distinct,
        partition_join,
        partition_reduce,
    )

    edges = edges_ds.select_columns(["a", "b"]).materialize()
    P, S = _lp_partitions(edges.count())

    def explode(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [batch.column("a").combine_chunks(), batch.column("b").combine_chunks()]
                ),
                "nbr": pa.concat_arrays(
                    [batch.column("b").combine_chunks(), batch.column("a").combine_chunks()]
                ),
            }
        )

    # coalesce to ~P blocks (shuffle=False = local merge, no exchange):
    # without this, every union/groupby round INHERITS its input block
    # count and the per-round block census multiplies (~3x/round
    # measured) until scheduling overhead dominates — the round-4
    # "90 s fixed per round" was partly this.
    adj = (edges.map_batches(explode, batch_format="pyarrow")
           .repartition(P, shuffle=False).materialize())
    # initial labels: node -> node, via the shared partitioned distinct
    # (node-cardinality keys must never go through per-key aggregates)
    labels = partition_distinct(
        adj.map_batches(lambda t: pa.table({"node": t.column("node")}),
                        batch_format="pyarrow"),
        ["node"], key_col="node", partitions=P,
        then=lambda g: g[["node"]].assign(lbl=g["node"]),
    ).repartition(P, shuffle=False).materialize()

    for _ in range(max_rounds):
        # 1. co-locate each node's label row with its adjacency rows
        def tag_part(lab: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
            # per-node current label (exactly one label row per node,
            # co-located by the partition hash)
            m = lab.groupby("node", sort=False)["lbl"].min()
            cand = m.reindex(e["node"]).to_numpy()
            return pd.DataFrame(
                {"nbr": e["nbr"].tolist() + m.index.tolist(),
                 "cand": list(cand) + m.tolist(),
                 "old": [""] * len(e) + m.tolist()}
            )

        cands = partition_join([(labels, "node"), (adj, "node")], tag_part, P)

        def min_part(g: pd.DataFrame) -> pd.DataFrame:
            agg = (g.groupby("nbr", sort=False)
                   .agg(lbl=("cand", "min"), old=("old", "max"))
                   .reset_index())
            return agg.rename(columns={"nbr": "node"})

        new_labels = (partition_reduce(cands, "nbr", min_part, P)
                      .repartition(P, shuffle=False).materialize())
        # convergence: remote per-batch partials, one scalar on the driver
        n_changed = new_labels.map_batches(
            lambda df: pd.DataFrame(
                {"c": [int((df["lbl"] != df["old"]).sum())]}),
            batch_format="pandas",
        ).sum("c")
        labels = new_labels.select_columns(["node", "lbl"])
        if not n_changed:
            return labels
        labels = (_pointer_jump(labels, P, S)
                  .repartition(P, shuffle=False).materialize())
    raise RuntimeError(
        f"bucketed label propagation did not converge in {max_rounds} "
        f"rounds; with per-round pointer jumping rounds are "
        f"O(log component-diameter), so this graph is pathological — "
        f"raise max_rounds")
