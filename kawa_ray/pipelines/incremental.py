"""Incremental linkage: fold NEW pages into an existing linkage state
without recomputing old-old work — the streaming-shaped path (the
reference's KB intends incremental updates via set_word/indexer
re-index, /root/reference/ontology/ontology_kb.py:682-1057,1557-1581;
here state is an immutable snapshot per increment, no in-place
mutation — SURVEY.md §2.5 K3 mapping).

State between increments (small, distinct-surface sized)::

    {"nodes": {norm: n_mentions}, "norm2cluster": {norm: cluster}}

Per increment:
  1. detect mentions on the new pages only (the corpus-sized work);
  2. merge node counts (old + new);
  3. regenerate candidate pairs ONLY for blocks containing >= 1 new
     norm (block membership is monotone, so old-only blocks were fully
     paired by earlier increments);
  4. score the new pairs, add edges to the union-find seeded with the
     previous cluster assignments.

With the block-size cap and hot-key salting disabled the increments are
EXACTLY equivalent to one full rebuild (asserted in
tests/test_incremental.py); with caps enabled the pair subsets can
differ (caps bind per increment) — same trade the salting spec already
documents (SURVEY.md §7.6).
"""

from __future__ import annotations

from itertools import chain

import pandas as pd
import pyarrow as pa

import ray.data as rd

from kawa_ray.config import LinkageConfig
from kawa_ray.stages.blocking import block_keys_for, node_block_keys, salt_block_keys
from kawa_ray.stages.clustering import union_find_components
from kawa_ray.stages.pairs import explode_partition
from kawa_ray.stages.scoring import PairScorer


def empty_state() -> dict:
    return {"nodes": {}, "norm2cluster": {}}


def link_increment(state: dict, pages_dir: str,
                   cfg: LinkageConfig | None = None,
                   n_entities: int = 300) -> dict:
    """Fold one corpus increment into ``state``; returns the new state
    (plus ``mentions`` for inspection).  The old state is not mutated."""
    from kawa_ray.pipelines.linkage import (
        build_nodes,
        default_artifacts,
        detect_mentions,
        kb_alias_lookup,
        read_pages,
    )

    cfg = cfg or LinkageConfig()
    lexicon, embed_obj = default_artifacts(n_entities)
    ent_of = kb_alias_lookup(embed_obj, n_entities) if cfg.kb_blocking else None

    mentions = detect_mentions(read_pages(pages_dir), cfg, lexicon, n_entities).materialize()
    new_counts_df = build_nodes(mentions).materialize().to_pandas()
    new_counts = dict(zip(new_counts_df["norm"], new_counts_df["n_mentions"]))

    # merged node table (old + new mention mass)
    nodes = dict(state["nodes"])
    for norm, n in new_counts.items():
        nodes[norm] = nodes.get(norm, 0) + int(n)
    new_norms = {n for n in new_counts if n not in state["nodes"]}

    # keyed table over ALL nodes; census/salting on the merged masses
    nodes_tbl = pa.table(
        {"norm": list(nodes), "n_mentions": pa.array(list(nodes.values()), pa.int64())}
    )
    keyed = node_block_keys(nodes_tbl, cfg, ent_of).to_pandas()
    sizes = keyed.groupby("block_key", sort=False)["n_mentions"].sum()
    hot = {k: int(v) for k, v in sizes.items() if v > cfg.hot_key_threshold}
    keyed = salt_block_keys(keyed, hot, cfg.n_salts)

    # only blocks touched by a new norm need (re-)pairing
    touched = set(keyed.loc[keyed["norm"].isin(new_norms), "block_key"])
    keyed_touched = keyed[keyed["block_key"].isin(touched)]
    pairs = explode_partition(keyed_touched, cfg.max_pairs_per_block)
    pairs = pairs.drop_duplicates(subset=["a", "b"])
    # old-old pairs inside touched blocks were already scored in earlier
    # increments; keep only pairs with >= 1 new endpoint
    mask = pairs["a"].isin(new_norms) | pairs["b"].isin(new_norms)
    pairs = pairs[mask]

    edges: list[tuple[str, str]] = []
    if len(pairs):
        scorer = PairScorer(embed_obj=embed_obj, cfg=cfg, ent_of=ent_of)
        sdf = scorer(pa.Table.from_pandas(pairs.reset_index(drop=True))).to_pandas()
        keep = sdf["score"] >= cfg.edge_threshold
        edges = list(zip(sdf.loc[keep, "a"], sdf.loc[keep, "b"]))

    # union-find seeded with previous assignments (cluster label = member)
    norm2cluster = union_find_components(
        chain(state["norm2cluster"].items(), edges), nodes)

    return {
        "nodes": nodes,
        "norm2cluster": norm2cluster,
        "mentions": mentions,
        "n_new_pairs": int(len(pairs)),
    }
