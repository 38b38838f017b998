"""The flagship pipeline: read -> extract -> detect -> block -> pair ->
score -> cluster (SURVEY.md §7.1).

Every stage is a Ray Data transform; the only driver-side materialised
objects are node/edge tables in the **distinct-surface space** (bounded
by lexicon size, not corpus size) and the final norm->cluster map that
is broadcast back.  The ``html`` payload column never crosses a shuffle.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from kawa_ray.config import LinkageConfig
from kawa_ray.sources.roster import alias_embedding_table, build_roster, roster_word2ner
from kawa_ray.stages.blocking import node_block_keys, partial_node_agg, salt_block_keys
from kawa_ray.stages.extract import extract_stage
from kawa_ray.stages.mentions import mention_stage
# union_find_components is no longer called here; the name stays
# importable because perfbench's traced run patches it on this module
from kawa_ray.stages.clustering import closure_labels, union_find_components  # noqa: F401
from kawa_ray.stages import scoring
from kawa_ray.stages.scoring import PairScorer
from kawa_ray.state.lexicon import LexiconIndex

_ARTIFACT_CACHE: dict[str, object] = {}


def _pool_size(requested: int) -> int:
    """Actor-pool size that always leaves CPUs for upstream read/task
    operators — a pool that reserves every CPU starves the producers and
    the pipeline stalls (ray_guide 'Stateful stages').  The reserve is
    sized to the cluster (1 CPU up to 8, 2 above): a flat reserve of 2
    left only 50% of a 4-CPU cluster detecting, which showed up as fake
    super-linear 4->16 scaling (detect-CPU-normalised throughput was
    equal at 4 and 8 CPUs — BASELINE.md round-4 analysis)."""
    try:
        total = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        total = 4
    reserve = 1 if total <= 8 else 2
    return max(1, min(requested, total - reserve))


def default_artifacts(n_entities: int = 300):
    """(lexicon, embedding artifact) built from the fixture roster; cached
    per process (mirrors the reference's class-level lexicon cache)."""
    key = f"roster-{n_entities}"
    if key not in _ARTIFACT_CACHE:
        roster = build_roster(n_entities)
        lex = LexiconIndex.build(roster_word2ner(roster))
        embed = alias_embedding_table(roster)
        _ARTIFACT_CACHE[key] = (lex, embed)
    return _ARTIFACT_CACHE[key]


def kb_alias_lookup(embed_obj=None, n_entities: int = 300) -> dict[str, int]:
    """KB alias dictionary (norm -> entity id) for the kb: blocking
    channel and the dictionary-identity edge rule.  Derived from the KB
    alias table; when the given artifact carries no entity ids (the
    context-E1 artifact), falls back to the fixture KB — blocking always
    runs on the dictionary, scoring on whichever embedding channel the
    config selects."""
    if embed_obj is not None:
        norm2row, _m, ents = embed_obj
        if len(ents) == len(norm2row):
            return {n: int(ents[r]) for n, r in norm2row.items()}
    key = f"entof-{n_entities}"
    if key not in _ARTIFACT_CACHE:
        _, embed = default_artifacts(n_entities)
        norm2row, _m, ents = embed
        _ARTIFACT_CACHE[key] = {n: int(ents[r]) for n, r in norm2row.items()}
    return _ARTIFACT_CACHE[key]


def read_pages(pages_dir: str) -> rd.Dataset:
    """Column-pruned read: the pipeline needs url/html/lang only (the
    golden ``text`` column stays in storage)."""
    return rd.read_parquet(os.path.join(pages_dir, "pages"), columns=["url", "html", "lang"])


def detect_mentions(pages_ds: rd.Dataset, cfg: LinkageConfig | None = None,
                    lexicon: LexiconIndex | None = None,
                    n_entities: int = 300) -> rd.Dataset:
    """S1+S2: pages -> mentions Dataset.  Detection actors carry the
    per-language exact lexicons (reference {lang}.json resources) as the
    highest-precedence lookup layer."""
    from kawa_ray.state.lang_resources import target_lexicons_by_lang

    cfg = cfg or LinkageConfig()
    if lexicon is None:
        lexicon, _ = default_artifacts(n_entities)
    lex_ref = ray.put(lexicon.to_bytes())
    texts = extract_stage(pages_ds)
    return mention_stage(
        texts, lex_ref, batch_size=cfg.detect_batch_size,
        concurrency=_pool_size(cfg.detect_concurrency),
        lang_lexicons=target_lexicons_by_lang(n_entities),
    )


def build_nodes(mentions: rd.Dataset, driver_threshold: int = 2_000_000) -> rd.Dataset:
    """Mentions -> distinct-norm nodes with mention counts.  Pre-aggregated
    per batch so only (norm, partial count) rows leave the map side (the
    combiner bounds hot-key skew).  The combiner output lives in
    distinct-norms x blocks space — usually tiny relative to the corpus —
    so below ``driver_threshold`` rows the final merge runs once on the
    driver; above it, a hash-partitioned merge (norm is distinct-surface
    cardinality, so a per-distinct-key Ray aggregate would pay the
    ~2 ms/key dispatch cost — the stages/distinct.py rule)."""
    from kawa_ray.stages.distinct import partition_reduce

    partials = mentions.map_batches(partial_node_agg, batch_format="pyarrow").materialize()
    if partials.count() <= driver_threshold:
        df = partials.to_pandas()
        out = df.groupby("norm", sort=False, as_index=False)["n"].sum()
        out = out.rename(columns={"n": "n_mentions"})
        return rd.from_pandas(out)
    return partition_reduce(
        partials, "norm",
        lambda g: (g.groupby("norm", sort=False, as_index=False)["n"].sum()
                   .rename(columns={"n": "n_mentions"})),
    )


def candidate_pairs(nodes: rd.Dataset, cfg: LinkageConfig,
                    partitions: int | None = None,
                    ent_of: dict[str, int] | None = None) -> rd.Dataset:
    """S3+S4: nodes -> deduped candidate pairs (a < b).

    Both wide steps shuffle on a HASH PARTITION of their key (block_key /
    pair_key) rather than the raw key: the shuffle moves the same rows,
    but downstream work runs once per partition with an in-batch pandas
    groupby instead of once per distinct key (per-group dispatch overhead
    dominated this stage at 10k+ block keys)."""
    from kawa_ray.functions.minhash import hash64
    from kawa_ray.stages.pairs import explode_partition

    n_nodes = nodes.count()
    if n_nodes <= cfg.driver_pair_threshold:
        # the node table is distinct-surface sized; below the threshold
        # keygen + census/salt/explode/dedup all fit on the driver and
        # three tiny shuffles would cost more than the work itself.
        # Same helper functions as the distributed path -> identical pairs
        # (asserted in tests/test_linkage_e2e.py::test_pair_paths_agree).
        nodes_tbl = pa.concat_tables(
            [b for b in nodes.iter_batches(batch_format="pyarrow", batch_size=65536)]
        )
        return rd.from_pandas(_pairs_driver_df(node_block_keys(nodes_tbl, cfg, ent_of), cfg))
    # size the block count to the data so the blocking/pair shuffles
    # don't pay per-block overhead on near-empty partitions
    nodes = nodes.repartition(max(1, min(64, n_nodes // 2048 + 1)))
    # ent_of rides the task closure: it is KB-alias-dictionary sized
    # (bounded by the KB, not the corpus); a multi-GB KB would move to an
    # explicit ray.put ref like the lexicon does
    keyed = nodes.map_batches(
        lambda b: node_block_keys(b, cfg, ent_of), batch_format="pyarrow"
    ).materialize()  # reused by the census AND the explode below
    n_keyed = keyed.count()
    if partitions is None:
        # one partition per ~4k key rows, capped at 2x cluster CPUs: enough
        # spread for balance, few enough reduce tasks that per-task overhead
        # stays off the critical path on small inputs
        try:
            cpus = int(ray.cluster_resources().get("CPU", 4))
        except Exception:
            cpus = 4
        partitions = max(1, min(2 * cpus, n_keyed // 4096 + 1))
    # first-pass block-size census: block_key is data-cardinality, so it
    # goes through the hash-partitioned reduce (never a per-key Ray
    # aggregate); only the hot rows (> threshold, a tiny set) leave it
    from kawa_ray.stages.distinct import partition_reduce

    def _hot_blocks(g: pd.DataFrame) -> pd.DataFrame:
        s = (g.groupby("block_key", sort=False, as_index=False)["n_mentions"]
             .sum().rename(columns={"n_mentions": "members"}))
        return s[s["members"] > cfg.hot_key_threshold]

    hot = {
        r["block_key"]: int(r["members"])
        for r in partition_reduce(keyed, "block_key", _hot_blocks,
                                  partitions=partitions).take_all()
    }

    from kawa_ray.stages.distinct import route_parts

    def salt(batch: pd.DataFrame, _p=partitions) -> pd.DataFrame:
        out = salt_block_keys(batch, hot, cfg.n_salts)
        out["part"] = route_parts(out["block_key"], _p)
        return out

    keyed = keyed.map_batches(salt, batch_format="pandas")
    pairs = keyed.groupby("part").map_groups(
        lambda g: explode_partition(g, cfg.max_pairs_per_block), batch_format="pandas"
    )

    # exact pair dedup: hash-partition on canonical pair key, keep first
    def pair_parts(df: pd.DataFrame, _p=partitions) -> pd.DataFrame:
        pk = df["a"] + "\x00" + df["b"]
        return df.assign(pair_key=pk, part=route_parts(pk, _p))

    pairs = pairs.map_batches(pair_parts, batch_format="pandas")
    pairs = pairs.groupby("part").map_groups(
        lambda g: g.drop_duplicates("pair_key"), batch_format="pandas"
    )
    return pairs.select_columns(["a", "b", "block_key"])


def _pairs_driver_df(keyed, cfg: LinkageConfig) -> pd.DataFrame:
    """Small-side pair generation: identical semantics to the distributed
    path, executed once on the driver (census -> salt -> explode -> dedup
    with the same helpers).  ``keyed``: Dataset or pyarrow Table."""
    from kawa_ray.stages.pairs import explode_partition

    df = keyed.to_pandas()
    sizes = df.groupby("block_key", sort=False)["n_mentions"].sum()
    hot = {k: int(v) for k, v in sizes.items() if v > cfg.hot_key_threshold}
    df = salt_block_keys(df, hot, cfg.n_salts)
    pairs = explode_partition(df, cfg.max_pairs_per_block)
    pairs = pairs.drop_duplicates(subset=["a", "b"])
    return pairs[["a", "b", "block_key"]]


def score_pairs(pairs: rd.Dataset, cfg: LinkageConfig,
                embed_obj=None, ent_of: dict[str, int] | None = None) -> rd.Dataset:
    """S5: attach jw/lev/cos/score columns.  Up to
    ``cfg.driver_pair_threshold`` pairs one in-process ``PairScorer``
    call scores them (starting an actor pool costs more than the work);
    above it the scoring actor pool runs."""
    if embed_obj is None:
        _, embed_obj = default_artifacts()
    pairs = pairs.materialize()
    if pairs.count() <= cfg.driver_pair_threshold:
        # the class itself, not the module-level PairScorer name, which
        # perfbench's traced run swaps for a subclass that counts its
        # calls a second time
        scorer = scoring.PairScorer(embed_obj=embed_obj, cfg=cfg, ent_of=ent_of)
        # arrow refs, not to_pandas: an empty Dataset keeps its schema
        tbl = pa.concat_tables(ray.get(pairs.to_arrow_refs()))
        return rd.from_arrow(scorer(tbl))
    embed_ref = ray.put(embed_obj)
    return pairs.map_batches(
        PairScorer,
        fn_constructor_kwargs={"embed_ref": embed_ref, "cfg": cfg, "ent_of": ent_of},
        batch_format="pyarrow",
        batch_size=cfg.score_batch_size,
        # autoscaling pool: tiny pair streams spin up one actor, big ones N
        concurrency=(1, _pool_size(cfg.score_concurrency)),
    )


def cluster_norms(scored: rd.Dataset, nodes: rd.Dataset, cfg: LinkageConfig) -> dict[str, str]:
    """S6: edges above threshold -> norm -> cluster id.  The closure runs
    through ``closure_labels``; a norm with no edge is its own cluster."""
    edges = scored.filter(expr=f"score >= {cfg.edge_threshold}")
    norm2cluster: dict[str, str] = {}
    # batches, not to_pandas: an empty Dataset converts to a frame
    # without columns
    for b in closure_labels(edges).iter_batches(batch_format="pandas",
                                                batch_size=None):
        norm2cluster.update(zip(b["node"], b["lbl"]))
    # no select_columns: a projection costs a Ray execution, while a
    # materialized nodes table converts to pandas as it stands
    for n in nodes.to_pandas()["norm"]:
        norm2cluster.setdefault(n, n)
    return norm2cluster


def link_pages(pages_dir: str, cfg: LinkageConfig | None = None,
               n_entities: int = 300):
    """End-to-end linkage.  Returns dict with datasets + the cluster map:
    ``mentions`` (Dataset), ``clusters`` (Dataset: mention_id, url, norm,
    entity_cluster), ``norm2cluster`` (dict), ``n_pairs`` (int)."""
    cfg = cfg or LinkageConfig()
    lexicon, embed_obj = default_artifacts(n_entities)
    # KB channel from the fixture alias table (captured BEFORE the context
    # branch may swap the scoring artifact)
    ent_of = kb_alias_lookup(embed_obj, n_entities) if cfg.kb_blocking else None
    pages = read_pages(pages_dir)

    def pin_or_spill(ds: rd.Dataset, tag: str) -> rd.Dataset:
        """A multi-consumer corpus-sized stream (the mention stream
        feeding nodes AND the final attach; the context branch's
        extracted texts feeding embedding AND detection): below
        ``mention_spill_pages`` pin it in the object store; above, write
        per-partition parquet under /tmp and re-read — consumers then
        STREAM from disk instead of holding a corpus-sized intermediate
        (linkage_ckpt's shape, defaulted for big inputs)."""
        n_pages = pages.count()  # parquet metadata, no scan
        if n_pages <= cfg.mention_spill_pages:
            return ds.materialize()
        import shutil
        import tempfile
        import time

        from kawa_ray.pipelines.linkage_ckpt import config_fingerprint

        root = os.path.join(tempfile.gettempdir(), "kawa_ray_mention_spill")
        os.makedirs(root, exist_ok=True)
        # best-effort GC of spills from finished runs (consumers stream
        # from the dir lazily after link_pages returns, so a run cannot
        # delete its own spill at exit; age is the safe proxy)
        cutoff = time.time() - 24 * 3600
        for d in os.listdir(root):
            p = os.path.join(root, d)
            try:
                if os.path.getmtime(p) < cutoff:
                    shutil.rmtree(p, ignore_errors=True)
            except OSError:
                pass
        # unique dir PER RUN (mkdtemp): two concurrent same-config runs
        # must never rmtree a spill the other is still streaming from
        fp = config_fingerprint(cfg, n_entities, pages_dir)
        spill = tempfile.mkdtemp(prefix=f"{tag}-{fp}-", dir=root)
        ds.write_parquet(spill)
        return rd.read_parquet(spill)
    if cfg.embedding_source == "context":
        # E1: span-pooled corpus context vectors (model encoder when
        # transformers is installed, FixtureEncoder otherwise) replace
        # the roster alias table in the scoring channel.  S1 extraction
        # runs ONCE: the materialised texts feed both the embedding
        # pass and mention detection.
        from kawa_ray.state.lang_resources import target_lexicons_by_lang
        from kawa_ray.stages.embedding import context_embedding_artifact

        texts = pin_or_spill(extract_stage(pages), "texts")
        embed_obj = context_embedding_artifact(
            None, lexicon, concurrency=_pool_size(cfg.detect_concurrency),
            texts_ds=texts,
        )
        lex_ref = ray.put(lexicon.to_bytes())
        mentions = pin_or_spill(mention_stage(
            texts, lex_ref, batch_size=cfg.detect_batch_size,
            concurrency=_pool_size(cfg.detect_concurrency),
            lang_lexicons=target_lexicons_by_lang(n_entities),
        ), "mentions")
    else:
        mentions = pin_or_spill(
            detect_mentions(pages, cfg, lexicon, n_entities), "mentions")
    nodes = build_nodes(mentions).materialize()
    pairs = candidate_pairs(nodes, cfg, ent_of=ent_of)
    scored = score_pairs(pairs, cfg, embed_obj, ent_of=ent_of).materialize()
    norm2cluster = cluster_norms(scored, nodes, cfg)
    n_pairs = scored.count()
    c_ref = ray.put(norm2cluster)

    def attach(batch: pa.Table, _ref=c_ref) -> pa.Table:
        cmap = ray.get(_ref)
        norms = batch.column("norm").to_pylist()
        clusters = [cmap.get(n, n) for n in norms]
        return pa.table(
            {
                "mention_id": batch.column("mention_id"),
                "url": batch.column("url"),
                "norm": batch.column("norm"),
                "entity_cluster": pa.array(clusters, pa.string()),
            }
        )

    clusters = mentions.map_batches(attach, batch_format="pyarrow")
    return {
        "mentions": mentions,
        "clusters": clusters,
        "norm2cluster": norm2cluster,
        "n_pairs": n_pairs,
    }
