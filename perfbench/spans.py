"""In-memory span tracer and the layer wrappers of the traced run.

A span is (name, start, end, parent).  Spans are recorded from the
benchmark's side only: ``layer_patches`` swaps each layer's public
function, in the module namespace its caller looks it up in, for a
wrapper that opens a span, calls the original, materializes a Dataset
result (so the layer's work lands inside its own span) and then takes
the layer's counts.  Count-taking runs under ``Tracer.bookkeeping`` and
is subtracted from the traced wall time.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

from kawa_ray.stages.scoring import PairScorer

# the tracer of the traced iteration; None everywhere else (including
# every Ray worker process, which imports this module afresh)
ACTIVE: "Tracer | None" = None

EXCHANGE_METHODS = ("groupby", "repartition", "sort", "random_shuffle")
BOOKKEEPING = "bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.bookkeeping_s = 0.0
        self.in_map_groups = False

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    @contextlib.contextmanager
    def bookkeeping(self):
        """Count-taking: a BOOKKEEPING span, so it is no enclosing layer's
        self time, and summed into ``bookkeeping_s``."""
        t = time.perf_counter()
        try:
            with self.span(BOOKKEEPING):
                yield
        finally:
            self.bookkeeping_s += time.perf_counter() - t

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def self_times(self) -> dict[str, float]:
        """Layer name -> summed self time (span minus its children)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] != BOOKKEEPING:
                out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)


class TracedPairScorer(PairScorer):
    """PairScorer whose calls on the driver (the inline graph phase) are
    spans; in worker processes ``ACTIVE`` is None and it is a plain
    PairScorer."""

    def __call__(self, batch):
        tr = ACTIVE
        if tr is None:
            return super().__call__(batch)
        with tr.span("score"):
            out = super().__call__(batch)
        with tr.bookkeeping():
            _count_scored(tr, out.to_pandas(), self.cfg.edge_threshold)
        return out


def _count_scored(tr: Tracer, df, threshold: float) -> None:
    tr.add("score.pairs", len(df))
    tr.add("score.edges", int((df["score"] >= threshold).sum()) if len(df) else 0)


def _materialized(ds):
    import ray.data as rd

    return ds.materialize() if isinstance(ds, rd.Dataset) else ds


def _wrap(tr: Tracer, name: str, fn, count=None):
    """Span around ``fn``; a Dataset result is materialized inside the
    span; ``count(result, args, kwargs)`` runs as bookkeeping."""
    def wrapper(*args, **kwargs):
        with tr.span(name):
            out = _materialized(fn(*args, **kwargs))
        if count is not None:
            with tr.bookkeeping():
                count(out, args, kwargs)
        return out

    return wrapper


def layer_patches(tr: Tracer, cfg) -> list[tuple[object, str, object]]:
    """(module, attribute, replacement) for every traced layer call."""
    import ray.data as rd
    from ray.data.grouped_data import GroupedData

    from kawa_ray.pipelines import linkage, linkage_ckpt
    from kawa_ray.stages import pairs

    def c_read(ds, a, k):
        tr.add("read.rows", ds.count())
        tr.add("read.bytes", ds.size_bytes())

    def c_extract(ds, a, k):
        tr.add("extract.rows", ds.count())
        tr.add("extract.text_bytes", ds.size_bytes())

    def c_detect(ds, a, k):
        tr.add("detect.mentions", ds.count())
        tr.add("detect.pool_actors", k.get("concurrency", 0))

    def c_nodes(ds, a, k):
        tr.add("nodes.out", ds.count())
        tr.add("nodes.partials",
               a[0].map_batches(linkage.partial_node_agg,
                                batch_format="pyarrow").count())

    def c_keygen(tbl, a, k):
        df = tbl.to_pandas()
        mass = df.groupby("block_key")["n_mentions"].sum()
        hot = mass[(mass > cfg.hot_key_threshold)
                   & ~mass.index.str.startswith("kb:")]
        tr.add("keygen.rows", len(df))
        tr.add("keygen.distinct_keys", len(mass))
        tr.add("keygen.hot_keys", len(hot))

    def c_explode(df, a, k):
        max_pairs = a[1] if len(a) > 1 else k["max_pairs"]
        per_block = df.groupby("block_key").size()
        tr.add("pairs.exploded", len(df))
        tr.add("pairs.capped_blocks", int((per_block >= max_pairs).sum()))

    def c_pairs(out, a, k):
        tr.add("pairs.out", len(out))

    def candidate_pairs(fn):
        # its driver path counts inside _pairs_driver_df; count here only
        # what the distributed path produced
        def wrapper(*args, **kwargs):
            before = tr.counts.get("pairs.out", 0)
            with tr.span("pairs"):
                out = _materialized(fn(*args, **kwargs))
            if tr.counts.get("pairs.out", 0) == before:
                with tr.bookkeeping():
                    tr.add("pairs.out", out.count())
            return out
        return wrapper

    def c_score_ds(ds, a, k):
        _count_scored(tr, ds.select_columns(["score"]).to_pandas(),
                      cfg.edge_threshold)

    def c_closure(cmap, a, k):
        edges = a[0] if a else k["edges"]
        if isinstance(edges, list):
            tr.add("closure.edges", len(edges))
        tr.add("closure.clusters", len(set(cmap.values())))

    def c_manifest(manifest: dict) -> None:
        parts = manifest.get("partitions", {}).values()
        tr.add("ckpt.parts", len(parts))
        tr.add("ckpt.bytes_written", sum(p["bytes"] for p in parts))

    def ckpt_stage(fn):
        # one span per checkpointed stage, named after the stage argument
        def wrapper(*args, **kwargs):
            stage = args[1] if len(args) > 1 else kwargs["stage"]
            with tr.span(f"ckpt.{stage}"):
                out = fn(*args, **kwargs)
            with tr.bookkeeping():
                c_manifest(out)
            return out
        return wrapper

    def graph_stage(fn):
        def wrapper(*args, **kwargs):
            with tr.span("ckpt.graph"):
                out = fn(*args, **kwargs)
            with tr.bookkeeping():
                out_root = args[0] if args else kwargs["out_root"]
                with open(os.path.join(out_root, "graph", "_manifest.json")) as f:
                    c_manifest(json.load(f))
            return out
        return wrapper

    def census(name):
        def deco(fn):
            def wrapper(*args, **kwargs):
                with tr.span(f"census.{name}"):
                    return fn(*args, **kwargs)
            return wrapper
        return deco

    def exchange(fn):
        # one count per all-to-all exchange the program asks Ray for;
        # the sort/repartition that map_groups issues for its own
        # groupby is not a second exchange
        def wrapper(self, *args, **kwargs):
            if not tr.in_map_groups:
                tr.add("exchange.calls", 1)
            return fn(self, *args, **kwargs)
        return wrapper

    def map_groups(fn):
        def wrapper(self, *args, **kwargs):
            tr.in_map_groups = True
            try:
                return fn(self, *args, **kwargs)
            finally:
                tr.in_map_groups = False
        return wrapper

    patches = [
        (linkage, "read_pages", _wrap(tr, "read", linkage.read_pages, c_read)),
        (linkage, "extract_stage", _wrap(tr, "extract", linkage.extract_stage, c_extract)),
        (linkage, "mention_stage", _wrap(tr, "detect", linkage.mention_stage, c_detect)),
        (linkage, "build_nodes", _wrap(tr, "nodes", linkage.build_nodes, c_nodes)),
        (linkage, "node_block_keys",
         _wrap(tr, "keygen", linkage.node_block_keys, c_keygen)),
        (pairs, "explode_partition",
         _wrap(tr, "pairs", pairs.explode_partition, c_explode)),
        (linkage, "_pairs_driver_df", _wrap(tr, "pairs", linkage._pairs_driver_df, c_pairs)),
        (linkage, "candidate_pairs", candidate_pairs(linkage.candidate_pairs)),
        (linkage, "PairScorer", TracedPairScorer),
        (linkage, "score_pairs", _wrap(tr, "score", linkage.score_pairs, c_score_ds)),
        (linkage, "union_find_components",
         _wrap(tr, "closure", linkage.union_find_components, c_closure)),
        (linkage, "cluster_norms",
         _wrap(tr, "closure", linkage.cluster_norms)),
        (linkage_ckpt, "run_sharded_stage", ckpt_stage(linkage_ckpt.run_sharded_stage)),
        (linkage_ckpt, "_graph_stage", graph_stage(linkage_ckpt._graph_stage)),
    ]
    if "kawa_ray.pipelines.docs" in sys.modules:
        # census workload only: importing pages_ops builds its oracle SQL,
        # which generates a pages corpus
        from kawa_ray.pipelines import docs, pages_ops

        patches += [
            (pages_ops, "line_dedup_census",
             census("line_dedup")(pages_ops.line_dedup_census)),
            (pages_ops, "paragraph_neardup_census",
             census("paragraph_neardup")(pages_ops.paragraph_neardup_census)),
            (docs, "minhash_dedup_docs",
             census("minhash_dedup")(docs.minhash_dedup_docs)),
        ]
    patches += [(rd.Dataset, m, exchange(getattr(rd.Dataset, m)))
                for m in EXCHANGE_METHODS]
    patches.append((GroupedData, "map_groups", map_groups(GroupedData.map_groups)))
    return patches


@contextlib.contextmanager
def traced(cfg):
    """Install the layer wrappers for one traced iteration; yields the
    Tracer and restores every original on exit."""
    global ACTIVE
    tr = Tracer()
    patches = layer_patches(tr, cfg)
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, new in patches:
        setattr(mod, attr, new)
    ACTIVE = tr
    try:
        yield tr
    finally:
        ACTIVE = None
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)
