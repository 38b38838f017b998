"""End-to-end flagship pipeline: golden-cluster pairwise F1 >= 0.99
(north rule), mention recall, determinism across parallelism."""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from kawa_ray.config import LinkageConfig
from kawa_ray.eval.pairwise import gold_labeled_pairs, pairwise_f1
from kawa_ray.sources.pages import ensure_pages


def _sorted_clusters(res) -> pd.DataFrame:
    return (res["clusters"].to_pandas().sort_values("mention_id")
            .reset_index(drop=True))


@pytest.fixture(scope="module")
def linked(ray_session):
    from kawa_ray.pipelines.linkage import link_pages

    d = ensure_pages("0.001")
    res = link_pages(d)
    gold = pq.read_table(os.path.join(d, "gold_mentions.parquet"))
    return d, res, gold


def test_mention_spill_path_identical(linked):
    """Above mention_spill_pages the mention stream round-trips through
    per-partition parquet instead of the object store; clusters must be
    byte-identical to the in-memory run."""
    from dataclasses import replace

    from kawa_ray.pipelines.linkage import link_pages

    d, res, _ = linked
    spilled = link_pages(d, replace(LinkageConfig(), mention_spill_pages=0))
    assert spilled["norm2cluster"] == res["norm2cluster"]
    assert spilled["mentions"].count() == res["mentions"].count()
    pd.testing.assert_frame_equal(_sorted_clusters(spilled), _sorted_clusters(res))


def test_distributed_graph_phase_identical(linked):
    """With driver_pair_threshold=0 pair generation and scoring take
    their distributed tiers (hash-partitioned shuffles, scoring actor
    pool); the clusters must equal the default driver-tier run's."""
    from dataclasses import replace

    from kawa_ray.pipelines.linkage import link_pages

    d, res, _ = linked
    dist = link_pages(d, replace(LinkageConfig(), driver_pair_threshold=0))
    assert dist["norm2cluster"] == res["norm2cluster"]
    assert dist["n_pairs"] == res["n_pairs"]
    pd.testing.assert_frame_equal(_sorted_clusters(dist), _sorted_clusters(res))


def test_pairwise_f1_meets_north_rule(linked):
    from kawa_ray.pipelines.linkage import kb_alias_lookup

    _, res, gold = linked
    cfg = LinkageConfig()
    metrics = pairwise_f1(
        gold_labeled_pairs(gold, cfg, kb_alias_lookup()), res["norm2cluster"]
    )
    assert metrics["f1"] >= 0.99, metrics
    assert metrics["precision"] >= 0.99, metrics


def test_mention_recall(linked):
    """Detection finds >= 99% of gold mentions (by (url, norm) counts)."""
    import collections

    _, res, gold = linked
    det = collections.Counter()
    for b in res["mentions"].iter_batches(batch_size=4096, batch_format="pyarrow"):
        for u, n in zip(b.column("url").to_pylist(), b.column("norm").to_pylist()):
            det[(u, n)] += 1
    want = collections.Counter(
        zip(gold.column("url").to_pylist(), gold.column("norm").to_pylist())
    )
    found = sum(min(det[k], c) for k, c in want.items())
    assert found / gold.num_rows >= 0.99


def test_clusters_dataset_covers_mentions(linked):
    _, res, _ = linked
    assert res["clusters"].count() == res["mentions"].count()
    row = res["clusters"].take(1)[0]
    assert set(row) == {"mention_id", "url", "norm", "entity_cluster"}


def test_hot_key_salting_applied(ray_session, linked):
    """The hot surface ("smith") must exceed the hot threshold and its
    blocks must appear salted in the pair table keys."""
    d, res, gold = linked
    norms = gold.column("norm").to_pylist()
    assert norms.count("smith") > LinkageConfig().hot_key_threshold


def test_union_find_matches_label_propagation(ray_session):
    import ray.data as rd

    from kawa_ray.stages.clustering import (
        label_propagation_components_bucketed,
        union_find_components,
    )

    edges = [("a", "b"), ("b", "c"), ("d", "e"), ("f", "f")]
    uf = union_find_components(edges)
    ds = rd.from_items([{"a": a, "b": b} for a, b in edges])
    lp = {r["node"]: r["lbl"]
          for r in label_propagation_components_bucketed(ds).take_all()}
    for n in ("a", "b", "c", "d", "e"):
        for m in ("a", "b", "c", "d", "e"):
            assert (uf[n] == uf[m]) == (lp[n] == lp[m]), (n, m)


def test_pair_paths_agree(ray_session):
    """Driver-side (small-side) and distributed pair generation must emit
    identical pair sets — same census/salt/explode/dedup helpers."""
    from dataclasses import replace

    from kawa_ray.config import LinkageConfig
    from kawa_ray.pipelines.linkage import (
        build_nodes, candidate_pairs, default_artifacts, detect_mentions,
        kb_alias_lookup, read_pages,
    )
    from kawa_ray.sources.pages import ensure_pages

    pages_dir = ensure_pages("0.001")
    cfg = LinkageConfig()
    lexicon, _ = default_artifacts()
    mentions = detect_mentions(read_pages(pages_dir), cfg, lexicon).materialize()
    nodes = build_nodes(mentions).materialize()

    ent_of = kb_alias_lookup()
    driver = candidate_pairs(nodes, replace(cfg, driver_pair_threshold=10**9), ent_of=ent_of)
    dist = candidate_pairs(nodes, replace(cfg, driver_pair_threshold=0), ent_of=ent_of)
    d_pairs = {(r["a"], r["b"]) for r in driver.take_all()}
    x_pairs = {(r["a"], r["b"]) for r in dist.take_all()}
    assert d_pairs == x_pairs and len(d_pairs) > 0


def test_graph_phase_without_pairs(ray_session):
    """Norms that share no block key give zero candidate pairs; scoring
    and closure must pass the empty set through and leave every norm its
    own cluster."""
    import ray.data as rd

    from kawa_ray.pipelines.linkage import candidate_pairs, cluster_norms, score_pairs

    cfg = LinkageConfig()
    nodes = rd.from_pandas(pd.DataFrame({"norm": ["zzqx", "yyqw"],
                                         "n_mentions": [1, 1]})).materialize()
    pairs = candidate_pairs(nodes, cfg)
    assert pairs.count() == 0
    scored = score_pairs(pairs, cfg).materialize()
    assert cluster_norms(scored, nodes, cfg) == {"zzqx": "zzqx", "yyqw": "yyqw"}


def test_regex_ner_fires_on_corpus(ray_session):
    """Corpus v2 embeds PII spans in ~20% of pages; the B14 regex
    extractors must surface them as (non-linkable) mentions."""
    from kawa_ray.pipelines.er_queries import er_mention_stats

    stats = er_mention_stats("/root/testdata/sf0.001")
    labels = set(stats["label"])
    for lab in ("EMAIL_ADDRESS", "PHONE_NUMBER", "IP_ADDRESS", "PRICE"):
        assert lab in labels, lab


def test_bucketed_label_propagation_matches_union_find(ray_session):
    """The broadcast-free CC path must produce the same components as
    driver union-find on a multi-component graph."""
    import ray.data as rd

    from kawa_ray.stages.clustering import (
        label_propagation_components_bucketed,
        union_find_components,
    )

    edges = [("b", "c"), ("a", "b"), ("e", "f"), ("x", "y"), ("y", "z"), ("c", "d")]
    ds = rd.from_items([{"a": a, "b": b} for a, b in edges])
    got = {
        r["node"]: r["lbl"]
        for r in label_propagation_components_bucketed(ds).take_all()
    }
    want = union_find_components(edges)
    assert got == want


def test_closure_tier_boundary(ray_session, monkeypatch):
    """closure_labels has two tiers: up to ``_DRIVER_EDGE_THRESHOLD``
    edges the driver union-find, one edge more the bucketed LP, called
    exactly once.  Both give union-find's labels."""
    import ray.data as rd

    from kawa_ray.stages import clustering

    calls = []
    bucketed = clustering.label_propagation_components_bucketed

    def spy(edges_ds, *args, **kwargs):
        calls.append(edges_ds.count())
        return bucketed(edges_ds, *args, **kwargs)

    monkeypatch.setattr(clustering, "_DRIVER_EDGE_THRESHOLD", 3)
    monkeypatch.setattr(clustering, "label_propagation_components_bucketed",
                        spy)
    edges = [("b", "c"), ("a", "b"), ("x", "y"), ("y", "z")]
    for n, want_calls in ((3, []), (4, [4])):
        df = clustering.closure_labels(rd.from_items(
            [{"a": a, "b": b} for a, b in edges[:n]])).to_pandas()
        assert calls == want_calls, n
        assert dict(zip(df["node"], df["lbl"])) == \
            clustering.union_find_components(edges[:n]), n


def test_bucketed_lp_long_path_log_rounds(ray_session):
    """Round-4 VERDICT item 1: a path graph whose diameter (99) far
    exceeds the old 20-round budget must close through the BUCKETED
    tier — the only path above the driver union-find's bound — within
    ceil(log2 d) + C rounds (per-round pointer jumping; raw hash-to-min
    is O(d) and raised here before)."""
    import math

    import ray.data as rd

    from kawa_ray.stages.clustering import label_propagation_components_bucketed

    n = 100  # diameter 99 >> 20
    names = [f"n{i:04d}" for i in range(n)]
    ds = rd.from_items(
        [{"a": a, "b": b} for a, b in zip(names, names[1:])])
    max_r = math.ceil(math.log2(n - 1)) + 6  # 13 rounds; O(d) needs 99
    got = {
        r["node"]: r["lbl"]
        for r in label_propagation_components_bucketed(
            ds, max_rounds=max_r).take_all()
    }
    assert len(got) == n
    assert set(got.values()) == {"n0000"}


def test_bucketed_lp_salted_matches_union_find(ray_session, monkeypatch):
    """The bucketed tier with a pointer-jump salt S > 1 (P = 16, S = 4;
    every other LP test runs at S = 1): shortcut rows replicate once
    per salt.  A seeded random graph plus a path (so the jump emits
    shortcuts) must close to union-find's components."""
    import numpy as np
    import ray.data as rd

    from kawa_ray.stages import clustering

    monkeypatch.setattr(clustering, "_lp_partitions", lambda n_edges: (16, 4))
    rng = np.random.default_rng(11)
    pool = [f"r{i:02d}" for i in range(60)]
    edges = [(pool[a], pool[b]) for a, b in
             (rng.choice(len(pool), size=2, replace=False) for _ in range(45))]
    path = [f"p{i:02d}" for i in range(24)]
    edges += list(zip(path, path[1:]))

    df = clustering.label_propagation_components_bucketed(
        rd.from_items([{"a": a, "b": b} for a, b in edges])).to_pandas()
    assert dict(zip(df["node"], df["lbl"])) == \
        clustering.union_find_components(edges)


def test_pointer_jump_salted_one_block(ray_session):
    """``_pointer_jump`` on a one-block label table at P = 16, S = 4:
    the rewrite exchange then has fewer blocks than routes, so one
    reduce call holds several salts of a label bucket, each with its
    own copy of the shortcut rows.  The result is lbl[lbl[x]]."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from kawa_ray.stages.clustering import _pointer_jump

    rng = np.random.default_rng(5)
    nodes = [f"n{i:03d}" for i in range(200)]
    lbl = {x: nodes[int(rng.integers(0, i + 1))] for i, x in enumerate(nodes)}
    labels = rd.from_pandas(pd.DataFrame({"node": nodes,
                                          "lbl": [lbl[x] for x in nodes]}))
    df = _pointer_jump(labels, 16, 4).to_pandas()
    assert dict(zip(df["node"], df["lbl"])) == {x: lbl[lbl[x]] for x in nodes}


def test_clusters_invariant_to_batching(ray_session):
    """Cluster assignments must be identical across batch sizes /
    concurrency (the sandbox proxy for different cluster sizes —
    SURVEY.md §5.5 determinism requirement)."""
    from dataclasses import replace

    from kawa_ray.config import LinkageConfig
    from kawa_ray.pipelines.linkage import link_pages
    from kawa_ray.sources.pages import ensure_pages

    pages_dir = ensure_pages("0.001")
    a = link_pages(pages_dir, replace(LinkageConfig(), detect_batch_size=64,
                                      detect_concurrency=2))
    b = link_pages(pages_dir, replace(LinkageConfig(), detect_batch_size=512,
                                      detect_concurrency=3))
    assert a["norm2cluster"] == b["norm2cluster"]
    assert a["n_pairs"] == b["n_pairs"]


def test_detector_cache_follows_its_inputs(ray_session):
    """Detection tasks reuse one detector per worker process, keyed by a
    digest of what it is built from (lexicon, per-language lexicons,
    regex-NER switch).  The calls below change those inputs on the same
    pooled workers; each must match an in-process detector over the same
    texts, so a key that omits an input fails.  Which worker runs a task
    is up to Ray, so each step also goes through this process's cache."""
    import pyarrow as pa

    from kawa_ray.pipelines.linkage import (
        default_artifacts, detect_mentions, extract_stage, read_pages,
    )
    from kawa_ray.stages.mentions import (
        MentionDetector, detector_spec, mention_stage, worker_detector,
    )
    from kawa_ray.state.lang_resources import target_lexicons_by_lang

    d = ensure_pages("0.001")
    cfg = LinkageConfig()

    def table(ds):
        return pa.concat_tables(
            list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))

    def stage(lex, regex, lang_lex):
        return mention_stage(extract_stage(read_pages(d)), lex,
                             batch_size=cfg.detect_batch_size,
                             with_regex_ner=regex, lang_lexicons=lang_lex)

    texts = table(extract_stage(read_pages(d)))
    lex_a, _ = default_artifacts(300)
    lex_b, _ = default_artifacts(120)
    lang_a, lang_b = target_lexicons_by_lang(300), target_lexicons_by_lang(120)
    # same keys, other labels: changes the output through that layer only
    relabel = {lang: {k: ("ORG" if v == "PERSON" else "PERSON")
                      for k, v in tl.items()} for lang, tl in lang_a.items()}
    # after the first two, each step changes exactly one input
    steps = [
        ((lex_a, True, lang_a), detect_mentions(read_pages(d), cfg, lex_a, 300)),
        ((lex_b, True, lang_b), detect_mentions(read_pages(d), cfg, lex_b, 120)),
        ((lex_a, True, lang_b), stage(lex_a, True, lang_b)),
        ((lex_a, True, relabel), stage(lex_a, True, relabel)),
        ((lex_a, False, relabel), stage(lex_a, False, relabel)),
        ((lex_a, True, lang_a), detect_mentions(read_pages(d), cfg, lex_a, 300)),
    ]
    prev = None
    for inputs, ds in steps:
        got = table(ds).to_pandas().sort_values("mention_id").reset_index(drop=True)
        want = (MentionDetector(*inputs)(texts).to_pandas()
                .sort_values("mention_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want)
        local = worker_detector(detector_spec(*inputs))(texts).to_pandas()
        pd.testing.assert_frame_equal(
            local.sort_values("mention_id").reset_index(drop=True), want)
        # each step changes the output, so a stale detector cannot pass
        assert prev is None or not got.equals(prev)
        prev = got


def test_bcubed_hand_computed():
    """B³ on the textbook example: gold {a,b,c | d,e}, predicted {a,b | c,d,e}.

    Per-mention precision: a,b -> 1, c -> 1/3, d,e -> 2/3  => P = (2 + 1/3 + 4/3)/5
    Per-mention recall:    a,b -> 2/3, c -> 1/3, d,e -> 1  => R = (4/3 + 1/3 + 2)/5
    """
    import pyarrow as pa

    from kawa_ray.eval.pairwise import bcubed_scores

    gold = pa.table({
        "norm": ["a", "b", "c", "d", "e"],
        "entity_id": [1, 1, 1, 2, 2],
    })
    pred = {"a": "x", "b": "x", "c": "y", "d": "y", "e": "y"}
    m = bcubed_scores(gold, pred)
    assert abs(m["b3_precision"] - (2 + 1 / 3 + 4 / 3) / 5) < 1e-12
    assert abs(m["b3_recall"] - (4 / 3 + 1 / 3 + 2) / 5) < 1e-12
    assert m["n_mentions"] == 5


def test_bcubed_reaches_blocking_ceiling(linked):
    """B³ counts ALL gold co-membership, so its recall is bounded by the
    blocking graph (alias pairs that share no key can never link — the
    north rule scopes its F1 to shared keys for exactly this reason).
    The invariant we pin: B³ precision is perfect AND our B³ equals the
    best-achievable B³ given the blocking graph (transitive closure of
    the gold-same labeled pairs) — i.e. the linkage itself loses nothing
    on top of blocking."""
    from kawa_ray.eval.pairwise import bcubed_scores, gold_labeled_pairs
    from kawa_ray.pipelines.linkage import kb_alias_lookup
    from kawa_ray.stages.clustering import union_find_components

    _, res, gold = linked
    cfg = LinkageConfig()
    m = bcubed_scores(gold, res["norm2cluster"])
    assert m["b3_precision"] >= 0.99, m
    # the KB-alias channel (incl. its salting exemption) bridges
    # cross-script aliases: B³ recall is 1.0 on the synthetic corpus
    # (pre-KB-channel it bottomed out at ~0.68)
    assert m["b3_recall"] >= 0.99, m
    same = [(a, b) for a, b, _k, s in gold_labeled_pairs(gold, cfg, kb_alias_lookup()) if s]
    norms = sorted(set(gold.column("norm").to_pylist()))
    ceiling = bcubed_scores(gold, union_find_components(same, norms))
    assert m["b3_f1"] >= ceiling["b3_f1"] - 1e-9, (m, ceiling)


def test_component_paths_agree_on_random_graph(ray_session,
                                               forced_closure_tiers):
    """closure_labels on both tiers (driver union-find, bucketed label
    propagation) vs union-find on a seeded
    random graph (path chains for diameter + random cross edges +
    self-loop isolates) — the 6-edge fixtures above pin the API, this
    pins the algorithm on adversarial component structure; the
    diameter-99 path test above pins the bucketed tier's round bound."""
    import numpy as np
    import ray.data as rd

    from kawa_ray.stages.clustering import closure_labels, union_find_components

    rng = np.random.default_rng(7)
    edges: list[tuple[str, str]] = []
    # path chains of length 5 (diameter stress within round budget)
    for c in range(4):
        chain = [f"p{c}_{i:02d}" for i in range(6)]
        edges += list(zip(chain, chain[1:]))
    # random cross edges over a 40-node pool (many small merged comps)
    pool = [f"r{i:02d}" for i in range(40)]
    for _ in range(25):
        a, b = rng.choice(len(pool), size=2, replace=False)
        edges.append((pool[a], pool[b]))
    edges += [("iso1", "iso1"), ("iso2", "iso2")]

    want = union_find_components(edges)
    ds = rd.from_items([{"a": a, "b": b} for a, b in edges])

    def labels() -> dict:
        df = closure_labels(ds).to_pandas()
        return dict(zip(df["node"], df["lbl"]))

    assert labels() == want
    for tier in forced_closure_tiers():
        assert labels() == want, tier


def test_build_nodes_paths_agree(ray_session):
    """The hash-partitioned distributed node merge (driver_threshold=0)
    must equal the driver-side merge row for row."""
    from kawa_ray.pipelines.linkage import (
        build_nodes, default_artifacts, detect_mentions, read_pages,
    )
    from kawa_ray.config import LinkageConfig
    from kawa_ray.sources.pages import ensure_pages

    pages_dir = ensure_pages("0.001")
    lexicon, _ = default_artifacts()
    mentions = detect_mentions(
        read_pages(pages_dir), LinkageConfig(), lexicon).materialize()
    drv = build_nodes(mentions).to_pandas()
    dist = build_nodes(mentions, driver_threshold=0).to_pandas()
    key = ["norm", "n_mentions"]
    assert (drv[key].sort_values(key).reset_index(drop=True)
            .equals(dist[key].sort_values(key).reset_index(drop=True)))
    assert len(drv) > 0
