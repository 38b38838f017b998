"""Large-scale rehearsal (round-3 VERDICT item 8): run the heaviest
registry queries at 16x the bench scale (80k docs / 1.6M events,
deterministically derived from the read-only sf0.1 tables) and record
wall times at BOTH scales plus per-stage `ds.stats()` skew evidence for
the partitioned-distinct shuffle — proof the partitioned shapes hold an
order of magnitude past sf0.1.

Derivation (no external data, fully deterministic): each of the 16
copies offsets doc_id/event_id/user_id into its own id block; document
texts get a copy-marker token prepended and every 5th token rewritten
with the copy index, so near-dup structure scales LINEARLY (within-copy
dups only) instead of quadratically (16 identical twins per doc would
measure the cap logic, not the shuffle).

Usage: python -m tools.rehearsal_x16 [out.json]
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SRC = "/root/testdata/sf0.1"
DST = "/tmp/kawa_ray_rehearsal_x16"
COPIES = 16


def build_tables() -> None:
    os.makedirs(DST, exist_ok=True)
    doc_p = os.path.join(DST, "documents.parquet")
    ev_p = os.path.join(DST, "events.parquet")
    if not os.path.exists(doc_p):
        t = pq.read_table(os.path.join(SRC, "documents.parquet"))
        n = t.num_rows
        parts = []
        for c in range(COPIES):
            ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
            texts = t.column("text").to_pylist()
            if c:
                mut = []
                for txt in texts:
                    toks = txt.split()
                    toks = [f"c{c}x{tok}" if i % 5 == 0 else tok
                            for i, tok in enumerate(toks)]
                    mut.append(f"copy{c} " + " ".join(toks))
                texts = mut
            parts.append(pa.table({
                "doc_id": pa.array(ids + c * 10_000_000),
                "text": pa.array(texts, pa.string()),
                "lang": t.column("lang"),
                "source": t.column("source"),
                "n_chars": pa.array([len(x) for x in texts], pa.int64()),
            }))
        pq.write_table(pa.concat_tables(parts), doc_p)
        print(f"wrote {doc_p}: {n * COPIES} docs")
    if not os.path.exists(ev_p):
        t = pq.read_table(os.path.join(SRC, "events.parquet"))
        parts = []
        for c in range(COPIES):
            eid = np.asarray(t.column("event_id").to_pylist(), dtype=np.int64)
            uid = np.asarray(t.column("user_id").to_pylist(), dtype=np.int64)
            parts.append(pa.table({
                "event_id": pa.array(eid + c * 100_000_000),
                "ts": t.column("ts"),
                "user_id": pa.array(uid + c * 10_000_000),
                "event_type": t.column("event_type"),
                "value": t.column("value"),
                "props": t.column("props"),
            }))
        pq.write_table(pa.concat_tables(parts), ev_p)
        print(f"wrote {ev_p}: {t.num_rows * COPIES} events")


def winnow_shuffle_stats(sf_dir: str) -> dict:
    """Stats-instrumented partitioned-distinct chain (the winnow fp
    stream): per-partition deduped row counts give the skew evidence."""
    import pandas as pd
    import ray.data as rd

    from kawa_ray.pipelines.docs import winnow_fp_columns
    from kawa_ray.stages.distinct import partition_distinct, route_parts

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang", "text"])

    def fp_rows(t: pa.Table) -> pa.Table:
        # the PRODUCTION fp-row construction (shared helper) — the skew
        # instrument must measure the exact stream the query shuffles
        langs, counts, _sels, fp_i64 = winnow_fp_columns(t, 8, 4)
        return pa.table({
            "lang": pa.array(np.repeat(langs, counts), pa.string()),
            "fp": pa.array(fp_i64),
        })

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # one row per partition in this reduce call (a call holds
        # several): its id (the route of its fps) and its deduped row
        # count
        rows = pd.Series(route_parts(g["fp"], 64)).value_counts()
        return pd.DataFrame({"pid": rows.index.astype("int64"),
                             "part_rows": rows.to_numpy("int64")})

    shuffled = partition_distinct(
        ds.map_batches(fp_rows, batch_format="pyarrow"),
        ["lang", "fp"], key_col="fp", then=fold).materialize()
    sizes = shuffled.to_pandas().set_index("pid")["part_rows"]
    # straggler factor over the 64 hash partitions of the fp stream
    return {
        "n_partitions": int(len(sizes)),
        "rows_min": int(sizes.min()),
        "rows_max": int(sizes.max()),
        "rows_mean": round(float(sizes.mean()), 1),
        "straggler_factor": round(float(sizes.max() / max(sizes.mean(), 1)), 3),
    }


def emb_band_exchange_bytes(sf_dir: str) -> dict:
    """Round-4 VERDICT item 2 evidence: the embedding band exchange now
    ships id-only rows; vectors join onto SURVIVING segment members by a
    vec_id hash partition.  Measure the materialized byte size of the
    band-exchange stream as shipped (id-only) vs the old shape (vec
    bytes tiled x8 onto the same rows) — the reduction is what the
    all-to-all no longer moves."""
    import ray.data as rd

    from kawa_ray.pipelines.vectors import (
        _EMB_BANDS, _EMB_PLANES_PER_BAND, _EMB_QUANT, _emb_planes,
    )

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    planes: dict[int, np.ndarray] = {}

    def rows(t: pa.Table, with_vec: bool) -> pa.Table:
        ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
        labels = np.asarray(t.column("label").to_pylist(), dtype=np.int64)
        M = np.stack([np.asarray(v, dtype=np.float64)
                      for v in t.column("embedding").to_pylist()])
        dim = M.shape[1]
        C = planes.get(dim)
        if C is None:
            C = planes[dim] = _emb_planes(dim)
        q = np.floor(M * _EMB_QUANT).astype(np.int64)
        bits = (q @ C.T) > 0
        pows = (1 << np.arange(_EMB_PLANES_PER_BAND)).astype(np.int64)
        keys_nb = bits.reshape(len(ids), _EMB_BANDS, _EMB_PLANES_PER_BAND) @ pows
        n = len(ids)
        cols = {
            "label": pa.array(np.tile(labels, _EMB_BANDS)),
            "band": pa.array(np.repeat(np.arange(_EMB_BANDS, dtype=np.int64), n)),
            "key": pa.array(keys_nb.T.reshape(-1)),
            "vec_id": pa.array(np.tile(ids, _EMB_BANDS)),
        }
        if with_vec:
            vb = np.array([m.tobytes() for m in M], dtype=object)
            cols["vec"] = pa.array(np.tile(vb, _EMB_BANDS), pa.binary())
        return pa.table(cols)

    id_only = ds.map_batches(
        lambda t: rows(t, False), batch_format="pyarrow").materialize()
    with_vec = ds.map_batches(
        lambda t: rows(t, True), batch_format="pyarrow").materialize()
    a, b = id_only.size_bytes(), with_vec.size_bytes()
    out = {"id_only_bytes": int(a), "old_shape_bytes": int(b),
           "reduction": round(b / max(a, 1), 1)}
    assert out["reduction"] >= 6.0, out  # the ~8x claim, with margin
    return out


def forced_bucketed_cluster_census() -> dict:
    """Round-4 VERDICT item 1 'done' evidence: the x16 blocking-graph
    cluster census must complete CORRECTLY through the bucketed tier
    (driver ceiling forced to 0) — the only tier available to
    beyond-worker-memory node spaces — and match the default-tier
    histogram.  The x16 graph's duplicate chains exceed 20-round
    diameters (the session-5 incident), so this only passes with the
    per-round pointer jump."""
    import pandas as pd

    import kawa_ray.pipelines.blocking_ops as bo
    import kawa_ray.stages.clustering as cl

    t0 = time.perf_counter()
    default = bo.multirule_cluster_census(DST)
    t_default = time.perf_counter() - t0
    old = cl._DRIVER_EDGE_THRESHOLD
    # force the bucketed scale tier whatever the edge count
    cl._DRIVER_EDGE_THRESHOLD = 0
    try:
        t0 = time.perf_counter()
        forced = bo.multirule_cluster_census(DST)
        t_forced = time.perf_counter() - t0
    finally:
        cl._DRIVER_EDGE_THRESHOLD = old
    pd.testing.assert_frame_equal(
        default.reset_index(drop=True), forced.reset_index(drop=True))
    return {"x16_default_sec": round(t_default, 2),
            "x16_bucketed_sec": round(t_forced, 2),
            "histogram_rows": int(len(default)),
            "tiers_identical": True}


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    out_path = args[0] if args else os.path.join(DST, "rehearsal.json")
    build_tables()

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if "--bucketed-only" in sys.argv:
        # just the forced-bucketed closure evidence (it is the long pole)
        res = {"forced_bucketed": forced_bucketed_cluster_census()}
        print(json.dumps(res))
        with open(out_path, "w") as f:
            json.dump(res, f, indent=1)
        ray.shutdown()
        return

    from kawa_ray.pipelines.builder import user_pagerank
    from kawa_ray.pipelines.docs import (
        cross_dump_neardup_census,
        doc_winnow_fingerprints,
        minhash_dedup_docs,
        minhash_keep_best,
        ngram_jaccard_dedup_docs,
    )
    from kawa_ray.pipelines.blocking_ops import (
        metablocking_census,
        multirule_blocking_census,
        multirule_cluster_census,
        snm_blocking_census,
    )
    from kawa_ray.pipelines.blocking_ops import (
        block_cleaning_census,
        cluster_survivorship_census,
    )
    from kawa_ray.pipelines.blocking_ops import (
        blocking_quality_census,
        cluster_ari_census,
    )
    from kawa_ray.pipelines.dsir import dsir_selection_census
    from kawa_ray.pipelines.pairscore import (
        containment_pairs_census,
        monge_elkan_pairs_census,
        mutual_best_match_census,
    )
    from kawa_ray.pipelines.quality_classifier import quality_classifier_census
    from kawa_ray.pipelines.setsim import setsim_join_census
    from kawa_ray.pipelines.substring_dedup import doc_substring_dup_census

    queries = [
        ("minhash_dedup_docs", minhash_dedup_docs),
        ("minhash_keep_best", minhash_keep_best),
        ("ngram_jaccard_dedup_docs", ngram_jaccard_dedup_docs),
        ("doc_substring_dup_census", doc_substring_dup_census),
        ("doc_winnow_fingerprints", doc_winnow_fingerprints),
        ("user_pagerank", user_pagerank),
        ("cross_dump_neardup_census", cross_dump_neardup_census),
        ("dsir_selection_census", dsir_selection_census),
        ("quality_classifier_census", quality_classifier_census),
        ("snm_blocking_census", snm_blocking_census),
        ("metablocking_census", metablocking_census),
        ("multirule_blocking_census", multirule_blocking_census),
        ("multirule_cluster_census", multirule_cluster_census),
        # round-5 wave
        ("setsim_join_census", setsim_join_census),
        ("cluster_survivorship_census", cluster_survivorship_census),
        ("block_cleaning_census", block_cleaning_census),
        # round-5 session-3 wave
        ("mutual_best_match_census", mutual_best_match_census),
        ("monge_elkan_pairs_census", monge_elkan_pairs_census),
        ("containment_pairs_census", containment_pairs_census),
        ("cluster_ari_census", cluster_ari_census),
        ("blocking_quality_census", blocking_quality_census),
    ]
    only = None
    for a in sys.argv[1:]:
        if a.startswith("--only="):
            only = set(a.split("=", 1)[1].split(","))
    if only is not None:
        queries = [(n, f) for n, f in queries if n in only]
    res: dict = {"copies": COPIES, "queries": {}}
    for name, fn in queries:
        t0 = time.perf_counter()
        small = fn(SRC)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        big = fn(DST)
        t_big = time.perf_counter() - t0
        res["queries"][name] = {
            "sf0.1_sec": round(t_small, 2),
            "x16_sec": round(t_big, 2),
            "time_ratio": round(t_big / max(t_small, 1e-9), 2),
            "rows_small": int(len(small)),
            "rows_big": int(len(big)),
        }
        print(name, res["queries"][name], flush=True)

    # pages-corpus op: its 16x datum is the sf0.1 -> sf1.6 pages pair
    # (50k -> 800k pages; the dirs only carry the scale factor — the
    # query reads the generated pages corpus, not the testdata tables)
    from kawa_ray.pipelines.pages_ops import line_dedup_census
    from kawa_ray.sources.pages import ensure_pages as _ensure_pages

    # warm the pages caches OUTSIDE the timing window — a cold cache
    # would record minutes of corpus generation as query time
    if only is None or {"line_dedup_census", "url_canonicalize_census",
                        "paragraph_neardup_census"} & only:
        _ensure_pages("0.1")
        _ensure_pages("1.6")

    from kawa_ray.pipelines.pages_ops import (
        paragraph_neardup_census,
        url_canonicalize_census,
    )

    pages_queries = [
        ("line_dedup_census", line_dedup_census),
        ("url_canonicalize_census", url_canonicalize_census),
        ("paragraph_neardup_census", paragraph_neardup_census),
    ]
    if only is not None:
        pages_queries = [(n, f) for n, f in pages_queries if n in only]
    for name, fn in pages_queries:
        t0 = time.perf_counter()
        small = fn(SRC)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        big = fn("/root/testdata/sf1.6")
        t_big = time.perf_counter() - t0
        res["queries"][name] = {
            "sf0.1_sec": round(t_small, 2),
            "x16_sec": round(t_big, 2),
            "time_ratio": round(t_big / max(t_small, 1e-9), 2),
            "rows_small": int(len(small)),
            "rows_big": int(len(big)),
        }
        print(name, res["queries"][name], flush=True)

    if only is None:
        res["winnow_shuffle_sf0.1"] = winnow_shuffle_stats(SRC)
        res["winnow_shuffle_x16"] = winnow_shuffle_stats(DST)
        res["emb_band_exchange"] = emb_band_exchange_bytes(SRC)
    with open(out_path, "w") as f:
        json.dump(res, f, indent=1)
    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
