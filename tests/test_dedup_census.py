"""Near-dup census invariants: the driver union-find collapse and both
label-propagation closure tiers must produce identical censuses
(VERDICT.md round-1 item 2), and the candidate-pair stage must be
deterministic across partition counts."""

import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_mod():
    from kawa_ray.pipelines import docs

    return docs


def test_minhash_census_paths_agree(ray_session, docs_mod, monkeypatch,
                                    forced_closure_tiers):
    driver = docs_mod.minhash_dedup_docs(SF_DIR)
    # the pair-space dedup/verify stages take their scale paths too
    monkeypatch.setattr(docs_mod, "_DRIVER_EDGE_THRESHOLD", 0)
    for tier in forced_closure_tiers():
        pd.testing.assert_frame_equal(
            driver, docs_mod.minhash_dedup_docs(SF_DIR), obj=tier)


def test_simhash_census_paths_agree(ray_session, docs_mod, monkeypatch,
                                    forced_closure_tiers):
    driver = docs_mod.simhash_dedup_docs(SF_DIR)
    # the pair-space dedup/verify stages take their scale paths too
    monkeypatch.setattr(docs_mod, "_DRIVER_EDGE_THRESHOLD", 0)
    for tier in forced_closure_tiers():
        pd.testing.assert_frame_equal(
            driver, docs_mod.simhash_dedup_docs(SF_DIR), obj=tier)


def test_ngram_census_paths_agree(ray_session, docs_mod, monkeypatch,
                                  forced_closure_tiers):
    driver = docs_mod.ngram_jaccard_dedup_docs(SF_DIR)
    # the pair-space dedup/verify stages take their scale paths too
    monkeypatch.setattr(docs_mod, "_DRIVER_EDGE_THRESHOLD", 0)
    for tier in forced_closure_tiers():
        pd.testing.assert_frame_equal(
            driver, docs_mod.ngram_jaccard_dedup_docs(SF_DIR), obj=tier)


def test_band_pairs_deterministic_across_partitions(ray_session, docs_mod,
                                                    monkeypatch):
    """ADVICE.md round-1: the candidate set must not depend on the
    partition count (it used to derive P from cluster CPUs and cap pairs
    across segments)."""

    def run():
        return (
            docs_mod.minhash_dedup_docs(SF_DIR),
            docs_mod.simhash_dedup_docs(SF_DIR),
        )

    base = run()
    monkeypatch.setattr(docs_mod, "_PAIR_PARTITIONS", 3)
    alt = run()
    for b, a in zip(base, alt):
        pd.testing.assert_frame_equal(b, a)


def test_exact_vs_minhash_consistency(ray_session, docs_mod):
    """Exact-duplicate pairs are Jaccard-1.0, so the MinHash census must
    find at least as many duplicates as the exact-hash census."""
    exact = docs_mod.exact_dedup_docs(SF_DIR)
    near = docs_mod.minhash_dedup_docs(SF_DIR)
    assert int(near["n_duplicates"].iloc[0]) >= int(exact["n_duplicates"].sum())


def test_keep_best_paths_agree(ray_session, forced_closure_tiers):
    """The keep-best census over both label-propagation closure tiers
    equals the driver union-find tier."""
    from kawa_ray.pipelines.docs import minhash_keep_best

    sf = "/root/testdata/sf0.001"
    driver = minhash_keep_best(sf).reset_index(drop=True)
    for tier in forced_closure_tiers():
        assert driver.equals(minhash_keep_best(sf).reset_index(drop=True)), tier


def test_keep_best_consistent_with_census(ray_session):
    """Cross-operator invariant: representative selection drops exactly
    the census's duplicate count (members - clusters), computed by two
    independent pipelines."""
    from kawa_ray.pipelines.docs import minhash_dedup_docs, minhash_keep_best

    sf = "/root/testdata/sf0.001"
    census = minhash_dedup_docs(sf)
    kb = minhash_keep_best(sf)
    assert int(kb["n_members"].sum() - kb["n_kept"].sum()) == int(
        census["n_duplicates"].iloc[0])
    assert int(kb["n_dropped"].sum()) == int(census["n_duplicates"].iloc[0])


def test_cross_dump_dedup_hits_at_bench_scale(ray_session):
    """The corpus's exact-dup twins straddle the %2 dump slice at sf0.1,
    so the cross-dump collision path is exercised with real hits (the
    oracle tier runs at sf0.01 where the slice happens to be hit-free —
    this pins the non-trivial case)."""
    from kawa_ray.pipelines.docs import cross_dump_dedup_census

    out = cross_dump_dedup_census("/root/testdata/sf0.1")
    assert int(out["n_dup_vs_old"].sum()) == 4
    assert int(out["n_new"].sum()) == 2500


def test_cross_dump_banddup_hits_at_small_scale(ray_session):
    """The engineered near-dup twins straddle the %2 dump slice even at
    sf0.001, so the band-collision path runs with real hits at the
    smallest scale (unlike the exact variant, which first collides at
    sf0.1)."""
    from kawa_ray.pipelines.docs import cross_dump_banddup_census

    out = cross_dump_banddup_census("/root/testdata/sf0.001")
    assert int(out["n_banddup_vs_old"].sum()) > 0


def test_cross_dump_neardup_paths_agree(ray_session, docs_mod, monkeypatch):
    """Forcing the above-threshold branch exercises both the
    partitioned pair dedup and _verified_edges' no-driver-candidate
    scale path; output must equal the driver-collapse path."""
    driver = docs_mod.cross_dump_neardup_census(SF_DIR)
    monkeypatch.setattr(docs_mod, "_DRIVER_EDGE_THRESHOLD", 0)
    distributed = docs_mod.cross_dump_neardup_census(SF_DIR)
    pd.testing.assert_frame_equal(driver, distributed)


def test_cross_dump_neardup_verify_confirms_hits(ray_session):
    """The verify stage confirms a subset of the band-collision gate:
    every Jaccard-confirmed near-dup was a band hit, and the engineered
    twins give real confirmations at the smallest scale."""
    from kawa_ray.pipelines.docs import (cross_dump_banddup_census,
                                         cross_dump_neardup_census)

    near = cross_dump_neardup_census("/root/testdata/sf0.001")
    band = cross_dump_banddup_census("/root/testdata/sf0.001")
    assert int(near["n_neardup_vs_old"].sum()) > 0
    merged = near.merge(band, on="lang")
    assert (merged["n_neardup_vs_old"] <= merged["n_banddup_vs_old"]).all()
    assert (merged["n_new_banded_x"] == merged["n_new_banded_y"]).all()


def test_ngram_census_large_doc_ids_match_duckdb(ray_session, docs_mod,
                                                 monkeypatch, tmp_path):
    """Doc ids above 2**32: the verify step must key each candidate pair
    by (a, b) itself.  Packed as a·2^32 + b, the pairs (7, 2^33+7) and
    (8, 2^32+7) collide and both true duplicates were dropped."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    a_text = "the quick brown fox jumps over the lazy dog near the river bank"
    b_text = "seven wild geese fly south across a cold grey autumn sky today"
    c_text = "an unrelated line about tax forms filed late in the spring season"
    df = pd.DataFrame({
        "doc_id": np.array([7, 2**33 + 7, 8, 2**32 + 7, 3], dtype="int64"),
        "text": [a_text, a_text, b_text, b_text, c_text],
        "lang": ["en"] * 5,
        "source": ["web"] * 5,
    })
    df["n_chars"] = df["text"].str.len().astype("int64")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(docs_mod.NGRAM_JACCARD_SQL).df().astype("int64")
    assert int(want["n_duplicates"].iloc[0]) == 2
    for threshold in (docs_mod._DRIVER_EDGE_THRESHOLD, 0):
        monkeypatch.setattr(docs_mod, "_DRIVER_EDGE_THRESHOLD", threshold)
        got = docs_mod.ngram_jaccard_dedup_docs(str(tmp_path)).astype("int64")
        pd.testing.assert_frame_equal(got[list(want.columns)], want,
                                      obj=f"threshold {threshold}")
