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
