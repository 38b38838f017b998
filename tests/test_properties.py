"""Property-based tests (hypothesis) for the pure kernels — invariants
that must hold for ANY input, not just fixture rows."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from kawa_ray.config import CONNECTOR, STRIP_CHARS_SET, TRANNUM
from kawa_ray.functions.minhash import (
    hash64,
    jaccard,
    lsh_band_keys,
    minhash_signature,
    simhash64,
)
from kawa_ray.functions.strsim import jaro_winkler, levenshtein
from kawa_ray.functions.text import canonical_word, word_shingles

words = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=24
)
token_lists = st.lists(
    st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12),
    min_size=0, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(words)
def test_canonical_word_never_crashes_and_strips(w):
    cw, arr = canonical_word(w, frozenset(), do_lower=True)
    if cw:
        assert cw[0] not in STRIP_CHARS_SET or cw[0] == CONNECTOR
        assert cw == cw.lower()
    assert all(CONNECTOR not in a for a in arr) or True
    # idempotent
    cw2, _ = canonical_word(cw, frozenset(), do_lower=True)
    assert cw2 == cw


@settings(max_examples=200, deadline=None)
@given(token_lists, st.integers(min_value=1, max_value=30))
def test_word_shingles_bounds(arr, cutoff):
    shingles = word_shingles(arr, cutoff=cutoff)
    for sh in shingles:
        for w in sh:
            assert len(w) <= cutoff + 1  # "*"-suffixed variant adds one char


@settings(max_examples=100, deadline=None)
@given(st.sets(st.text(min_size=1, max_size=8), min_size=1, max_size=50))
def test_minhash_identical_sets_identical_sigs(s):
    a = minhash_signature(list(s), 32)
    b = minhash_signature(list(s), 32)
    assert (a == b).all()
    assert len(lsh_band_keys(a, 8)) == 8


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.text(min_size=1, max_size=8), min_size=1, max_size=40),
    st.sets(st.text(min_size=1, max_size=8), min_size=1, max_size=40),
)
def test_minhash_estimates_jaccard(a, b):
    sa = minhash_signature(list(a), 128)
    sb = minhash_signature(list(b), 128)
    est = float((sa == sb).mean())
    true = jaccard(a, b)
    assert abs(est - true) <= 0.35  # 128 perms: loose but real bound


@settings(max_examples=200, deadline=None)
@given(words, words)
def test_strsim_metric_properties(a, b):
    jw = jaro_winkler(a, b)
    assert 0.0 <= jw <= 1.0
    assert jaro_winkler(a, a) == 1.0 or not a
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert d <= max(len(a), len(b))
    assert levenshtein(a, a) == 0


def dp_levenshtein(a: str, b: str) -> int:
    """Reference edit distance: the full O(len(a)·len(b)) DP table."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# arbitrary Unicode, and a small alphabet (CJK and astral code points
# included) so that the two strings share most of their characters; its
# lengths are drawn uniformly, so long strings are as likely as short ones
lev_text = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    st.integers(0, 90).flatmap(
        lambda n: st.text(st.sampled_from("ab日本語\U0001F600"), min_size=n, max_size=n)),
)


@settings(max_examples=300, deadline=None)
@given(lev_text, lev_text, st.integers(min_value=0, max_value=12))
def test_levenshtein_matches_dp(a, b, cap):
    d = dp_levenshtein(a, b)
    assert levenshtein(a, b) == d
    assert levenshtein(a, b, cap=cap) == min(d, cap + 1)


@settings(max_examples=100, deadline=None)
@given(token_lists)
def test_simhash_deterministic(toks):
    assert simhash64(toks) == simhash64(list(toks))
    assert 0 <= simhash64(toks) < (1 << 64)


@settings(max_examples=200, deadline=None)
@given(words)
def test_hash64_stable_and_digitfold(w):
    assert hash64(w) == hash64(w)
    folded = w.translate(TRANNUM)
    assert not any(c.isdigit() and c != "1" for c in folded if c in "0123456789")


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_extract_text_total_on_arbitrary_bytes(raw):
    """S1 must be total: any byte payload (malformed html, truncated
    tags, invalid UTF-8) yields a string with no live tags, never an
    exception — a 100 TB crawl contains every kind of garbage."""
    from kawa_ray.functions.html import extract_text

    out = extract_text(raw)
    assert isinstance(out, str)
    assert "<script" not in out.lower()


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_extract_text_deterministic(s):
    from kawa_ray.functions.html import extract_text

    html = f"<html><body><p>{s}</p></body></html>"
    assert extract_text(html) == extract_text(html)


def test_extract_text_linear_on_pathological_pages():
    """Regression: quadratic backtracking on repeated unclosed openers
    (was 35s+ on 340 KB; the cursor scanners must stay sub-second)."""
    import time

    from kawa_ray.functions.html import extract_text

    for evil in (b"<p>x</p><script >" * 20000,
                 b"<p junk>" * 50000,
                 b"<p>a</p><li junk><title>t</title>" * 20000):
        t0 = time.time()
        extract_text(evil)
        assert time.time() - t0 < 2.0


class TestAsofProperty:
    def test_asof_matches_pandas_merge_asof(self, ray_session):
        """Independent oracle: pandas merge_asof on the same rows."""
        import numpy as np
        import pandas as pd

        from kawa_ray.pipelines.relational import purchase_asof_click

        out = purchase_asof_click("/root/testdata/sf0.001")
        ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                             columns=["user_id", "event_type", "ts", "value"])
        p = ev[ev["event_type"] == "purchase"].sort_values("ts")
        c = ev[ev["event_type"] == "click"].sort_values("ts")
        m = pd.merge_asof(p, c, on="ts", by="user_id",
                          direction="backward", suffixes=("", "_c"))
        agg = m.groupby("user_id").agg(
            n_purchases=("ts", "size"),
            n_matched=("value_c", "count"),
            click_value_sum=("value_c", "sum"),
        ).reset_index()
        agg["click_value_sum"] = agg["click_value_sum"].fillna(0).round(2)
        agg = agg.sort_values("user_id").reset_index(drop=True)
        got = out.astype({"user_id": "int64"}).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, agg.astype({"n_purchases": "int64", "n_matched": "int64"}),
            check_dtype=False,
        )


class TestWinnowProperty:
    def test_window_min_selection_brute_force(self):
        """sliding_window_view minima == brute-force winnowing."""
        import numpy as np

        from kawa_ray.functions.minhash import md5_low64

        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(12, 60))
            text = "".join(chr(97 + int(x)) for x in rng.integers(0, 5, n))
            k, w = 8, 4
            n_grams = len(text) - k + 1
            if n_grams < w:
                continue
            hs = [md5_low64(text[i:i + k]) for i in range(n_grams)]
            brute = {min(hs[i:i + w]) for i in range(n_grams - w + 1)}
            from numpy.lib.stride_tricks import sliding_window_view

            fast = set(np.unique(sliding_window_view(
                np.array(hs, dtype=np.uint64), w).min(axis=1)).tolist())
            assert fast == brute


class TestWinnowDetectionGuarantee:
    """The Schleimer-et-al guarantee the substring-dedup operator's
    docstring claims (substring_dedup.py): ANY shared token run of
    >= K_TOKENS + W_WINDOW - 1 tokens yields a shared selected
    fingerprint, regardless of how the two copies are aligned.
    Hypothesis-tested against the production kernel (winnow_select),
    not a reimplementation."""

    @staticmethod
    def _occ(tokens, k, w):
        """Distinct (fp, pos) occurrence pairs for one doc — exactly the
        rows substring_dedup's emit_occ emits per document."""
        import numpy as np

        from kawa_ray.functions.minhash import md5_low64_per_doc
        from kawa_ray.pipelines.substring_dedup import winnow_select

        n_grams = len(tokens) - k + 1
        if n_grams < w:
            return set()
        grams = [" ".join(tokens[i:i + k]) for i in range(n_grams)]
        (hs,) = md5_low64_per_doc([grams])
        fp, pos = winnow_select(hs, w)
        return set(zip(fp.tolist(), pos.tolist()))

    # tiny alphabet + short tokens: repeated grams and hash-tie-like
    # structure appear often, the adversarial regime for winnowing
    _tok = st.text(st.sampled_from("ab"), min_size=1, max_size=2)
    _pad = st.lists(_tok, min_size=0, max_size=16)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cross_doc_shared_run_always_shares_a_fingerprint(self, data):
        from kawa_ray.pipelines.substring_dedup import K_TOKENS, W_WINDOW

        run_len = data.draw(st.integers(K_TOKENS + W_WINDOW - 1,
                                        K_TOKENS + W_WINDOW + 9))
        run = data.draw(st.lists(self._tok, min_size=run_len, max_size=run_len))
        a1, a2 = data.draw(self._pad), data.draw(self._pad)
        b1, b2 = data.draw(self._pad), data.draw(self._pad)
        doc_a = a1 + run + a2
        doc_b = b1 + run + b2
        fps_a = {f for f, _ in self._occ(doc_a, K_TOKENS, W_WINDOW)}
        fps_b = {f for f, _ in self._occ(doc_b, K_TOKENS, W_WINDOW)}
        assert fps_a & fps_b, (doc_a, doc_b)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_within_doc_repeat_always_flaggable(self, data):
        """A run planted twice in ONE doc yields the same fingerprint at
        two distinct positions — exactly what stage 2's count >= 2 flag
        needs to fire for within-doc repeats."""
        from kawa_ray.pipelines.substring_dedup import K_TOKENS, W_WINDOW

        run_len = data.draw(st.integers(K_TOKENS + W_WINDOW - 1,
                                        K_TOKENS + W_WINDOW + 9))
        run = data.draw(st.lists(self._tok, min_size=run_len, max_size=run_len))
        p1, p2, p3 = (data.draw(self._pad) for _ in range(3))
        doc = p1 + run + p2 + run + p3
        occ = self._occ(doc, K_TOKENS, W_WINDOW)
        by_fp: dict = {}
        for f, p in occ:
            by_fp.setdefault(f, set()).add(p)
        assert any(len(ps) >= 2 for ps in by_fp.values()), doc

    def test_short_docs_select_nothing(self):
        from kawa_ray.pipelines.substring_dedup import K_TOKENS, W_WINDOW

        # one token short of the guarantee bound with no repetition:
        # fewer than W full windows exist, the operator's gate skips it
        toks = [f"t{i}" for i in range(K_TOKENS + W_WINDOW - 2)]
        assert self._occ(toks, K_TOKENS, W_WINDOW) == set()


class TestBatchDedupHashingIdentity:
    """md5_low64_many / md5_low64_per_doc claim 'bit-identical to direct
    md5_low64, just fewer calls' — the property the winnow / substring /
    gram-set SQL oracles depend on.  Verified for arbitrary inputs,
    including duplicate-heavy lists and the chunked per-doc path across
    its flush boundary."""

    _gram = st.text(st.sampled_from("abc "), min_size=0, max_size=6)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_gram, min_size=0, max_size=60))
    def test_many_matches_direct(self, strings):
        import numpy as np

        from kawa_ray.functions.minhash import md5_low64, md5_low64_many

        got = md5_low64_many(strings)
        assert got.dtype == np.uint64
        assert got.tolist() == [md5_low64(s) for s in strings]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_gram, max_size=12), max_size=8),
           st.integers(min_value=1, max_value=8))
    def test_per_doc_matches_direct_across_chunk_boundaries(
            self, docs, chunk):
        from kawa_ray.functions.minhash import md5_low64, md5_low64_per_doc

        # tiny chunk_grams forces mid-stream flushes, the path a fat
        # production batch takes
        out = md5_low64_per_doc(docs, chunk_grams=chunk)
        assert len(out) == len(docs)
        for gs, hs in zip(docs, out):
            assert hs.tolist() == [md5_low64(g) for g in gs]


# ---------------------------------------------------------------------------
# block_pairs: the one within-block pair emitter (stages/pairs.py)
# ---------------------------------------------------------------------------

def _brute_block_pairs(keys, ids, max_members):
    """Reference: per key, the distinct ids; keep blocks of 2..cap ids;
    every pair of them once, smaller id first."""
    import itertools

    members: dict = {}
    for k, d in zip(keys, ids):
        members.setdefault(k, set()).add(d)
    return sorted(
        (k, a, b)
        for k, m in members.items() if 2 <= len(m) <= max_members
        for a, b in itertools.combinations(sorted(m), 2))


def _emitted(keys, ids, max_members):
    import numpy as np

    from kawa_ray.stages.pairs import block_pairs

    karr = np.asarray(keys, dtype=object if keys and isinstance(keys[0], str)
                      else np.int64)
    iarr = np.asarray(ids, dtype=np.int64)
    ia, ib = block_pairs(karr, iarr, max_members)
    assert (karr[ia] == karr[ib]).all()
    assert (iarr[ia] < iarr[ib]).all()
    got = [(keys[a], int(iarr[a]), int(iarr[b])) for a, b in zip(ia, ib)]
    assert len(got) == len(set(got)), "a pair was emitted twice"
    return sorted(got)


_big_ids = st.integers(min_value=-(2 ** 62), max_value=2 ** 62)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(-8, 8)),
                max_size=80),
       st.integers(min_value=1, max_value=8))
def test_block_pairs_int_keys_match_brute_force(rows, cap):
    # small id range: repeated (key, id) rows are common
    keys = [k for k, _ in rows]
    ids = [d for _, d in rows]
    assert _emitted(keys, ids, cap) == _brute_block_pairs(keys, ids, cap)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", "a", "b|1", "日本", "zz"]),
                          st.one_of(_big_ids, st.integers(-3, 3))),
                max_size=60),
       st.integers(min_value=1, max_value=10))
def test_block_pairs_str_keys_large_ids_match_brute_force(rows, cap):
    keys = [k for k, _ in rows]
    ids = [d for _, d in rows]
    assert _emitted(keys, ids, cap) == _brute_block_pairs(keys, ids, cap)


def test_block_pairs_fixed_cases():
    assert _emitted([], [], 5) == []
    # all singleton blocks: nothing to pair
    assert _emitted([1, 2, 3, 4], [10, 20, 30, 40], 5) == []
    # a block of exactly max_members is kept, one of max_members + 1 dropped
    keys = [7] * 3 + [9] * 4
    ids = [3, 1, 2, 5, 6, 7, 8]
    assert _emitted(keys, ids, 3) == [(7, 1, 2), (7, 1, 3), (7, 2, 3)]
    # a repeated (key, id) row does not count toward the cap
    assert _emitted([4, 4, 4, 4], [2, 1, 2, 1], 2) == [(4, 1, 2)]
