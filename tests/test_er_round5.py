"""Round-5 classic-ER wave: prefix-filter set-similarity join,
golden-record survivorship, batched Levenshtein pair scoring, block
cleaning.  The DuckDB oracles in tests/test_queries_oracle.py pin all
four to SQL on the fixture corpus; these tests pin the kernels and the
distributed shapes on adversarial inputs:

* the byte-DP Levenshtein kernel against DuckDB's ``levenshtein()``
  itself (unicode, empty strings, ragged lengths);
* setsim against a brute-force all-pairs Jaccard scan — the prefix
  filter's no-false-negative guarantee (Bayardo et al. 2007), which
  holds whenever the per-token cap doesn't bite;
* survivorship across closure tiers (driver union-find vs broadcast
  LP) — outputs must be identical;
* block cleaning with the membership-stream pin forced OFF (the
  beyond-ceiling recompute path) — output identical to the pinned run.
"""

import random
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from kawa_ray.functions.minhash import word_ngrams
from kawa_ray.pipelines.pairscore import lev_bytes_batch
from kawa_ray.pipelines.setsim import (
    _SS_N,
    _SS_T_DEN,
    _SS_T_NUM,
    setsim_join_census,
)

_WS = re.compile(r"\s+")


def test_lev_kernel_matches_duckdb():
    import duckdb

    rng = random.Random(11)
    alpha = list("abcdef 日本語テキスト€é")
    pairs = []
    for _ in range(400):
        a = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 14)))
        b = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 14)))
        pairs.append((a, b))
    pairs += [("", ""), ("", "abc"), ("日本語", ""), ("aa", "aa")]
    con = duckdb.connect()
    con.execute("CREATE TABLE p(a VARCHAR, b VARCHAR)")
    con.executemany("INSERT INTO p VALUES (?, ?)", pairs)
    want = [r[0] for r in
            con.execute("SELECT levenshtein(a, b) FROM p").fetchall()]
    got = lev_bytes_batch([a.encode("utf-8") for a, _ in pairs],
                          [b.encode("utf-8") for _, b in pairs])
    assert got.tolist() == want


def _word_docs(tmp_path, n: int, seed: int, vocab_size: int = 8) -> str:
    """Word-salad docs over a tiny vocab so bigram sets overlap heavily
    (many true matches) and every prefix-token block stays far below
    the 64-member cap (n <= 30)."""
    rng = np.random.RandomState(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 12)))
             for _ in range(n)]
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64") * 3 + 1,
        "text": texts,
        "lang": rng.choice(["en", "fr"], size=n),
        "source": rng.choice(["web", "book"], size=n),
        "n_chars": np.asarray([len(t) for t in texts], dtype="int64"),
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def _brute_matches(sf_dir: str) -> int:
    df = pq.read_table(sf_dir + "/documents.parquet").to_pandas()
    sets = {}
    for did, text in zip(df["doc_id"], df["text"]):
        toks = _WS.split(text.lower().strip()) if text.strip() else []
        gs = set(word_ngrams(toks, _SS_N))
        if gs:
            sets[int(did)] = gs
    ids = sorted(sets)
    n = 0
    for x in range(len(ids) - 1):
        for y in range(x + 1, len(ids)):
            sa, sb = sets[ids[x]], sets[ids[y]]
            inter = len(sa & sb)
            if inter * _SS_T_DEN >= (len(sa) + len(sb) - inter) * _SS_T_NUM:
                n += 1
    return n


@pytest.mark.parametrize("n,seed", [(0, 1), (1, 2), (12, 3), (30, 4),
                                    (30, 5)])
def test_setsim_finds_every_true_match(ray_session, tmp_path, n, seed):
    sf = _word_docs(tmp_path, n, seed)
    got = setsim_join_census(sf)
    want = _brute_matches(sf)
    assert int(got["n_matches"].iloc[0]) == want
    assert int(got["n_candidates"].iloc[0]) >= want
    assert int(got["n_docs"].iloc[0]) == n


def test_survivorship_tiers_identical(ray_session, tmp_path,
                                     forced_closure_tiers):
    from kawa_ray.pipelines import blocking_ops

    sf = _word_docs(tmp_path, 40, 9, vocab_size=5)
    base = blocking_ops.cluster_survivorship_census(sf)
    assert int(base["n_clusters"].sum()) >= 1
    for tier in forced_closure_tiers():
        pd.testing.assert_frame_equal(
            base, blocking_ops.cluster_survivorship_census(sf), obj=tier)


def test_block_cleaning_lazy_path_identical(ray_session, tmp_path,
                                            monkeypatch):
    from kawa_ray.pipelines import blocking_ops

    sf = _word_docs(tmp_path, 25, 13)
    pinned = blocking_ops.block_cleaning_census(sf)
    monkeypatch.setattr(blocking_ops, "_BC_PIN_DOCS", 0)
    lazy = blocking_ops.block_cleaning_census(sf)
    pd.testing.assert_frame_equal(pinned, lazy)


def _tfidf_brute(sf_dir: str, bucket: int = 8, cap: int = 40) -> pd.DataFrame:
    """Independent single-process reference: same tokenization, same
    integer-micro idf, same pinned float expression."""
    import math

    from kawa_ray.functions.minhash import md5_low64

    df = pq.read_table(sf_dir + "/documents.parquet").to_pandas()
    n_docs = len(df)
    sets = {}
    for did, text in zip(df["doc_id"], df["text"]):
        toks = _WS.split(str(text).lower().strip()) if str(text).strip() else []
        hs = {md5_low64(t) for t in toks}
        if hs:
            sets[int(did)] = hs
    dfreq: dict = {}
    for hs in sets.values():
        for h in hs:
            dfreq[h] = dfreq.get(h, 0) + 1
    w = {h: math.floor(1_000_000 * math.log(n_docs / d))
         for h, d in dfreq.items()}
    n2 = {did: sum(w[h] * w[h] for h in hs) for did, hs in sets.items()}
    key = {int(r.doc_id): f"{r.lang}|{int(r.n_chars) // bucket}"
           for r in df.itertuples() if int(r.doc_id) in sets}
    blocks: dict = {}
    for did, k in key.items():
        blocks.setdefault(k, []).append(did)
    hist: dict = {}
    for mem in blocks.values():
        mem = sorted(mem)
        if len(mem) < 2 or len(mem) > cap:
            continue
        for x in range(len(mem) - 1):
            for y in range(x + 1, len(mem)):
                a, b = mem[x], mem[y]
                num = sum(w[h] * w[h] for h in sets[a] & sets[b])
                if n2[a] == 0 or n2[b] == 0:
                    bkt = 0
                else:
                    cos = num / (np.sqrt(np.float64(n2[a]))
                                 * np.sqrt(np.float64(n2[b])))
                    bkt = int(np.floor(cos * 20.0))
                hist[bkt] = hist.get(bkt, 0) + 1
    out = pd.DataFrame(sorted(hist.items()), columns=["bucket", "n_pairs"])
    out["bucket"] = out["bucket"].astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.reset_index(drop=True)


@pytest.mark.parametrize("n,seed", [(0, 21), (1, 22), (25, 23), (60, 24)])
def test_tfidf_cosine_matches_brute_force(ray_session, tmp_path, n, seed):
    from kawa_ray.pipelines.pairscore import tfidf_cosine_pairs_census

    sf = _word_docs(tmp_path, n, seed, vocab_size=6)
    got = tfidf_cosine_pairs_census(sf)
    want = _tfidf_brute(sf)
    pd.testing.assert_frame_equal(got, want)


def test_jw_kernel_matches_duckdb():
    import duckdb

    from kawa_ray.pipelines.pairscore import jw_bytes_batch

    rng = random.Random(19)
    alphabets = ["ab", "abcdefg", "abcdefghijklmnop", "aéß漢x"]
    pairs = []
    for alpha in alphabets:
        for _ in range(600):
            a = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 20)))
            b = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 20)))
            pairs.append((a, b))
    pairs += [("", ""), ("", "a"), ("a", ""), ("a", "a"), ("ab", "ab"),
              ("martha", "marhta"), ("dixon", "dicksonx"),
              ("abcd", "abcd"), ("abcdx", "abcdy")]
    con = duckdb.connect()
    p = pd.DataFrame(pairs, columns=["a", "b"])
    want = con.execute(
        "SELECT jaro_winkler_similarity(a, b) AS s FROM p").df()["s"]
    got = jw_bytes_batch([a.encode("utf-8") for a, _ in pairs],
                         [b.encode("utf-8") for _, b in pairs])
    # bit-exact, not approx: the census buckets floor(sim*20) and jaro
    # values are rationals that land EXACTLY on bucket edges
    assert (np.asarray(want, dtype=np.float64).view(np.int64)
            == got.view(np.int64)).all()


def _prefix_census_oracle(sf_dir: str, sql: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    # an EMPTY fixture's text column round-trips as typeless (DuckDB
    # binds it DOUBLE); the real tables are always VARCHAR — cast here
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, n_chars FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    df = con.execute(sql).df()
    return df.astype({c: "int64" for c in df.columns})


# the Jaro-Winkler census and the edit-distance census share blocks,
# prefixes and histogram shape; the edit-distance cases carry an
# "ed-" id so the Jaro-Winkler ids stay as they were
@pytest.mark.parametrize("n,seed,census", [
    *(pytest.param(n, s, "jw", id=f"{n}-{s}")
      for n, s in [(0, 31), (1, 32), (25, 33), (60, 34)]),
    *(pytest.param(n, s, "ed", id=f"ed-{n}-{s}")
      for n, s in [(0, 35), (1, 36), (60, 37)]),
])
def test_jaro_winkler_census_matches_duckdb(ray_session, tmp_path, n, seed,
                                            census):
    from kawa_ray.pipelines import pairscore

    op, sql = {
        "jw": (pairscore.jaro_winkler_pairs_census,
               pairscore.JARO_WINKLER_SQL),
        "ed": (pairscore.edit_distance_pairs_census,
               pairscore.EDIT_DISTANCE_SQL),
    }[census]
    sf = _word_docs(tmp_path, n, seed, vocab_size=6)
    pd.testing.assert_frame_equal(op(sf), _prefix_census_oracle(sf, sql))


def test_soundex_key_classic_examples():
    from kawa_ray.pipelines.blocking_ops import soundex_key

    # classic Odell-Russell values (simplified variant: no h/w bridging,
    # so 'ashcraft' is a226 here, not the full-rule A261)
    assert soundex_key("robert") == "r163"
    assert soundex_key("rupert") == "r163"
    assert soundex_key("tymczak") == "t522"
    assert soundex_key("pfister") == "p236"
    assert soundex_key("jackson") == "j250"
    assert soundex_key("a") == "a000"
    assert soundex_key("") == ""


@pytest.mark.parametrize("n,seed", [(0, 41), (1, 42), (80, 43)])
def test_phonetic_census_matches_duckdb(ray_session, tmp_path, n, seed):
    import duckdb

    from kawa_ray.pipelines.blocking_ops import (
        PHONETIC_BLOCKING_SQL,
        phonetic_blocking_census,
    )

    rng = np.random.RandomState(seed)
    names = ["smith", "smyth", "robert", "rupert", "ashcraft", "tymczak",
             "pfister", "jackson", "lee", "ng", "", "123", "Ümlaut",
             "日本語", "o'brien"]
    texts = [" ".join(rng.choice(names, size=rng.randint(1, 5)))
             for _ in range(n)]
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": texts,
        "lang": ["en"] * n,
        "n_chars": np.asarray([len(t) for t in texts], dtype="int64"),
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = phonetic_blocking_census(str(tmp_path))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(PHONETIC_BLOCKING_SQL).df() \
        .astype({"block_size": "int64", "n_blocks": "int64"})
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("n,seed", [(0, 51), (1, 52), (60, 53)])
def test_fs_decision_census_matches_duckdb(ray_session, tmp_path, n, seed):
    import duckdb

    from kawa_ray.pipelines.pairscore import (
        FS_DECISION_SQL,
        fs_decision_census,
    )

    sf = _word_docs(tmp_path, n, seed, vocab_size=6)
    got = fs_decision_census(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, CAST(source AS VARCHAR) AS source, n_chars "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(FS_DECISION_SQL).df() \
        .astype({"pattern": "int64", "n_pairs": "int64"})
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("n,seed", [(0, 61), (1, 62), (60, 63), (60, 64)])
def test_mutual_best_census_matches_duckdb(ray_session, tmp_path, n, seed):
    import duckdb

    from kawa_ray.pipelines.pairscore import (
        MUTUAL_BEST_SQL,
        mutual_best_match_census,
    )

    sf = _word_docs(tmp_path, n, seed, vocab_size=6)
    got = mutual_best_match_census(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, n_chars "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(MUTUAL_BEST_SQL).df() \
        .astype({"bucket": "int64", "n_pairs": "int64"})
    pd.testing.assert_frame_equal(got, want)


def test_mutual_best_is_one_to_one(ray_session, tmp_path):
    # a chain a~b~c where b is both a's and c's best can yield at most
    # ONE mutual pair containing b — the 1:1 constraint by construction
    texts = ["hello world xx", "hello world xy", "hello world yy",
             "zq zq zq zq zq"]
    df = pd.DataFrame({
        "doc_id": pd.Series([1, 2, 3, 4], dtype="int64"),
        "text": texts,
        "lang": ["en"] * 4,
        "n_chars": pd.Series([14] * 4, dtype="int64"),
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    from kawa_ray.pipelines.pairscore import mutual_best_match_census

    got = mutual_best_match_census(str(tmp_path))
    # 4 docs -> at most 2 mutual pairs under the 1:1 constraint
    assert int(got["n_pairs"].sum()) <= 2


@pytest.mark.parametrize("n,seed", [(0, 71), (1, 72), (50, 73), (50, 74)])
def test_monge_elkan_census_matches_duckdb(ray_session, tmp_path, n, seed):
    import duckdb

    from kawa_ray.pipelines.pairscore import (
        MONGE_ELKAN_SQL,
        monge_elkan_pairs_census,
    )

    sf = _word_docs(tmp_path, n, seed, vocab_size=6)
    got = monge_elkan_pairs_census(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, n_chars "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(MONGE_ELKAN_SQL).df() \
        .astype({"bucket": "int64", "n_pairs": "int64"})
    pd.testing.assert_frame_equal(got, want)


def test_monge_elkan_identical_docs_bucket_20(ray_session, tmp_path):
    texts = ["john smith", "john smith", "mary jones zzz"]
    df = pd.DataFrame({
        "doc_id": pd.Series([1, 2, 3], dtype="int64"),
        "text": texts,
        "lang": ["en"] * 3,
        "n_chars": pd.Series([10, 10, 14], dtype="int64"),
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    from kawa_ray.pipelines.pairscore import monge_elkan_pairs_census

    got = monge_elkan_pairs_census(str(tmp_path))
    # identical token lists -> every per-token max is exactly 1.0 ->
    # the integer bucket is exactly 20
    assert 20 in set(got["bucket"]) and int(
        got.loc[got["bucket"] == 20, "n_pairs"].iloc[0]) == 1


@pytest.mark.parametrize("n,seed", [(0, 81), (1, 82), (50, 83), (50, 84)])
def test_containment_census_matches_duckdb(ray_session, tmp_path, n, seed):
    import duckdb

    from kawa_ray.pipelines.pairscore import (
        CONTAINMENT_SQL,
        containment_pairs_census,
    )

    sf = _word_docs(tmp_path, n, seed, vocab_size=6)
    got = containment_pairs_census(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, n_chars "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(CONTAINMENT_SQL).df() \
        .astype({"bucket": "int64", "n_pairs": "int64"})
    pd.testing.assert_frame_equal(got, want)


def test_containment_detects_full_quote(ray_session, tmp_path):
    # a short doc fully contained in a long one: Jaccard is low (2/6)
    # but containment is exactly 1.0 -> bucket 20
    texts = ["alpha beta", "alpha beta gamma delta epsilon zeta"]
    df = pd.DataFrame({
        "doc_id": pd.Series([1, 2], dtype="int64"),
        "text": texts,
        "lang": ["en"] * 2,
        "n_chars": pd.Series([10, 12], dtype="int64"),  # same block
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    from kawa_ray.pipelines.pairscore import containment_pairs_census

    got = containment_pairs_census(str(tmp_path))
    assert got.to_dict("records") == [{"bucket": 20, "n_pairs": 1}]


def test_url_canonicalize_kernel_matches_duckdb(tmp_path):
    import duckdb

    from kawa_ray.pipelines.pages_ops import (
        _url_canon_ctes,
        canonicalize_urls,
    )

    urls = [
        "https://Example.COM/path#frag",
        "http://example.com:80/a/b/",
        "https://example.com:443/x?utm_source=tw&q=1",
        "https://example.com/x?utm_source=tw",
        "https://example.com/x?utm_a=1&utm_b=2",
        "https://example.com/x?a=1&utm_mid=3&b=2",
        "HTTPS://WWW.Example.com:443/Deep/Path///",
        "http://example.com:8080/keep-port",
        "ftp://Mixed.Case.Host/file",
        "no-scheme/relative/path/",
        "https://example.com",
        "https://example.com/",
        "",
        "https://example.com/?utm_x#f",
        "http://h:80",
        # review findings: trailing whitespace (Python $ vs RE2 $) and
        # uppercase schemes reaching the port rules
        "https://Example.com/a\n",
        "https://x.com/a/\n",
        "http://h:80\n",
        "HTTP://example.com:80/",
        "HTTPS://Ex.com:443/p",
        "https://example.com/a  \t",
    ]
    rng = random.Random(7)
    for _ in range(300):
        host = "".join(rng.choice("aBcD.") for _ in range(rng.randint(1, 8)))
        path = "".join(rng.choice("/xY?&=#_utm_s80") for _ in
                       range(rng.randint(0, 16)))
        urls.append(f"{rng.choice(['http', 'https', 'HTTP'])}://{host}{path}")
    df = pd.DataFrame({"url": urls, "lang": ["en"] * len(urls)})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "u.parquet"))
    con = duckdb.connect()
    want = dict(con.execute(
        f"WITH pages AS (SELECT url, lang FROM "
        f"read_parquet('{tmp_path}/u.parquet')),"
        f"{_url_canon_ctes('pages')}"
        f"SELECT DISTINCT url, u FROM c6"
    ).fetchall())
    got = canonicalize_urls(pd.Series(urls, dtype="str"))
    for raw, g in zip(urls, got):
        assert g == want[raw], \
            f"{raw!r}: engine {g!r} != duckdb {want[raw]!r}"


def test_url_canonicalize_census_counts(ray_session, tmp_path):
    # three raw spellings of one canonical url + one distinct url
    from kawa_ray.pipelines.pages_ops import canonicalize_urls

    s = pd.Series([
        "https://Example.com/a?utm_x=1",
        "https://example.com/a#frag",
        "https://example.com:443/a",
        "https://example.com/b",
    ])
    c = canonicalize_urls(s)
    assert c.nunique() == 2 and c[0] == c[1] == c[2] == "https://example.com/a"


@pytest.mark.parametrize("n,seed", [(0, 91), (1, 92), (30, 93)])
def test_cluster_ari_census_matches_duckdb(ray_session, tmp_path, n, seed):
    import duckdb

    from kawa_ray.pipelines.blocking_ops import (
        CLUSTER_ARI_SQL,
        cluster_ari_census,
    )

    sf = _word_docs(tmp_path, n, seed, vocab_size=5)
    got = cluster_ari_census(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, n_chars "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(CLUSTER_ARI_SQL).df()
    for c in ("n_docs", "same_both", "same_pred", "same_gold"):
        want[c] = want[c].astype("int64")
    got = got.copy()
    got["ari"] = got["ari"].round(6)
    want["ari"] = want["ari"].round(6)
    pd.testing.assert_frame_equal(got, want)


def test_cluster_ari_perfect_agreement(ray_session, tmp_path):
    # exact duplicates only, in DIFFERENT size blocks (lengths 23 vs
    # 47, size bucket 16) so the size rule cannot bridge the two dup
    # groups: near-dup closure == exact-dup gold -> ARI exactly 1
    texts = ["aa bb cc dd ee ff gg hh", "aa bb cc dd ee ff gg hh",
             "zz yy xx ww vv uu tt ss zz yy xx ww vv uu tt ss",
             "zz yy xx ww vv uu tt ss zz yy xx ww vv uu tt ss"]
    df = pd.DataFrame({
        "doc_id": pd.Series([1, 2, 3, 4], dtype="int64"),
        "text": texts,
        "lang": ["en"] * 4,
        "source": ["web"] * 4,
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    from kawa_ray.pipelines.blocking_ops import cluster_ari_census

    got = cluster_ari_census(str(tmp_path))
    assert got["ari"].iloc[0] == 1.0
    assert int(got["same_both"].iloc[0]) == 2  # two dup pairs


def test_survivorship_unchanged_after_labels_refactor(ray_session,
                                                      tmp_path):
    # the shared _multirule_closure_labels helper must reproduce the
    # pre-refactor survivorship output (pinned by the DuckDB oracle)
    import duckdb

    from kawa_ray.pipelines.blocking_ops import (
        SURVIVORSHIP_SQL,
        cluster_survivorship_census,
    )

    sf = _word_docs(tmp_path, 40, 17, vocab_size=5)
    got = cluster_survivorship_census(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, CAST(source AS VARCHAR) AS source, n_chars "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(SURVIVORSHIP_SQL).df() \
        .astype({"n_clusters": "int64"})
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))


@pytest.mark.parametrize("n,seed", [(0, 101), (1, 102), (30, 103)])
def test_blocking_quality_census_matches_duckdb(ray_session, tmp_path, n,
                                                seed):
    import duckdb

    from kawa_ray.pipelines.blocking_ops import (
        BLOCKING_QUALITY_SQL,
        blocking_quality_census,
    )

    sf = _word_docs(tmp_path, n, seed, vocab_size=5)
    got = blocking_quality_census(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, n_chars "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(BLOCKING_QUALITY_SQL).df()
    for c in ("n_docs", "n_candidates", "n_gold_pairs", "n_matched"):
        want[c] = want[c].astype("int64")
    for c in ("pair_completeness", "reduction_ratio"):
        got[c] = got[c].round(6)
        want[c] = want[c].round(6)
    pd.testing.assert_frame_equal(got, want)


def test_blocking_quality_exact_dups_fully_recalled(ray_session, tmp_path):
    # exact duplicates share every blocking key, so the multirule union
    # must recall ALL gold pairs: pair_completeness == 1.0 with gold > 0
    texts = ["aa bb cc dd ee ff gg hh"] * 3 + ["zz yy xx ww vv uu tt ss"]
    df = pd.DataFrame({
        "doc_id": pd.Series([1, 2, 3, 4], dtype="int64"),
        "text": texts,
        "lang": ["en"] * 4,
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    from kawa_ray.pipelines.blocking_ops import blocking_quality_census

    got = blocking_quality_census(str(tmp_path))
    assert int(got["n_gold_pairs"].iloc[0]) == 3
    assert got["pair_completeness"].iloc[0] == 1.0


@pytest.mark.parametrize("n,seed", [(0, 111), (1, 112), (30, 113),
                                    (40, 114)])
def test_cluster_density_census_matches_duckdb(ray_session, tmp_path, n,
                                               seed):
    import duckdb

    from kawa_ray.pipelines.blocking_ops import (
        CLUSTER_DENSITY_SQL,
        cluster_density_census,
    )

    sf = _word_docs(tmp_path, n, seed, vocab_size=5)
    got = cluster_density_census(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT doc_id, "
                f"CAST(text AS VARCHAR) AS text, CAST(lang AS VARCHAR) "
                f"AS lang, n_chars "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(CLUSTER_DENSITY_SQL).df() \
        .astype({"density_bucket": "int64", "n_clusters": "int64"})
    pd.testing.assert_frame_equal(got, want)


def test_cluster_density_complete_pair_is_bucket_20_over_2(ray_session,
                                                           tmp_path):
    # a 2-node cluster with its 1 edge is complete: bucket (1*20)//2=10
    texts = ["aa bb cc dd ee ff gg hh", "aa bb cc dd ee ff gg hh"]
    df = pd.DataFrame({
        "doc_id": pd.Series([1, 2], dtype="int64"),
        "text": texts,
        "lang": ["en"] * 2,
        "n_chars": pd.Series([len(t) for t in texts], dtype="int64"),
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    from kawa_ray.pipelines.blocking_ops import cluster_density_census

    got = cluster_density_census(str(tmp_path))
    assert got.to_dict("records") == [{"density_bucket": 10,
                                      "n_clusters": 1}]


def test_paragraph_neardup_spill_path_identical(ray_session, monkeypatch):
    # force the >200k-page spill tier at fixture scale: output must be
    # identical to the pinned run, and the spill dir must be cleaned up
    import glob
    import tempfile

    from kawa_ray.pipelines import pages_ops

    sf = "/root/testdata/sf0.001"
    before = set(glob.glob(tempfile.gettempdir() + "/para-grams-*"))
    pinned = pages_ops.paragraph_neardup_census(sf)
    monkeypatch.setattr(pages_ops, "_PN_SPILL_PAGES", 0)
    spilled = pages_ops.paragraph_neardup_census(sf)
    pd.testing.assert_frame_equal(pinned, spilled)
    after = set(glob.glob(tempfile.gettempdir() + "/para-grams-*"))
    assert after - before == set()


def test_census_spills_removed_when_a_fold_raises(ray_session, monkeypatch,
                                                  tmp_path):
    """Force the spill tier of the gold-hash and paragraph-gram streams
    and make the first fold over each raise: the spill directory must
    exist when the fold fails and be gone afterwards."""
    import tempfile

    from kawa_ray.pipelines import blocking_ops, docs, pages_ops

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(blocking_ops, "_GOLD_PIN_DOCS", 0)
    monkeypatch.setattr(pages_ops, "_PN_SPILL_PAGES", 0)
    spilled = []

    def spills():
        return sorted(p.name for pat in ("gold-hash-*", "para-grams-*")
                      for p in tmp_path.glob(pat))

    real = blocking_ops.partition_reduce

    def gold_fold_fails(ds, key_col, fn, partitions=64):
        if key_col == "glbl":
            spilled.append(spills())
            raise RuntimeError("injected fold failure")
        return real(ds, key_col, fn, partitions)

    def band_fold_fails(*args, **kwargs):
        spilled.append(spills())
        raise RuntimeError("injected fold failure")

    monkeypatch.setattr(blocking_ops, "partition_reduce", gold_fold_fails)
    monkeypatch.setattr(docs, "_partitioned_band_pairs", band_fold_fails)
    sf = "/root/testdata/sf0.001"
    for census in (blocking_ops.cluster_ari_census,
                   blocking_ops.blocking_quality_census,
                   pages_ops.paragraph_neardup_census):
        with pytest.raises(RuntimeError, match="injected fold failure"):
            census(sf)
        assert spills() == []
    assert [len(s) for s in spilled] == [1, 1, 1]
    assert spilled[0][0].startswith("gold-hash-")
    assert spilled[2][0].startswith("para-grams-")


def test_fs_decision_bands_are_consistent():
    # every pattern's decision follows its weight sum; the full-agree
    # pattern is a match, the full-disagree pattern a nonmatch
    from kawa_ray.pipelines.pairscore import (
        _FS_MATCH_T,
        _FS_POSSIBLE_T,
        _FS_W,
    )
    def w(p):
        return (_FS_W["jw"][0] if p & 4 else _FS_W["jw"][1]) \
            + (_FS_W["lev"][0] if p & 2 else _FS_W["lev"][1]) \
            + (_FS_W["src"][0] if p & 1 else _FS_W["src"][1])
    assert w(7) >= _FS_MATCH_T
    assert w(0) < _FS_POSSIBLE_T
    # the clerical band is non-empty over the 8 patterns
    assert any(_FS_POSSIBLE_T <= w(p) < _FS_MATCH_T for p in range(8))
