"""Operators over the north-rule input table itself (pages:
url/warc_ts/html/text/lang — BASELINE.json input_hint): the standard
Common-Crawl-pipeline censuses that precede any content work.

Both queries are fully vectorised (pyarrow compute / pandas datetime
kernels inside map_batches, per-block partials folded on the driver) and
carry exact DuckDB oracles that recompute over the same parquet files
(the EXTRA pytest tier runs at sf0.001; the oracle SQL is built at
import against that corpus's path, mirroring er_word2ner_stats's
build-at-import pattern).
"""

from __future__ import annotations

import os
import re as _re

import pandas as pd
import pyarrow as pa

import ray.data as rd

from kawa_ray.sources.pages import ensure_pages, sf_of_dir
from kawa_ray.stages.distinct import fold_groups, partition_join, partition_reduce

# the reference regex for the host part; shared verbatim with the SQL
# oracle (both engines evaluate RE2-compatible syntax identically)
_DOMAIN_RE = r"^https://([^/]+)/"
_TOP_N = 20


def _read(sf_dir: str, columns: list[str]) -> rd.Dataset:
    pages_dir = ensure_pages(sf_of_dir(sf_dir))
    return rd.read_parquet(os.path.join(pages_dir, "pages"), columns=columns)


def page_domain_census(sf_dir: str) -> pd.DataFrame:
    """Top-20 crawl domains: pages + distinct languages per host.

    Shape: per-batch (domain, lang) pair counts — domain x lang is
    bounded (sites x langs), far below page cardinality — then one
    groupby over the pair partials; the top-k cut happens on the
    already-tiny per-domain frame."""

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # host = element 2 of ['https:', '', host, ...] — zero-copy arrow
        # split, equivalent to the oracle's regexp_extract group 1 for
        # the corpus's https://host/... URLs (a malformed URL fails
        # loudly here and in the oracle alike)
        parts = pc.split_pattern(t.column("url"), "/", max_splits=3)
        dom = pc.list_element(parts, 2)
        df = pd.DataFrame({
            "domain": dom.to_pylist(),
            "lang": t.column("lang").to_pylist(),
        })
        g = df.groupby(["domain", "lang"], sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    # domain is web-scale cardinality: hash-partitioned merge of the
    # pair partials (the stages/distinct.py per-key rule) with the
    # per-domain census and a per-partition top-N cut in-batch — each
    # domain is whole in one partition, so the global top-N survives
    # and only partitions x N rows reach the driver
    def domain_top(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["domain", "lang"], sort=False, as_index=False)["n"]
               .sum()
               .groupby("domain")
               .agg(n_pages=("n", "sum"), n_langs=("lang", "nunique"))
               .reset_index())
        return out.sort_values(["n_pages", "domain"],
                               ascending=[False, True]).head(_TOP_N)

    out = partition_reduce(
        _read(sf_dir, ["url", "lang"]).map_batches(partial, batch_format="pyarrow"),
        "domain", domain_top,
    ).to_pandas()
    out = out.sort_values(["n_pages", "domain"],
                          ascending=[False, True]).head(_TOP_N)
    out["n_pages"] = out["n_pages"].astype("int64")
    out["n_langs"] = out["n_langs"].astype("int64")
    return out.reset_index(drop=True)


def crawl_hourly_census(sf_dir: str) -> pd.DataFrame:
    """Pages per crawl hour-of-day (warc_ts) x language — the crawl-rate
    profile.  Per-block partials (<= 24 x langs rows) folded on the
    driver."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hour": df["warc_ts"].dt.hour.astype("int64"),
                             "lang": df["lang"]})

    return fold_groups(
        _read(sf_dir, ["warc_ts", "lang"])
        .map_batches(partial, batch_format="pandas"),
        ["hour", "lang"], {"n_pages": (None, "count")})


def _pages_path_sql() -> str:
    """read_parquet source over the sf0.001 corpus (the EXTRA tier's
    fixed scale), generated-if-needed at import."""
    d = ensure_pages("0.001")
    return os.path.join(d, "pages", "*.parquet").replace("'", "''")


def _domain_sql() -> str:
    return f"""
WITH pages AS (
  SELECT url, lang FROM read_parquet('{_pages_path_sql()}')
), d AS (
  SELECT regexp_extract(url, '{_DOMAIN_RE}', 1) AS domain, lang FROM pages
)
SELECT domain, COUNT(*) AS n_pages,
       CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs
FROM d GROUP BY domain
ORDER BY n_pages DESC, domain ASC
LIMIT {_TOP_N}
"""


def _hourly_sql() -> str:
    return f"""
SELECT CAST(EXTRACT(hour FROM warc_ts) AS BIGINT) AS hour, lang,
       COUNT(*) AS n_pages
FROM read_parquet('{_pages_path_sql()}')
GROUP BY 1, 2 ORDER BY hour, lang
"""


PAGE_DOMAIN_CENSUS_SQL = _domain_sql()
CRAWL_HOURLY_CENSUS_SQL = _hourly_sql()


def url_filter_census(sf_dir: str) -> pd.DataFrame:
    """URL/domain blocklist filtering — the RefinedWeb/UT1-style crawl
    pre-filter: drop pages whose host is on a blocklist before any
    content work.  -> per-lang (n_pages, n_blocked).

    The sandbox blocklist is the deterministic ``md5_low64(domain) % 10
    == 0`` domain slice (no external data; ~10% of hosts, the UT1 list's
    slot), but the PLUMBING is the real one: pass 1 streams the corpus
    and folds the per-batch distinct blocked domains (domain-scale, the
    size class of the real 4.6M-entry UT1 list), the folded set ships
    ONCE via ``ray.put``, and pass 2 filters every batch against the
    broadcast set — the standard small-side semi-join, never a shuffle.
    The oracle applies the hash rule directly (same md5 semantics:
    ``md5_number_lower`` == ``md5_low64``)."""
    import numpy as np
    import ray

    from kawa_ray.functions.minhash import md5_low64_many

    def _domains(t: pa.Table) -> np.ndarray:
        import pyarrow.compute as pc

        parts = pc.split_pattern(t.column("url"), "/", max_splits=3)
        return np.asarray(pc.list_element(parts, 2).to_pylist(), dtype=object)

    def blocked_partial(t: pa.Table) -> pd.DataFrame:
        dom = pd.unique(_domains(t))
        hits = dom[md5_low64_many(dom) % 10 == 0]
        # str dtype (not object): Ray's block size estimator chokes on
        # empty object columns
        return pd.DataFrame({"domain": pd.Series(hits, dtype="str")})

    blocked: set[str] = set()
    for b in _read(sf_dir, ["url"]) \
            .map_batches(blocked_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pandas"):
        blocked.update(b["domain"])
    blocked_ref = ray.put(blocked)

    def census(t: pa.Table) -> pd.DataFrame:
        bl = ray.get(blocked_ref)
        df = pd.DataFrame({"domain": _domains(t),
                           "lang": t.column("lang").to_pylist()})
        df["blocked"] = df["domain"].isin(bl).astype("int64")
        return df[["lang", "blocked"]]

    return fold_groups(
        _read(sf_dir, ["url", "lang"]).map_batches(census, batch_format="pyarrow"),
        "lang", {"n_pages": (None, "count"), "n_blocked": ("blocked", "sum")})


def line_dedup_census(sf_dir: str) -> pd.DataFrame:
    """CCNet-style cross-document line dedup census: every non-empty
    line (paragraph) of the crawl is deduplicated corpus-wide — of each
    distinct line's occurrences only one survives (the one whose url
    has the smallest 64-bit md5 — an arbitrary-but-deterministic pick,
    NOT lexicographic url order); the rest are removed.  This is the boilerplate-removal step that
    precedes LM quality filtering in the CCNet pipeline (Wenzek et al.
    2020, §3 "deduplicating paragraphs across shards"), distinct from
    whole-document dedup: it strips repeated headers/footers/menus
    from pages that are otherwise unique.  -> per-lang
    (n_lines, n_removed, chars_removed).

    Shape: pages explode into line rows in-batch (arrow split + numpy
    repeat, no Python row loop), each line reduced to its 64-bit md5
    before the exchange — what actually crosses the ONE hash-partition
    all-to-all is (line_hash, url_hash, lang, len), ~3-4x lighter than
    the raw strings, and the per-partition rank is an integer sort.
    Hashing the paragraphs instead of comparing them verbatim is the
    real CCNet design (its dedup keys are SHA1 prefixes of normalized
    paragraphs); the oracle mirrors the hash bit-for-bit
    (``md5_number_lower`` == ``md5_low64``), so parity stays exact.
    The per-partition reduce ranks each hash group by (url_hash, lang,
    len) — fully deterministic even across hash ties — keeps the first
    occurrence and folds the per-lang census, so only lang-cardinality
    partials leave the exchange.  Never a broadcast line set, never
    driver state."""
    import numpy as np

    from kawa_ray.functions.minhash import md5_low64_many

    def explode(t: pa.Table) -> pd.DataFrame:
        import pyarrow.compute as pc

        lines = pc.split_pattern(t.column("text"), "\n")
        n = pc.list_value_length(lines).to_numpy()
        flat = pc.list_flatten(lines)
        # hash the (few) urls once, then repeat per line
        uh = np.repeat(md5_low64_many(t.column("url").to_pylist()), n)
        df = pd.DataFrame({
            "lang": np.repeat(
                np.asarray(t.column("lang").to_pylist(), dtype=object), n),
            "uh": uh,
            "h": md5_low64_many(flat.to_pylist()),
            "l": pc.utf8_length(flat).to_numpy().astype("int64"),
            "keep": pc.not_equal(flat, "").to_numpy(zero_copy_only=False),
        })
        return df.loc[df["keep"], ["lang", "uh", "h", "l"]]

    def census_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "uh", "lang", "l"], kind="stable")
        removed = g.groupby("h", sort=False).cumcount() > 0
        return (pd.DataFrame({
            "lang": g["lang"],
            "r": removed.astype("int64"),
            "c": (g["l"] * removed).astype("int64"),
        }).groupby("lang", as_index=False)
          .agg(n_lines=("r", "size"), n_removed=("r", "sum"),
               chars_removed=("c", "sum")))

    return fold_groups(
        partition_reduce(
            _read(sf_dir, ["url", "text", "lang"])
            .map_batches(explode, batch_format="pyarrow"),
            "h", census_part),
        "lang", {c: (c, "sum") for c in
                 ("n_lines", "n_removed", "chars_removed")})


def _line_dedup_sql() -> str:
    return f"""
WITH l AS (
  SELECT lang, url, UNNEST(string_split(text, chr(10))) AS line
  FROM read_parquet('{_pages_path_sql()}')
), nz AS (
  SELECT lang, md5_number_lower(url) AS uh, md5_number_lower(line) AS h,
         LENGTH(line) AS l
  FROM l WHERE line <> ''
), r AS (
  SELECT lang, l,
         ROW_NUMBER() OVER (PARTITION BY h ORDER BY uh, lang, l) AS rn
  FROM nz
)
SELECT lang, COUNT(*) AS n_lines,
       CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_removed,
       CAST(SUM(CASE WHEN rn > 1 THEN l ELSE 0 END) AS BIGINT) AS chars_removed
FROM r GROUP BY lang ORDER BY lang
"""


LINE_DEDUP_CENSUS_SQL = _line_dedup_sql()


def cc_prefilter_census(sf_dir: str) -> pd.DataFrame:
    """Composed Common-Crawl pre-filter: URL/domain blocklist (the
    url_filter stage) THEN cross-document line dedup over the surviving
    pages (the line_dedup stage) — the two content-independent steps a
    CC pipeline chains before any quality work, verified end-to-end
    under ONE oracle.  -> per-lang (n_pages, n_lines_kept, chars_kept).

    Stage order matters and is pinned on both engines: blocked pages
    are dropped BEFORE dedup, so a boilerplate line whose first
    occurrence sat on a blocked domain survives on the first unblocked
    page instead.  Shapes are the two stages' own: pass 1 folds the
    blocked-domain set (broadcast once via ray.put), pass 2 explodes
    surviving pages into hashed line rows through the single
    hash-partition exchange; only lang-sized partials leave it."""
    import numpy as np
    import ray

    from kawa_ray.functions.minhash import md5_low64_many

    def _domains(t: pa.Table) -> np.ndarray:
        import pyarrow.compute as pc

        parts = pc.split_pattern(t.column("url"), "/", max_splits=3)
        return np.asarray(pc.list_element(parts, 2).to_pylist(), dtype=object)

    def blocked_partial(t: pa.Table) -> pd.DataFrame:
        dom = pd.unique(_domains(t))
        hits = dom[md5_low64_many(dom) % 10 == 0]
        return pd.DataFrame({"domain": pd.Series(hits, dtype="str")})

    blocked: set[str] = set()
    for b in _read(sf_dir, ["url"]) \
            .map_batches(blocked_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pandas"):
        blocked.update(b["domain"])
    blocked_ref = ray.put(blocked)

    def explode_kept(t: pa.Table) -> pd.DataFrame:
        import pyarrow.compute as pc

        keep_page = ~pd.Series(_domains(t)).isin(ray.get(blocked_ref)).to_numpy()
        t = t.filter(pa.array(keep_page))
        lines = pc.split_pattern(t.column("text"), "\n")
        n = pc.list_value_length(lines).to_numpy()
        flat = pc.list_flatten(lines)
        df = pd.DataFrame({
            "lang": np.repeat(
                np.asarray(t.column("lang").to_pylist(), dtype=object), n),
            "uh": np.repeat(md5_low64_many(t.column("url").to_pylist()), n),
            "h": md5_low64_many(flat.to_pylist()),
            "l": pc.utf8_length(flat).to_numpy().astype("int64"),
            "keep": pc.not_equal(flat, "").to_numpy(zero_copy_only=False),
        })
        # one page-count row per surviving page rides the same stream,
        # scattered by url hash (a constant key would funnel every
        # page row into one partition); l = -1 marks them
        puh = md5_low64_many(t.column("url").to_pylist())
        pages = pd.DataFrame({
            "lang": np.asarray(t.column("lang").to_pylist(), dtype=object),
            "uh": puh,
            "h": puh,
            "l": np.full(t.num_rows, -1, dtype="int64"),
            "keep": np.ones(t.num_rows, dtype=bool),
        })
        return pd.concat([df.loc[df["keep"]], pages], ignore_index=True) \
                 .drop(columns="keep")

    def census_part(g: pd.DataFrame) -> pd.DataFrame:
        pages = g[g["l"] < 0]
        lines = g[g["l"] >= 0]
        lines = lines.sort_values(["h", "uh", "lang", "l"], kind="stable")
        kept = lines.groupby("h", sort=False).cumcount() == 0
        per_lang = (pd.DataFrame({
            "lang": lines["lang"],
            "k": kept.astype("int64"),
            "c": (lines["l"] * kept).astype("int64"),
        }).groupby("lang", as_index=False)
          .agg(n_lines_kept=("k", "sum"), chars_kept=("c", "sum"))
          .assign(n_pages=0))
        pg = (pages.groupby("lang", as_index=False).size()
              .rename(columns={"size": "n_pages"})
              .assign(n_lines_kept=0, chars_kept=0))
        return pd.concat([per_lang, pg], ignore_index=True)

    return fold_groups(
        partition_reduce(
            _read(sf_dir, ["url", "text", "lang"])
            .map_batches(explode_kept, batch_format="pyarrow"),
            "h", census_part),
        "lang", {c: (c, "sum") for c in
                 ("n_pages", "n_lines_kept", "chars_kept")})


def _cc_prefilter_sql() -> str:
    return f"""
WITH kept_pages AS (
  SELECT url, lang, text
  FROM read_parquet('{_pages_path_sql()}')
  WHERE md5_number_lower(regexp_extract(url, '{_DOMAIN_RE}', 1)) % 10 <> 0
), l AS (
  SELECT lang, url, UNNEST(string_split(text, chr(10))) AS line
  FROM kept_pages
), nz AS (
  SELECT lang, md5_number_lower(url) AS uh, md5_number_lower(line) AS h,
         LENGTH(line) AS l
  FROM l WHERE line <> ''
), r AS (
  SELECT lang, l,
         ROW_NUMBER() OVER (PARTITION BY h ORDER BY uh, lang, l) AS rn
  FROM nz
), line_census AS (
  SELECT lang,
         CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_lines_kept,
         CAST(SUM(CASE WHEN rn = 1 THEN l ELSE 0 END) AS BIGINT)
             AS chars_kept
  FROM r GROUP BY lang
), page_census AS (
  SELECT lang, COUNT(*) AS n_pages FROM kept_pages GROUP BY lang
)
SELECT p.lang, p.n_pages,
       COALESCE(lc.n_lines_kept, 0) AS n_lines_kept,
       COALESCE(lc.chars_kept, 0) AS chars_kept
FROM page_census p LEFT JOIN line_census lc USING (lang)
ORDER BY p.lang
"""


CC_PREFILTER_CENSUS_SQL = _cc_prefilter_sql()


# RE2-compatible PII patterns, shared VERBATIM with the SQL oracle
# (pyarrow and DuckDB both run RE2, so non-overlapping match sets are
# identical by construction)
_PII_PATTERNS = {
    "emails": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "ipv4s": r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",
    "phones": r"\+?\d[\d\s-]{7,}\d",
}


def pii_scrub_census(sf_dir: str) -> pd.DataFrame:
    """PII redaction census — the training-data scrubbing step
    (BigScience ROOTS / RedPajama-v2 flag-and-redact): count email /
    IPv4 / phone-shaped spans per page and the characters a redaction
    pass would remove.  -> per-lang (n_pages, n_pages_with_pii, emails,
    ipv4s, phones, chars_redacted).

    chars_redacted sums each pattern's matched span lengths against the
    ORIGINAL text (patterns counted independently, not cumulatively —
    the census convention; a span matching two patterns counts under
    both).  Fully vectorised single pass: RE2 count + replace kernels
    per batch, per-lang partials folded on the driver — no shuffle on
    page cardinality."""

    def partial(t: pa.Table) -> pd.DataFrame:
        import numpy as np
        import pyarrow.compute as pc

        text = t.column("text")
        base_len = pc.utf8_length(text).to_numpy().astype("int64")
        cols = {"lang": t.column("lang").to_pylist()}
        redacted = np.zeros(t.num_rows, dtype="int64")
        any_hit = np.zeros(t.num_rows, dtype=bool)
        for name, pat in _PII_PATTERNS.items():
            cnt = pc.count_substring_regex(text, pat).to_numpy().astype("int64")
            stripped = pc.utf8_length(
                pc.replace_substring_regex(text, pat, "")
            ).to_numpy().astype("int64")
            cols[name] = cnt
            redacted += base_len - stripped
            any_hit |= cnt > 0
        df = pd.DataFrame(cols)
        df["chars_redacted"] = redacted
        df["with_pii"] = any_hit.astype("int64")
        return df

    return fold_groups(
        _read(sf_dir, ["text", "lang"]).map_batches(partial, batch_format="pyarrow"),
        "lang", {"n_pages": (None, "count"),
                 "n_pages_with_pii": ("with_pii", "sum"),
                 "emails": ("emails", "sum"), "ipv4s": ("ipv4s", "sum"),
                 "phones": ("phones", "sum"),
                 "chars_redacted": ("chars_redacted", "sum")})


def _pii_scrub_sql() -> str:
    e, i, p = (_PII_PATTERNS["emails"], _PII_PATTERNS["ipv4s"],
               _PII_PATTERNS["phones"])
    return f"""
WITH c AS (
  SELECT lang,
         LEN(REGEXP_EXTRACT_ALL(text, '{e}')) AS emails,
         LEN(REGEXP_EXTRACT_ALL(text, '{i}')) AS ipv4s,
         LEN(REGEXP_EXTRACT_ALL(text, '{p}')) AS phones,
         (LENGTH(text) - LENGTH(REGEXP_REPLACE(text, '{e}', '', 'g')))
         + (LENGTH(text) - LENGTH(REGEXP_REPLACE(text, '{i}', '', 'g')))
         + (LENGTH(text) - LENGTH(REGEXP_REPLACE(text, '{p}', '', 'g')))
           AS chars_redacted
  FROM read_parquet('{_pages_path_sql()}')
)
SELECT lang, COUNT(*) AS n_pages,
       CAST(SUM(CASE WHEN emails + ipv4s + phones > 0 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_pages_with_pii,
       CAST(SUM(emails) AS BIGINT) AS emails,
       CAST(SUM(ipv4s) AS BIGINT) AS ipv4s,
       CAST(SUM(phones) AS BIGINT) AS phones,
       CAST(SUM(chars_redacted) AS BIGINT) AS chars_redacted
FROM c GROUP BY lang ORDER BY lang
"""


PII_SCRUB_CENSUS_SQL = _pii_scrub_sql()


def _url_filter_sql() -> str:
    return f"""
WITH d AS (
  SELECT regexp_extract(url, '{_DOMAIN_RE}', 1) AS domain, lang
  FROM read_parquet('{_pages_path_sql()}')
)
SELECT lang, COUNT(*) AS n_pages,
       CAST(SUM(CASE WHEN md5_number_lower(domain) % 10 = 0
                THEN 1 ELSE 0 END) AS BIGINT) AS n_blocked
FROM d GROUP BY lang ORDER BY lang
"""


URL_FILTER_CENSUS_SQL = _url_filter_sql()


# ---------------------------------------------------------------------------
# URL canonicalization dedup census
# ---------------------------------------------------------------------------

# rule order matters and is identical op-side and oracle-side:
# fragment -> utm params -> dangling-& fix -> default ports ->
# lowercase scheme+host -> trailing slash.  Every pattern is RE2-safe
# (no lookaround — DuckDB's regexp engine) and each is either anchored
# (max one match, so pandas' replace-all == DuckDB's default
# first-match) or explicitly global on BOTH sides (the utm rule).
# rule 0 strips trailing ASCII whitespace (explicit class — RE2 \s is
# ASCII-only while Python \s is unicode; and Python $ matches before a
# trailing newline while RE2 $ is end-of-string, so every later
# anchored rule is only byte-identical because rule 0 has removed any
# trailing \n first).  Scheme+host lowercasing runs BEFORE the port
# rules so 'HTTP://h:80/' normalizes its port too.
_URL_CANON_RULES: list[tuple[str, str]] = [
    (r"[ \t\n\r\f]+$", ""),                         # trailing whitespace
    (r"#.*$", ""),                                   # strip fragment
    (r"[?&]utm_[^&#]*", ""),                         # strip utm_* params (global)
    (r"^([^?&]*)&", r"\1?"),                         # re-anchor first param
]
_URL_PORT_RULES: list[tuple[str, str]] = [
    (r"^(http://[^/?#]*):80([/?#].*)?$", r"\1\2"),   # default http port
    (r"^(https://[^/?#]*):443([/?#].*)?$", r"\1\2"),  # default https port
]
_URL_SCHEME_HOST_RE = r"^([a-zA-Z][a-zA-Z0-9+.\-]*://[^/?#]*)(.*)$"
_URL_TRAILING_SLASH = (r"/+$", "")


def canonicalize_urls(s: pd.Series) -> pd.Series:
    """Vectorised URL canonicalization, byte-identical to the SQL
    chain in ``_url_canon_ctes`` (pandas replaces all occurrences; all
    rules but the utm one are anchored so that equals DuckDB's
    first-match default, and the utm rule is 'g' in SQL).  NULL urls
    canonicalize as '' on both sides (COALESCE in the oracle)."""
    u = s.fillna("")
    for pat, rep in _URL_CANON_RULES:
        u = u.str.replace(pat, rep, regex=True)
    m = u.str.extract(_URL_SCHEME_HOST_RE, expand=True)
    hit = m[0].notna()
    u = u.where(~hit, m[0].str.lower() + m[1])
    for pat, rep in _URL_PORT_RULES:
        u = u.str.replace(pat, rep, regex=True)
    return u.str.replace(*_URL_TRAILING_SLASH, regex=True)


def url_canonicalize_census(sf_dir: str) -> pd.DataFrame:
    """Canonical-URL dedup census — the crawl-side exact-dup pass that
    runs BEFORE any content hashing (CommonCrawl/RefinedWeb keep one
    fetch per canonical URL): strip fragments and utm_* tracking
    params, drop default ports, lowercase scheme+host, trim trailing
    slashes, then count how many distinct raw URLs collapse per lang.
    -> per-lang (n_pages, n_raw, n_canonical); n_raw - n_canonical is
    the dup mass canonicalization reveals.

    Scale shape: canonicalization is a per-batch vectorised regex
    chain; the census is ONE hash-partition exchange keyed on the
    canonical string — every raw spelling of a URL maps to the same
    canonical value, so both distinct counts are partition-local and
    only per-lang partials leave.  The fixture corpus's synthetic URLs
    are already canonical (n_raw == n_canonical — the oracle pins
    that); the messy-URL rules are pinned by adversarial fixtures in
    tests/test_er_round5.py."""

    def canon_rows(t: pa.Table) -> pd.DataFrame:
        # NULL url/lang normalize to '' on both sides (COALESCE in the
        # oracle) so no row is silently dropped by a pandas groupby
        urls = pd.Series(t.column("url").to_pylist(), dtype="str").fillna("")
        return pd.DataFrame({
            "lang": pd.Series(t.column("lang").to_pylist(),
                              dtype="str").fillna(""),
            "url": urls,
            "canon": canonicalize_urls(urls),
        })

    def census_part(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("lang", as_index=False)
               .agg(n_pages=("url", "size"),
                    n_raw=("url", "nunique"),
                    n_canonical=("canon", "nunique")))
        for c in ("n_pages", "n_raw", "n_canonical"):
            out[c] = out[c].astype("int64")
        return out

    acc: dict[str, list[int]] = {}
    for b in partition_reduce(
            _read(sf_dir, ["url", "lang"])
            .map_batches(canon_rows, batch_format="pyarrow"),
            "canon", census_part, partitions=64) \
            .iter_batches(batch_format="pandas"):
        for lang, np_, nr, nc in zip(b["lang"], b["n_pages"], b["n_raw"],
                                     b["n_canonical"]):
            cur = acc.setdefault(str(lang), [0, 0, 0])
            cur[0] += int(np_)
            cur[1] += int(nr)
            cur[2] += int(nc)
    out = pd.DataFrame(
        [(lang, v[0], v[1], v[2]) for lang, v in sorted(acc.items())],
        columns=["lang", "n_pages", "n_raw", "n_canonical"])
    for c in ("n_pages", "n_raw", "n_canonical"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def _url_canon_ctes(src: str) -> str:
    """The canonicalization chain as CTEs over ``src`` (a FROM-able
    producing url, lang) — shared by the EXTRA oracle and the
    adversarial tests."""
    return f"""
cw AS (SELECT lang, url,
              regexp_replace(COALESCE(url, ''), '[ \t\n\r\f]+$', '')
              AS u FROM {src}),
c0 AS (SELECT lang, url, regexp_replace(u, '#.*$', '') AS u FROM cw),
c1 AS (SELECT lang, url,
              regexp_replace(u, '[?&]utm_[^&#]*', '', 'g') AS u FROM c0),
c2 AS (SELECT lang, url,
              regexp_replace(u, '^([^?&]*)&', '\\1?') AS u FROM c1),
c5 AS (SELECT lang, url,
              CASE WHEN regexp_extract(u,
                     '^([a-zA-Z][a-zA-Z0-9+.\\-]*://[^/?#]*)(.*)$', 1) <> ''
                   THEN LOWER(regexp_extract(u,
                     '^([a-zA-Z][a-zA-Z0-9+.\\-]*://[^/?#]*)(.*)$', 1))
                     || regexp_extract(u,
                     '^([a-zA-Z][a-zA-Z0-9+.\\-]*://[^/?#]*)(.*)$', 2)
                   ELSE u END AS u FROM c2),
c3 AS (SELECT lang, url,
              regexp_replace(u, '^(http://[^/?#]*):80([/?#].*)?$',
                             '\\1\\2') AS u FROM c5),
c4 AS (SELECT lang, url,
              regexp_replace(u, '^(https://[^/?#]*):443([/?#].*)?$',
                             '\\1\\2') AS u FROM c3),
c6 AS (SELECT lang, url, regexp_replace(u, '/+$', '') AS u FROM c4)"""


def url_canonicalize_sql(path: str) -> str:
    return f"""
WITH pages AS (SELECT COALESCE(url, '') AS url, COALESCE(lang, '') AS lang
               FROM read_parquet('{path}')),
{_url_canon_ctes('pages')}
SELECT lang, COUNT(*) AS n_pages,
       CAST(COUNT(DISTINCT url) AS BIGINT) AS n_raw,
       CAST(COUNT(DISTINCT u) AS BIGINT) AS n_canonical
FROM c6 GROUP BY lang ORDER BY lang
"""


URL_CANONICALIZE_SQL = url_canonicalize_sql(_pages_path_sql())


# ---------------------------------------------------------------------------
# paragraph-level MinHash near-dup census (fuzzy boilerplate detection)
# ---------------------------------------------------------------------------

_PN_PERM = 64
_PN_BANDS = 16
_PN_CAP = 200          # per-band-segment member cap
_PN_T_NUM = 4          # Jaccard threshold 4/5 as exact integers
_PN_T_DEN = 5
_PN_SPILL_PAGES = 200_000   # pin the gram stream below, spill above


def _para_frames(sf_dir: str):
    """Stream (pid, paragraph) frames: pages split on newline, lines
    numbered BEFORE the non-empty filter (mirroring the oracle's
    GENERATE_SUBSCRIPTS over the full split array), pid = the 64-bit
    md5 of ``url|i`` wrapped into int64 (bijective, so the equality
    structure matches the oracle's md5_number_lower exactly)."""
    import numpy as np

    from kawa_ray.functions.minhash import md5_low64

    def explode(t: pa.Table) -> pd.DataFrame:
        out_pid, out_p = [], []
        for url, text in zip(t.column("url").to_pylist(),
                             t.column("text").to_pylist()):
            for i, p in enumerate((text or "").split("\n"), 1):
                if p.strip(" \t\r") == "":
                    continue
                out_pid.append(md5_low64(f"{url}|{i}"))
                out_p.append(p)
        pid = np.asarray(out_pid, dtype=np.uint64).view(np.int64) \
            if out_pid else np.empty(0, dtype=np.int64)
        return pd.DataFrame({"doc_id": pid,
                             "p": pd.Series(out_p, dtype="str")})

    return _read(sf_dir, ["url", "text"]).map_batches(
        explode, batch_format="pyarrow")


def paragraph_neardup_census(sf_dir: str, num_perm: int = _PN_PERM,
                             bands: int = _PN_BANDS,
                             max_members: int = _PN_CAP) -> pd.DataFrame:
    """Fuzzy paragraph dedup — MinHash-LSH at PARAGRAPH granularity:
    the near-dup analogue of the exact CCNet line dedup
    (``line_dedup_census``), catching boilerplate that varies by a few
    tokens per page (dates in footers, templated menus), which exact
    line hashing misses and whole-document MinHash dilutes.  Pipeline:
    page -> numbered non-empty lines -> word-3-gram MinHash signature
    -> banded candidate pairs (per-band-segment caps) -> exact-Jaccard
    verify at 4/5 with pure-integer comparison.  Output: one row
    (n_paragraphs, n_candidates, n_neardup).

    Scale shape: the banding pass streams pages and emits only
    (pid, band) rows; candidate pairs form inside band-hash partitions
    with per-segment caps (docs._partitioned_band_pairs — pairs never
    exist as a driver set); gram arrays attach to the surviving
    candidates via two pid-hash exchanges (candidate-space, recomputed
    rather than pinned — the pack_sequences convention); only three
    integers reach the driver.

    Contracts shared with the oracle: tokenization follows the
    engine-wide convention (Python unicode \\s+ vs the oracle's RE2
    ASCII \\s+ — the documented deviation of every text operator here;
    they agree on all ASCII-whitespace corpora, which the fixtures
    are), and the pages table is url-keyed (one fetch per url, the
    crawl-table invariant) — repeated urls would merge paragraph
    identities oracle-side (DISTINCT pid) while the op counts per
    row."""
    import numpy as np

    from kawa_ray.functions.minhash import md5_low64_per_doc, word_ngrams
    from kawa_ray.pipelines.docs import _WS, _partitioned_band_pairs
    from kawa_ray.stages.spill import pinned_or_spilled

    paras = _para_frames(sf_dir)

    from kawa_ray.functions.minhash import _MERSENNE, perm_params

    pa_, pb_ = perm_params(num_perm)
    rows_per_band = num_perm // bands
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        def per_para():
            for p in df["p"]:
                toks = _WS.split(p.lower().strip()) if p.strip() else []
                yield word_ngrams(toks, 3)

        out_pid, out_h = [], []
        for pid, hs in zip(df["doc_id"], md5_low64_per_doc(per_para())):
            uh = np.unique(hs)
            if uh.size == 0:
                continue
            out_pid.append(int(pid))
            # bytes, not ndarray: Ray's pandas block layer converts
            # object-of-ndarray columns to TensorArrays
            out_h.append(uh.astype(np.uint64).tobytes())
        return pd.DataFrame({
            "doc_id": pd.Series(out_pid, dtype="int64"),
            "h": pd.Series(out_h, dtype="object")})

    grams = paras.map_batches(gram_rows, batch_format="pandas")
    # four consumers (count, banding, a-attach, b-attach): pin-or-spill
    # rather than recompute the tokenize+md5 pass per consumer (the
    # linkage mention-stream convention — pin in the object store at
    # fixture scale, stream from per-partition /tmp parquet beyond it)
    n_pages = int(_read(sf_dir, ["url"]).count())
    with pinned_or_spilled(grams, n_pages > _PN_SPILL_PAGES,
                           "para-grams-") as grams:
        n_paragraphs = int(grams.count())

        def sig_rows(df: pd.DataFrame) -> pd.DataFrame:
            # batch-vectorised banding FROM the pinned gram bytes (no
            # second tokenize+md5 pass): signatures via minimum.reduceat
            # over paragraph boundaries, band keys as a vectorised uint64
            # polynomial mix of each band's signature rows (equality
            # structure == the oracle's (band, value-tuple) key, same
            # 2^-64 collision class as the blake2b band digests the
            # doc-level family uses) — the per-paragraph Python
            # minhash_signature loop was 3.4x the whole census's budget
            uh_list = [np.frombuffer(x, dtype=np.uint64) for x in df["h"]]
            n = len(uh_list)
            if n == 0:
                return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                     "band": pd.Series([], dtype="int64")})
            sizes = np.fromiter((u.size for u in uh_list), dtype=np.int64,
                                count=n)
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            hm = np.concatenate(uh_list) % np.uint64(_MERSENNE)
            V = (pa_[:, None] * hm[None, :] + pb_[:, None]) % np.uint64(_MERSENNE)
            sig = np.minimum.reduceat(V, starts, axis=1)  # (num_perm, n)
            keys = np.empty((bands, n), dtype=np.uint64)
            for bi in range(bands):
                h = np.full(n, bi, dtype=np.uint64)
                for r in range(rows_per_band):
                    h = h * _MIX + sig[bi * rows_per_band + r]
                keys[bi] = h
            pid_arr = df["doc_id"].to_numpy("int64")
            return pd.DataFrame({
                "doc_id": np.repeat(pid_arr, bands),
                "band": keys.T.reshape(-1).view(np.int64)})

        # _partitioned_band_pairs already dedups across bands
        cand = _partitioned_band_pairs(
            grams.map_batches(sig_rows, batch_format="pandas"),
            "band", max_members=max_members).materialize()
        n_candidates = int(cand.count())

        n_neardup = 0
        if n_candidates:
            def attach_a(pairs: pd.DataFrame,
                         gr: pd.DataFrame) -> pd.DataFrame:
                m = pairs.merge(gr[["doc_id", "h"]], left_on="a",
                                right_on="doc_id", how="inner")
                return pd.DataFrame({"doc_id": m["b"].to_numpy("int64"),
                                     "ha": m["h"].to_numpy(dtype=object)})

            half = partition_join([(cand, "a"), (grams, "doc_id")], attach_a)

            def verify(half: pd.DataFrame, gr: pd.DataFrame) -> pd.DataFrame:
                m = half.merge(gr[["doc_id", "h"]], on="doc_id", how="inner")
                if m.empty:
                    return pd.DataFrame({"n": pd.Series([0], dtype="int64")})
                # vectorised intersection: both arrays are internally
                # unique, so |A ∩ B| = adjacent duplicates after a
                # (pair, value) lexsort of the concatenated streams
                ha_list = [np.frombuffer(x, dtype=np.uint64) for x in m["ha"]]
                hb_list = [np.frombuffer(x, dtype=np.uint64) for x in m["h"]]
                na = np.fromiter((x.size for x in ha_list), dtype=np.int64,
                                 count=len(ha_list))
                nb = np.fromiter((x.size for x in hb_list), dtype=np.int64,
                                 count=len(hb_list))
                pid = np.repeat(np.concatenate([np.arange(len(ha_list)),
                                                np.arange(len(hb_list))]),
                                np.concatenate([na, nb]))
                val = np.concatenate(ha_list + hb_list)
                order = np.lexsort((val, pid))
                pv, vv = pid[order], val[order]
                dup = np.concatenate(
                    ([False], (pv[1:] == pv[:-1]) & (vv[1:] == vv[:-1])))
                inter = np.bincount(pv[dup], minlength=len(ha_list)) \
                    .astype(np.int64)
                ok = inter * _PN_T_DEN >= (na + nb - inter) * _PN_T_NUM
                return pd.DataFrame({"n": pd.Series([int(ok.sum())],
                                                    dtype="int64")})

            for b in partition_join([(half, "doc_id"), (grams, "doc_id")],
                                    verify).iter_batches(batch_format="pandas"):
                n_neardup += int(b["n"].sum())

    return pd.DataFrame({
        "n_paragraphs": pd.Series([n_paragraphs], dtype="int64"),
        "n_candidates": pd.Series([n_candidates], dtype="int64"),
        "n_neardup": pd.Series([n_neardup], dtype="int64"),
    })


def _para_neardup_sql(num_perm: int = _PN_PERM, bands: int = _PN_BANDS,
                      max_members: int = _PN_CAP) -> str:
    from kawa_ray.functions.minhash import _MERSENNE, perm_params

    a, b = perm_params(num_perm)
    perm_rows = ",".join(
        f"({i},{int(ai)},{int(bi)})" for i, (ai, bi) in enumerate(zip(a, b)))
    rows_per_band = num_perm // bands
    u64 = 1 << 64
    return f"""
WITH perms(i, pa, pb) AS (VALUES {perm_rows})
, lines AS (
  SELECT md5_number_lower(url || '|' || CAST(i AS VARCHAR)) AS pid, p
  FROM (SELECT url,
               UNNEST(string_split(COALESCE(text, ''), chr(10))) AS p,
               GENERATE_SUBSCRIPTS(
                 string_split(COALESCE(text, ''), chr(10)), 1) AS i
        FROM read_parquet('{_pages_path_sql()}')) q
  WHERE TRIM(p, ' \t\r') <> '')
, toks AS (
  SELECT pid,
         CASE WHEN TRIM(p, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[])
              ELSE regexp_split_to_array(LOWER(TRIM(p, ' \t\n\r')), '\\s+')
              END AS t
  FROM lines)
, grams AS (
  SELECT DISTINCT pid, UNNEST(gs) AS g FROM (
    SELECT pid,
           CASE WHEN LEN(t) = 0 THEN CAST([] AS VARCHAR[])
                WHEN LEN(t) <= 3 THEN [array_to_string(t, ' ')]
                ELSE list_transform(range(1, LEN(t) - 1),
                                    i -> t[i] || ' ' || t[i + 1] || ' ' || t[i + 2])
                END AS gs
    FROM toks) q)
, gh AS (SELECT DISTINCT pid, md5_number_lower(g) AS th FROM grams)
, hm AS (SELECT pid, th % {_MERSENNE} AS hm FROM gh)
, sig AS (
  SELECT pid, i,
         MIN(((CAST(pa AS HUGEINT) * hm) % {u64} + pb) % {u64} % {_MERSENNE}) AS v
  FROM hm CROSS JOIN perms GROUP BY pid, i)
, bandkeys AS (
  SELECT pid, i // {rows_per_band} AS band,
         STRING_AGG(CAST(v AS VARCHAR), ',' ORDER BY i) AS bkey
  FROM sig GROUP BY pid, i // {rows_per_band})
, bsized AS (
  SELECT pid, band, bkey,
         COUNT(*) OVER (PARTITION BY band, bkey) AS m
  FROM bandkeys)
, cand AS (
  SELECT DISTINCT a.pid AS a, b.pid AS b
  FROM bsized a JOIN bsized b
    ON a.band = b.band AND a.bkey = b.bkey AND a.pid < b.pid
  WHERE a.m <= {max_members})
, gsizes AS (SELECT pid, COUNT(*) AS n FROM gh GROUP BY pid)
, inter AS (
  SELECT c.a, c.b, COUNT(*) AS i
  FROM cand c
  JOIN gh ga ON ga.pid = c.a
  JOIN gh gb ON gb.pid = c.b AND gb.th = ga.th
  GROUP BY c.a, c.b)
, verified AS (
  SELECT COUNT(*) AS n_neardup
  FROM cand c
  JOIN gsizes sa ON sa.pid = c.a
  JOIN gsizes sb ON sb.pid = c.b
  LEFT JOIN inter n ON n.a = c.a AND n.b = c.b
  WHERE COALESCE(n.i, 0) * {_PN_T_DEN}
        >= (sa.n + sb.n - COALESCE(n.i, 0)) * {_PN_T_NUM})
SELECT (SELECT COUNT(*) FROM gsizes) AS n_paragraphs,
       (SELECT COUNT(*) FROM cand) AS n_candidates,
       CAST(n_neardup AS BIGINT) AS n_neardup
FROM verified
"""


PARAGRAPH_NEARDUP_SQL = _para_neardup_sql()


# ---------------------------------------------------------------------------
# link-graph census (outlink extraction -> entity in-degree distribution)
# ---------------------------------------------------------------------------

_LINK_RE = r'href="/e/([0-9]+)"'


def link_graph_census(sf_dir: str) -> pd.DataFrame:
    """Web-graph construction census — the crawl-side link-extraction
    pass (the step behind CommonCrawl's host/domain web graphs and
    harmonic-centrality rankings): pull every entity anchor out of the
    raw HTML and produce the in-degree distribution of link targets
    across the crawl.  Output: (in_degree, n_entities) — how many
    entity pages are referenced by exactly d anchors corpus-wide.

    Scale shape: html is decoded and scanned per batch with ONE
    vectorised ``str.extractall`` (html never crosses an exchange —
    the linkage pipeline's project-early rule), per-batch (eid, count)
    partials pre-aggregate before the single eid-hash exchange, the
    per-entity degree and the histogram fold inside the partition, and
    only (in_degree, count) partials reach the driver."""
    def partial(t: pa.Table) -> pd.DataFrame:
        html = pd.Series(
            [b.decode("utf-8") if b is not None else ""
             for b in t.column("html").to_pylist()], dtype="str")
        hits = html.str.extractall(_LINK_RE)
        if hits.empty:
            return pd.DataFrame({"eid": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        per = hits[0].astype("int64").value_counts()
        return pd.DataFrame({"eid": per.index.to_numpy("int64"),
                             "n": per.to_numpy("int64")})

    def degree_part(g: pd.DataFrame) -> pd.DataFrame:
        deg = g.groupby("eid")["n"].sum()
        hist = deg.value_counts()
        return pd.DataFrame({"in_degree": hist.index.to_numpy("int64"),
                             "n_entities": hist.to_numpy("int64")})

    return fold_groups(partition_reduce(
        _read(sf_dir, ["html"]).map_batches(partial, batch_format="pyarrow"),
        "eid", degree_part), "in_degree", {"n_entities": ("n_entities", "sum")})


def _link_graph_sql() -> str:
    return f"""
WITH links AS (
  SELECT UNNEST(regexp_extract_all(decode(html), '{_LINK_RE.replace("'", "''")}', 1))
         AS eid
  FROM read_parquet('{_pages_path_sql()}')),
deg AS (SELECT CAST(eid AS BIGINT) AS eid, COUNT(*) AS d
        FROM links GROUP BY 1)
SELECT CAST(d AS BIGINT) AS in_degree, COUNT(*) AS n_entities
FROM deg GROUP BY d ORDER BY d
"""


LINK_GRAPH_SQL = _link_graph_sql()


# ---------------------------------------------------------------------------
# anchor-alias census (alias-dictionary mining from entity anchors)
# ---------------------------------------------------------------------------

_ANCHOR_RE = r'<a href="/e/([0-9]+)">([^<]*)</a>'


def anchor_alias_census(sf_dir: str) -> pd.DataFrame:
    """Alias-dictionary mining — the Wikipedia-anchor-dictionary step
    of entity-linking pipelines (Spitkovsky & Chang 2012): harvest
    every (entity, anchor-text) pair from the crawl's HTML, normalize
    the surface (lower + strip), and report how many DISTINCT aliases
    each entity has as a histogram (n_aliases, n_entities).  This is
    exactly how a web-scale build would grow the reference's word2ner
    alias table (kawa builds its lexicon from alias->entity rows;
    reference: ontology_builder.py's word2ner ingestion).

    Scale shape: one vectorised two-group ``extractall`` per batch
    (html never crosses an exchange), per-batch (eid, alias) pairs
    dedup in-batch, ONE eid-hash exchange co-locates each entity's
    pairs, distinct-alias counts and the histogram fold inside the
    partition, and only (n_aliases, count) partials reach the
    driver."""
    def partial(t: pa.Table) -> pd.DataFrame:
        html = pd.Series(
            [b.decode("utf-8") if b is not None else ""
             for b in t.column("html").to_pylist()], dtype="str")
        hits = html.str.extractall(_ANCHOR_RE)
        if hits.empty:
            return pd.DataFrame({"eid": pd.Series([], dtype="int64"),
                                 "alias": pd.Series([], dtype="str")})
        alias = hits[1].str.lower().str.strip(" \t\n\r")
        out = pd.DataFrame({"eid": hits[0].astype("int64").to_numpy(),
                            "alias": alias.to_numpy(dtype=object)})
        out = out[out["alias"] != ""].drop_duplicates()
        return pd.DataFrame({"eid": out["eid"].to_numpy("int64"),
                             "alias": pd.Series(
                                 out["alias"].to_numpy(dtype=object),
                                 dtype="str")})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        na = g.drop_duplicates(["eid", "alias"]).groupby("eid").size()
        hist = na.value_counts()
        return pd.DataFrame({"n_aliases": hist.index.to_numpy("int64"),
                             "n_entities": hist.to_numpy("int64")})

    return fold_groups(partition_reduce(
        _read(sf_dir, ["html"]).map_batches(partial, batch_format="pyarrow"),
        "eid", fold), "n_aliases", {"n_entities": ("n_entities", "sum")})


def _anchor_alias_sql() -> str:
    pat = _ANCHOR_RE.replace("'", "''")
    return f"""
WITH raw AS (SELECT decode(html) AS h
             FROM read_parquet('{_pages_path_sql()}')),
pairs AS (
  SELECT UNNEST(regexp_extract_all(h, '{pat}', 1)) AS eid,
         UNNEST(regexp_extract_all(h, '{pat}', 2)) AS alias
  FROM raw),
norm AS (
  SELECT CAST(eid AS BIGINT) AS eid,
         LOWER(TRIM(alias, ' \t\n\r')) AS alias
  FROM pairs
  WHERE LOWER(TRIM(alias, ' \t\n\r')) <> ''),
d AS (SELECT DISTINCT eid, alias FROM norm),
na AS (SELECT eid, COUNT(*) AS n FROM d GROUP BY eid)
SELECT CAST(n AS BIGINT) AS n_aliases, COUNT(*) AS n_entities
FROM na GROUP BY n ORDER BY n
"""


ANCHOR_ALIAS_SQL = _anchor_alias_sql()


# ---------------------------------------------------------------------------
# domain-scoped line dedup census (global vs domain-local boilerplate)
# ---------------------------------------------------------------------------


def domain_line_dedup_census(sf_dir: str) -> pd.DataFrame:
    """Domain-scoped line dedup — the production-realistic variant of
    CCNet line dedup: boilerplate (headers/menus/footers) repeats
    WITHIN a site, so deduplicating lines per DOMAIN removes it while
    sparing legitimate cross-site repetition (quotes, licenses, wire
    copy) that corpus-global dedup over-removes.  Both policies are
    measured in ONE pass: per lang, total lines, lines a GLOBAL
    keep-first pass would remove, and lines the DOMAIN-scoped pass
    would remove — the gap is exactly the cross-site mass at stake.

    Shape: the line-hash exchange of ``line_dedup_census`` with the
    domain hash riding along — a line's global group and all of its
    per-domain subgroups co-locate under the same hash key, so both
    ranks are computed in the same partition and only lang-cardinality
    partials leave.  Removal COUNTS are rank-order-invariant per
    group; per-lang attribution ties can only happen between rows of
    the same lang (the rank order ends with lang), so the census is
    deterministic and mirrored by the oracle's ROW_NUMBER exactly."""
    import numpy as np

    from kawa_ray.functions.minhash import md5_low64_many

    def explode(t: pa.Table) -> pd.DataFrame:
        import pyarrow.compute as pc

        lines = pc.split_pattern(t.column("text"), "\n")
        n = pc.list_value_length(lines).to_numpy()
        flat = pc.list_flatten(lines)
        urls = t.column("url").to_pylist()
        doms = [(_re.match(_DOMAIN_RE, u or "") or [None, ""])[1]
                for u in urls]
        df = pd.DataFrame({
            "lang": np.repeat(
                np.asarray(t.column("lang").to_pylist(), dtype=object), n),
            "dh": np.repeat(md5_low64_many(doms), n),
            "uh": np.repeat(md5_low64_many(urls), n),
            "h": md5_low64_many(flat.to_pylist()),
            "keep": pc.not_equal(flat, "").to_numpy(zero_copy_only=False),
        })
        return df.loc[df["keep"], ["lang", "dh", "uh", "h"]]

    def census_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "dh", "uh", "lang"], kind="stable")
        rg = g.groupby("h", sort=False).cumcount() > 0
        rdm = g.groupby(["h", "dh"], sort=False).cumcount() > 0
        return (pd.DataFrame({
            "lang": g["lang"],
            "rg": rg.astype("int64"),
            "rd": rdm.astype("int64"),
        }).groupby("lang", as_index=False)
          .agg(n_lines=("rg", "size"),
               n_removed_global=("rg", "sum"),
               n_removed_domain=("rd", "sum")))

    return fold_groups(
        partition_reduce(
            _read(sf_dir, ["url", "text", "lang"])
            .map_batches(explode, batch_format="pyarrow"),
            "h", census_part),
        "lang", {c: (c, "sum") for c in
                 ("n_lines", "n_removed_global", "n_removed_domain")})



def _domain_line_dedup_sql() -> str:
    return f"""
WITH l AS (
  SELECT lang, url, UNNEST(string_split(text, chr(10))) AS line
  FROM read_parquet('{_pages_path_sql()}')
), nz AS (
  SELECT lang,
         md5_number_lower(COALESCE(regexp_extract(url, '{_DOMAIN_RE}', 1),
                                   '')) AS dh,
         md5_number_lower(url) AS uh,
         md5_number_lower(line) AS h
  FROM l WHERE line <> ''
), r AS (
  SELECT lang,
         ROW_NUMBER() OVER (PARTITION BY h ORDER BY dh, uh, lang) AS rg,
         ROW_NUMBER() OVER (PARTITION BY h, dh ORDER BY uh, lang) AS rd
  FROM nz)
SELECT lang, COUNT(*) AS n_lines,
       CAST(SUM(CASE WHEN rg > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_removed_global,
       CAST(SUM(CASE WHEN rd > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_removed_domain
FROM r GROUP BY lang ORDER BY lang
"""


DOMAIN_LINE_DEDUP_SQL = _domain_line_dedup_sql()
