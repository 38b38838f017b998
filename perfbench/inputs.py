"""Load generator: the benchmark's inputs, written under its work dir.

Link corpora come from ``kawa_ray.sources.pages.generate_pages``; the
seed picks the ``doc_id`` window, so the same seed gives the same pages.
The census inputs are fixed: the pages corpus the census ops read
through ``ensure_pages`` always starts at ``doc_id`` 0, and the
documents table below is a constant, so the stored DuckDB oracle answers
(``census_oracle.json``) stay valid.  The seed does not apply to them.
"""

from __future__ import annotations

import hashlib
import os
import struct

import pyarrow as pa
import pyarrow.parquet as pq

# doc_id window of seed s: [BASE + (s % WINDOWS) * STRIDE, ... + n_pages);
# STRIDE exceeds every corpus size, so seeds below WINDOWS never share a
# page, and WINDOWS keeps each page's warc_ts (2024 + 137 s per doc_id)
# a valid timestamp however large the seed
WINDOW_BASE = 100_000
WINDOW_STRIDE = 10_000
WINDOWS = 10_000
N_SHARDS = 4

# the census ops read the sf0.001 pages corpus (500 pages) by name
CENSUS_SF = "sf0.001"
N_DOCUMENTS = 500


def write_pages_corpus(out_dir: str, n_pages: int, n_entities: int,
                       seed: int) -> dict:
    """Generate ``n_pages`` pages from the seed's window and write them as
    ``N_SHARDS`` parquet shards plus ``gold_mentions.parquet``."""
    from kawa_ray.sources.pages import generate_pages

    start = WINDOW_BASE + (seed % WINDOWS) * WINDOW_STRIDE
    pages, gold = generate_pages(n_pages, n_entities, start=start)
    os.makedirs(os.path.join(out_dir, "pages"), exist_ok=True)
    per = -(-n_pages // N_SHARDS)
    for s in range(N_SHARDS):
        pq.write_table(pages.slice(s * per, per),
                       os.path.join(out_dir, "pages", f"part-{s:05d}.parquet"))
    pq.write_table(gold, os.path.join(out_dir, "gold_mentions.parquet"))
    return {"pages_dir": out_dir, "n_pages": n_pages, "doc_id_start": start}


_VOCAB = ("key agg row scan slow fast table value part hash merge batch "
          "spark line sort window order data column join small customer "
          "query big stream filter group the a of report market price").split()
_LANGS = ("en", "en", "en", "es", "fr", "de", "pt", "vi")


def _h(*parts) -> int:
    raw = ":".join(str(p) for p in parts).encode()
    return struct.unpack("<Q", hashlib.blake2b(raw, digest_size=8).digest())[0]


def fixed_documents(n: int = N_DOCUMENTS) -> pa.Table:
    """Constant ``documents`` table (doc_id, text, lang, source, n_chars)
    with planted near duplicates (one word changed) and exact duplicates,
    so MinHash banding finds candidates and the verify step has work."""
    texts: list[str] = []
    for i in range(n):
        if i >= 20 and i % 12 == 5:  # near duplicate of an earlier doc
            words = texts[i - 7].split()
            words[_h("edit", i) % len(words)] = _VOCAB[_h("w", i) % len(_VOCAB)]
            texts.append(" ".join(words))
        elif i >= 20 and i % 50 == 7:  # exact duplicate
            texts.append(texts[i - 3])
        else:
            k = 20 + _h("len", i) % 60
            texts.append(" ".join(_VOCAB[_h(i, j) % len(_VOCAB)] for j in range(k)))
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([_LANGS[_h("lang", i) % len(_LANGS)] for i in range(n)]),
        "source": pa.array([f"src{_h('src', i) % 4}" for i in range(n)]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def write_census_inputs(work_dir: str) -> dict:
    """Documents table under ``<work>/sf0.001`` and the pages corpus in the
    pages cache (``KAWA_PAGES_DIR`` must point inside the work dir)."""
    from kawa_ray.sources.pages import SF_TO_PAGES, ensure_pages, sf_of_dir

    sf_dir = os.path.join(work_dir, CENSUS_SF)
    os.makedirs(sf_dir, exist_ok=True)
    pq.write_table(fixed_documents(), os.path.join(sf_dir, "documents.parquet"))
    pages_dir = ensure_pages(sf_of_dir(sf_dir))
    return {"sf_dir": sf_dir, "pages_dir": pages_dir,
            "n_pages": SF_TO_PAGES[sf_of_dir(sf_dir)]}


def census_inputs_digest(sf_dir: str, pages_dir: str) -> str:
    """Content digest of the census inputs (what the stored oracle
    answers were computed from)."""
    h = hashlib.blake2b(digest_size=16)
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    pages = pq.read_table(os.path.join(pages_dir, "pages"),
                          columns=["url", "text", "lang"])
    for t in (docs, pages.sort_by("url")):
        for name in t.column_names:
            h.update(name.encode())
            h.update(repr(t.column(name).to_pylist()).encode())
    return h.hexdigest()
