"""Gzipped N-triples source (reference B6: ``yago_step0`` stream-parses
gzipped N-triples with URL-decoded entities and camel→SNAKE categories,
/root/reference/ontology/ontology_builder.py:355-387).

Round-trip demonstration with an exact oracle: triples are GENERATED
from the driver's ``part`` table (``<part/{p_partkey}> <hasTypeToken>
"{token}"`` — one triple per whitespace token of ``p_type``), written
once per process as a real ``.nt.gz`` file, then read back with
``ray.data.read_text`` (arrow decompresses by extension), parsed with a
compiled regex inside ``map_batches``, and censused per object token.
The DuckDB oracle recomputes the census straight from ``part`` — if
serialisation, compression, reading or parsing dropped or mangled a
triple, the counts cannot match.

At scale this is the honest shape for third-party dump ingestion: the
files are line-splittable, ``read_text`` shards them across workers,
and the parse is one vectorisable regex per line batch.
"""

from __future__ import annotations

import gzip
import os
import re

import pandas as pd
import pyarrow.parquet as pq

import ray.data as rd

_LINE = re.compile(r'^<part/(\d+)> <hasTypeToken> "([^"]*)" \.$')


def _fixture_fresh(path: str, src: str) -> bool:
    """A fixture is reusable only if its marker records the CURRENT
    source identity — a regenerated source parquet must rebuild it
    (stale fixtures would silently desync pipeline from oracle)."""
    import json

    marker = f"{path}.src.json"
    ident = {"src": os.path.abspath(src), "mtime": os.path.getmtime(src)}
    if os.path.exists(path) and os.path.exists(marker):
        try:
            with open(marker) as f:
                if json.load(f) == ident:
                    return True
        except (json.JSONDecodeError, OSError):
            return False  # truncated/racing marker -> rebuild, self-heal
    return False


def _write_fixture_marker(path: str, src: str) -> None:
    import json

    marker = f"{path}.src.json"
    tmp = f"{marker}.tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"src": os.path.abspath(src),
                   "mtime": os.path.getmtime(src)}, f)
    os.replace(tmp, marker)


def write_fixture_ntriples(sf_dir: str, path: str) -> str:
    """Serialise part.p_type tokens as N-triples, gzipped; skip-if-built
    keyed on the source parquet's identity (path + mtime)."""
    src = os.path.join(sf_dir, "part.parquet")
    if _fixture_fresh(path, src):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t = pq.read_table(src, columns=["p_partkey", "p_type"])
    lines = []
    for key, ptype in zip(t.column("p_partkey").to_pylist(),
                          t.column("p_type").to_pylist()):
        for tok in ptype.split(" "):
            lines.append(f'<part/{key}> <hasTypeToken> "{tok}" .')
    tmp = f"{path}.tmp{os.getpid()}"
    with gzip.open(tmp, "wt", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
    _write_fixture_marker(path, src)
    return path


def ntriples_census(sf_dir: str):
    """Per-object-token census of the round-tripped triples:
    (token, n_triples, n_subjects).  Distinct (token, subject) pairs —
    triple-cardinality, NOT vocabulary-sized — go through the shared
    hash-partition distinct; only per-token partial counts reach the
    driver fold."""
    from kawa_ray.stages.distinct import fold_groups, partition_distinct

    base = os.path.basename(os.path.normpath(sf_dir))
    path = write_fixture_ntriples(sf_dir, f"/tmp/kawa_ray_nt/{base}/part_types.nt.gz")
    lines = rd.read_text(path)

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        m = df["text"].str.extract(_LINE)
        m.columns = ["subject", "token"]
        m = m.dropna()
        m["subject"] = m["subject"].astype("int64")
        return m

    # two streaming passes over the lazy read+parse (line-splittable
    # gzip + one vectorised regex — cheaper to re-run than to pin the
    # triple-table-sized stream in the object store for two consumers)
    parsed = lines.map_batches(parse, batch_format="pandas")

    # total triples per token: per-block partials, driver fold (vocab-sized)
    out = fold_groups(parsed, "token", {"n_triples": (None, "count")})

    # distinct subjects per token: partitioned distinct with a fused
    # per-token partial count, then a vocab-sized driver fold
    n_sub = fold_groups(partition_distinct(
        parsed, ["token", "subject"], key_col="subject",
        then=lambda g: g.groupby("token", as_index=False).size().rename(
            columns={"size": "n"})), "token", {"n_subjects": ("n", "sum")})
    out = out.merge(n_sub, on="token", how="left")
    out["n_subjects"] = out["n_subjects"].fillna(0).astype("int64")
    return out


NTRIPLES_CENSUS_SQL = """
WITH toks AS (
  SELECT p_partkey, UNNEST(string_split(p_type, ' ')) AS token
  FROM part
)
SELECT token, COUNT(*) AS n_triples,
       CAST(COUNT(DISTINCT p_partkey) AS BIGINT) AS n_subjects
FROM toks
GROUP BY token
ORDER BY token
"""


# ----------------------------------------------------- gzipped JSONL source

def write_fixture_jsonl(sf_dir: str, path: str) -> str:
    """Serialise the events table as gzipped JSONL (one object per
    line); skip-if-built keyed on the source parquet's identity."""
    import json

    src = os.path.join(sf_dir, "events.parquet")
    if _fixture_fresh(path, src):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t = pq.read_table(src, columns=["event_id", "user_id", "event_type", "value"])
    tmp = f"{path}.tmp{os.getpid()}"
    with gzip.open(tmp, "wt", encoding="utf-8") as f:
        for r in t.to_pylist():
            f.write(json.dumps(r, sort_keys=True) + "\n")
    os.replace(tmp, path)
    _write_fixture_marker(path, src)
    return path


def jsonl_roundtrip_census(sf_dir: str):
    """Gzipped-JSONL round-trip with an exact oracle: events are
    serialised once per process as ``.jsonl.gz``, read back with
    ``ray.data.read_json`` (line-splittable, worker-sharded), and
    censused per event type (count, distinct users, value total in
    integer cents — floored per event BEFORE the order-free integer
    sum); the DuckDB oracle recomputes the census from the original
    table, so any row or field lost in the round trip breaks the
    match."""
    base = os.path.basename(os.path.normpath(sf_dir))
    path = write_fixture_jsonl(sf_dir, f"/tmp/kawa_ray_nt/{base}/events.jsonl.gz")
    ds = rd.read_json(path)

    from kawa_ray.stages.distinct import fold_groups, partition_distinct

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        return pd.DataFrame({"event_type": df["event_type"], "cents": np.floor(
            df["value"].to_numpy("float64") * 100.0).astype("int64")})

    # two streaming passes over the lazy read (line-splittable gzip —
    # re-reading beats pinning the event-table-sized stream)
    out = fold_groups(ds.map_batches(partial, batch_format="pandas"),
                      "event_type", {"n": (None, "count"),
                                     "value_cents": ("cents", "sum")})

    # distinct users per type: user-cardinality, so through the shared
    # partitioned distinct (fused per-type partial counts), never a
    # driver-held user set; project to the two needed columns FIRST so
    # event_id/value never cross the shuffle
    us = fold_groups(partition_distinct(
        ds.map_batches(lambda df: df[["event_type", "user_id"]],
                       batch_format="pandas"),
        ["event_type", "user_id"], key_col="user_id",
        then=lambda g: g.groupby("event_type", as_index=False).size().rename(
            columns={"size": "nu"})), "event_type", {"n_users": ("nu", "sum")})
    out = out.merge(us, on="event_type", how="left")
    out["n_users"] = out["n_users"].fillna(0).astype("int64")
    return out[["event_type", "n", "n_users", "value_cents"]]


JSONL_ROUNDTRIP_SQL = """
SELECT event_type, COUNT(*) AS n,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(SUM(CAST(FLOOR(value * 100.0) AS BIGINT)) AS BIGINT) AS value_cents
FROM events
GROUP BY event_type
ORDER BY event_type
"""
