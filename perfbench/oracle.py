"""Stored DuckDB oracle answers for the census_dedup workload.

The census inputs are fixed (inputs.py), so their oracle answers are
computed once with the registry's oracle SQL and stored in
``census_oracle.json``; a run compares its first census iteration
against them.  Recompute after a change to the page generator or the
oracle SQL (it takes minutes on one core):

    python3 -m perfbench.oracle
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_FILE = os.path.join(HERE, "census_oracle.json")
CENSUS_OPS = ("line_dedup_census", "paragraph_neardup_census", "minhash_dedup_docs")


def oracle_answers(sf_dir: str) -> dict[str, list[dict]]:
    """Run the registry's oracle SQL for each census op on ``sf_dir``
    (``KAWA_PAGES_DIR`` must already point at the pages cache)."""
    import duckdb

    from kawa_ray.pipelines.registry import EXTRA_ORACLE_SQL, ORACLE_SQL
    from perfbench.driver import normalized_records

    sql = {**ORACLE_SQL, **EXTRA_ORACLE_SQL}
    con = duckdb.connect()
    path = os.path.join(sf_dir, "documents.parquet").replace("'", "''")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    return {op: normalized_records(con.execute(sql[op]).df()) for op in CENSUS_OPS}


def main() -> int:
    work = tempfile.mkdtemp(prefix=".oracle-", dir=os.getcwd())
    try:
        os.environ["KAWA_PAGES_DIR"] = os.path.join(work, "pages")
        from perfbench.inputs import census_inputs_digest, write_census_inputs

        inputs = write_census_inputs(work)
        stored = {"inputs_digest": census_inputs_digest(inputs["sf_dir"],
                                                        inputs["pages_dir"]),
                  "answers": oracle_answers(inputs["sf_dir"])}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(ORACLE_FILE, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(stored["answers"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
