"""SURVEY §5.5 determinism across parallelism, end to end: the dedup
trio, keep-best, pagerank, the embedding near-dup pairs, the substring
census, the flagship mentions and cluster map must be IDENTICAL at 2
and at 16 CPUs (fresh Ray session each — actor-pool
sizes, block splits and shuffle fan-in all differ between the levels;
round-3 VERDICT item 7)."""

from __future__ import annotations

import json
import subprocess
import sys


def _probe(ncpu: int, out) -> dict:
    subprocess.run(
        [sys.executable, "-m", "tools.determinism_probe", str(ncpu), str(out)],
        check=True, cwd="/root/repo", timeout=540,
    )
    with open(out) as f:
        return json.load(f)


def test_outputs_identical_at_2_and_16_cpus(tmp_path):
    lo = _probe(2, tmp_path / "lo.json")
    hi = _probe(16, tmp_path / "hi.json")
    assert set(lo) == set(hi) and len(lo) == 15
    diffs = {k for k in lo if lo[k] != hi[k]}
    assert not diffs, f"parallelism-dependent outputs: {sorted(diffs)}"
