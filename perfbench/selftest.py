"""Self-test of the benchmark at a tiny size (a few minutes on one core).

    python3 perfbench/selftest.py

Runs every workload untraced and traced with ``--scale 0.1`` (the census
inputs are fixed and run at full size), and checks that each prints
every named metric with its unit, that the traced runs together cover
every named layer, that BENCHMARK.json matches run.py's tables, that
the benchmark fails without output when the program is missing, and
that it runs from a checkout path too long for Ray's sockets.  Every
run gets an environment without RAY_ADDRESS and RAY_TMPDIR.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.driver import LAYERS  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER, WORKLOADS, manifest  # noqa: E402

# spans each workload's traced iteration must contain
EXPECTED_SPANS = {
    "link": {"read", "extract", "detect", "nodes", "keygen", "pairs", "score",
             "closure", "attach", "ckpt.mentions", "ckpt.graph", "ckpt.clusters"},
    "census": {"census.line_dedup", "census.paragraph_neardup",
               "census.minhash_dedup"},
}


# a bare environment: Ray must neither join a cluster named by RAY_ADDRESS
# nor find its sessions a home through RAY_TMPDIR
ENV = {k: v for k, v in os.environ.items() if k not in ("RAY_ADDRESS", "RAY_TMPDIR")}


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=240, env=ENV)


def check_run(name: str, trace: int, failures: list[str],
              root: str = os.path.dirname(HERE), tag: str = "") -> None:
    p = run(["--workload", name, "--seed", "0", "--seconds", "1",
             "--trace", str(trace), "--scale", "0.1"], root)
    tag = tag or f"{name} --trace {trace}"
    try:
        out = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        failures.append(f"{tag}: no result line (exit {p.returncode}): {p.stderr[-1500:]}")
        return
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{tag}: result keys {sorted(out)}")
    if out.get("correct") is not True or out.get("attempted", 0) < 1 or out.get("failed"):
        failures.append(f"{tag}: correct={out.get('correct')} attempted="
                        f"{out.get('attempted')} failed={out.get('failed')}: "
                        f"{p.stderr[-1500:]}")
    table = PER_LAYER if trace else END_TO_END
    metrics = out.get("metrics", {})
    if set(metrics) != set(table):
        failures.append(f"{tag}: metrics differ: missing {sorted(set(table) - set(metrics))}"
                        f", extra {sorted(set(metrics) - set(table))}")
    for m, v in metrics.items():
        if m in table and v.get("unit") != table[m][0]:
            failures.append(f"{tag}: {m} unit {v.get('unit')} != {table[m][0]}")
        if not isinstance(v.get("value"), (int, float)):
            failures.append(f"{tag}: {m} value {v.get('value')!r}")
    if trace:
        with open(os.path.join(root, f".perfbench-trace-{name}.json")) as f:
            spans = {s["name"] for s in json.load(f)["spans"]}
        missing = EXPECTED_SPANS[WORKLOADS[name]["kind"]] - spans
        if missing:
            failures.append(f"{tag}: trace lacks spans {sorted(missing)}")
        if WORKLOADS[name]["kind"] == "census" and not metrics["exchange.calls"]["value"]:
            failures.append(f"{tag}: no exchange counted")


def check_without_program(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE), prefix=".selftest-") as d:
        shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(["--workload", next(iter(WORKLOADS)), "--seed", "0",
                 "--seconds", "1", "--trace", "0"], d)
        if p.returncode == 0 or '"metrics"' in p.stdout:
            failures.append(f"without the program: exit {p.returncode}, stdout {p.stdout!r}")


def check_long_checkout(failures: list[str]) -> None:
    """A checkout whose path is too long for Ray's socket paths under it."""
    repo = os.path.dirname(HERE)
    with tempfile.TemporaryDirectory(dir=repo, prefix=".selftest-") as d:
        root = os.path.join(d, "a-checkout-path-longer-than-ray-sockets-allow")
        shutil.copytree(os.path.join(repo, "kawa_ray"), os.path.join(root, "kawa_ray"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        name = next(iter(WORKLOADS))
        check_run(name, 0, failures, root, f"{name} in a long checkout path")


def main() -> int:
    failures: list[str] = []
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        if json.load(f) != manifest():
            failures.append("BENCHMARK.json differs from run.py's tables "
                            "(python3 perfbench/run.py --manifest)")
    covered = set().union(*(EXPECTED_SPANS[w["kind"]] for w in WORKLOADS.values()))
    if covered != set(LAYERS):
        failures.append(f"layers without a workload: {sorted(set(LAYERS) - covered)}")
    check_without_program(failures)
    check_long_checkout(failures)
    for name in WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, failures)
            print(f"selftest: {name} --trace {trace} done", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
