"""Seeded, layer-traced benchmark of the kawa-ray linkage pipeline.

    python3 perfbench/run.py --workload link_narrow --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one line each

Run it from the root of a checkout.  One run measures one workload:

1. the load generator writes the seed's inputs into a private work dir
   inside the checkout (timed as ``inputs.gen_s``, not part of set-up);
2. a driver process (driver.py) times its imports and runs two Ray
   sessions in turn; each times ``ray.init`` plus the artifact build
   (``setup_s`` is the median), runs a warm-up iteration, then iterations
   for half of ``--seconds`` (three at least), checking every
   iteration's output (``run_s`` is the median of the measured iterations
   of both); with ``--trace 1`` it adds traced iterations under the spans
   of spans.py;
3. this process stops every process of the run's Ray sessions, deletes
   the work dir, checks that nothing it created survives, and prints one
   JSON object as the last line: every end-to-end metric with
   ``--trace 0``, every per-layer metric with ``--trace 1``.

An iteration that writes no record for ``ITER_TIMEOUT_S`` seconds is
killed and counts as failed.  Ray's sessions live in the work dir (see
``short_ray_temp``), never in Ray's default temp dir.
``python3 perfbench/run.py --manifest`` rewrites BENCHMARK.json from the
tables below.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = {
    "link_narrow": {
        "kind": "link", "n_pages": 1000, "n_entities": 300,
        "why": "flagship link_pages on the default 300-entity roster, detection "
               "dominant; its traced run adds link_pages_checkpointed for the "
               "checkpoint layer"},
    "census_dedup": {
        "kind": "census",
        "why": "line, paragraph and MinHash dedup censuses on fixed inputs; the "
               "only workload that reaches the shared exchange helpers"},
}

# name -> (unit, better, bound)
END_TO_END = {
    "run_s": ("s", "lower", 0.25),
    "pages_per_s": ("pages/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "driver_peak_rss_mb": ("MB", "lower", 0.1),
    "quality": ("ratio", "higher", 0.01),
    "ok_ratio": ("ratio", "higher", 0.01),
}

_LAYER_TIMES = ("read", "extract", "detect", "nodes", "keygen", "pairs", "score",
                "closure", "attach", "ckpt.mentions", "ckpt.graph", "ckpt.clusters",
                "census.line_dedup", "census.paragraph_neardup",
                "census.minhash_dedup")
# name -> (unit, better)
PER_LAYER = {
    **{f"{layer}.s": ("s", "lower") for layer in _LAYER_TIMES},
    "read.rows": ("count", "higher"),
    "read.bytes": ("bytes", "lower"),
    "extract.rows": ("count", "higher"),
    "extract.text_bytes": ("bytes", "lower"),
    "detect.mentions": ("count", "higher"),
    "detect.mentions_per_page": ("ratio", "higher"),
    "detect.pool_actors": ("count", "higher"),
    "nodes.partials": ("count", "lower"),
    "nodes.out": ("count", "higher"),
    "keygen.rows": ("count", "lower"),
    "keygen.distinct_keys": ("count", "lower"),
    "keygen.hot_keys": ("count", "lower"),
    "pairs.out": ("count", "lower"),
    "pairs.dedup_ratio": ("ratio", "higher"),
    "pairs.capped_blocks": ("count", "lower"),
    "score.pairs": ("count", "lower"),
    "score.edges": ("count", "higher"),
    "score.edge_ratio": ("ratio", "higher"),
    "closure.edges": ("count", "higher"),
    "closure.clusters": ("count", "higher"),
    "attach.rows": ("count", "higher"),
    "ckpt.bytes_written": ("bytes", "lower"),
    "ckpt.parts": ("count", "lower"),
    "exchange.calls": ("count", "lower"),
    "setup.imports_s": ("s", "lower"),
    "setup.ray_init_s": ("s", "lower"),
    "setup.artifacts_s": ("s", "lower"),
    "inputs.gen_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "session.drift": ("ratio", "lower"),
    "session.first_iter_s": ("s", "lower"),
    "session.iterations": ("count", "higher"),
    "env.nproc": ("count", "higher"),
    "env.cpus_available": ("count", "higher"),
    "env.num_cpus": ("count", "higher"),
}

RUN_SECONDS = 12
ITER_TIMEOUT_S = 60
RUN_DEADLINE_S = 165  # the driver is killed after this; a run must end in 180 s
# AF_UNIX socket paths are limited to 107 bytes; Ray appends ~70 to its temp dir
RAY_TEMP_MAX = 36


def short_ray_temp(work: str) -> str:
    """Ray's temp dir: ``<work>/r``, named through this process's
    ``/proc/<pid>/cwd`` link when the checkout path is too long for Ray's
    socket paths, so the sessions still live inside the checkout."""
    ray_temp = os.path.join(work, "r")
    if len(ray_temp) <= RAY_TEMP_MAX:
        return ray_temp
    return os.path.join(f"/proc/{os.getpid()}/cwd",
                        os.path.relpath(ray_temp, os.getcwd()))


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


def make_inputs(name: str, seed: int, scale: float, work: str) -> dict:
    from perfbench import inputs

    wl = WORKLOADS[name]
    if wl["kind"] == "census":
        made = inputs.write_census_inputs(work)
        made["digest"] = inputs.census_inputs_digest(made["sf_dir"], made["pages_dir"])
        return made
    n_pages = max(50, int(wl["n_pages"] * scale))
    made = inputs.write_pages_corpus(os.path.join(work, "corpus"), n_pages,
                                     wl["n_entities"], seed)
    made["ckpt_root"] = os.path.join(work, "ckpt")
    os.makedirs(made["ckpt_root"])
    return made


def read_records(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.endswith("\n")]


def run_driver(spec_path: str, records: str, log_path: str, env: dict,
               deadline: float) -> bool:
    """Run the driver; kill its process group when an iteration stalls or
    the run deadline passes.  -> True if it ran to the end."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, "-m", "perfbench.driver", spec_path],
                                env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        last_n, last_t = 0, time.monotonic()
        while proc.poll() is None:
            time.sleep(0.25)
            n = len(read_records(records))
            now = time.monotonic()
            if n != last_n:
                last_n, last_t = n, now
            # until its first record the driver imports and starts Ray, slow
            # in a cold checkout: only the deadline applies to that
            if (n and now - last_t > ITER_TIMEOUT_S) or now > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return False
    return proc.returncode == 0


def stop_session_processes(markers: list[str]) -> list[int]:
    """SIGKILL every process whose command line names one of ``markers``
    (the run's Ray session dirs); wait until they are gone."""
    def matching() -> list[int]:
        pids = []
        for p in os.listdir("/proc"):
            if not p.isdigit() or int(p) == os.getpid():
                continue
            try:
                with open(f"/proc/{p}/cmdline", "rb") as f:
                    cmd = f.read().decode(errors="replace")
            except OSError:
                continue
            if any(m in cmd for m in markers):
                pids.append(int(p))
        return pids

    if not markers:
        return []
    for _ in range(80):
        pids = matching()
        if not pids:
            return []
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.25)
    return matching()


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


def summarize(name: str, spec: dict, recs: list[dict], finished: bool,
              gen_s: float) -> tuple[dict, dict]:
    """-> (counts and checks, metrics by name)."""
    setups = [r for r in recs if r["kind"] == "setup"]
    iters = [r for r in recs if r["kind"] == "iter"]
    ok = [r for r in iters if r["s"] is not None and not r["errors"]]
    errors = [e for r in iters for e in r["errors"]]
    failed = len(iters) - len(ok)
    attempted = len(iters)
    notes = []
    if not finished:  # the iteration in flight was killed
        attempted += 1
        failed += 1
        notes.append("the driver failed, or was killed because an iteration "
                     "stalled or the run ran out of time")
    in_session: dict[int, list[float]] = {}  # per Ray session, in order
    for r in ok:
        in_session.setdefault(r["session"], []).append(r["s"])
    run_s = median([r["s"] for r in ok if not r["warmup"]])
    rss = next((r["peak_rss_mb"] for r in recs if r["kind"] == "rss"), float("nan"))
    e2e = {
        "run_s": run_s,
        "pages_per_s": spec["inputs"]["n_pages"] / run_s,
        "setup_s": median([r["setup_s"] for r in setups]),
        "driver_peak_rss_mb": rss,
        "quality": min((r["quality"] for r in ok), default=0.0),
        "ok_ratio": (attempted - failed) / max(1, attempted),
    }
    env = next((r for r in recs if r["kind"] == "env"), {})
    layer = {}
    trace = next((r for r in recs if r["kind"] == "trace"), None)
    if spec["trace"] and trace is not None:
        errors += trace["errors"]

        def drift(times: list[float]) -> float:
            third = max(1, len(times) // 3)
            return median(times[-third:]) / median(times[:third])

        layer = {
            **trace["metrics"],
            "setup.imports_s": median([r["imports_s"] for r in setups]),
            "setup.ray_init_s": median([r["ray_init_s"] for r in setups]),
            "setup.artifacts_s": median([r["artifacts_s"] for r in setups]),
            "inputs.gen_s": gen_s,
            "trace.overhead_s": trace["wall_s"] - run_s,
            "trace.coverage": trace["coverage"],
            # in-session iterations, warm-up included
            "session.drift": median([drift(v) for v in in_session.values()]),
            "session.first_iter_s": median([v[0] for v in in_session.values()]),
            "session.iterations": sum(len(v) for v in in_session.values()),
            "env.nproc": env["nproc"],
            "env.cpus_available": env["cpus_available"],
            "env.num_cpus": env["num_cpus"],
        }
        with open(f".perfbench-trace-{name}.json", "w") as f:
            json.dump({"workload": name, "seed": spec["seed"],
                       "spans": trace["spans"]}, f)
    info = {"attempted": attempted, "failed": failed, "errors": errors,
            "notes": notes, "sessions": [r["session"] for r in setups],
            "nproc": env.get("nproc"), "num_cpus": env.get("num_cpus"),
            "iteration_s": {k: v for k, v in in_session.items()}}
    return info, {**e2e, **layer}


def run_all(args) -> int:
    """Every workload in turn, one process each; one result line apiece."""
    rc = 0
    for name in WORKLOADS:
        p = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--scale", str(args.scale)],
                           capture_output=True, text=True)
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if p.returncode or not lines:
            rc = p.returncode or 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return rc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--manifest", action="store_true",
                    help="rewrite BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.manifest:
        with open("BENCHMARK.json", "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload is None:
        return run_all(args)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "kawa_ray", "__init__.py")):
        print("perfbench: no kawa_ray package here; run from the root of a "
              "kawa-ray checkout", file=sys.stderr)
        return 2
    t_start = time.monotonic()

    work = os.path.join(root, f".pbw{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    ray_temp = short_ray_temp(work)
    # OpenMP and Arrow size their thread pools from OMP_NUM_THREADS: pinned,
    # so the caller's environment does not change how many threads a run uses
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
               KAWA_PAGES_DIR=os.path.join(work, "pages"),
               TMPDIR=os.path.join(work, "tmp"),
               OMP_NUM_THREADS="1")
    os.environ.update(KAWA_PAGES_DIR=env["KAWA_PAGES_DIR"], TMPDIR=env["TMPDIR"])
    sys.path.insert(0, root)
    info, metrics, spec = {"sessions": []}, {}, {}
    try:
        t = time.perf_counter()
        made = make_inputs(args.workload, args.seed, args.scale, work)
        gen_s = time.perf_counter() - t
        wl = WORKLOADS[args.workload]
        spec = {**wl, "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "inputs": made,
                "records": os.path.join(work, "records.jsonl"),
                "ray_temp_dir": ray_temp}
        if wl["kind"] == "census":
            with open(os.path.join(HERE, "census_oracle.json")) as f:
                spec["oracle"] = json.load(f)
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        log_path = os.path.join(work, "driver.log")
        finished = run_driver(spec_path, spec["records"], log_path, env,
                              t_start + RUN_DEADLINE_S)
        recs = read_records(spec["records"])
        if not finished or not any(r["kind"] == "iter" for r in recs):
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
        info, metrics = summarize(args.workload, spec, recs, finished, gen_s)
    finally:
        leftover = stop_session_processes([work, ray_temp] + info["sessions"])
        info.setdefault("errors", [])
        shutil.rmtree(work, ignore_errors=True)
    if leftover:
        info["errors"].append(f"processes survived the run: {leftover}")
    if os.path.exists(work):
        info["errors"].append(f"work dir {work} survived the run")
    for e in info["errors"] + info.get("notes", []):
        print(f"perfbench: {e}", file=sys.stderr)
    if not metrics or metrics["run_s"] != metrics["run_s"]:  # NaN: no iteration
        print(f"perfbench: {args.workload} completed no iteration", file=sys.stderr)
        return 1

    names = PER_LAYER if args.trace else END_TO_END
    units = {n: unit_etc[0] for n, unit_etc in {**END_TO_END, **PER_LAYER}.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "nproc": info["nproc"], "num_cpus": info["num_cpus"],
                      "ray_sessions": len(info["sessions"]),
                      "iteration_s": info["iteration_s"]}))
    print(json.dumps({
        "correct": not info["errors"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
