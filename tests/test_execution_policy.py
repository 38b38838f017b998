"""Ray Data runs a stage's map tasks in parallel in a small session.

Importing ``kawa_ray`` turns off Ray Data's per-operator resource
reservation (``kawa_ray/__init__.py``).  With it on, a map operator in a
2-CPU / 512 MB session (perfbench's driver session) gets a budget of
about one task, so four blocks run one after another: about 4x one
task's time.  The check runs in its own process because the reservation
only bites in that small session, not in the test suite's 4-CPU one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TASK_S = 0.3

SCRIPT = f"""
import json, time
import ray

ray.init(address="local", num_cpus=2, object_store_memory=512 << 20,
         include_dashboard=False, logging_level="ERROR")
import kawa_ray  # noqa: F401  (sets the execution policy)
import ray.data as rd
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False


def slow(batch):
    time.sleep({TASK_S})
    return batch


def run():
    t = time.perf_counter()
    rd.range(4, override_num_blocks=4).map_batches(slow, batch_size=None).materialize()
    return time.perf_counter() - t


run()  # warm-up: worker start-up is not what is measured
print(json.dumps(min(run() for _ in range(3))))
ray.shutdown()
"""


def test_map_tasks_run_in_parallel_in_two_cpu_session():
    env = {**os.environ, "PYTHONPATH": REPO + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    best = json.loads(out.stdout.strip().splitlines()[-1])
    # 2 CPUs, 4 tasks: two waves (~2x) when the tasks overlap, ~4x serial
    assert best < 3 * TASK_S, f"4 map tasks took {best:.2f} s on 2 CPUs"
