"""kawa-ray: Ray-Data-native multilingual entity resolution.

Importing the package sets one Ray Data execution policy for the
process: the per-operator resource reservation is off.  Every entry
point (CLI, bench.py, tests, tools, perfbench's driver) imports a
``kawa_ray`` module before it builds a Dataset, so the policy reaches
every ``map_batches`` stage.

Why: Ray 2.49's ``ReservationOpResourceAllocator`` (ratio 0.5) gives a
map operator a budget of about one task in a 2-CPU / 512 MB session, so
the stages ran one task at a time.  Probe, 8 blocks through a
``map_batches`` that sleeps 0.2 s, median of 3 warm runs (4-vCPU host):

    session          default  target_max_block_size 8 MB  ratio 0  off     ideal
    2 CPUs, 512 MB   1.40 s   1.10 s                      1.39 s   0.87 s  0.8 s
    4 CPUs, 512 MB   0.78 s   0.50 s                      0.78 s   0.47 s  0.4 s

A lower reservation ratio changes nothing, and on the perfbench
workloads an 8 MB target block size ran at the default's speed while
the reservation off cut ``run_s`` by about 30% (BASELINE.md "Parallel
map tasks").
"""

from ray.data import DataContext

DataContext.get_current().op_resource_reservation_enabled = False
