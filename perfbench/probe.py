"""One cold set-up of a workload, run in a fresh interpreter by run.py.

Usage: python3 perfbench/probe.py WORKLOAD SEED

Imports ameslocc from the checkout's src/, builds batch 0 of the workload
and prints one JSON line: the import time, the CLOCK_MONOTONIC reading at
the point where the first op would start, the number of ops built, and the
reference samples taken from the start of the import to that point (see
clock.py) with the seconds spent taking them.  The import time has the
sampling taken off; the fractions module is loaded before it, because the
reference loop needs it.
"""

import json
import os
import sys
import time

from clock import Sampler, reference

sampler = Sampler()
t_first = time.perf_counter()
first = reference()
first_spent = time.perf_counter() - t_first
sampler.start()
t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import ameslocc  # noqa: E402

import_s = time.perf_counter() - t0 - sampler.spent
import_samples = [first] + sampler.samples

import ladder  # noqa: E402

ops = ladder.batch(sys.argv[1], int(sys.argv[2]), 0)
samples, spent = sampler.stop()
print(json.dumps({"import_s": import_s, "import_samples": import_samples,
                  "ready": time.monotonic(), "samples": [first] + samples,
                  "spent": first_spent + spent, "ops": len(ops),
                  "module": ameslocc.__file__}))
