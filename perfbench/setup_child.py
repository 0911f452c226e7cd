"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports ``bozk.cli``, loads each manifest given on the command line, and
builds its grid and initial data: everything a ``bozk`` invocation does
before its first time step.  Prints the in-process split as one JSON line;
the parent times the whole process, start-up included.

    python3 perfbench/setup_child.py MANIFEST [MANIFEST ...]
"""

import json
import sys
import time

t0 = time.perf_counter()
import bozk.cli  # noqa: E402  (the import is what is being timed)

t1 = time.perf_counter()
manifests = [bozk.cli.load_manifest(path) for path in sys.argv[1:]]
t2 = time.perf_counter()
for m in manifests:
    m.initial_data(m.grid())
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "data_s": t3 - t2}))
