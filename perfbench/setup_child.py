"""Times one fresh interpreter's import of nmqem plus the workload's first op.

Usage: python3 perfbench/setup_child.py <workload> <op-json | import-only> <src-dir>

Prints the elapsed wall time in seconds and then the time of the speed probe
(probe.py), run once the timed part is over.  `run.py` starts these one at a
time.
"""

import sys
import time

t0 = time.perf_counter()
workload, op_json, src = sys.argv[1:4]
sys.path.insert(0, src)

import nmqem  # noqa: E402

if workload == "cli":
    import nmqem.cli  # noqa: F401

if op_json != "import-only":
    import json

    import ops  # this directory; its nmqem imports are already loaded

    ops.RUNNERS[workload](json.loads(op_json))
elapsed = time.perf_counter() - t0

from probe import probe  # noqa: E402  (after the timed part: it imports fractions)

print(elapsed, probe(workload, 5))
