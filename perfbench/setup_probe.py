"""Set-up probe: a fresh process that generates a workload's inputs and
builds its first model, then reports the build time and the digests of
every program.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from inputs import digests  # noqa: E402
from sim import workload_items  # noqa: E402

items = workload_items(sys.argv[1], int(sys.argv[2]))
program = items[0].kit.assemble(items[0].source)
built = time.perf_counter()
items[0].kit.build(program)
ready = time.perf_counter()
print(json.dumps({"build_first_s": ready - built}), flush=True)
print(json.dumps({"digests": digests([(i.name, i.model, i.source) for i in items])}))
