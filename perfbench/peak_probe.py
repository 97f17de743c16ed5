"""Peak memory of one training call plus one predict call, in a fresh process.

Usage: python3 peak_probe.py SRC_DIR INPUTS_NPZ SOLVER

Prints one JSON line: the growth of the process's peak resident set
(VmHWM) over its resident set just before training, in MB (10^6 bytes).
The inputs arrive as .npy arrays so that loading them leaves no parsing
transient behind to mask a smaller training peak. The caller sets the BLAS
thread count in the environment.
"""

import json
import sys

src, inputs, kind = sys.argv[1:4]
sys.path.insert(0, src)

import numpy as np  # noqa: E402

from solvers import Program, make_solver  # noqa: E402


def status_kib(field):
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field} line")


with np.load(inputs) as arrays:
    x, y, xt = arrays["x"], arrays["y"], arrays["xt"]
program = Program()
solver = make_solver(program, kind)
before, high_before = status_kib("VmRSS"), status_kib("VmHWM")
result = solver.train(x, y)
program.svm.decision_values(solver.model(result, x, y), xt)
high = status_kib("VmHWM")
print(json.dumps({"peak_mb": (high - before) * 1024 / 1e6,
                  "masked": high == high_before}))
