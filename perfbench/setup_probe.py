"""One set-up as a workload's process pays it: import admmsvm, load both files.

Usage: python3 setup_probe.py SRC_DIR TRAIN_FILE HELDOUT_FILE INPUTS_NPZ

Prints one JSON line with the time.perf_counter() reading at which the
first timed operation could start, so the parent can measure from the
moment it started this process (perf_counter is the system-wide monotonic
clock on Linux). After that reading, and outside it, it checks that the
loaded rows and labels equal the generated arrays in INPUTS_NPZ. The
caller sets the BLAS thread count in the environment.
"""

import json
import sys
import time

started = time.perf_counter()
src, train_path, heldout_path, inputs = sys.argv[1:5]
sys.path.insert(0, src)

from admmsvm import data_io  # noqa: E402

imported = time.perf_counter()
train = data_io.load_delimited(train_path, label_column=-1)
heldout = data_io.load_delimited(heldout_path, label_column=-1)
ready = time.perf_counter()

import numpy as np  # noqa: E402

with np.load(inputs) as arrays:
    matches = all(np.array_equal(loaded, arrays[key]) for loaded, key in (
        (train.x, "x"), (train.y, "y"), (heldout.x, "xt"), (heldout.y, "yt")))
print(json.dumps({"ready": ready, "import_s": imported - started, "load_s": ready - imported,
                  "matches": matches}))
