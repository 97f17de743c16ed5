"""Quick self-test: every check passes real output and rejects a corrupted copy.

Runs at tiny sizes in well under a second. ``run.py`` runs it at the start
of every run and reports the run incorrect if a check fails to tell good
output from bad. Stand-alone: ``python3 perfbench/selftest.py``.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from workloads import GAMMA, make_inputs


def _flip_last_byte(svm):
    class Corrupting:
        load_model = staticmethod(svm.load_model)

        @staticmethod
        def save_model(model, path):
            svm.save_model(model, path)
            blob = bytearray(Path(path).read_bytes())
            blob[-1] ^= 0x01
            Path(path).write_bytes(bytes(blob))

    return Corrupting


def run_selftest():
    """Return a list of problems; empty when every check behaves."""
    from admmsvm import admm, kernel, nystrom, smo, svm

    x, y, xt, yt = make_inputs(96, 32, seed=7, heldout=64)
    params = kernel.KernelParams(GAMMA)
    report = svm.train_nonlinear(x, y, params, nystrom.NystromConfig(c=12, r=12), admm.AdmmConfig())
    model = report.model
    values = svm.decision_values(model, xt)
    reference = checks.reference_accuracy(x, y, xt, yt, GAMMA)
    negated = dataclasses.replace(model, bias=-model.bias if model.bias else 1.0)
    factor = nystrom.nystrom_factor(x, y, params, nystrom.NystromConfig(c=12, r=12))
    subset = factor.m
    cols = kernel.kernel_columns(x, y, params, subset)
    bumped = cols.copy()
    bumped[5, 3] += 1e-9
    acc = report.train_accuracy
    result = smo.smo_train(x, y, params, smo.SmoConfig())
    c_box = smo.SmoConfig().c_box
    outside = result.alpha.copy()
    outside[0] = c_box + 1.0
    unbalanced = result.alpha.copy()
    unbalanced[np.argmax(y > 0)] += 0.5

    with tempfile.TemporaryDirectory() as tmp:
        cases = [
            ("decisions", lambda: checks.check_decisions(model, xt, values, GAMMA),
             lambda: checks.check_decisions(model, xt, svm.decision_values(negated, xt), GAMMA)),
            ("heldout_accuracy", lambda: checks.check_heldout_accuracy(values, yt, reference),
             lambda: checks.check_heldout_accuracy(-values, yt, reference)),
            ("train_accuracy", lambda: checks.check_train_accuracy(model, x, y, acc, GAMMA),
             lambda: checks.check_train_accuracy(model, x, y, acc - 0.1, GAMMA)),
            ("trace_accuracy", lambda: checks.check_trace_accuracy(acc, acc, 96),
             lambda: checks.check_trace_accuracy(acc - 2.0 / 96, acc, 96)),
            ("roundtrip", lambda: checks.check_roundtrip(svm, model, tmp),
             lambda: checks.check_roundtrip(_flip_last_byte(svm), model, tmp)),
            ("kernel_columns", lambda: checks.check_kernel_columns(x, y, subset, cols, GAMMA),
             lambda: checks.check_kernel_columns(x, y, subset, bumped, GAMMA)),
            ("factor", lambda: checks.check_factor(cols, subset, factor.v, factor.effective_rank),
             lambda: checks.check_factor(cols, subset, 1.01 * factor.v, factor.effective_rank)),
            ("dual_box", lambda: checks.check_dual(result.alpha, y, c_box),
             lambda: checks.check_dual(outside, y, c_box)),
            ("dual_balance", lambda: checks.check_dual(result.alpha, y, c_box),
             lambda: checks.check_dual(unbalanced, y, c_box)),
        ]
        problems = []
        for name, good, bad in cases:
            verdict = good()
            if verdict is not None:
                problems.append(f"self-test {name}: rejects good output: {verdict}")
            if bad() is None:
                problems.append(f"self-test {name}: accepts corrupted output")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = run_selftest()
    for line in found:
        print(line)
    print("self-test passed" if not found else f"self-test: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
