"""The two training paths the workloads time, behind one small interface.

``train(x, y, cap)`` runs the program's trainer with its default config, or
with the iteration cap replaced; ``model`` turns the result into the
program's ``NonlinearModel``; ``check`` verifies the result against
computations made apart from the program.
"""

import numpy as np

import checks
from workloads import GAMMA, SUBSET


class AdmmSolver:
    """train_nonlinear with the workload's NystromConfig and the default AdmmConfig."""

    def __init__(self, program):
        self.p = program
        self.kernel = program.kernel.KernelParams(GAMMA)
        self.nys = program.nystrom.NystromConfig(c=SUBSET, r=SUBSET)
        self.default_cap = program.admm.AdmmConfig().max_iters

    def train(self, x, y, cap=None):
        cfg = self.p.admm.AdmmConfig() if cap is None else self.p.admm.AdmmConfig(max_iters=cap)
        return self.p.svm.train_nonlinear(x, y, self.kernel, self.nys, cfg)

    def model(self, report, x, y):
        return report.model

    def check(self, report, x, y):
        return checks.check_train_accuracy(report.model, x, y, report.train_accuracy, GAMMA)


class SmoSolver:
    """smo_train with the default SmoConfig; the benchmark packs its support set."""

    def __init__(self, program):
        self.p = program
        self.kernel = program.kernel.KernelParams(GAMMA)
        self.default_cap = program.smo.SmoConfig().max_passes
        self.c_box = program.smo.SmoConfig().c_box

    def train(self, x, y, cap=None):
        cfg = self.p.smo.SmoConfig() if cap is None else self.p.smo.SmoConfig(max_passes=cap)
        return self.p.smo.smo_train(x, y, self.kernel, cfg)

    def model(self, result, x, y):
        sv = np.flatnonzero(result.alpha > 0.0)
        return self.p.svm.NonlinearModel(
            indices=sv, alpha_weighted=result.alpha[sv] * y[sv], labels=y[sv].copy(),
            features=x[sv].copy(), bias=float(result.b), kernel=self.kernel,
        )

    def check(self, result, x, y):
        return checks.check_dual(result.alpha, y, self.c_box) or checks.check_train_accuracy(
            self.model(result, x, y), x, y, result.trace.rows[-1].train_accuracy, GAMMA)


class Program:
    """The admmsvm modules, looked up by attribute at every call so spans apply."""

    def __init__(self):
        from admmsvm import admm, data_io, kernel, nystrom, smo, svm

        self.admm, self.data_io, self.kernel = admm, data_io, kernel
        self.nystrom, self.smo, self.svm = nystrom, smo, svm


def make_solver(program, kind):
    return AdmmSolver(program) if kind == "admm" else SmoSolver(program)

