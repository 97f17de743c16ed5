"""Workload table, input generator and the benchmark's own delimited writer.

The generator repeats the construction of ``admmsvm.synthetic.mnist_like``
here, so that a change to the program's demo data cannot shift the
benchmark's inputs. Training and held-out rows come from one draw (one
latent basis), split after the first ``n`` rows.
"""

from dataclasses import dataclass

import numpy as np

GAMMA = -1.0
SUBSET = 64  # c = r for every ADMM workload
HELDOUT = 1024
TARGET_ACCURACY = 0.95

# Input of the traced_train operation, which fails today because the
# per-iteration accuracy that train_nonlinear(track_accuracy=True) records
# scores sign(V eta + b) instead of y * (V eta) + b. It runs once in every
# round on data that does not depend on --seed, so the share of failed
# operations is the same in every run; a small fixed input keeps its cost
# to a few percent of a round.
TRACED_TRAIN = {"n": 512, "c": 16, "seed": 0}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    solver: str  # "admm" or "smo"
    fixed_train: bool = False


# SMO's pass count swings with the row order alone: five permutations of one
# N=2048 training set took 60 to 200 passes and 5.5 s to 11.3 s. A training
# set drawn per seed would make smo_n2048's train_s measure the draw, so its
# training rows come from FIXED_TRAIN_SEED and --seed draws its held-out rows
# from a pool of the same population.
FIXED_TRAIN_SEED = 0
HELDOUT_POOL = 8192

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_n2048", 2048, 64, "admm"),
        Workload("wide_p784", 2048, 784, "admm"),
        Workload("smo_n2048", 2048, 64, "smo", fixed_train=True),
    )
}


def workload_inputs(workload, seed):
    """(x, y, x_heldout, y_heldout) of a workload for one --seed."""
    if not workload.fixed_train:
        return make_inputs(workload.n, workload.p, seed)
    x, y, pool_x, pool_y = make_inputs(workload.n, workload.p, FIXED_TRAIN_SEED,
                                       heldout=HELDOUT_POOL)
    pick = np.sort(np.random.default_rng(seed).choice(HELDOUT_POOL, HELDOUT, replace=False))
    return x, y, pool_x[pick], pool_y[pick]


def make_inputs(n, p, seed, heldout=HELDOUT, latent=32, separation=1.5):
    """Return (x, y, x_heldout, y_heldout) drawn from one mnist_like population."""
    total = n + heldout
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((p, latent)))
    scales = 0.35 * 0.88 ** np.arange(latent)
    offset = (separation / 2.0) * basis[:, 0]
    n_neg = total // 2
    z = rng.standard_normal((total, latent)) * scales
    x = z @ basis.T + 0.02 * rng.standard_normal((total, p))
    x[:n_neg] -= offset
    x[n_neg:] += offset
    y = np.concatenate([np.full(n_neg, -1.0), np.full(total - n_neg, 1.0)])
    order = rng.permutation(total)
    x, y = x[order], y[order]
    return x[:n], y[:n], x[n:], y[n:]


def write_delimited(path, x, y):
    """Comma-separated features with a trailing -1/1 label; repr keeps every bit."""
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(x.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + ("," + ("1" if label > 0 else "-1")) + "\n")
