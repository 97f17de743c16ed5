"""Command-line front end: train, predict and approx-study.

``approx-study`` tests the paper's two claims on one dataset: for each
(c, r, seed) it times the training that ``train`` runs, and records it with
the Nystrom factor's effective rank and MSE, the iterations and the
accuracy; its last row is exact-kernel SMO on the same problem, at the box
C = 1/lambda, the box that ``train --path smo`` solves too.

``train`` writes one model file, which holds the ``--scaling`` transform
fitted on the training rows, so ``predict`` reads raw rows and needs no
other file. A model written before the file held that transform, with its
``<model>.scaling.json`` sidecar beside it, is a model-file error: retrain.

``train``'s ``wall_clock_s`` and each study row's ``train_ms`` time the
solver call alone: on the SMO path, forming the model from its multipliers
comes after the timed span.

Exit codes: 0 success, 1 internal error, 2 invalid flags or configuration
(a ``ConfigError``, such as a lambda or rho that leaves the ADMM system
matrix singular, or a ``ValueError``), 3 data or model-file error (a
``DataError``, or an ``OSError`` from a file that cannot be opened), 4 a
solver finished without converging (in approx-study, the solver of any
row) and --allow-nonconverged was not set. Dataset paths that do not exist
are also resolved against the directory named by the ADMMSVM_DATA_DIR
environment variable.
"""

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
import time
import warnings

import numpy as np

from .admm import AdmmConfig, TraceRow, accuracy
from .data_io import (
    SCALE_MINMAX,
    SCALE_NONE,
    SCALE_ZSCORE,
    SplitSpec,
    load_delimited,
    load_delimited_features,
    load_sparse_text,
    scale_features,
    split,
)
from .errors import AdmmSvmError, ConfigError, DataError, InvalidCountError
from .kernel import KernelParams, build_kernel_matrix
from .nystrom import NystromConfig, approximation_mse, nystrom_factor
from .smo import SmoConfig, smo_train
from .svm import decision_values, load_model, save_model, support_model, train_nonlinear

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NOT_CONVERGED = 4

DATA_DIR_ENV = "ADMMSVM_DATA_DIR"
REPORT_SCHEMA_VERSION = 4
SOLVERS = ("efficient", "smo")
TRACE_COLUMNS = [f.name for f in dataclasses.fields(TraceRow)]
STUDY_COLUMNS = ["solver", "c", "r", "seed", "effective_rank", "mse", "train_ms", "iterations",
                 "converged", "train_accuracy"]


def resolve_data_path(path):
    if os.path.exists(path):
        return path
    base = os.environ.get(DATA_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load_dataset(args):
    path = resolve_data_path(args.data)
    if args.format == "sparse":
        return load_sparse_text(path)
    return load_delimited(path, args.label_column, delimiter=args.delimiter)


def _write_trace_csv(trace, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace.rows:
            writer.writerow([row.iteration,
                             *(_fmt(getattr(row, name)) for name in TRACE_COLUMNS[1:])])


def _fmt(value):
    return "" if value is None else repr(float(value))


def _write_report(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _problem(args):
    """The kernel and the solver settings of the flags; SMO's box is C = 1/lambda."""
    params = KernelParams(gamma=-abs(args.gamma))
    admm_cfg = AdmmConfig(lambda_=args.lambda_, rho=args.rho, epsilon=args.epsilon,
                          max_iters=args.max_iters)
    smo_cfg = SmoConfig(c_box=1.0 / admm_cfg.lambda_, kkt_tol=args.kkt_tol,
                        max_passes=args.max_passes)
    return params, admm_cfg, smo_cfg


def _fit(ds, params, nys, admm_cfg, smo_cfg, track_accuracy=False):
    """Train on ``ds``: ADMM on the Nystrom factor ``nys``, or SMO when ``nys`` is None.

    Returns the model, the trace, the seconds of the solver call alone and
    a summary of ``iterations`` (passes for SMO), ``converged``,
    ``train_accuracy``, ``effective_rank`` and ``final_gap``; SMO leaves the
    last two None.
    """
    tic = time.perf_counter()
    if nys is None:
        result = smo_train(ds.x, ds.y, params, smo_cfg)
        seconds = time.perf_counter() - tic
        model = support_model(ds.x, ds.y, np.arange(ds.n), result.alpha * ds.y, result.b, params)
        summary = {"iterations": result.passes, "converged": result.converged,
                   "train_accuracy": result.trace.rows[-1].train_accuracy,
                   "effective_rank": None, "final_gap": None}
        return model, result.trace, seconds, summary
    report = train_nonlinear(ds.x, ds.y, params, nys, admm_cfg, track_accuracy=track_accuracy)
    seconds = time.perf_counter() - tic
    summary = {"iterations": len(report.trace), "converged": report.converged,
               "train_accuracy": report.train_accuracy,
               "effective_rank": report.effective_rank, "final_gap": report.final_gap}
    return report.model, report.trace, seconds, summary


def cmd_train(args):
    ds = _load_dataset(args)
    test = None
    if args.train_fraction is not None:
        ds, test = split(ds, SplitSpec(args.train_fraction, seed=args.seed))
    # fitted on the training rows alone, so held-out rows stay unseen
    ds, scaling = scale_features(ds, args.scaling)

    params, admm_cfg, smo_cfg = _problem(args)
    if args.path == "smo":
        nys, settings = None, dataclasses.asdict(smo_cfg)
    else:
        c = args.subset_size
        r = args.rank if args.rank is not None else min(64, ds.n if c is None else c)
        if c is None:
            c = r
        nys = NystromConfig(c=c, r=r, seed=args.seed)
        settings = {"lambda": args.lambda_, "rho": args.rho, "epsilon": args.epsilon,
                    "max_iters": args.max_iters, "c": c, "r": r}
    model, trace, seconds, fit = _fit(ds, params, nys, admm_cfg, smo_cfg, track_accuracy=True)

    model = dataclasses.replace(model, scaling=scaling)
    save_model(model, args.out_model)

    test_accuracy = None
    if test is not None:
        test_accuracy = accuracy(decision_values(model, test.x), test.y)

    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "train",
        "params": {
            "gamma": params.gamma,
            **settings,
            "seed": args.seed,
            "path": args.path,
            "scaling": args.scaling,
        },
        "n_train": ds.n,
        "train_accuracy": fit["train_accuracy"],
        "test_accuracy": test_accuracy,
        "iterations": fit["iterations"],
        "converged": fit["converged"],
        "wall_clock_s": seconds,
        "nonzero_alpha": model.n_support,
        "effective_rank": fit["effective_rank"],
        "final_gap": fit["final_gap"],
    }
    _write_report(payload, args.out_report)
    if args.out_trace:
        _write_trace_csv(trace, args.out_trace)

    print(f"train_accuracy={fit['train_accuracy']:.4f} support={model.n_support} "
          f"iterations={fit['iterations']} converged={fit['converged']}")
    if not fit["converged"] and not args.allow_nonconverged:
        print("warning: solver did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_predict(args):
    if args.no_labels and args.format == "sparse":
        raise ValueError("--no-labels reads delimited files; sparse lines start with a label")
    model = load_model(resolve_data_path(args.model))

    labels = None
    if args.no_labels:
        x = load_delimited_features(resolve_data_path(args.data), delimiter=args.delimiter)
    else:
        ds = _load_dataset(args)
        x, labels = ds.x, ds.y
    if args.format == "sparse":  # absent indices are zeros, up to the model's width
        x = np.pad(x, ((0, 0), (0, max(model.p - x.shape[1], 0))))

    values = decision_values(model, x)
    pred = np.where(values >= 0.0, 1, -1)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "decision_value"])
        for lab, val in zip(pred, values):
            writer.writerow([int(lab), repr(float(val))])
    if labels is not None:
        print(f"accuracy={accuracy(values, labels):.4f}")
    return EXIT_OK


def cmd_approx_study(args):
    """One row per valid (c, r, seed) of ADMM on the Nystrom factor, then one exact-kernel SMO row.

    Every row is one :func:`_fit`, the training ``train`` runs, to the
    solver's own stop rule; the ``smo`` row's box is C = 1/lambda and its
    ``iterations`` are passes. The ``mse`` of each Nystrom factor, which
    :func:`nystrom_factor` forms with the same bits, is taken after the
    timed span.
    """
    ds = _load_dataset(args)
    if ds.n > 8192:
        raise InvalidCountError(
            f"approx-study materializes the full kernel matrix; N={ds.n} exceeds the 8192 guard"
        )
    params, admm_cfg, smo_cfg = _problem(args)
    combos = sorted(
        {
            (c, r, seed)
            for c, r, seed in itertools.product(args.c_list, args.r_list, args.seeds)
            if 1 <= r <= c <= ds.n
        }
    )
    if not combos:
        raise InvalidCountError("no valid (c, r, seed) combinations: need r <= c <= N")
    psi = build_kernel_matrix(ds.x, ds.y, params)
    # numpy loads numpy.random on first use, which the landmark sampling makes;
    # loading it here keeps that import out of the first row's train_ms
    import numpy.random  # noqa: F401

    rows = []
    for c, r, seed in [*combos, (None, None, None)]:  # the last pass is the SMO row
        nys = None if c is None else NystromConfig(c=c, r=r, seed=seed)
        _, _, seconds, fit = _fit(ds, params, nys, admm_cfg, smo_cfg)
        row = {"solver": "smo" if nys is None else "admm", "c": c, "r": r, "seed": seed,
               "effective_rank": fit["effective_rank"], "train_ms": _fmt(seconds * 1e3),
               "iterations": fit["iterations"], "converged": fit["converged"],
               "train_accuracy": _fmt(fit["train_accuracy"])}
        if nys is not None:
            with warnings.catch_warnings():  # train_nonlinear has warned of any truncation
                warnings.simplefilter("ignore", RuntimeWarning)
                factor = nystrom_factor(ds.x, ds.y, params, nys)
            row["mse"] = _fmt(approximation_mse(psi, factor))
        rows.append(row)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, STUDY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    if not all(row["converged"] for row in rows) and not args.allow_nonconverged:
        print("warning: some solver did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _add_data_flags(parser):
    parser.add_argument("--data", required=True, help="dataset path")
    parser.add_argument("--format", choices=["delimited", "sparse"], default="delimited")
    parser.add_argument("--label-column", type=int, default=-1,
                        help="label cell index per row (default: last)")
    parser.add_argument("--delimiter", default=",")


def _add_solver_flags(parser):
    parser.add_argument("--gamma", type=float, default=-1.0,
                        help="RBF decay rate; positive values are negated")
    parser.add_argument("--lambda", dest="lambda_", type=float, default=10.0)
    parser.add_argument("--rho", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=1e-3,
                        help="ADMM stops when the relative duality gap falls to this")
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--kkt-tol", type=float, default=1e-3,
                        help="SMO stops when the maximal violating pair's gap falls below this")
    parser.add_argument("--max-passes", type=int, default=200,
                        help="SMO pass cap; a pass is at most N pair updates")
    parser.add_argument("--allow-nonconverged", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="admmsvm",
        description="ADMM-based SVM training with Nystrom low-rank kernel approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write model/report/trace files")
    _add_data_flags(p_train)
    _add_solver_flags(p_train)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--path", choices=SOLVERS, default="efficient",
                         help="efficient: Nystrom factor and ADMM; smo: exact SMO at C = 1/lambda")
    p_train.add_argument("--rank", type=int, default=None,
                         help="target rank r (default min(64, c), or min(64, N) without c)")
    p_train.add_argument("--subset-size", type=int, default=None,
                         help="sampled columns c (default: equal to r)")
    p_train.add_argument("--scaling", choices=[SCALE_MINMAX, SCALE_ZSCORE, SCALE_NONE],
                         default=SCALE_NONE)
    p_train.add_argument("--train-fraction", type=float, default=None,
                         help="hold out 1-fraction of rows for test accuracy")
    p_train.add_argument("--out-model", default="model.svm")
    p_train.add_argument("--out-report", default="report.json")
    p_train.add_argument("--out-trace", default="trace.csv")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="write per-row labels and decision values")
    p_pred.add_argument("--model", required=True)
    _add_data_flags(p_pred)
    p_pred.add_argument("--no-labels", action="store_true",
                        help="data file has feature columns only")
    p_pred.add_argument("--out", default="predictions.csv")
    p_pred.set_defaults(func=cmd_predict)

    p_study = sub.add_parser(
        "approx-study",
        help="sweep (c, r, seed): Nystrom rank, MSE and ADMM training, then exact-kernel SMO")
    _add_data_flags(p_study)
    _add_solver_flags(p_study)
    p_study.add_argument("--c-list", type=_int_list, required=True)
    p_study.add_argument("--r-list", type=_int_list, required=True)
    p_study.add_argument("--seeds", type=_int_list, default=[0])
    p_study.add_argument("--out", default="approx_study.csv")
    p_study.set_defaults(func=cmd_approx_study)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AdmmSvmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
