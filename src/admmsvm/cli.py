"""Command-line front end: train, predict, approx-study and bench-convergence.

Exit codes: 0 success, 1 internal error, 2 invalid flags or configuration,
3 data or model-file error, 4 a solver finished without converging (or a
benchmark cell missed its accuracy target) and --allow-nonconverged was
not set. Dataset paths that do not exist are also resolved against the
directory named by the ADMMSVM_DATA_DIR environment variable.
"""

import argparse
import csv
import itertools
import json
import os
import sys
import time

import numpy as np

from . import synthetic
from .admm import AdmmConfig, accuracy, solve_linear
from .data_io import (
    SCALE_MINMAX,
    SCALE_NONE,
    SCALE_ZSCORE,
    ScalingRecord,
    SplitSpec,
    load_delimited,
    load_delimited_features,
    load_sparse_text,
    scale_features,
    split,
)
from .errors import (
    AdmmSvmError,
    DimensionMismatchError,
    InsufficientClassSamplesError,
    InvalidCountError,
    MalformedModelFileError,
    MissingValueError,
    NonAscendingIndexError,
    NonFiniteError,
    NotBinaryError,
    ParseError,
    SingleClassError,
)
from .kernel import KernelParams, build_kernel_matrix
from .nystrom import NystromConfig, approximation_mse, nystrom_factor
from .smo import SmoConfig, smo_train
from .svm import NonlinearModel, decision_values, load_model, save_model, train_nonlinear

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NOT_CONVERGED = 4

DATA_DIR_ENV = "ADMMSVM_DATA_DIR"
REPORT_SCHEMA_VERSION = 2
SOLVERS = ("efficient", "smo")
TRACE_COLUMNS = ["iteration", "u_residual", "beta_residual", "train_accuracy", "elapsed_ms"]

_DATA_ERRORS = (
    ParseError,
    NotBinaryError,
    MissingValueError,
    NonAscendingIndexError,
    MalformedModelFileError,
    DimensionMismatchError,
    InsufficientClassSamplesError,
    SingleClassError,
    FileNotFoundError,
    IsADirectoryError,
)


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
            writer.writerow(
                [
                    row.iteration,
                    _fmt(row.u_residual),
                    _fmt(row.beta_residual),
                    _fmt(row.train_accuracy),
                    _fmt(row.elapsed_ms),
                ]
            )


def _fmt(value):
    return "" if value is None else repr(float(value))


def _write_report(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _model_from_smo(result, ds, params, drop_tol=1e-12):
    keep = np.abs(result.alpha) > drop_tol
    idx = np.flatnonzero(keep)
    labels = ds.y[idx]
    return NonlinearModel(
        indices=idx,
        alpha_weighted=result.alpha[idx] * labels,
        labels=labels.copy(),
        features=ds.x[idx].copy(),
        bias=result.b,
        kernel=params,
    )


def cmd_train(args):
    ds = _load_dataset(args)
    test = None
    if args.train_fraction is not None:
        ds, test = split(ds, SplitSpec(args.train_fraction, seed=args.seed))
    # fitted on the training rows alone, so held-out rows stay unseen
    ds, scaling = scale_features(ds, args.scaling)

    n = ds.n
    params = KernelParams(gamma=-abs(args.gamma))
    wall_start = time.perf_counter()
    if args.path == "smo":
        cfg = SmoConfig(c_box=args.c_box, kkt_tol=args.kkt_tol, max_passes=args.max_passes)
        settings = {"c_box": cfg.c_box, "kkt_tol": cfg.kkt_tol, "max_passes": cfg.max_passes}
        result = smo_train(ds.x, ds.y, params, cfg)
        model = _model_from_smo(result, ds, params)
        trace = result.trace
        converged = result.converged
        iterations = result.passes
        effective_rank = None
        nystrom_mse = None
        train_accuracy = trace.rows[-1].train_accuracy
    else:
        r = args.rank if args.rank is not None else min(64, n)
        c = args.subset_size if args.subset_size is not None else r
        if not 1 <= r <= c <= n:
            raise InvalidCountError(
                f"rank settings must satisfy r <= c <= N, got r={r}, c={c}, N={n}"
            )
        settings = {"lambda": args.lambda_, "rho": args.rho, "epsilon": args.epsilon,
                    "max_iters": args.max_iters, "c": c, "r": r}
        nys = NystromConfig(c=c, r=r, seed=args.seed)
        admm_cfg = AdmmConfig(lambda_=args.lambda_, rho=args.rho, epsilon=args.epsilon,
                              max_iters=args.max_iters)
        report = train_nonlinear(
            ds.x, ds.y, params, nys, admm_cfg,
            compute_mse=args.compute_mse, track_accuracy=True,
        )
        model = report.model
        trace = report.trace
        converged = report.converged
        iterations = len(trace)
        effective_rank = report.effective_rank
        nystrom_mse = report.nystrom_mse
        train_accuracy = report.train_accuracy
    wall_clock_s = time.perf_counter() - wall_start

    save_model(model, args.out_model, fmt=args.model_format)
    if scaling.mode != SCALE_NONE:
        with open(args.out_model + ".scaling.json", "w", encoding="utf-8") as fh:
            json.dump(scaling.to_dict(), fh)

    test_accuracy = None
    if test is not None:
        test_accuracy = accuracy(decision_values(model, scaling.apply(test.x)), test.y)

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
        "n_train": n,
        "train_accuracy": train_accuracy,
        "test_accuracy": test_accuracy,
        "iterations": iterations,
        "converged": converged,
        "wall_clock_s": wall_clock_s,
        "nonzero_alpha": model.n_support,
        "effective_rank": effective_rank,
        "nystrom_mse": nystrom_mse,
    }
    _write_report(payload, args.out_report)
    if args.out_trace:
        _write_trace_csv(trace, args.out_trace)

    print(f"train_accuracy={train_accuracy:.4f} support={model.n_support} "
          f"iterations={iterations} converged={converged}")
    if not converged and not args.allow_nonconverged:
        print("warning: solver did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_predict(args):
    model = load_model(resolve_data_path(args.model))
    sidecar = resolve_data_path(args.model) + ".scaling.json"

    path = resolve_data_path(args.data)
    labels = None
    if args.no_labels:
        x = load_delimited_features(path, delimiter=args.delimiter)
    else:
        ds = load_delimited(path, args.label_column, delimiter=args.delimiter)
        x, labels = ds.x, ds.y
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise MalformedModelFileError(f"invalid scaling file {sidecar}: {exc}") from exc
        record = ScalingRecord.from_dict(payload)
        x = record.apply(x)

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
    ds = _load_dataset(args)
    if ds.n > 8192:
        raise InvalidCountError(
            f"approx-study materializes the full kernel matrix; N={ds.n} exceeds the 8192 guard"
        )
    params = KernelParams(gamma=-abs(args.gamma))
    psi = build_kernel_matrix(ds.x, ds.y, params)

    combos = sorted(
        {
            (c, r, seed)
            for c, r, seed in itertools.product(args.c_list, args.r_list, args.seeds)
            if 1 <= r <= c <= ds.n
        }
    )
    if not combos:
        raise InvalidCountError("no valid (c, r, seed) combinations: need r <= c <= N")
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "r", "seed", "mse"])
        for c, r, seed in combos:
            factor = nystrom_factor(
                ds.x, ds.y, params, NystromConfig(c=c, r=r, seed=seed, eig_tol=0.0)
            )
            writer.writerow([c, r, seed, repr(approximation_mse(psi, factor))])
    print(f"wrote {len(combos)} rows to {args.out}")
    return EXIT_OK


def _bench_cell_admm(ds, params, args):
    tic = time.perf_counter()
    r = min(args.rank, ds.n)
    factor = nystrom_factor(ds.x, ds.y, params, NystromConfig(c=r, r=r, seed=args.seed))
    setup_ms = (time.perf_counter() - tic) * 1e3

    cfg = AdmmConfig(lambda_=args.lambda_, rho=args.rho, epsilon=args.epsilon,
                     max_iters=args.max_iters)
    model = solve_linear(factor.v, ds.y, cfg, track_accuracy=True)
    reach_ms = model.trace.time_to_accuracy_ms(args.target_accuracy)
    time_ms = setup_ms + reach_ms if reach_ms is not None else None
    iters = _iterations_to_target(model.trace, args.target_accuracy)
    final_acc = model.trace.rows[-1].train_accuracy
    return time_ms, iters, final_acc


def _bench_cell_smo(ds, params, args):
    cfg = SmoConfig(c_box=args.c_box, kkt_tol=args.kkt_tol, max_passes=args.max_passes)
    result = smo_train(ds.x, ds.y, params, cfg, accuracy_target=args.target_accuracy)
    time_ms = result.trace.time_to_accuracy_ms(args.target_accuracy)
    iters = _iterations_to_target(result.trace, args.target_accuracy)
    final_acc = result.trace.rows[-1].train_accuracy
    return time_ms, iters, final_acc


def _iterations_to_target(trace, target):
    for row in trace.rows:
        if row.train_accuracy is not None and row.train_accuracy >= target:
            return row.iteration
    return None


def cmd_bench_convergence(args):
    params = KernelParams(gamma=-abs(args.gamma))
    rows = []
    any_missed = False
    for n, seed in itertools.product(args.sizes, args.seeds):
        ds = synthetic.mnist_like(n, seed=seed)
        for solver in args.solvers:
            try:
                if solver == "smo":
                    time_ms, iters, final_acc = _bench_cell_smo(ds, params, args)
                else:
                    time_ms, iters, final_acc = _bench_cell_admm(ds, params, args)
            except NonFiniteError as exc:
                print(f"warning: cell ({solver}, N={n}, seed={seed}) diverged: {exc}",
                      file=sys.stderr)
                time_ms, iters, final_acc = None, None, None
            reached = time_ms is not None
            any_missed = any_missed or not reached
            rows.append((solver, n, seed, time_ms, iters, final_acc, reached))

    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["solver", "n", "seed", "time_to_target_ms", "iterations_to_target",
             "final_accuracy", "reached_target"]
        )
        for solver, n, seed, time_ms, iters, final_acc, reached in rows:
            writer.writerow(
                [solver, n, seed, _fmt(time_ms), "" if iters is None else iters,
                 _fmt(final_acc), reached]
            )
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    if any_missed and not args.allow_nonconverged:
        print("warning: some cells missed the accuracy target", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _solver_list(text):
    solvers = text.split(",")
    unknown = [name for name in solvers if name not in SOLVERS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown solver {unknown[0]!r}; choose from {', '.join(SOLVERS)}")
    return solvers


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
    parser.add_argument("--epsilon", type=float, default=1e-6)
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--c-box", type=float, default=10.0, help="SMO box constraint")
    parser.add_argument("--kkt-tol", type=float, default=1e-3,
                        help="SMO stops when the maximal violating pair's gap falls below this")
    parser.add_argument("--max-passes", type=int, default=200,
                        help="SMO pass cap; a pass is at most N pair updates")
    parser.add_argument("--seed", type=int, default=0)
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
    p_train.add_argument("--path", choices=SOLVERS, default="efficient",
                         help="efficient: Nystrom factor and ADMM; smo: exact-kernel SMO baseline")
    p_train.add_argument("--rank", type=int, default=None, help="target rank r (default min(64, N))")
    p_train.add_argument("--subset-size", type=int, default=None,
                         help="sampled columns c (default: equal to r)")
    p_train.add_argument("--scaling", choices=[SCALE_MINMAX, SCALE_ZSCORE, SCALE_NONE],
                         default=SCALE_NONE)
    p_train.add_argument("--train-fraction", type=float, default=None,
                         help="hold out 1-fraction of rows for test accuracy")
    p_train.add_argument("--compute-mse", action="store_true",
                         help="also record the Nystrom approximation MSE (builds full kernel)")
    p_train.add_argument("--model-format", choices=["binary", "json"], default="binary")
    p_train.add_argument("--out-model", default="model.svm")
    p_train.add_argument("--out-report", default="report.json")
    p_train.add_argument("--out-trace", default="trace.csv")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="write per-row labels and decision values")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--label-column", type=int, default=-1)
    p_pred.add_argument("--delimiter", default=",")
    p_pred.add_argument("--no-labels", action="store_true",
                        help="data file has feature columns only")
    p_pred.add_argument("--out", default="predictions.csv")
    p_pred.set_defaults(func=cmd_predict)

    p_study = sub.add_parser("approx-study",
                             help="sweep (c, r, seed) and record kernel approximation MSE")
    _add_data_flags(p_study)
    p_study.add_argument("--gamma", type=float, default=-1.0)
    p_study.add_argument("--c-list", type=_int_list, required=True)
    p_study.add_argument("--r-list", type=_int_list, required=True)
    p_study.add_argument("--seeds", type=_int_list, default=[0])
    p_study.add_argument("--out", default="approx_study.csv")
    p_study.set_defaults(func=cmd_approx_study)

    p_bench = sub.add_parser("bench-convergence",
                             help="compare time-to-accuracy across solvers and sample counts")
    _add_solver_flags(p_bench)
    p_bench.add_argument("--sizes", type=_int_list, default=[512, 1024, 2048])
    p_bench.add_argument("--solvers", type=_solver_list, default=list(SOLVERS),
                         help="comma-separated subset of: " + ", ".join(SOLVERS))
    p_bench.add_argument("--seeds", type=_int_list, default=[0])
    p_bench.add_argument("--rank", type=int, default=64)
    p_bench.add_argument("--target-accuracy", type=float, default=0.95)
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.set_defaults(func=cmd_bench_convergence)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InvalidCountError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AdmmSvmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
