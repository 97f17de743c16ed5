"""The admmsvm benchmark: one workload per run, end to end or layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory, and the run exits with status 2 when that is missing.
The run generates its inputs from ``--seed``, writes them as delimited
files with its own writer, measures set-up and peak memory in fresh
processes, makes one untimed warm-up call, then repeats whole rounds of
operations for ``--seconds`` seconds (at least two rounds). A round trains
a model, serves it (save, load, predict the held-out rows), trains to the
accuracy target and, on ADMM workloads, runs ``traced_train``. Every
output is checked against computations made apart from the program; see
README.md in this directory for the metrics and the checks.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` odd rounds run with spans at the module boundaries listed in
``tracer.py`` and the last line reports the per-layer metrics. The line
before it holds host diagnostics; results and span files are also written
under ``.perfbench_out/`` in the checkout.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from selftest import run_selftest  # noqa: E402
from solvers import Program, make_solver  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GAMMA, HELDOUT, SUBSET, TARGET_ACCURACY, TRACED_TRAIN, WORKLOADS, make_inputs,
    workload_inputs, write_delimited,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
PREDICT_CALLS = 3  # at least this many decision_values calls per serve, and PREDICT_MIN_S
PREDICT_MIN_S = 0.3
MB = 1e6


def declared_metrics(kind):
    """{name: unit} of the end_to_end or per_layer metrics that BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(values, kind):
    """Every declared metric with its unit; counts as integers."""
    return {name: {"value": int(values[name]) if unit in ("count", "bytes") else values[name],
                   "unit": unit}
            for name, unit in declared_metrics(kind).items()}


def median(values):
    return statistics.median(values) if values else 0.0


def calibrate():
    """Host speed apart from the program: a Python loop and a 256x256 GEMM."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    loop, gemm = [], []
    for _ in range(5):
        tic = time.perf_counter()
        sum(i * i for i in range(100_000))
        loop.append(time.perf_counter() - tic)
        tic = time.perf_counter()
        for _ in range(10):
            a @ a
        gemm.append(time.perf_counter() - tic)
    return {"python_loop_s": median(loop), "gemm256x10_s": median(gemm)}


@contextlib.contextmanager
def probe(script, *args):
    """A probe script running in a fresh interpreter; killed if the block is left early."""
    proc = subprocess.Popen([sys.executable, str(HERE / script), str(SRC), *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def probe_result(proc):
    out, err = proc.communicate(timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {proc.args[1]} exited with {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def setup_probe(train_path, heldout_path, inputs):
    """Start of a fresh process to the moment it has imported admmsvm and loaded both files."""
    started = time.perf_counter()
    with probe("setup_probe.py", train_path, heldout_path, inputs) as proc:
        times = probe_result(proc)
    times["setup_s"] = times["ready"] - started
    return times


class Run:
    def __init__(self, workload, program, x, y, xt, yt, workdir, tracer):
        self.w = workload
        self.p = program
        self.x, self.y, self.xt, self.yt = x, y, xt, yt
        self.workdir = workdir
        self.tracer = tracer
        self.solver = make_solver(program, workload.solver)
        self.samples = {k: [] for k in ("train", "train_traced", "target", "predict",
                                        "save", "load")}
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = []
        self.model = None
        self.cap = None
        self.reference = None
        self.heldout_accuracy = None
        self.model_bytes = 0

    # -- operations ---------------------------------------------------------

    def op(self, name, body, counts_as_failure=False):
        """Attempt one operation; a raised error or an expected-fault check fails it."""
        self.attempted += 1
        try:
            problem = body()
        except Exception:  # one failing operation must not end the run
            self.failed += 1
            self._note(self.failures, f"{name}: {traceback.format_exc(limit=3)}")
            return
        if problem is not None:
            if counts_as_failure:
                self.failed += 1
                self._note(self.failures, f"{name}: {problem}")
            else:
                self._note(self.problems, f"{name}: {problem}")

    @staticmethod
    def _note(log, message):
        if message not in log:
            log.append(message)
            print(message, file=sys.stderr)

    def call(self, root, traced, thunk):
        """Run thunk; in a traced round, under a root span with every boundary wrapped."""
        if not traced:
            tic = time.perf_counter()
            out = thunk()
            return out, time.perf_counter() - tic, None
        with self.tracer.installed(), self.tracer.span(root) as span:
            out = thunk()
        return out, span.duration, span

    def own_train_accuracy(self, model):
        return checks.accuracy(
            checks.rbf_decisions(model.features, model.alpha_weighted, model.bias, self.x, GAMMA),
            self.y)

    def train_op(self, traced):
        result, seconds, span = self.call("train", traced, lambda: self.solver.train(self.x, self.y))
        self.samples["train_traced" if traced else "train"].append(seconds)
        self.model = self.solver.model(result, self.x, self.y)
        problem = self.solver.check(result, self.x, self.y)
        if span is not None:
            problem = problem or self.record_train_layers(span, result)
        return problem

    def serve_op(self, traced):
        svm = self.p.svm
        path = self.workdir / "model.bin"
        tic = time.perf_counter()
        svm.save_model(self.model, path)
        self.samples["save"].append(time.perf_counter() - tic)
        self.model_bytes = path.stat().st_size
        tic = time.perf_counter()
        loaded = svm.load_model(path)
        self.samples["load"].append(time.perf_counter() - tic)
        problem = checks.check_roundtrip(svm, self.model, self.workdir)

        first, spent, calls = None, 0.0, 0
        while calls < PREDICT_CALLS or spent < PREDICT_MIN_S:
            values, seconds, _ = self.call("predict", traced,
                                           lambda: svm.decision_values(loaded, self.xt))
            self.samples["predict"].append(seconds)
            spent += seconds
            calls += 1
            if first is None:
                first = values
            elif not np.array_equal(values, first):
                problem = problem or "decision_values differ between calls on the same rows"
        self.heldout_accuracy = checks.accuracy(first, self.yt)
        return (problem or checks.check_decisions(loaded, self.xt, first, GAMMA)
                or checks.check_heldout_accuracy(first, self.yt, self.reference))

    def target_op(self, traced):
        """Shortest training call reaching the target: caps 1, 2, 4, ... up to the default."""
        cap = 1
        while True:
            result, seconds, span = self.call(
                "train_to_target", traced, lambda: self.solver.train(self.x, self.y, cap))
            acc = self.own_train_accuracy(self.solver.model(result, self.x, self.y))
            if acc >= TARGET_ACCURACY:
                break
            if cap >= self.solver.default_cap:
                return f"no iteration cap up to {cap} reaches training accuracy {TARGET_ACCURACY}"
            cap = min(2 * cap, self.solver.default_cap)
        self.cap = cap
        self.samples["target"].append(seconds)
        if span is not None:
            if self.w.solver == "admm":
                self.add_layer("admm.iterations_to_target",
                               len(self.tracer.descendants(span, "admm.admm_step")))
            else:
                self.add_layer("smo.passes_to_target", result.passes)
        return None

    def traced_train_op(self):
        """train_nonlinear(track_accuracy=True) on the fixed input; see TRACED_TRAIN."""
        x, y, _, _ = make_inputs(TRACED_TRAIN["n"], self.w.p, TRACED_TRAIN["seed"], heldout=0)
        c = TRACED_TRAIN["c"]
        report = self.p.svm.train_nonlinear(
            x, y, self.solver.kernel, self.p.nystrom.NystromConfig(c=c, r=c),
            self.p.admm.AdmmConfig(), track_accuracy=True)
        return checks.check_trace_accuracy(
            report.trace.rows[-1].train_accuracy, report.train_accuracy, y.shape[0])

    def round(self, traced):
        self.op("train", lambda: self.train_op(traced))
        self.op("serve", lambda: self.serve_op(traced))
        self.op("train_to_target", lambda: self.target_op(traced))
        if self.w.solver == "admm":
            self.op("traced_train", self.traced_train_op, counts_as_failure=True)

    # -- set-up outside the timed rounds ----------------------------------

    def layer_peaks(self):
        """Peak memory of kernel_columns and decision_values, each called alone."""
        def peak(thunk):
            tracemalloc.start()
            try:
                thunk()
                return tracemalloc.get_traced_memory()[1] / MB
            finally:
                tracemalloc.stop()

        if self.w.solver == "admm":
            subset = self.p.nystrom.sample_subset(self.w.n, SUBSET, self.solver.nys.seed)
            self.add_layer("kernel.columns_peak_mb", peak(
                lambda: self.p.kernel.kernel_columns(self.x, self.y, self.solver.kernel, subset)))
        self.add_layer("svm.predict_peak_mb",
                       peak(lambda: self.p.svm.decision_values(self.model, self.xt)))

    # -- per-layer metrics from spans ---------------------------------------

    def add_layer(self, name, value):
        self.layers.setdefault(name, []).append(value)

    def record_train_layers(self, root, result):
        tr = self.tracer

        def total(name):
            return sum(s.duration for s in tr.descendants(root, name))

        if self.w.solver == "smo":
            self.add_layer("kernel.matrix_s", total("smo.build_kernel_matrix"))
            self.add_layer("smo.solve_self_s", tr.self_time(root))
            self.add_layer("smo.passes", result.passes)
            self.add_layer("svm.n_support", self.model.n_support)
            return None

        columns_s = total("nystrom.kernel_columns")
        steps = [s.duration for s in tr.descendants(root, "admm.admm_step")]
        self.add_layer("kernel.columns_s", columns_s)
        self.add_layer("kernel.pairs_per_s", self.w.n * SUBSET / columns_s if columns_s else 0.0)
        self.add_layer("eigen.subset_evd_s", total("nystrom.jacobi_evd"))
        self.add_layer("eigen.system_evd_s", total("admm.jacobi_evd"))
        self.add_layer("nystrom.factor_s", total("svm.nystrom_factor"))
        self.add_layer("nystrom.self_s", sum(
            tr.self_time(s) for s in tr.descendants(root, "svm.nystrom_factor")))
        self.add_layer("nystrom.effective_rank", result.effective_rank)
        self.add_layer("admm.setup_s", total("admm.build_system_matrix")
                       + total("admm.jacobi_evd") + total("admm.precompute_z"))
        self.add_layer("admm.step_ms", 1e3 * median(steps))
        self.add_layer("admm.loop_self_s", sum(
            tr.self_time(s) for s in tr.descendants(root, "svm.solve_linear")))
        self.add_layer("admm.iterations", len(steps))
        self.add_layer("svm.train_self_s", tr.self_time(root))
        self.add_layer("svm.train_accuracy_s", total("svm.decision_values"))
        self.add_layer("svm.n_support", self.model.n_support)

        columns = tr.captured.get("nystrom.kernel_columns")
        factor = tr.captured.get("svm.nystrom_factor")
        if columns is None or factor is None:
            return None  # boundary gone; reported as missing
        (x, y, _, m), cols = columns[0][:4], columns[1]
        return (checks.check_kernel_columns(np.asarray(x), np.asarray(y), m, cols, GAMMA)
                or checks.check_factor(cols, m, factor[1].v, factor[1].effective_rank))

    def per_layer_metrics(self, load_s):
        predict_spans = [s.duration for s in self.tracer.spans if s.name == "svm.decision_values"
                         and self.tracer.spans[s.parent].name == "predict"]
        values = {name: 0.0 for name in declared_metrics("per_layer")}
        values.update({name: median(v) for name, v in self.layers.items()})
        values["data_io.load_s"] = load_s
        if predict_spans and self.model is not None:
            values["svm.decision_pairs_per_s"] = HELDOUT * self.model.n_support / median(predict_spans)
        values["svm.save_s"] = median(self.samples["save"])
        values["svm.load_s"] = median(self.samples["load"])
        values["svm.model_bytes"] = self.model_bytes
        values["trace.overhead_s"] = median(self.samples["train_traced"]) - median(self.samples["train"])
        return report(values, "per_layer")


def blas_threads_in_use():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "admmsvm" / "__init__.py").is_file():
        print(f"admmsvm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    calibration_start = calibrate()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"

    x, y, xt, yt = workload_inputs(workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=tag, dir=OUT) as tmp:
        workdir = Path(tmp)
        inputs = workdir / "inputs.npz"
        np.savez(inputs, x=x, y=y, xt=xt, yt=yt)
        program = Program()
        tracer = Tracer()
        run = Run(workload, program, x, y, xt, yt, workdir, tracer)

        # untimed preparation; the peak-memory process runs beside it on the second core
        with contextlib.ExitStack() as stack:
            peak_proc = None
            if not args.trace:
                peak_proc = stack.enter_context(probe("peak_probe.py", inputs, workload.solver))
            train_path, heldout_path = workdir / "train.csv", workdir / "heldout.csv"
            write_delimited(train_path, x, y)
            write_delimited(heldout_path, xt, yt)
            run.problems.extend(run_selftest())
            run.reference = checks.reference_accuracy(x, y, xt, yt, GAMMA)
            # the first heavy call in a process runs 10-30% slower (fresh heap,
            # page faults); one untimed call keeps that out of the medians
            run.solver.train(x, y, 1)
            peak = probe_result(peak_proc) if peak_proc else None

        setups = [setup_probe(train_path, heldout_path, inputs)
                  for _ in range(1 if args.trace else SETUP_PROBES)]
        if not all(s["matches"] for s in setups):
            run.problems.append("load_delimited does not return the rows that were written")

        start = time.perf_counter()
        rounds = 0
        while rounds < 2 or time.perf_counter() - start < args.seconds:
            run.round(traced=bool(args.trace) and rounds % 2 == 1)
            rounds += 1
        measured_s = time.perf_counter() - start

        if args.trace:
            run.layer_peaks()
            metrics = run.per_layer_metrics(median([s["load_s"] for s in setups]))
        else:
            values = {
                "setup_s": median([s["setup_s"] for s in setups]),
                "train_s": median(run.samples["train"]),
                "time_to_target_s": median(run.samples["target"]),
                "predict_rows_per_s": HELDOUT / median(run.samples["predict"]),
                "peak_mb": peak["peak_mb"],
            }
            metrics = report(values, "end_to_end")

    diagnostics = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "measured_s": measured_s,
        "samples_s": run.samples,
        "setup_probes": setups, "peak_probe": peak, "cap_to_target": run.cap,
        "reference_accuracy": run.reference, "heldout_accuracy": run.heldout_accuracy,
        "numpy": np.__version__, "blas_threads_requested": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "calibration": {"start": calibration_start, "end": calibrate()},
        "missing_boundaries": tracer.missing,
        "failures": run.failures, "problems": run.problems,
    }
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"diagnostics": diagnostics, "result": result}, fh, indent=1)
    if args.trace:
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.write(OUT / "spans" / f"{tag}.json")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
