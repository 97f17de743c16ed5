"""Spans recorded at the boundaries where one admmsvm module calls another.

The tracer replaces a module attribute (say ``admm.jacobi_evd``, the name
the admm module looks up at call time) with a wrapper that records a span
around each call, and puts the original back when tracing ends. Nothing in
the program changes. A boundary that a later version of the program no
longer has is reported as missing instead of raising.
"""

import contextlib
import importlib
import json
import time
from dataclasses import asdict, dataclass

BOUNDARIES = (
    ("nystrom", "kernel_columns"),
    ("nystrom", "jacobi_evd"),
    ("admm", "jacobi_evd"),
    ("admm", "build_system_matrix"),
    ("admm", "precompute_z"),
    ("admm", "admm_step"),
    ("svm", "nystrom_factor"),
    ("svm", "solve_linear"),
    ("svm", "decision_values"),
    ("smo", "build_kernel_matrix"),
)

# boundaries whose last arguments and result the correctness checks read
CAPTURED = ("nystrom.kernel_columns", "svm.nystrom_factor")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, package="admmsvm"):
        self.spans = []
        self._children = {}
        self.captured = {}
        self._stack = []
        self._targets = []
        self.missing = []
        for module_name, attr in BOUNDARIES:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            if callable(getattr(module, attr, None)):
                self._targets.append((module, attr, name))
            else:
                self.missing.append(name)

    @contextlib.contextmanager
    def span(self, name):
        record = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                      time.perf_counter())
        self.spans.append(record)
        self._children.setdefault(record.parent, []).append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def _wrap(self, name, original):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if name in CAPTURED:
                self.captured[name] = (args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore it."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in self._targets]
        try:
            for (module, attr, name), (_, _, original) in zip(self._targets, originals):
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def children(self, span):
        return self._children.get(span.id, [])

    def descendants(self, span, name):
        found = []
        stack = [span]
        while stack:
            for child in self.children(stack.pop()):
                if child.name == name:
                    found.append(child)
                stack.append(child)
        return found

    def self_time(self, span):
        """Span duration minus the part its (sequential) child spans cover."""
        return span.duration - sum(c.duration for c in self.children(span))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": [asdict(s) for s in self.spans]}, fh)
