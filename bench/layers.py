"""Per-layer tracing for the benchmark, installed from outside the package.

Each traced function is replaced, in every ``blaschke`` module namespace
that binds it, by a wrapper that records one span: name, start, end,
parent span and operation id.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.

The layers are the package's modules.  Metric names read
``<module>.<function>.<what>``; ``find_roots_in_disk`` is split by the
degree of its input into ``find_roots.low_degree`` and
``find_roots.high_degree``.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

MODULES = ("cli", "verify", "unwinding", "decomposition", "signals", "weights", "series")

# find_roots_in_disk inputs above this degree count as high degree.  The
# split follows the input, not the solver the package happens to pick.
LOW_DEGREE_LIMIT = 64


def _size(position, name, measure=len):
    """Size of one call, read from the argument at position (or name)."""

    def size(args, kwargs):
        value = args[position] if len(args) > position else kwargs[name]
        return int(measure(value))

    return size


def _cap_plus_one(value):
    return value + 1


# (module, attribute path, span name, size metric, size of one call).
# A size metric sums the named quantity over successful calls.
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("verify", "run_sweep", "verify.run_sweep", "instances", _size(1, "count", int)),
    ("verify", "generate_instance", "verify.generate_instance", None, None),
    *(
        ("verify", f"verify_{claim}", f"verify.verify_{claim}", None, None)
        for claim in (
            "prop_reflect", "single_root", "lemma10_chain", "theorem1",
            "corollary1", "corollary2", "theorem2", "qian_tail",
        )
    ),
    ("verify", "verify_theorem3_truncated", "verify.verify_theorem3_truncated",
     "sections", _size(3, "caps")),
    ("decomposition", "decompose", "decomposition.decompose", None, None),
    ("decomposition", "find_roots_in_disk", None, None, None),
    ("decomposition", "DecompositionChain.blaschke_series",
     "decomposition.DecompositionChain.blaschke_series", None, None),
    ("decomposition", "blaschke_eval_many", "decomposition.blaschke_eval_many",
     "points", _size(3, "points", np.size)),
    ("unwinding", "unwind", "unwinding.unwind", None, None),
    ("series", "deflate", "series.deflate", "coeffs", _size(0, "f")),
    ("series", "multiply", "series.multiply", "coeffs",
     lambda args, kwargs: _size(0, "f")(args, kwargs) + _size(1, "g")(args, kwargs)),
    ("series", "divide_conjugate_linear", "series.divide_conjugate_linear", "coeffs",
     _size(2, "cap", _cap_plus_one)),
    ("series", "multiply_conjugate_linear", "series.multiply_conjugate_linear",
     "coeffs", _size(0, "f")),
    ("series", "evaluate_many", "series.evaluate_many", "coeffs", _size(0, "f")),
    ("series", "h2_norm_sq", "series.h2_norm_sq", "coeffs", _size(0, "f")),
    # constructions; args[0] is the new instance once __init__ returns
    ("series", "CoefficientSeries.__init__", "series.CoefficientSeries", "coeffs",
     _size(0, "self")),
    ("signals", "analytic_signal", "signals.analytic_signal", "points",
     _size(0, "signal", lambda s: s.sample_count)),
    ("signals", "boundary_samples", "signals.boundary_samples", "points",
     _size(1, "sample_count", int)),
    ("signals", "project_coefficients", "signals.project_coefficients", "points",
     _size(0, "samples", np.size)),
    ("weights", "classify", "weights.classify", None, None),
    ("weights", "x_norm_sq", "weights.x_norm_sq", None, None),
    ("weights", "y_seminorm_sq", "weights.y_seminorm_sq", None, None),
)

FIND_ROOTS_LOW = "decomposition.find_roots.low_degree"
FIND_ROOTS_HIGH = "decomposition.find_roots.high_degree"


def span_names() -> list[str]:
    names = []
    for _, _, name, _, _ in TARGETS:
        names.extend([FIND_ROOTS_LOW, FIND_ROOTS_HIGH] if name is None else [name])
    return names


def size_metrics() -> list[str]:
    return [f"{name}.{what}" for _, _, name, what, _ in TARGETS if what]


class Tracer:
    """Span recorder.  ``op`` is the id stamped on spans opened next."""

    def __init__(self):
        self.names = span_names()
        self.index = {name: i for i, name in enumerate(self.names)}
        count = len(self.names)
        self.calls = [0] * count
        self.failed = [0] * count
        self.self_ns = [0] * count
        self.sizes = {metric: 0 for metric in size_metrics()}
        # closed spans: (span id, name index, parent span id, op id, start ns, end ns)
        self.spans = []
        self._stack = []  # open spans: [span id, parent span id, start ns, child ns]
        self._next_id = 0
        self.op = -1
        self._patches = []

    # -- span recording --------------------------------------------------

    def _open(self) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, parent, time.perf_counter_ns(), 0])

    def _close(self, name: int, ok: bool) -> None:
        end = time.perf_counter_ns()
        sid, parent, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if not ok:
            self.failed[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((sid, name, parent, self.op, start, end))

    def _wrap(self, fn, name_of, size_metric, size_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            self._open()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(name, ok)
            if size_of is not None:
                self.sizes[size_metric] += size_of(args, kwargs)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a ``blaschke`` module binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "blaschke" or key.startswith("blaschke."))
        ]
        for module_name, path, name, what, size_of in TARGETS:
            owner = sys.modules[f"blaschke.{module_name}"]
            if name is None:
                name_of = self._find_roots_name
            else:
                fixed = self.index[name]
                name_of = lambda args, kwargs, fixed=fixed: fixed  # noqa: E731
            size_metric = f"{name}.{what}" if what else None
            if "." in path:  # a method: patch the class attribute
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original,
                            self._wrap(original, name_of, size_metric, size_of))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(original, name_of, size_metric, size_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _find_roots_name(self, args, kwargs) -> int:
        f = args[0] if args else kwargs["f"]
        degree = len(f) - 1 if hasattr(f, "__len__") else np.size(f) - 1
        return self.index[FIND_ROOTS_LOW if degree <= LOW_DEGREE_LIMIT else FIND_ROOTS_HIGH]

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def count_children(self, child_names, parent_name: str) -> int:
        """Spans named in child_names whose direct parent is parent_name."""
        children = {self.index[n] for n in child_names}
        parent = self.index[parent_name]
        name_of_span = {span[0]: span[1] for span in self.spans}
        return sum(
            1 for span in self.spans
            if span[1] in children and name_of_span.get(span[2]) == parent
        )

    def layer_metrics(self) -> dict:
        """calls, self_ms and failed per span name, plus the size sums."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_ms"] = (self.self_ns[i] / 1e6, "ms")
            out[f"{name}.failed"] = (self.failed[i], "count")
        for metric, total in self.sizes.items():
            out[metric] = (total, "count")
        return out

    def to_json_dict(self) -> dict:
        return {
            "names": self.names,
            "columns": ["span", "name", "parent", "op", "start_ns", "end_ns"],
            "spans": self.spans,
        }
