"""Benchmark command for the blaschke package.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: cold start of the CLI
module (``setup_s``) and, for operations run in a closed loop with one
caller for ``--seconds`` seconds, the median and 90th percentile
latency and the peak resident memory.  Times are scaled to a reference
machine speed measured by ``SpeedProbe`` as the run goes.  ``--trace 1`` runs a fixed number
of operations twice, plain and then with every public function of the
package wrapped in spans, and reports per-layer counts and self times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it record the environment and the failure accounting.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# BLAS threads are capped at one, at or below nproc, before numpy loads;
# interpreters launched for the set-up measurement inherit the cap.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "blaschke")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# cold launches per run; setup_s is their median
SETUP_LAUNCHES = 7
IMPORTTIME_LAUNCHES = 3
# operations in a traced run, fixed so that counts repeat exactly
TRACE_OPS = {"sweep": 20, "unwind": 30, "ladder": 50, "unwind_wide": 3}
WORKLOADS = ("sweep", "unwind", "ladder", "unwind_wide")
LAUNCH_TIMEOUT_S = 120
# times are reported at the speed where SpeedProbe takes this long, a round
# figure near its median (2.7 to 3.9 ms) on the 2-core Intel Xeon VM the
# benchmark was tuned on
REFERENCE_PROBE_MS = 3.0


def load_package():
    """Import the package from this checkout's source tree."""
    init = os.path.join(PACKAGE, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: package source not found at {init}")
    sys.path.insert(0, SRC)
    import blaschke
    import blaschke.cli  # noqa: F401

    if os.path.abspath(blaschke.__file__) != init:
        raise SystemExit(f"error: imported blaschke from {blaschke.__file__}, not {init}")


def _launch(args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=LAUNCH_TIMEOUT_S, check=True,
    )


def setup_seconds(launches: int, probe) -> tuple[float, float]:
    """Median time from a fresh interpreter launch until ``import
    blaschke.cli`` finishes, at reference speed and raw.  The monotonic
    clock is shared between processes, so the child stamps the end; the
    probe runs before each launch."""
    scaled, raw = [], []
    for _ in range(launches):
        probe_ms = statistics.median(probe() for _ in range(3))
        start = time.monotonic()
        proc = _launch(["-c", "import time, blaschke.cli; print(time.monotonic())"])
        raw.append(float(proc.stdout.split()[-1]) - start)
        scaled.append(raw[-1] * REFERENCE_PROBE_MS / probe_ms)
    return statistics.median(scaled), statistics.median(raw)


def parse_importtime(text: str) -> tuple[float, float]:
    """Seconds to import the package and the part spent in scipy, from
    ``python -X importtime`` output (children listed before parents)."""
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        rows.append((len(name) - len(name.lstrip()), int(parts[1]), name.strip()))
    top = min(indent for indent, _, _ in rows)
    package_us = sum(
        us for indent, us, name in rows
        if indent == top and name.split(".")[0] == "blaschke"
    )
    scipy_us = 0
    for i, (indent, us, name) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        # count only the outermost scipy imports: walk up the ancestors
        level, nested = indent, False
        for later_indent, _, later_name in rows[i + 1:]:
            if later_indent < level:
                if later_name.split(".")[0] == "scipy":
                    nested = True
                    break
                level = later_indent
        if not nested:
            scipy_us += us
    return package_us / 1e6, scipy_us / 1e6


def import_seconds(launches: int) -> tuple[float, float]:
    runs = [
        parse_importtime(_launch(["-X", "importtime", "-c", "import blaschke.cli"]).stderr)
        for _ in range(launches)
    ]
    return (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs))


# -- environment record -------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": _blas_threads(),
        "blas_threads_cap": BLAS_THREADS,
    }


# -- the closed loop ----------------------------------------------------


def _module_of(filename: str) -> str:
    if os.path.dirname(os.path.abspath(filename)) == PACKAGE:
        return os.path.splitext(os.path.basename(filename))[0]
    return "other"


class SpeedProbe:
    """Fixed reference work owned by the benchmark: a Python loop, a small
    eigenvalue problem and an FFT.  It is timed after every operation.

    The machine this benchmark was tuned on shares its cores with other
    tenants, and its speed drifts by up to a third for tens of seconds at
    a time.  Scaling each latency by the probe's time nearby removes most
    of that drift; the package never runs inside the probe, so a change
    to the package cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((32, 32))
        self.signal = rng.standard_normal(1 << 16) + 0j
        self.coeffs = list(rng.standard_normal(64) + 0j)

    def __call__(self) -> float:
        start = time.perf_counter()
        p = 0j
        for _ in range(120):
            for c in self.coeffs:
                p = p * (0.5 + 0.1j) + c
        np.linalg.eigvals(self.matrix)
        np.fft.fft(self.signal)
        return (time.perf_counter() - start) * 1e3


def at_reference_speed(raw_ms, probe_ms) -> list[float]:
    """Each raw time times REFERENCE_PROBE_MS over the median probe time
    of the five operations around it."""
    probes = np.asarray(probe_ms)
    return [
        raw * REFERENCE_PROBE_MS / float(np.median(probes[max(0, i - 2): i + 3]))
        for i, raw in enumerate(raw_ms)
    ]


class Tally:
    """Outcomes of the operations of one pass."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.raw_ms = []  # per operation, failed ones included
        self.probe_ms = []  # probe time after each operation
        self.ok = []
        self.by_exception = Counter()
        self.bad_outputs = Counter()  # failed checks, keyed by reason
        self.warnings = Counter()  # escaping RuntimeWarnings by module

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failures(self) -> int:
        return self.ok.count(False)

    def run(self, workload, op) -> None:
        """One operation: timed call, probe, then the untimed output check."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # any exception fails the operation
                self.by_exception[type(exc).__name__] += 1
                result = None
            self.raw_ms.append((time.perf_counter() - start) * 1e3)
        self.probe_ms.append(self.probe())
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                self.warnings[_module_of(w.filename)] += 1
        problem = None if result is None else workload.check(op, result)
        if problem is not None:
            self.bad_outputs[problem] += 1
        self.ok.append(result is not None and problem is None)

    def percentiles_ms(self, scaled: bool = True) -> tuple[float, float]:
        """p50 and p90 latency, at reference speed unless scaled is False.
        A failed operation counts as taking the whole pass, so it ranks
        behind every success."""
        times = at_reference_speed(self.raw_ms, self.probe_ms) if scaled else self.raw_ms
        whole_pass = sum(times)
        values = [t if ok else whole_pass for t, ok in zip(times, self.ok)]
        p50, p90 = np.percentile(values, [50, 90])
        return float(p50), float(p90)

    def summary(self) -> dict:
        raw_p50, raw_p90 = self.percentiles_ms(scaled=False)
        return {
            "attempted": self.attempted,
            "failed": self.failures,
            "fail_share": self.failures / self.attempted if self.attempted else 0.0,
            "failed_by_exception": dict(self.by_exception),
            "failed_checks": dict(self.bad_outputs),
            "runtime_warnings": dict(self.warnings),
            "raw_p50_ms": raw_p50,
            "raw_p90_ms": raw_p90,
            "probe_median_ms": float(np.median(self.probe_ms)),
        }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: _metric(v, u) for name, (v, u) in metrics.items()},
    }))


def _print_tally(label: str, tally: Tally) -> None:
    s = tally.summary()
    print(f"{label}: fail_share {s['fail_share']:.4g} ({s['failed']} failed of "
          f"{s['attempted']} attempted); by exception {s['failed_by_exception']}; "
          f"failed checks {s['failed_checks']}; runtime warnings {s['runtime_warnings']}; "
          f"raw p50 {s['raw_p50_ms']:.4g} ms, raw p90 {s['raw_p90_ms']:.4g} ms, "
          f"probe median {s['probe_median_ms']:.4g} ms")


def measure(name: str, seed: int, seconds: float) -> int:
    """End-to-end metrics, tracing off."""
    import workloads  # imports the package, so only after load_package()

    probe = SpeedProbe()
    setup, raw_setup = setup_seconds(SETUP_LAUNCHES, probe)
    workload = workloads.make(name, OUT_DIR)
    stream = workload.inputs(seed)
    Tally(probe).run(workload, next(stream))  # warm-up, not counted
    tally = Tally(probe)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        tally.run(workload, next(stream))
    window_s = time.perf_counter() - start
    p50, p90 = tally.percentiles_ms()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {name}, seed {seed}: {tally.attempted} operations in "
          f"{window_s:.2f} s, closed loop with one caller; raw setup "
          f"{raw_setup:.4g} s")
    _print_tally("measured", tally)
    _print_result(
        not tally.bad_outputs, tally.attempted, tally.failures,
        {
            "setup_s": (setup, "s"),
            "op_p50_ms": (p50, "ms"),
            "op_p90_ms": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    )
    return 0


def _ratio(count: int, base: int) -> float:
    return count / base if base else 0.0


def trace_metrics(name: str, seed: int, ops: int):
    """Run ``ops`` operations plain, then the same ones traced.

    Returns the per-layer metrics as {name: (value, unit)}, both tallies
    and the tracer holding the spans.
    """
    import workloads  # imports the package, so only after load_package()

    workload = workloads.make(name, OUT_DIR)
    stream = workload.inputs(seed)
    probe = SpeedProbe()
    Tally(probe).run(workload, next(stream))  # warm-up, not counted
    inputs = [next(stream) for _ in range(ops)]
    plain = Tally(probe)
    for op in inputs:
        plain.run(workload, op)
    tracer = layers.Tracer()
    traced = Tally(probe)
    tracer.install()
    try:
        for i, op in enumerate(inputs):
            tracer.op = i
            traced.run(workload, op)
    finally:
        tracer.uninstall()

    m = tracer.layer_metrics()
    calls = dict(zip(tracer.names, tracer.calls))
    instances = m["verify.run_sweep.instances"][0]
    sections = m["verify.verify_theorem3_truncated.sections"][0]
    decompositions = calls["decomposition.decompose"]
    m["verify.decompose_per_instance"] = (_ratio(decompositions, instances), "ratio")
    m["decomposition.root_finds_per_decompose"] = (_ratio(
        tracer.count_children(
            [layers.FIND_ROOTS_LOW, layers.FIND_ROOTS_HIGH], "decomposition.decompose"),
        decompositions), "ratio")
    m["unwinding.rounds_per_op"] = (_ratio(
        tracer.count_children(["decomposition.decompose"], "unwinding.unwind"),
        calls["unwinding.unwind"]), "ratio")
    m["signals.projections_per_section"] = (
        _ratio(calls["signals.project_coefficients"], sections), "ratio")
    for module in layers.MODULES:
        m[f"{module}.runtime_warnings"] = (traced.warnings[module], "count")
    m["trace.overhead"] = (
        traced.percentiles_ms()[0] / plain.percentiles_ms()[0],
        "ratio")
    m["trace.ops"] = (ops, "count")
    return m, plain, traced, tracer


def trace(name: str, seed: int) -> int:
    """Per-layer metrics from a traced run; spans go to .bench_out/."""
    cli_import_s, scipy_import_s = import_seconds(IMPORTTIME_LAUNCHES)
    metrics, plain, traced, tracer = trace_metrics(name, seed, TRACE_OPS[name])
    metrics["cli.import_s"] = (cli_import_s, "s")
    metrics["cli.import_scipy_s"] = (scipy_import_s, "s")
    path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "environment": environment(),
                   "plain": plain.summary(), "traced": traced.summary(),
                   "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()},
                   **tracer.to_json_dict()}, fh)
    print(f"workload {name}, seed {seed}: {TRACE_OPS[name]} operations plain, then "
          f"traced; {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    _print_tally("plain", plain)
    _print_tally("traced", traced)
    print("ratios: " + "; ".join(
        f"{ratio} {metrics[ratio][0]:.4g} (base {base} = {metrics[base][0]})"
        for ratio, base in (
            ("verify.decompose_per_instance", "verify.run_sweep.instances"),
            ("decomposition.root_finds_per_decompose", "decomposition.decompose.calls"),
            ("unwinding.rounds_per_op", "unwinding.unwind.calls"),
            ("signals.projections_per_section", "verify.verify_theorem3_truncated.sections"),
            ("trace.overhead", "trace.ops"),
        )))
    _print_result(
        not (plain.bad_outputs or traced.bad_outputs),
        plain.attempted + traced.attempted, plain.failures + traced.failures, metrics,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    os.makedirs(OUT_DIR, exist_ok=True)
    print("env " + json.dumps(environment()))
    if args.trace:
        return trace(args.workload, args.seed)
    return measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
