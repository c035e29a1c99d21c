"""Checks of the benchmark's traced run.

Run from the repository root:

    python3 -m pytest bench/test_trace.py

Two traced runs at one seed must give identical counts; every layer must
show the calls predicted for each workload in README.md, and layers
predicted idle must show none.  Counts that the planned refactors are
meant to change (decompositions per instance, root finds per
decomposition) are not pinned.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_package()

import layers  # noqa: E402

SEED = 5
# few operations keep the test short; every predicted call still shows
OPS = {"sweep": 2, "unwind": 3, "ladder": 5, "unwind_wide": 1}
TIMES = ("self_ms", "overhead")


@pytest.fixture(scope="module")
def traces():
    return {
        name: [run.trace_metrics(name, SEED, ops)[0] for _ in range(2)]
        for name, ops in OPS.items()
    }


def _calls(metrics, name):
    return metrics[f"{name}.calls"][0]


VERIFY_CLAIMS = [
    f"verify.verify_{c}" for c in (
        "prop_reflect", "single_root", "lemma10_chain", "theorem1",
        "corollary1", "corollary2", "theorem2", "qian_tail",
    )
]
VERIFY_ALL = VERIFY_CLAIMS + ["verify.verify_theorem3_truncated", "verify.run_sweep",
                              "verify.generate_instance"]

# layer spans each workload must call, and spans it must leave idle
PREDICTED = {
    "sweep": (
        ["cli.main", "verify.run_sweep", "verify.generate_instance", *VERIFY_CLAIMS,
         "decomposition.decompose", layers.FIND_ROOTS_LOW, "series.deflate",
         "series.divide_conjugate_linear", "series.h2_norm_sq", "series.CoefficientSeries",
         "weights.classify", "weights.x_norm_sq", "weights.y_seminorm_sq"],
        [layers.FIND_ROOTS_HIGH, "verify.verify_theorem3_truncated", "unwinding.unwind",
         "signals.project_coefficients"],
    ),
    "unwind": (
        ["unwinding.unwind", "signals.analytic_signal", "decomposition.decompose",
         layers.FIND_ROOTS_LOW, "decomposition.DecompositionChain.blaschke_series",
         "series.deflate", "series.multiply", "series.divide_conjugate_linear"],
        [*VERIFY_ALL, "cli.main", layers.FIND_ROOTS_HIGH, "weights.classify"],
    ),
    "ladder": (
        ["verify.verify_theorem3_truncated", "decomposition.blaschke_eval_many",
         "signals.boundary_samples", "signals.project_coefficients", "series.deflate",
         "weights.classify", "weights.x_norm_sq", "weights.y_seminorm_sq"],
        [layers.FIND_ROOTS_HIGH, "decomposition.decompose", "unwinding.unwind",
         "verify.run_sweep", "cli.main"],
    ),
    "unwind_wide": (
        ["unwinding.unwind", layers.FIND_ROOTS_HIGH, "decomposition.decompose"],
        [*VERIFY_ALL, "cli.main"],
    ),
}


@pytest.mark.parametrize("name", OPS)
def test_counts_repeat_exactly(traces, name):
    first, second = traces[name]
    assert first.keys() == second.keys()
    for metric in first:
        if not metric.endswith(TIMES):
            assert first[metric] == second[metric], metric


@pytest.mark.parametrize("name", OPS)
def test_layers_called_as_predicted(traces, name):
    metrics = traces[name][0]
    busy, idle = PREDICTED[name]
    for span in busy:
        assert _calls(metrics, span) > 0, span
    for span in idle:
        assert _calls(metrics, span) == 0, span


@pytest.mark.parametrize("name", OPS)
def test_wrappers_see_calls_inside_the_package(traces, name):
    metrics = traces[name][0]
    root_finds = _calls(metrics, layers.FIND_ROOTS_LOW) + _calls(metrics, layers.FIND_ROOTS_HIGH)
    assert root_finds >= _calls(metrics, "decomposition.decompose")


def test_tracer_leaves_the_package_unwrapped(traces):
    import blaschke
    import blaschke.series

    assert not hasattr(blaschke.deflate, "__wrapped__")
    assert not hasattr(blaschke.series.CoefficientSeries.__init__, "__wrapped__")


def test_metric_names_match_benchmark_json(traces):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    reported = set(traces["sweep"][0]) | {"cli.import_s", "cli.import_scipy_s"}
    assert sorted(declared) == sorted(reported)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        30 |         30 |     numpy",
        "import time:       270 |        300 |   numpy.linalg",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy",
        "import time:        70 |        190 |   scipy.signal",
        "import time:        20 |        510 | blaschke",
        "import time:         5 |          5 | blaschke.cli",
    ])
    package_s, scipy_s = run.parse_importtime(text)
    assert package_s == pytest.approx(515e-6)
    assert scipy_s == pytest.approx(190e-6)


def test_import_seconds_measures_scipy_inside_the_package():
    package_s, scipy_s = run.import_seconds(1)
    assert 0 <= scipy_s < package_s


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
