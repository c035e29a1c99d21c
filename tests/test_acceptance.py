"""Acceptance suite.

One test per acceptance criterion; each prints a single
"criterion N: PASS/FAIL" line on the real stdout so the result is
visible in captured runs, then asserts.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from blaschke import (
    WeightSequence,
    analytic_signal,
    as_series,
    boundary_accumulating_roots,
    boundary_samples,
    BoundarySignal,
    classify,
    decompose,
    default_instance_schedule,
    generate_instance,
    h2_norm_sq,
    run_sweep,
    unwind,
    verify_corollary1,
    verify_theorem3_truncated,
    x_norm_sq,
    y_seminorm_sq,
)
from blaschke.decomposition import blaschke_eval_many
from blaschke.series import (
    deflate,
    divide_conjugate_linear,
    multiply,
)
from blaschke.signals import project_coefficients
from blaschke.verify import CLAIM_TABLE
from blaschke.weights import hardy_sobolev_norm_sq
from oracles import geometric_extension_cap

QUADRATIC = as_series([1 / 6, -5 / 6, 1.0])
MASTER_SEED = 20260819

# criterion 1 builds these; criterion 9 re-checks every decomposition
_CHAIN_CACHE = {}


def _big_schedule():
    return default_instance_schedule(500, seed=MASTER_SEED)


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {text}", file=sys.__stdout__)
        raise
    print(f"criterion {number}: PASS  {text}", file=sys.__stdout__)


def test_criterion_1_reflection_identity_500_instances():
    with criterion(1, "per-step reflection identity, 500 instances, <10s"):
        start = time.perf_counter()
        schedule = _big_schedule()
        assert len(schedule) == 500
        # instance i's weight in a sweep's prop_reflect claim
        palette = CLAIM_TABLE["prop_reflect"].palette
        families = set()
        for i, spec in enumerate(schedule):
            w = palette[i % len(palette)]
            f = generate_instance(spec)
            families.add(w.family)
            chain = decompose(f)
            _CHAIN_CACHE[spec.seed] = (f, chain)
            prev = chain.stages[0]
            for stage, root in zip(chain.stages[1:], chain.roots.roots):
                lhs = x_norm_sq(stage, w)
                h = deflate(prev, root)[0]
                rhs = x_norm_sq(prev, w) - (1.0 - abs(root) ** 2) * y_seminorm_sq(h, w)
                scale = max(abs(lhs), abs(rhs), 1.0)
                assert abs(lhs - rhs) <= 1e-10 * scale
                prev = stage
        elapsed = time.perf_counter() - start
        assert families == {
            "dirichlet",
            "sobolev_square",
            "constant_step",
            "indicator",
            "concave_power_sum",
        }
        assert elapsed < 10.0


def test_criterion_2_constant_step_identity():
    with criterion(2, "constant-step identity: exact fixture plus 200 instances"):
        w = WeightSequence.dirichlet()
        chain = decompose(QUADRATIC)
        x_f = x_norm_sq(QUADRATIC, w)
        x_g = x_norm_sq(chain.g, w)
        dropped = sum(chain.correction_terms(w))
        assert abs(x_f - 97 / 36) <= 1e-12
        assert abs(x_g - 27 / 36) <= 1e-12
        assert abs(dropped - 70 / 36) <= 1e-12
        assert abs(x_f - (x_g + dropped)) <= 1e-12

        report = verify_corollary1(QUADRATIC, w)
        assert report.passed and report.slack <= 1e-12

        ok, reports = run_sweep("corollary1", count=200, seed=MASTER_SEED + 2)
        assert ok and len(reports) == 200
        assert all(r.slack <= 1e-9 * r.scale for r in reports)


def test_criterion_3_monotone_weight_bounds_and_ordering():
    with criterion(3, "convex/concave norm bounds and two-sided quotient ordering"):
        ok1, convex_reports = run_sweep("theorem1", count=200, seed=MASTER_SEED + 3)
        assert ok1 and len(convex_reports) == 200
        assert all(r.slack >= -1e-9 * r.scale for r in convex_reports)

        ok2, concave_reports = run_sweep("theorem2", count=200, seed=MASTER_SEED + 4)
        assert ok2 and len(concave_reports) == 200
        assert all(r.slack >= -1e-9 * r.scale for r in concave_reports)

        # two-sided ordering of the three quotient seminorms, per root
        weights = [
            WeightSequence.dirichlet(),
            WeightSequence.sobolev_square(),
            WeightSequence.indicator(1),
            WeightSequence.concave_power_sum(2.0),
        ]
        schedule = default_instance_schedule(40, seed=MASTER_SEED + 5, degree_cap=16)
        for i, spec in enumerate(schedule):
            f = generate_instance(spec)
            chain = decompose(f)
            if not chain.roots.roots:
                continue
            ext = geometric_extension_cap(len(f), chain.roots.roots)
            w = weights[i % len(weights)]
            growth = classify(w)
            for k, alpha in enumerate(chain.roots.roots):
                y_mid = y_seminorm_sq(chain.h_list[k], w)
                y_g = y_seminorm_sq(
                    divide_conjugate_linear(chain.g, alpha, ext), w
                )
                y_f = y_seminorm_sq(deflate(f, alpha)[0], w)
                scale = max(y_mid, y_g, y_f, 1.0)
                if growth.convex:
                    assert y_g <= y_mid + 1e-9 * scale
                    assert y_mid <= y_f + 1e-9 * scale
                if growth.concave:
                    assert y_f <= y_mid + 1e-9 * scale
                    assert y_mid <= y_g + 1e-9 * scale


def test_criterion_4_hardy_sobolev_bound_and_splitting():
    with criterion(4, "first-derivative norm bound plus splitting identity"):
        ok, reports = run_sweep("corollary2", count=200, seed=MASTER_SEED + 6)
        assert ok and len(reports) == 200
        assert all(r.slack >= -1e-9 * r.scale for r in reports)

        sobolev = WeightSequence.sobolev_square()
        for spec in default_instance_schedule(200, seed=MASTER_SEED + 6):
            f = generate_instance(spec)
            lhs = hardy_sobolev_norm_sq(f)
            rhs = x_norm_sq(f, sobolev) + h2_norm_sq(f)
            assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs, 1.0)


def test_criterion_5_tail_energy_all_cutoffs():
    with criterion(5, "tail-energy identity and inequality for every cutoff"):
        from blaschke import verify_qian_tail

        schedule = default_instance_schedule(100, seed=MASTER_SEED + 7, degree_cap=12)
        for spec in schedule:
            f = generate_instance(spec)
            for k in range(1, f.degree_cap + 1):
                identity, inequality = verify_qian_tail(f, k)
                assert identity.passed
                assert identity.slack <= 1e-9 * identity.scale
                assert inequality.slack >= 0.0


def test_criterion_6_boundary_accumulating_truncations():
    with criterion(6, "truncated runs of the infinite-root bound, <60s"):
        start = time.perf_counter()
        roots = boundary_accumulating_roots(30)
        g = as_series([1.0])
        w = WeightSequence.concave_power_sum(3.0)
        caps = [5, 10, 20, 30]
        reports = verify_theorem3_truncated(roots, g, w, caps)
        assert [r.context["cap"] for r in reports] == caps
        for r in reports:
            assert r.passed
            assert r.context["roundtrip_error"] <= 1e-9
            partial = r.context["correction_partial_sums"]
            assert all(b >= a - 1e-15 for a, b in zip(partial, partial[1:]))
            assert r.context["corrections_bounded_by_x"]

        # cross-check the smallest truncation against direct coefficients
        sub = roots.roots[:5]
        cap = 2048
        direct = as_series([1.0])
        for alpha in sub:
            direct = multiply(direct, as_series([-alpha, 1.0]), cap)
        for alpha in sub:
            direct = divide_conjugate_linear(direct, alpha, cap)
        grid_n = 8192
        grid = np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
        sampled = blaschke_eval_many(sub, points=grid)
        projected = project_coefficients(sampled, cap)
        assert np.max(np.abs(projected.coeffs - direct.coeffs)) <= 1e-12
        assert h2_norm_sq(direct) == pytest.approx(1.0, rel=1e-10)
        assert time.perf_counter() - start < 60.0


def test_criterion_7_unwinding_energy_accounting():
    with criterion(7, "unwinding: monotone residuals, exact energy split"):
        rng = np.random.default_rng(MASTER_SEED + 8)
        for _ in range(100):
            f = as_series(
                rng.standard_normal(17) + 1j * rng.standard_normal(17)
            )
            e = unwind(f, depth=8)
            floor = 1e-20 * e.input_h2
            for a, b in zip(e.residual_h2, e.residual_h2[1:]):
                assert b < a or a <= floor
            total = h2_norm_sq(f)
            acc = 0.0
            for n in range(e.depth):
                acc += abs(e.constants[n]) ** 2
                assert abs(acc + e.residual_h2[n] - total) <= 1e-8 * total

        short = unwind(as_series([0.0, 0.0, 1.0]), depth=4)
        assert short.terminated and short.depth == 1
        two = unwind(as_series([0.0, 1.0, 1.0]), depth=4)
        assert two.terminated and two.depth == 2


def test_criterion_8_signal_round_trips():
    with criterion(8, "signal map: cosine, band-limited fidelity, energy"):
        cos16 = BoundarySignal.from_function(np.cos, 16)
        f = analytic_signal(cos16, cap=7)
        want = np.zeros(8)
        want[1] = 1.0
        assert np.max(np.abs(f.coeffs - want)) <= 1e-12

        rng = np.random.default_rng(MASTER_SEED + 9)
        theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        for _ in range(20):
            coeffs_c = rng.standard_normal(11) * 0.7
            coeffs_s = rng.standard_normal(11) * 0.7
            values = coeffs_c[0] * np.ones(64)
            for n in range(1, 11):
                values += coeffs_c[n] * np.cos(n * theta)
                values += coeffs_s[n] * np.sin(n * theta)
            signal = BoundarySignal(values)
            F = analytic_signal(signal, cap=31)
            recovered = boundary_samples(F, 64).real
            scale = max(1.0, np.max(np.abs(values)))
            assert np.max(np.abs(recovered - values)) <= 1e-9 * scale

        for _ in range(50):
            samples = rng.standard_normal(64)
            signal = BoundarySignal(samples)
            F = analytic_signal(signal, cap=31)
            c = np.fft.fft(samples) / 64
            mean_sq = float(np.mean(samples**2))
            # energy of the disk extension, from the sample side
            expected = 2.0 * mean_sq - c[0].real ** 2 - 2.0 * abs(c[32]) ** 2
            assert abs(h2_norm_sq(F) - expected) <= 1e-9 * max(expected, 1.0)


def test_criterion_9_invariants_of_every_decomposition():
    with criterion(9, "energy and boundary modulus preserved by every chain"):
        if not _CHAIN_CACHE:
            for spec in _big_schedule():
                f = generate_instance(spec)
                _CHAIN_CACHE[spec.seed] = (f, decompose(f))
        assert len(_CHAIN_CACHE) == 500
        for f, chain in _CHAIN_CACHE.values():
            h2_f = h2_norm_sq(f)
            assert abs(h2_norm_sq(chain.g) - h2_f) <= 1e-9 * h2_f
            count = 1 << int(np.ceil(np.log2(max(4, 4 * len(f)))))
            values_f = np.abs(boundary_samples(f, count))
            values_g = np.abs(boundary_samples(chain.g, count))
            scale = max(1.0, float(np.max(values_f)))
            assert np.max(np.abs(values_f - values_g)) <= 1e-9 * scale
