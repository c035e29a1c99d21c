import warnings

import numpy as np
import pytest

from blaschke import (
    BoundarySignal,
    InsufficientDepth,
    ZeroSeries,
    analytic_signal,
    as_series,
    decompose,
    h2_norm_sq,
    reconstruct,
    residual_decay_rate,
    unwind,
)
from blaschke import decomposition
from oracles import add, bounded_pair_misses, polish_until_no_lower, scale


def test_monomial_terminates_in_one_round():
    e = unwind(as_series([0.0, 0.0, 1.0]), depth=5)
    assert e.terminated
    assert e.depth == 1
    assert e.constants == (1 + 0j,)
    assert np.allclose(e.cumulative_blaschke[0].coeffs, [0, 0, 1])
    assert e.residual_h2 == (0.0,)


def test_constant_terminates_immediately():
    e = unwind(as_series([2.5]), depth=3)
    assert e.terminated
    assert e.constants == (2.5 + 0j,)
    assert e.residual_h2 == (0.0,)


def test_two_round_fixture():
    # z(1+z) sheds z first, then the leftover z in one more round;
    # the boundary root at -1 stays in the analytic factor
    e = unwind(as_series([0.0, 1.0, 1.0]), depth=5)
    assert e.terminated
    assert e.depth == 2
    assert e.constants == (1 + 0j, 1 + 0j)
    assert e.residual_h2 == pytest.approx((1.0, 0.0))
    assert np.allclose(reconstruct(e, 0).coeffs, [0, 1, 0])
    assert np.allclose(reconstruct(e, 1).coeffs, [0, 1, 1])


def test_depth_and_zero_input_validation():
    with pytest.raises(ValueError):
        unwind(as_series([1.0]), depth=0)
    with pytest.raises(ZeroSeries):
        unwind(as_series([0.0, 0.0]), depth=2)


def test_unwind_out_of_depth_returns_partial_expansion():
    f = as_series([1.0, 0.5, 0.25, 0.125])
    partial = unwind(f, depth=2)
    assert partial.depth == 2
    assert not partial.terminated
    # the partial run is the prefix of a deeper one
    deeper = unwind(f, depth=3)
    assert deeper.residual_h2[:2] == partial.residual_h2


def test_residuals_strictly_decrease():
    rng = np.random.default_rng(41)
    f = as_series(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    e = unwind(f, depth=6)
    floor = 1e-20 * e.input_h2
    for a, b in zip(e.residual_h2, e.residual_h2[1:]):
        assert b < a or a <= floor


def test_energy_bookkeeping():
    rng = np.random.default_rng(42)
    f = as_series(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    e = unwind(f, depth=6)
    total = h2_norm_sq(f)
    running = 0.0
    for n in range(e.depth):
        running += abs(e.constants[n]) ** 2
        assert running + e.residual_h2[n] == pytest.approx(total, rel=1e-12)


def test_reconstruction_error_bounded_by_residual_energy():
    # the leftover is the low-order projection of (inner factor times
    # residual), so its energy can only undershoot the residual energy
    rng = np.random.default_rng(43)
    f = as_series(rng.standard_normal(7))
    e = unwind(f, depth=4)
    errors = []
    for n in range(e.depth):
        diff = add(f, scale(reconstruct(e, n), -1.0))
        err = h2_norm_sq(diff)
        errors.append(err)
        assert err <= e.residual_h2[n] * (1 + 1e-12) + 1e-15
    assert errors == sorted(errors, reverse=True)


def test_reconstruction_exact_at_termination():
    e = unwind(as_series([0.25, -1.0, 0.5, 1.0]), depth=64)
    assert e.terminated
    rebuilt = reconstruct(e, e.depth - 1)
    assert np.allclose(rebuilt.padded(4), [0.25, -1.0, 0.5, 1.0], atol=1e-10)


def test_reconstruct_index_bounds():
    e = unwind(as_series([0.0, 1.0]), depth=1)
    with pytest.raises(IndexError):
        reconstruct(e, 1)
    with pytest.raises(IndexError):
        reconstruct(e, -1)


def test_decay_rate_needs_two_rounds():
    e = unwind(as_series([0.0, 1.0]), depth=3)
    assert e.depth == 1
    with pytest.raises(InsufficientDepth):
        residual_decay_rate(e)


def test_decay_rate_ratios():
    rng = np.random.default_rng(44)
    f = as_series(rng.standard_normal(8))
    e = unwind(f, depth=5)
    ratios = residual_decay_rate(e)
    assert all(0 <= r < 1 for r in ratios)
    expected = [
        b / a for a, b in zip(e.residual_h2, e.residual_h2[1:]) if a > 0
    ]
    assert ratios == expected


def test_json_shape():
    e = unwind(as_series([0.0, 1.0, 1.0]), depth=3)
    full = e.to_json_dict()
    assert set(full) == {
        "constants",
        "residual_h2",
        "terminated",
        "input_h2",
        "cumulative_blaschke",
    }


def test_constants_never_zero():
    rng = np.random.default_rng(45)
    for _ in range(5):
        f = as_series(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        e = unwind(f, depth=5)
        assert all(abs(c) > 0 for c in e.constants)


@pytest.mark.parametrize("coeffs", [[1e155] * 3, [1e155, 3e154, -2e154, 1e154]])
def test_huge_input_unwinds_like_its_scaled_copy(coeffs):
    # the input energy overflows the double range; the stop test reads
    # unsquared norms, so the run stops where the scaled run does
    big = unwind(as_series(coeffs), depth=3)
    small = unwind(as_series(np.array(coeffs) * 1e-150), depth=3)
    assert big.depth == small.depth
    assert big.terminated == small.terminated


def test_huge_middle_coefficient_unwinds_without_warnings():
    e = unwind(as_series([1.0, 1e160, 1.0]), depth=2)
    assert e.terminated
    assert e.depth == 1


def _smooth_signals(seed, count, sample_count=128):
    """Analytic signals at cap K/2 - 1 of real samples of random Fourier
    series whose amplitudes decay like decay**n, decay in [0.86, 0.94]."""
    rng = np.random.default_rng(seed)
    half = sample_count // 2
    n = np.arange(1, half)
    signals = []
    for _ in range(count):
        decay = rng.uniform(0.86, 0.94)
        c = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)) * decay**n
        spectrum = np.zeros(sample_count, dtype=np.complex128)
        spectrum[0] = rng.standard_normal()
        spectrum[1:half] = c
        spectrum[half + 1 :] = np.conj(c[::-1])
        samples = np.fft.ifft(spectrum).real * sample_count
        signals.append(analytic_signal(BoundarySignal(samples), half - 1))
    return signals


def test_constant_of_g_matches_jensens_formula():
    # g is zero free in the disk and |B| = 1 on the circle, so
    # log|g(0)| = mean of log|g| = mean of log|f| over the circle.  The
    # mean is taken on 2^18 points: its error is about e^(-d 2^18) / 2^18
    # for a zero at distance d from the circle in log|z|, and the zeros of
    # these signals keep d >= 8e-4
    for f in _smooth_signals(7, 5):
        for _ in range(6):
            g = decompose(f).g
            padded = np.zeros(1 << 18, dtype=np.complex128)
            padded[: len(f.coeffs)] = f.coeffs
            mean = np.mean(np.log(np.abs(np.fft.ifft(padded, norm="forward"))))
            assert abs(abs(g.constant) - np.exp(mean)) <= 1e-13 * np.exp(mean)
            rest = np.array(g.coeffs, copy=True)
            rest[0] = 0
            f = as_series(rest)


def test_unwind_route_census(monkeypatch):
    # points sampled by the power-sum route and degree-n companions
    # solved over 10 signals, each bounded by its count under the
    # sqrt(1e-6) tail rule plus 5%, so a change to the grid policy shows
    # here.  Grids resolved to a tail of 1e-6 sampled 499712 points and
    # took one companion; every fallback polishes the eigenvalues of the
    # core's companion
    points, fallbacks = [], []
    sample = decomposition._sample_circle
    accept = decomposition._accept_roots
    monkeypatch.setattr(
        decomposition, "_sample_circle", lambda c, r, size: points.append(size) or sample(c, r, size)
    )
    monkeypatch.setattr(
        decomposition, "_accept_roots", lambda *args: fallbacks.append(args) or accept(*args)
    )
    for f in _smooth_signals(1, 10):
        unwind(f, 6)
    assert sum(points) <= 1.05 * 334848
    assert len(fallbacks) <= 1.05 * 0


def test_power_sum_polish_stops_at_rounding(monkeypatch):
    # the batch Newton polish ends once every step is within 4u of its
    # point.  Over the root finds of the census above it averages at most
    # 3 evaluations of f and f' per polish, where polishing on until no
    # |f| falls (oracles.polish_until_no_lower) takes more than 5; each
    # root find takes the same route under both polishes, and it is the
    # power-sum route, whose roots all certify
    inputs = []
    find = decomposition.find_roots_in_disk
    with monkeypatch.context() as m:
        m.setattr(
            decomposition, "find_roots_in_disk", lambda f, opts: inputs.append(f) or find(f, opts)
        )
        for f in _smooth_signals(1, 10):
            unwind(f, 6)
    pairs = decomposition._pairs_at
    companion = decomposition._companion_roots
    certified = decomposition._certified

    def routed(f, polish):
        # companion degrees and certificate verdicts in call order, the
        # roots, and the polish calls and evaluations
        route, polishes, evaluations = [], [], []
        with monkeypatch.context() as m:
            m.setattr(decomposition, "_polish_all", lambda c, w: polishes.append(1) or polish(c, w))
            m.setattr(decomposition, "_pairs_at", lambda *a: evaluations.append(1) or pairs(*a))
            m.setattr(
                decomposition, "_companion_roots", lambda c: route.append(len(c) - 1) or companion(c)
            )
            m.setattr(decomposition, "_certified", lambda *a: route.append(certified(*a)) or route[-1])
            roots = find(f)
        return route, roots, len(polishes), len(evaluations)

    # polish calls and evaluations, summed over the root finds
    counts, ref_counts = np.zeros(2, dtype=int), np.zeros(2, dtype=int)
    for f in inputs:
        route, roots, *n = routed(f, decomposition._polish_all)
        ref_route, ref_roots, *ref_n = routed(f, polish_until_no_lower)
        assert route == ref_route and route[-1] is True
        assert len(roots) == len(ref_roots) and roots.near_boundary == ()
        if len(roots):
            assert np.max(np.abs(np.array(roots.roots) - np.array(ref_roots.roots))) < 1e-13
        counts += n
        ref_counts += ref_n
    assert counts[0] == ref_counts[0] > 0
    assert counts[1] <= 3 * counts[0]
    assert ref_counts[1] > 5 * ref_counts[0]


def test_certificate_bounds_hold_on_the_census_roots(monkeypatch):
    # at every root the certificate passes over the census signals, F(a)
    # and F'(a) from its matrix of powers, taken two rows at a time, lie
    # within its error bounds e and e' of a 40-digit evaluation, and no
    # RuntimeWarning is raised
    found = []
    certified = decomposition._certified

    def record(roots, core, radius, split):
        verdict = certified(roots, core, radius, split)
        if verdict:
            found.append((roots, core))
        return verdict

    with monkeypatch.context() as m:
        m.setattr(decomposition, "_certified", record)
        for f in _smooth_signals(1, 10):
            unwind(f, 6)
    rows = []
    power_blocks = decomposition._power_blocks

    def record_blocks(w, n):
        for block in power_blocks(w, n):
            rows.append(len(block[1]))
            yield block

    monkeypatch.setattr(decomposition, "_POLISH_BLOCK", 2 * 64)
    monkeypatch.setattr(decomposition, "_power_blocks", record_blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        misses = [miss for roots, core in found for miss in bounded_pair_misses(core, roots)]
    assert len(found) == 60 and max(rows) == 2
    assert len(misses) == sum(rows) > len(rows) > len(found)
    assert max(max(miss) for miss in misses) <= 0
