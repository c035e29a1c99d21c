import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blaschke import (
    BlaschkeConditionViolated,
    BlaschkeError,
    ChainInconsistent,
    DomainError,
    InstanceSpec,
    NotARoot,
    RootOptions,
    RootSet,
    WeightSequence,
    ZeroSeries,
    as_series,
    blaschke_eval,
    boundary_modulus_gap,
    decompose,
    divide_conjugate_linear,
    find_roots_in_disk,
    generate_instance,
    geometric_extension_cap,
    h2_norm_sq,
    reflect_root,
    verify_theorem3_truncated,
    x_norm_sq,
)
from blaschke import decomposition
from blaschke.decomposition import (
    _GRID_BLOCK,
    _horner_pair,
    _interior_zero_count,
    blaschke_eval_many,
    reflection_identity_gap,
)
from blaschke.series import horner, multiply
from blaschke.signals import boundary_samples
from blaschke.verify import instance_roots
from oracles import naive_blaschke_at, naive_reflection

QUADRATIC = as_series([1 / 6, -5 / 6, 1.0])  # (z - 1/2)(z - 1/3)


def poly_from_roots(roots, lead=1.0):
    coeffs = np.array([lead], dtype=complex)
    for a in roots:
        coeffs = np.convolve(coeffs, np.array([-a, 1.0]))
    return as_series(coeffs)


def test_find_roots_quadratic():
    rs = find_roots_in_disk(QUADRATIC)
    assert len(rs) == 2
    assert rs.roots[0] == pytest.approx(1 / 3, abs=1e-12)
    assert rs.roots[1] == pytest.approx(1 / 2, abs=1e-12)
    assert rs.near_boundary == ()


def test_find_roots_orders_by_magnitude_then_phase():
    roots = [0.5j, -0.5, 0.2]
    rs = find_roots_in_disk(poly_from_roots(roots))
    mags = [abs(a) for a in rs.roots]
    assert mags == sorted(mags)
    assert rs.roots[0] == pytest.approx(0.2, abs=1e-10)


def test_find_roots_zero_series_rejected():
    with pytest.raises(ZeroSeries):
        find_roots_in_disk(as_series([0.0, 0.0]))


def test_find_roots_constant_has_none():
    assert len(find_roots_in_disk(as_series([2.5]))) == 0


def test_origin_roots_counted_by_multiplicity():
    f = poly_from_roots([0.0, 0.0, 0.5])
    rs = find_roots_in_disk(f)
    assert rs.origin_multiplicity == 2
    assert len(rs) == 3


def test_outside_roots_ignored():
    f = poly_from_roots([0.4, 2.0])  # one root outside the disk
    rs = find_roots_in_disk(f)
    assert len(rs) == 1
    assert rs.roots[0] == pytest.approx(0.4, abs=1e-10)


def test_boundary_root_quarantined():
    f = poly_from_roots([0.3, 1.0])
    rs = find_roots_in_disk(f)
    assert [pytest.approx(0.3, abs=1e-9)] == list(rs.roots)
    assert len(rs.near_boundary) == 1
    assert abs(rs.near_boundary[0]) == pytest.approx(1.0, abs=1e-9)


def test_double_root_found_twice():
    # the second copy is polished against the once-deflated polynomial
    rs = find_roots_in_disk(poly_from_roots([0.5, 0.5, 2.0]))
    assert len(rs) == 2
    assert all(abs(a - 0.5) < 1e-6 for a in rs)


def test_triple_root_found_three_times_and_reflected():
    a = 0.3 + 0.4j
    f = as_series(np.convolve(poly_from_roots([a, a, a]).coeffs, [1.0, -0.5]))
    rs = find_roots_in_disk(f)
    assert len(rs) == 3
    assert all(abs(r - a) < 1e-4 for r in rs)
    assert len(decompose(f).roots) == 3


def test_horner_kernels_match_polyval():
    rng = np.random.default_rng(5)
    for length in range(1, 66):
        desc = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        coeffs = desc.tolist()
        deriv = np.polyder(desc)
        for _ in range(4):
            z = complex(1.25 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            value = horner(coeffs, z)
            pair = _horner_pair(coeffs, z)
            # same operations, so the same bits on every platform
            assert value == pair[0]
            # relative to the Horner error scale sum |c_k| |z|^k
            assert abs(value - np.polyval(desc, z)) <= 1e-13 * np.polyval(np.abs(desc), abs(z))
            assert abs(pair[1] - np.polyval(deriv, z)) <= 1e-13 * np.polyval(np.abs(deriv), abs(z))
    assert horner([], 0.5j) == 0
    assert _horner_pair([], 0.5j) == (0, 0)


def test_horner_pair_on_floats_is_the_real_part_of_the_complex_pass():
    # the certificate runs its pass of sum |c_k| |a|^k on floats; it has
    # to give the bits of the complex pass it replaced
    rng = np.random.default_rng(11)
    for length in range(1, 66):
        signed = rng.standard_normal(length)
        for desc in (signed, np.abs(signed)):
            for x in [*rng.uniform(-1.25, 1.25, 3).tolist(), abs(complex(*rng.uniform(-1, 1, 2)))]:
                got = _horner_pair(desc.tolist(), x)
                want = _horner_pair([complex(c) for c in desc.tolist()], complex(x))
                assert [type(v) for v in got] == [float, float]
                assert [v.hex() for v in got] == [w.real.hex() for w in want]


def test_planted_roots_recovered_companion():
    rng = np.random.default_rng(17)
    radii = np.sqrt(rng.uniform(0.1**2, 0.85**2, 8))
    roots = radii * np.exp(2j * np.pi * rng.uniform(size=8))
    rs = find_roots_in_disk(poly_from_roots(roots, lead=1.7 - 0.3j))
    found = sorted(rs.roots, key=lambda a: (abs(a), np.angle(a)))
    planted = sorted(roots, key=lambda a: (abs(a), np.angle(a)))
    assert len(found) == 8
    for got, want in zip(found, planted):
        assert abs(got - want) < 1e-8


def test_planted_roots_recovered_aberth():
    # degree 70, above the degree where an unscaled companion matrix
    # loses digits on roots of mixed moduli
    rng = np.random.default_rng(23)
    radii = np.sqrt(rng.uniform(0.2**2, 0.8**2, 70))
    roots = radii * np.exp(2j * np.pi * rng.uniform(size=70))
    rs = find_roots_in_disk(poly_from_roots(roots))
    assert len(rs) == 70
    found = np.sort_complex(np.array(rs.roots))
    planted = np.sort_complex(roots)
    assert np.max(np.abs(found - planted)) < 1e-6


def test_power_sum_route_finds_interior_roots_with_a_degree_m_companion(monkeypatch):
    # 5 planted roots inside, 58 outside: the estimates come from the
    # power sums, whose monic polynomial has degree 5, not 63
    rng = np.random.default_rng(41)
    inside = rng.uniform(0.1, 0.8, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
    outside = rng.uniform(1.15, 1.6, 58) * np.exp(2j * np.pi * rng.uniform(size=58))
    degrees = []
    companion = decomposition._companion_roots

    def record(coeffs):
        degrees.append(len(coeffs) - 1)
        return companion(coeffs)

    monkeypatch.setattr(decomposition, "_companion_roots", record)
    rs = find_roots_in_disk(poly_from_roots(np.concatenate([inside, outside])))
    assert degrees and max(degrees) <= 5
    assert len(rs) == 5
    found = np.array(rs.roots)
    assert max(np.min(np.abs(found - a)) for a in inside) < 1e-12


def _edge_case(edge):
    # 4 roots inside and 58 outside, drawn as in the test above, and one
    # at modulus edge
    rng = np.random.default_rng(41)
    inside = rng.uniform(0.1, 0.8, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
    outside = rng.uniform(1.15, 1.6, 58) * np.exp(2j * np.pi * rng.uniform(size=58))
    edge_root = edge * np.exp(0.7j)
    return poly_from_roots(np.concatenate([inside, [edge_root], outside])), inside, edge_root


def _spy_routes(monkeypatch):
    """Record the degree of every companion solved and, for every
    certificate, its outer radius, its split and its verdict."""
    companions, certificates = [], []
    companion = decomposition._companion_roots
    certified = decomposition._certified

    def record_companion(coeffs):
        companions.append(len(coeffs) - 1)
        return companion(coeffs)

    def record_certificate(roots, core, radius, split):
        certificates.append((radius, split, certified(roots, core, radius, split)))
        return certificates[-1][-1]

    monkeypatch.setattr(decomposition, "_companion_roots", record_companion)
    monkeypatch.setattr(decomposition, "_certified", record_certificate)
    return companions, certificates


def _fallback_roots(monkeypatch, f, opts):
    """The roots the degree-n companion alone finds."""
    with monkeypatch.context() as m:
        m.setattr(decomposition, "_power_sum_estimates", lambda core, radius: None)
        return find_roots_in_disk(f, opts)


# a zero 5e-4 outside the circle calls for 2^15 points on |z| = 1 + margin,
# past the affordable grids, so the probes move the circle out; at margin
# 1e-3 it is 5e-4 inside and near the boundary
@pytest.mark.parametrize("margin, near", [(1e-10, 0), (1e-3, 1)])
def test_zero_near_the_circle_is_certified_on_an_outer_circle(monkeypatch, margin, near):
    f, inside, edge_root = _edge_case(1.0005)
    opts = RootOptions(boundary_margin=margin)
    expected = _fallback_roots(monkeypatch, f, opts)
    companions, certificates = _spy_routes(monkeypatch)
    rs = find_roots_in_disk(f, opts)
    assert companions == [5]
    [(radius, split, verdict)] = certificates
    assert verdict and split == 1 + margin < radius < 1.25
    assert len(rs) == 4 and len(rs.near_boundary) == near
    if near:
        assert abs(rs.near_boundary[0] - edge_root) < 1e-12
    assert np.max(np.abs(np.array(rs.roots) - np.array(expected.roots))) < 1e-12
    assert _worst_miss(rs.roots, inside) < 1e-12


def test_inclusion_disk_across_the_split_takes_the_fallback(monkeypatch):
    # a zero 1e-13 outside |z| = 1 + margin: its inclusion disk, of
    # radius 8e-12, reaches over the split, so the route gives up
    f, inside, _ = _edge_case(1 + 1e-10 + 1e-13)
    companions, certificates = _spy_routes(monkeypatch)
    rs = find_roots_in_disk(f)
    [(radius, split, verdict)] = certificates
    assert not verdict and split < radius
    assert companions == [5, 63]
    assert len(rs) == 4 and rs.near_boundary == ()
    assert _worst_miss(rs.roots, inside) < 1e-12


def test_power_sum_route_polishes_without_deflating(monkeypatch):
    # 5 roots inside and 58 outside: the power-sum estimates are polished
    # all at once against F itself, where polishing one at a time
    # deflated F by each accepted root
    f, inside, edge_root = _edge_case(0.5)
    expected = _fallback_roots(monkeypatch, f, RootOptions())
    companions, certificates = _spy_routes(monkeypatch)
    deflated = []
    deflate = decomposition.deflate
    monkeypatch.setattr(decomposition, "deflate", lambda g, a: deflated.append(a) or deflate(g, a))
    rs = find_roots_in_disk(f)
    assert companions == [5] and [verdict for *_, verdict in certificates] == [True]
    assert deflated == []
    assert len(rs) == len(expected) == 5
    assert np.max(np.abs(np.array(rs.roots) - np.array(expected.roots))) < 1e-12
    assert _worst_miss(rs.roots, [*inside, edge_root]) < 1e-12


def test_certificate_evaluates_each_certified_root_once(monkeypatch):
    # the 5 certified roots of the test above take the certificate's two
    # Horner passes each, of F and of sum |c_k| |z|^k, and no other
    f, _, _ = _edge_case(0.5)
    calls = []
    horner_pair = decomposition._horner_pair
    monkeypatch.setattr(
        decomposition, "_horner_pair", lambda c, z: calls.append(z) or horner_pair(c, z)
    )
    assert len(find_roots_in_disk(f)) == 5
    assert len(calls) == 10


def test_power_sum_polish_at_degree_1024_outside_the_unit_circle(monkeypatch):
    # 5 roots inside, 2 at modulus 1.005, near the boundary at margin
    # 1e-2, and 1017 on |z| = 1.03, outside R = 1.01; scaled so that the
    # largest coefficient is 1.7e293.  The 7 estimates inside R are
    # polished in w = z / R, where no power overflows
    rng = np.random.default_rng(7)
    inside = rng.uniform(0.1, 0.8, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
    near = 1.005 * np.exp(2j * np.pi * rng.uniform(size=2))
    ring = np.zeros(1018, dtype=complex)
    ring[0], ring[-1] = -(1.03**1017), 1.0
    f = as_series(np.convolve(poly_from_roots([*inside, *near]).coeffs, ring) * 1e280)
    assert len(f) == 1025
    companions, certificates = _spy_routes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = find_roots_in_disk(f, RootOptions(boundary_margin=1e-2))
    assert companions == [7] and certificates == [(1 + 1e-2, 1 + 1e-2, True)]
    assert len(rs) == 5 and len(rs.near_boundary) == 2
    assert _worst_miss(rs.roots, inside) < 1e-13
    assert _worst_miss(rs.near_boundary, near) < 1e-13


def test_power_matrix_pairs_match_horner(monkeypatch):
    # blocks of 4 rows: 4, 4 and a last block of 1
    monkeypatch.setattr(decomposition, "_POLISH_BLOCK", 4 * 65)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    w = 1.25 * np.sqrt(rng.uniform(size=9)) * np.exp(2j * np.pi * rng.uniform(size=9))
    values, derivs = decomposition._pairs_at(coeffs, coeffs[1:] * np.arange(1, 65), w)
    desc = coeffs[::-1]
    for z, value, deriv in zip(w.tolist(), values, derivs):
        p, dp = _horner_pair(desc.tolist(), z)
        # relative to the Horner error scale sum |c_k| |z|^k
        assert abs(value - p) <= 1e-13 * np.polyval(np.abs(desc), abs(z))
        assert abs(deriv - dp) <= 1e-13 * np.polyval(np.abs(np.polyder(desc)), abs(z))


def _grid_case():
    # degree 63: one zero 0.01 outside the circle in log|z|, one at 0.5
    # and 61 on |z| = 1.5; on |z| = 2 the top coefficients, near 2^-61 of
    # the constant, would be dropped as rounding dust.  The base grid has
    # 1024 points
    rng = np.random.default_rng(3)
    outside = 1.5 * np.exp(2j * np.pi * rng.uniform(size=61))
    inside = 0.5 * np.exp(0.4j)
    return poly_from_roots([np.exp(0.01 + 1.1j), inside, *outside]), inside


def _spy_grids(monkeypatch, miss=0):
    """Record the size of every grid _sample_circle samples; the first
    miss grids it accepts have 1e-5 added to their count c_0."""
    sizes, missed = [], []
    sample = decomposition._sample_circle

    def record(core, radius, size):
        sizes.append(size)
        sampled = sample(core, radius, size)
        if sampled is not None and sampled[1] == size and len(missed) < miss:
            missed.append(size)
            sampled[0][0] += 1e-5
        return sampled

    monkeypatch.setattr(decomposition, "_sample_circle", record)
    return sizes


def test_grid_resolves_the_tail_to_the_root_of_the_count_gate(monkeypatch):
    # the tail near index K/2 is about e^(-0.01 K/2): sqrt(1e-6) calls
    # for 2048 points, where a tail of 1e-6 called for 4096; the entries
    # read alias with its square, and no probe moves the circle
    f, inside = _grid_case()
    sizes = _spy_grids(monkeypatch)
    companions, certificates = _spy_routes(monkeypatch)
    rs = find_roots_in_disk(f)
    assert sizes == [1024, 2048]
    # one zero inside: its estimate is -a_1, with no companion
    assert companions == [] and certificates == [(1 + 1e-10, 1 + 1e-10, True)]
    assert len(rs) == 1 and abs(rs.roots[0] - inside) < 1e-12


def test_count_off_an_integer_doubles_the_grid(monkeypatch):
    f, _ = _grid_case()
    expected = find_roots_in_disk(f)
    sizes = _spy_grids(monkeypatch, miss=1)
    companions, certificates = _spy_routes(monkeypatch)
    rs = find_roots_in_disk(f)
    assert sizes == [1024, 2048, 4096]
    assert companions == [] and [verdict for *_, verdict in certificates] == [True]
    assert np.max(np.abs(np.array(rs.roots) - np.array(expected.roots))) < 1e-12


def test_count_off_an_integer_on_every_grid_takes_the_fallback(monkeypatch):
    # the grid doubles up to _POWER_SUM_MAX_GRID, then the route gives
    # up: six grids missed here, and six more in find_roots_in_disk
    f, _ = _grid_case()
    expected = _fallback_roots(monkeypatch, f, RootOptions())
    sizes = _spy_grids(monkeypatch, miss=12)
    assert decomposition._power_sum_estimates(f.coeffs, 1 + 1e-10) is None
    assert sizes == [1 << k for k in range(10, 16)]
    companions, _ = _spy_routes(monkeypatch)
    rs = find_roots_in_disk(f)
    assert companions == [63]
    assert len(rs) == len(expected) == 1
    assert np.max(np.abs(np.array(rs.roots) - np.array(expected.roots))) < 1e-12


def _worst_miss(found, planted):
    """Distance from the planted root farthest from every found one."""
    found = np.asarray(found)
    return max(np.min(np.abs(found - a)) for a in planted)


@pytest.mark.parametrize("degree, seed", [(64, 15), (60, 18)])
def test_clustered_roots_below_degree_64(degree, seed):
    # radii from 0.2 to 0.8: the unscaled companion matrix put the worst
    # root of these 1e-2 and 1e-1 off
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(0.2**2, 0.8**2, degree))
    roots = radii * np.exp(2j * np.pi * rng.uniform(size=degree))
    rs = find_roots_in_disk(poly_from_roots(roots))
    assert len(rs) == degree
    assert _worst_miss(rs.roots, roots) < 1e-6


# degree 128, seeds 0-19, and seed 16 scaled by 1 + k*2^-52.  Seed 16 has
# |F| near 2e-7 on an arc of the circle where ||F|| is 2e6: polishing
# against the deflated polynomial pulls estimates at |z| 1.07-1.10 onto
# that arc, and without the check on F's own Newton step 8 of its 12
# scalings give 33 or 34 roots
GRID_128 = [(seed, 0) for seed in range(20)] + [(16, k) for k in range(1, 12)]


def _grid_128(seed, k):
    spec = InstanceSpec(32, (0.1, 0.9), 128, seed=seed)
    return as_series(generate_instance(spec).coeffs * (1 + k * 2.0**-52)), instance_roots(spec)


def test_failure_grid_decomposes_with_planted_roots():
    # 16 planted roots with radii 0.1-0.9 at degree 65.  Seed 4's worst
    # root has u*kappa near 2e-7 and lands 6e-7 to 1.6e-6 off as the
    # coefficients' last bit changes, so the bound is 1e-5
    cases = [(generate_instance(spec), instance_roots(spec), 1e-5, spec.seed)
             for spec in (InstanceSpec(16, (0.1, 0.9), 65, seed=s) for s in range(20))]
    cases += [(*_grid_128(seed, k), 1e-3, (seed, k)) for seed, k in GRID_128]
    for f, planted, bound, case in cases:
        chain = decompose(f)
        assert len(chain.roots) == len(planted), case
        assert _worst_miss(chain.roots.roots, planted) < bound, case
    # degree 128 seed 64: min |g| on the circle is 1.8e-9, 0.53 u ||c||_1 and
    # 2.4 u ||c||_2, and g has no zeros inside; a zero count with its
    # rounding floor at u ||c||_1 raised there.  Its worst planted root
    # lands 2e-3 off, as it did with the root find on g, so only the
    # count is pinned
    f, planted = _grid_128(64, 0)
    assert len(decompose(f).roots) == len(planted)


@pytest.mark.parametrize("seed, k", GRID_128)
def test_failure_grid_degree_128_finds_planted_roots(seed, k):
    f, planted = _grid_128(seed, k)
    rs = find_roots_in_disk(f)
    assert len(rs) == 32
    assert _worst_miss(rs.roots, planted) < 1e-3


def _ring(radius, degree):
    # roots crowded near the origin: the low coefficients underflow to
    # subnormals or to zero
    rng = np.random.default_rng(0)
    return as_series(np.poly(radius * np.exp(2j * np.pi * rng.uniform(size=degree)))[::-1])


def _subnormal_constant():
    # the geometric-mean scaling puts the coefficient of z near 1e315,
    # beyond the double range; its one interior root is -1e-320
    coeffs = np.zeros(65, dtype=complex)
    coeffs[[0, 1, 64]] = [1e-320, 1.0, 1.0]
    return as_series(coeffs)


def _huge_linear_term():
    # z^64 + 1e300 z + 1e-320: squared coefficients overflow
    coeffs = np.zeros(65, dtype=complex)
    coeffs[[0, 1, 64]] = [1e-320, 1e300, 1.0]
    return as_series(coeffs)


# z^2 + 1e160 z + 1: its squared 2-norm overflows; its one interior root
# is -1e-160
HUGE_MIDDLE = as_series([1.0, 1e160, 1.0])


@pytest.mark.parametrize(
    "make, interior",
    [
        pytest.param(
            lambda: generate_instance(InstanceSpec(128, (0.1, 0.9), 511, seed=0)),
            None,
            id="degree-511",
        ),
        pytest.param(lambda: _ring(0.05, 600), None, id="ring-0.05-degree-600"),
        pytest.param(lambda: _ring(0.002, 200), None, id="ring-0.002-degree-200"),
        pytest.param(_subnormal_constant, [-1e-320], id="subnormal-constant-degree-64"),
        pytest.param(_huge_linear_term, None, id="huge-linear-term-degree-64"),
        pytest.param(lambda: as_series(np.full(40, 1e306)), None, id="forty-1e306"),
        pytest.param(lambda: HUGE_MIDDLE, [-1e-160], id="huge-middle-quadratic"),
    ],
)
def test_extreme_inputs_give_roots_or_typed_error_without_warnings(make, interior):
    # interior: the roots required, or None where a typed error may stand in
    f = make()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rs = find_roots_in_disk(f)
        except BlaschkeError:
            assert interior is None
        else:
            assert isinstance(rs, RootSet)
            if interior is not None:
                assert list(rs.roots) == interior
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_power_sum_route_gives_up_where_z_f_prime_overflows():
    # 1e307 z^20 + 1: F is finite, but 20e307, the top coefficient of z F',
    # is past the double range; its 20 roots have modulus 1e-307^(1/20)
    f = as_series([1.0] + [0.0] * 19 + [1e307])
    rs = find_roots_in_disk(f)
    assert len(rs) == 20
    assert np.allclose(np.abs(rs.roots), 10 ** (-307 / 20), rtol=1e-12)
    assert len(decompose(f).roots) == 20


def test_all_interior_core_takes_one_companion(monkeypatch):
    # with every zero of the core inside, its power-sum polynomial would
    # be the core itself; only the degree-n companion runs
    calls = []
    real = decomposition._companion_roots
    monkeypatch.setattr(
        decomposition, "_companion_roots", lambda c: calls.append(len(c) - 1) or real(c)
    )
    rs = find_roots_in_disk(_ring(0.05, 600))
    # the 336 lowest coefficients underflow to zero: roots at the origin
    assert len(rs) == 600 and rs.origin_multiplicity == 336
    assert calls == [264]


def test_wide_margin_keeps_the_power_sum_route(monkeypatch):
    # at margin 0.5 the power sums are taken on |z| = 1.5, past 1.25;
    # the near-boundary root 1.3 must not send F to its degree-n companion
    calls = []
    real = decomposition._companion_roots
    monkeypatch.setattr(
        decomposition, "_companion_roots", lambda c: calls.append(len(c) - 1) or real(c)
    )
    outer = 2 * np.exp(2j * np.pi * (np.arange(60) + 0.5) / 60)
    f = poly_from_roots([0.3, 1.3, *outer])
    rs = find_roots_in_disk(f, RootOptions(boundary_margin=0.5))
    assert calls == [2]
    assert list(rs.roots) == [pytest.approx(0.3, abs=1e-9)]
    assert list(rs.near_boundary) == [pytest.approx(1.3, abs=1e-9)]


def test_decompose_huge_middle_coefficient():
    # the rounding floor of the winding count and the Hardy norm drift
    # check both read a 2-norm past 1e308 when it is formed from squares
    assert decompose(HUGE_MIDDLE).roots.roots == (-1e-160,)


def test_decompose_names_the_near_boundary_deflation_overflow():
    # forty coefficients of 1e307: no interior root and 39 roots on the
    # circle; deflating g by them leaves the double range on finite input
    f = as_series(np.full(40, 1e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChainInconsistent, match="near-boundary") as err:
            decompose(f)
    assert "39 near-boundary roots" in str(err.value)


def test_rootset_json_round_trip():
    rs = find_roots_in_disk(poly_from_roots([0.0, 0.3, -0.4j]))
    data = rs.to_json_dict()
    assert set(data) == {"roots", "origin_multiplicity", "near_boundary"}
    back = RootSet.from_json_dict(data)
    assert back.origin_multiplicity == 1
    assert np.allclose(sorted(back.roots, key=abs), sorted(rs.roots, key=abs))


def test_reflect_root_quadratic():
    g = reflect_root(QUADRATIC, 0.5)
    assert np.allclose(g.coeffs, naive_reflection(QUADRATIC.coeffs, 0.5), atol=1e-12)


def test_reflect_root_rejects_non_root():
    with pytest.raises(NotARoot):
        reflect_root(QUADRATIC, 0.25)


def test_reflect_root_rejects_outside_disk():
    with pytest.raises(DomainError):
        reflect_root(poly_from_roots([2.0]), 2.0)


def test_reflect_root_preserves_h2():
    f = poly_from_roots([0.3 + 0.2j, -0.6], lead=0.8j)
    g = reflect_root(f, 0.3 + 0.2j)
    assert h2_norm_sq(g) == pytest.approx(h2_norm_sq(f), rel=1e-12)


def test_decompose_quadratic_chain():
    chain = decompose(QUADRATIC)
    assert np.allclose(chain.roots.roots, [1 / 3, 1 / 2])
    assert np.allclose(chain.g.coeffs, [1.0, -5 / 6, 1 / 6], atol=1e-12)
    assert len(chain.stages) == 3  # f, one intermediate, g
    assert len(chain.h_list) == 2
    corr = chain.correction_terms(WeightSequence.dirichlet())
    assert corr[0] == pytest.approx(10 / 9)
    assert corr[1] == pytest.approx(5 / 6)


def test_decompose_root_free_input_is_identity_chain():
    f = as_series([1.0, 0.1, 0.05])
    chain = decompose(f)
    assert len(chain.roots) == 0
    assert chain.g == f


def test_decompose_preserves_h2_and_boundary_modulus():
    rng = np.random.default_rng(2)
    f = as_series(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    chain = decompose(f)
    assert h2_norm_sq(chain.g) == pytest.approx(h2_norm_sq(f), rel=1e-9)
    assert boundary_modulus_gap(f, chain.g) < 1e-9 * max(1.0, h2_norm_sq(f))


def test_blaschke_series_times_g_reconstructs_f():
    f = poly_from_roots([0.5, -0.25 + 0.25j], lead=2.0)
    chain = decompose(f)
    b = chain.blaschke_series(f.degree_cap + 8)
    rebuilt = multiply(b, chain.g, f.degree_cap + 8)
    assert np.allclose(rebuilt.coeffs[: len(f)], f.coeffs, atol=1e-10)
    assert np.max(np.abs(rebuilt.coeffs[len(f) :])) < 1e-10


def test_chain_identity_all_families():
    rng = np.random.default_rng(9)
    f = poly_from_roots(
        [0.5, -0.3 + 0.1j, 0.7j], lead=1.0 + 0.5j
    )
    weights = [
        WeightSequence.dirichlet(),
        WeightSequence.sobolev_square(),
        WeightSequence.constant_step(0.7),
        WeightSequence.indicator(2),
        WeightSequence.concave_power_sum(1.5),
    ]
    chain = decompose(f)
    for w in weights:
        lhs = x_norm_sq(chain.g, w)
        rhs = x_norm_sq(f, w) - sum(chain.correction_terms(w))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_final_factor_is_root_free():
    rng = np.random.default_rng(31)
    for _ in range(5):
        f = as_series(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        g = decompose(f).g
        assert len(find_roots_in_disk(g)) == 0


FIXED_ROOTS = [0.5, -0.4j, 2.0, -1.5 + 1j]  # two inside, two outside


@pytest.mark.parametrize("inside", [True, False])
@pytest.mark.parametrize("k", range(1, 9))
def test_interior_zero_count_near_the_circle(k, inside):
    radius = 1 - 10.0**-k if inside else 1 + 10.0**-k
    g = poly_from_roots([radius * np.exp(0.3j)] + FIXED_ROOTS)
    assert _interior_zero_count(g) == 2 + inside


def test_interior_zero_count_mixed():
    # 1 - 10^-k and 1 + 10^-k, k = 1..8, at distinct angles
    angles = 2 * np.pi * np.arange(1, 17) / 17
    radii = [1 - 10.0**-k for k in range(1, 9)] + [1 + 10.0**-k for k in range(1, 9)]
    g = poly_from_roots(np.array(radii) * np.exp(1j * angles), lead=0.7 - 0.2j)
    assert _interior_zero_count(g) == 8


@pytest.mark.parametrize(
    "g, match",
    [
        # g(1) = 0 exactly on the first grid sample
        (poly_from_roots([1.0, 0.5]), "rounding floor"),
        # |g| and |z g'| overflow on the circle
        (as_series(np.full(200, 1e306)), "too large"),
    ],
)
def test_interior_zero_count_raises_where_undetermined(g, match):
    with pytest.raises(ChainInconsistent, match=match):
        _interior_zero_count(g)


def test_interior_zero_count_bisection_is_bounded():
    # a degree-256 instance without its rounding-dust top coefficients
    # (257 -> 188): |g| stays above the rounding floor, but arcs near
    # angle 1.12 fail the tests at every halving, and the unbounded
    # bisection made 3.8e5 Horner evaluations in 15 s without returning
    coeffs = generate_instance(InstanceSpec(64, (0.1, 0.9), 256, seed=12)).coeffs
    g = as_series(coeffs[:188])
    assert np.max(np.abs(coeffs[188:])) <= 1e-16 * np.max(np.abs(coeffs))
    start = time.perf_counter()
    with pytest.raises(ChainInconsistent, match="does not settle within 4096"):
        _interior_zero_count(g)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "length, k, side",
    [(2, None, 0), (3, None, 0), (9, None, 0), (25, None, 0), (60, None, 0),
     (12, 2, -1), (33, 4, 1), (80, 6, -1), (200, 8, 1)],
)
def test_interior_zero_count_matches_mpmath_roots(monkeypatch, length, k, side):
    # random coefficients; where k is given, the top one is traded for a
    # zero at (1 + side 10^-k) e^{0.7i}, which the grid cannot resolve, so
    # the arcs next to it are bisected level by level
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(length)
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    if k is not None:
        c = np.convolve(c[:-1], [-(1 + side * 10.0**-k) * np.exp(0.7j), 1.0])
    desc = c[::-1]
    # Durand-Kerner at 40 digits, started from the companion eigenvalues
    # so that it converges in a few steps; the zeros counted are those
    # of the stored coefficients
    with mpmath.workdps(40):
        roots = mpmath.polyroots(
            [mpmath.mpc(z) for z in desc.tolist()], maxsteps=20,
            roots_init=[mpmath.mpc(z) for z in np.roots(desc).tolist()],
        )
        moduli = [float(abs(r)) for r in roots]
        assert min(abs(abs(r) - 1) for r in roots) > 1e-30
    calls = []
    horner_pair = decomposition._horner_pair
    monkeypatch.setattr(
        decomposition, "_horner_pair", lambda c, z: calls.append(z) or horner_pair(c, z)
    )
    assert _interior_zero_count(c) == sum(m < 1 for m in moduli)
    if k is not None:
        assert len(calls) >= 2 * k


def test_decompose_raises_on_a_root_the_root_find_missed(monkeypatch):
    def drop_largest(f, opts=None):
        rs = find_roots_in_disk(f, opts)
        return RootSet(rs.roots[:-1], rs.near_boundary)

    monkeypatch.setattr(decomposition, "find_roots_in_disk", drop_largest)
    f = poly_from_roots([0.5, -0.3 + 0.1j, 0.7j, 1.8], lead=1.0 + 0.5j)
    with pytest.raises(ChainInconsistent, match="still has 1 interior roots"):
        decompose(f)


# 1.05 with margin 0.1: the power sums are taken on |z| = 1 + margin, so
# a root just outside the circle is still quarantined, not lost
@pytest.mark.parametrize(
    "boundary_root, opts",
    [
        (1.0, RootOptions()),
        (0.95, RootOptions(boundary_margin=0.1)),
        (1.05, RootOptions(boundary_margin=0.1)),
        (1.3, RootOptions(boundary_margin=0.5)),
    ],
)
def test_decompose_keeps_quarantined_root(boundary_root, opts):
    chain = decompose(poly_from_roots([0.3, boundary_root]), opts)
    assert [pytest.approx(0.3, abs=1e-9)] == list(chain.roots.roots)
    assert [pytest.approx(boundary_root, abs=1e-9)] == list(chain.roots.near_boundary)


def test_reflection_order_does_not_change_g():
    roots = [0.5, -0.3, 0.2 + 0.4j]
    f = poly_from_roots(roots, lead=1.3)
    chain = decompose(f)
    shuffled = [roots[2], roots[0], roots[1]]
    g = f
    for a in shuffled:
        g = reflect_root(g, a)
    assert g == chain.g


def test_blaschke_eval_matches_naive():
    roots = [0.5, -0.2 + 0.3j, 0j, 0j]
    for z in [0.0, 0.3 - 0.4j, np.exp(0.7j)]:
        got = blaschke_eval(roots, z)
        want = naive_blaschke_at(z, roots)
        assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("nonzero", [1, 3, 5])
@pytest.mark.parametrize("origins", [0, 2])
def test_blaschke_eval_matches_naive_for_odd_root_counts(nonzero, origins):
    # one convention, prod (z - a) / (1 - conj(a) z): an odd count of
    # nonzero roots carries no extra sign
    rng = np.random.default_rng(100 * nonzero + origins)
    roots = list(0.9 * np.sqrt(rng.uniform(size=nonzero))
                 * np.exp(2j * np.pi * rng.uniform(size=nonzero))) + [0j] * origins
    for z in [0.0, 0.3 - 0.4j, -0.7j, np.exp(0.7j), np.exp(-2.1j)]:
        got = blaschke_eval(roots, z)
        want = naive_blaschke_at(z, roots)
        assert got == pytest.approx(want, abs=1e-13)
        assert blaschke_eval_many(roots, points=np.array([z]))[0] == got


@pytest.mark.parametrize(
    "nonzero", [[], [0.7], [-0.3 + 0.6j], [0.5, -0.2 + 0.45j], [0.65j, -0.7]]
)
def test_blaschke_point_form_matches_series_form(nonzero):
    # |a| <= 0.7 and one root at the origin, 1 to 3 roots in all; B's
    # coefficients decay like 0.7^k, below 1e-26 past the cap
    roots = [0j, *nonzero]
    chain = decompose(poly_from_roots(roots))
    assert len(chain.roots) == len(roots)
    cap = 200
    n = 512  # >= 2 (cap + 1)
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    points = blaschke_eval_many(chain.roots, points=grid)
    series = boundary_samples(chain.blaschke_series(cap), n)
    assert np.max(np.abs(points - series)) <= 1e-13


def test_blaschke_eval_unimodular_on_boundary():
    roots = [0.5, -0.2 + 0.3j, 0.8j]
    pts = np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
    vals = blaschke_eval_many(roots + [0j], pts)
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


def test_blaschke_eval_many_takes_a_root_set():
    rs = RootSet.ordered([0.5, -0.2 + 0.3j, 0j, 0.8j])
    pts = np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False)) * 0.9
    got = blaschke_eval_many(rs, pts)
    assert np.array_equal(got, blaschke_eval_many(rs.roots, pts))


def test_blaschke_eval_rejects_noncontractive_factor():
    with pytest.raises(DomainError):
        blaschke_eval([1.0], 0.5)


NAN = complex(float("nan"), 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: blaschke_eval([0.5, NAN], 0.3),
        lambda: blaschke_eval([0.5], NAN),
        lambda: blaschke_eval_many([NAN], np.array([0.3, 0.1j])),
        lambda: reflect_root(QUADRATIC, NAN),
        lambda: divide_conjugate_linear(QUADRATIC, NAN, 8),
        lambda: geometric_extension_cap(4, [NAN, 0.5]),
        lambda: geometric_extension_cap(4, [0.5, NAN]),
        lambda: verify_theorem3_truncated(
            [0.5, 0.6, NAN, 0.7], as_series([1.0]),
            WeightSequence.concave_power_sum(3.0), caps=[2],
        ),
    ],
    ids=[
        "blaschke_eval", "blaschke_eval_at_nan", "blaschke_eval_many", "reflect_root",
        "divide_conjugate_linear", "extension_cap_nan_first", "extension_cap_nan_last",
        "theorem3_truncated",
    ],
)
def test_nan_root_or_point_raises_a_typed_error(call):
    # a NaN passes a test written as abs(a) >= 1, abs(z) > 1 or gaps <= 0,
    # and Python's max skips a NaN that is not first
    with pytest.raises((DomainError, BlaschkeConditionViolated)):
        call()


def test_boundary_modulus_gap_detects_mismatch():
    f = as_series([1.0, 0.5])
    assert boundary_modulus_gap(f, as_series([1.0, 0.7])) > 1e-2


def test_reflection_identity_gap_fixture():
    lhs, rhs = reflection_identity_gap(
        as_series([-0.6, 1.0]), 0.6, WeightSequence.dirichlet()
    )
    assert lhs == pytest.approx(0.36, abs=1e-12)
    assert rhs == pytest.approx(0.36, abs=1e-12)


def test_reflection_identity_gap_deflates_once(monkeypatch):
    calls = []
    real = decomposition.deflate

    def counting(f, alpha):
        calls.append(alpha)
        return real(f, alpha)

    monkeypatch.setattr(decomposition, "deflate", counting)
    reflection_identity_gap(QUADRATIC, 0.5, WeightSequence.dirichlet())
    assert calls == [0.5]


@given(
    st.lists(
        st.builds(
            complex,
            st.floats(min_value=-0.65, max_value=0.65),
            st.floats(min_value=-0.65, max_value=0.65),
        ),
        min_size=1,
        max_size=4,
    )
)
# the constant term is subnormal
@example([1.0154320949175742e-80j, 8.361097666480355e-242j])
# c = i b: Newton from the companion's estimate 0 stops on the critical
# point midway between b and c
@example([1e-18j, 6.17531463402163e-102j, 6.17531463402163e-102 + 0j])
def test_reflection_never_increases_dirichlet_norm(roots):
    # convex weight, so each reflection can only shed energy
    f = poly_from_roots(roots)
    w = WeightSequence.dirichlet()
    chain = decompose(f)
    assert x_norm_sq(chain.g, w) <= x_norm_sq(f, w) + 1e-9


def test_residual_tol_scales_with_norm():
    opts = RootOptions()
    assert opts.residual_tol_for(as_series([1e6])) > opts.residual_tol_for(
        as_series([1.0])
    )


def _blaschke_per_factor(roots, z):
    out = np.ones_like(z)
    for a in roots:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


@pytest.mark.parametrize("origins", [0, 2])
def test_blaschke_eval_many_blocks_stay_in_range(origins):
    rng = np.random.default_rng(16)
    roots = (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, 1000)) * np.exp(
        2j * np.pi * rng.uniform(size=1000)
    )
    inside = np.sqrt(rng.uniform(size=4000)) * np.exp(2j * np.pi * rng.uniform(size=4000))
    circle = np.exp(2j * np.pi * rng.uniform(size=1000))
    pts = np.concatenate([inside, circle])
    for count in [15, 16, 17, 32, 1000]:
        sub = np.concatenate([np.zeros(origins), roots[:count]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = blaschke_eval_many(sub, pts)
        assert np.isfinite(got).all()
        want = _blaschke_per_factor(sub, pts)
        assert np.max(np.abs(got - want)) <= 1e-13
        # 1 - conj(a) z loses digits when z on the circle sits within
        # |1 - conj(a) z| of a root's direction, per factor as blocked
        on_circle = pts[4000:]
        lost = 2.0**-52 * np.sum(1.0 / np.abs(1.0 - np.conj(sub)[:, None] * on_circle), axis=0)
        assert np.all(np.abs(np.abs(got[4000:]) - 1.0) <= 1e-12 + lost)


def _one_block_reference(roots, points):
    # the kernel with every point in one block
    roots = [complex(a) for a in roots]
    z = np.asarray(points, dtype=np.complex128)
    out = np.ones(z.shape, np.complex128)
    num, den, factor = np.empty_like(out), np.empty_like(out), np.empty_like(out)
    for start in range(0, len(roots), 16):
        first, *rest = roots[start:start + 16]
        np.subtract(z, first, out=num)
        np.multiply(first.conjugate(), z, out=den)
        np.subtract(1.0, den, out=den)
        for a in rest:
            np.subtract(z, a, out=factor)
            num *= factor
            np.multiply(a.conjugate(), z, out=factor)
            np.subtract(1.0, factor, out=factor)
            den *= factor
        out *= num
        out /= den
    return out


@pytest.mark.parametrize("origins", [0, 2])
@pytest.mark.parametrize("count", [1, 16, 17, 40])
def test_blaschke_eval_many_point_blocks_match_one_block(origins, count):
    rng = np.random.default_rng(21)
    roots = (1.0 - 10.0 ** rng.uniform(-8.0, 0.0, count)) * np.exp(
        2j * np.pi * rng.uniform(size=count)
    )
    roots = np.concatenate([np.zeros(origins), roots])
    # 2 blocks and a short one; every third point inside the disk, the
    # rest on the circle, so the strided views hold both
    n = 2 * _GRID_BLOCK + 7
    pts = np.exp(2j * np.pi * rng.uniform(size=2 * n))
    pts[::3] *= np.sqrt(rng.uniform(size=len(pts[::3])))
    shapes = {
        "1-d": pts[:n],
        "2-d": pts[:n].reshape(25, 1311),
        "0-d": pts[3],
        "empty": pts[:0],
        "strided 1-d": pts[::2],
        "strided 2-d": pts[:n].reshape(25, 1311).T,
    }
    for name, z in shapes.items():
        got = blaschke_eval_many(roots, z)
        assert got.shape == np.shape(z), name
        assert np.array_equal(got, _one_block_reference(roots, z)), name


def test_blaschke_eval_many_checks_every_root_before_reading_points():
    class Unreadable:
        def __array__(self, *args, **kwargs):
            raise AssertionError("points read before the roots were checked")

    with pytest.raises(DomainError):
        blaschke_eval_many([0.5] * 20 + [1.0], Unreadable())
