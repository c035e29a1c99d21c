import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blaschke import (
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
    find_roots_in_disk,
    generate_instance,
    h2_norm_sq,
    reflect_root,
    x_norm_sq,
)
from blaschke import decomposition
from blaschke.decomposition import (
    _horner_pair,
    _interior_zero_count,
    blaschke_eval_many,
    reflection_identity_gap,
)
from blaschke.series import horner, multiply
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


# a zero 5e-4 outside the circle needs a grid past 2^15 points on
# |z| = 1 + margin; at margin 1e-3 it is 5e-4 inside and near the boundary
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
    data = rs.to_json_dict(phase=np.pi)
    back, phase = RootSet.from_json_dict(data)
    assert phase == pytest.approx(np.pi)
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
    roots = [0.5, -0.2 + 0.3j]
    for z in [0.0, 0.3 - 0.4j, np.exp(0.7j)]:
        got = blaschke_eval(roots, 0.9, 2, z)
        want = naive_blaschke_at(z, roots, phase=0.9, origin_multiplicity=2)
        assert got == pytest.approx(want, abs=1e-13)


def test_blaschke_eval_unimodular_on_boundary():
    roots = [0.5, -0.2 + 0.3j, 0.8j]
    pts = np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
    vals = blaschke_eval_many(roots, 0.0, 1, pts)
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


def test_blaschke_eval_many_takes_a_root_set():
    rs = RootSet.ordered([0.5, -0.2 + 0.3j, 0j, 0.8j])
    pts = np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False)) * 0.9
    got = blaschke_eval_many(rs, 0.4, 1, pts)
    assert np.array_equal(got, blaschke_eval_many(rs.roots, 0.4, 1, pts))


def test_blaschke_eval_rejects_noncontractive_factor():
    with pytest.raises(DomainError):
        blaschke_eval([1.0], 0.0, 0, 0.5)


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
