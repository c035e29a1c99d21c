import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschke import (
    ConvergenceError,
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
from blaschke.decomposition import blaschke_eval_many, reflection_identity_gap
from blaschke.series import multiply
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
    # degree 70 forces the iterative root finder
    rng = np.random.default_rng(23)
    radii = np.sqrt(rng.uniform(0.2**2, 0.8**2, 70))
    roots = radii * np.exp(2j * np.pi * rng.uniform(size=70))
    rs = find_roots_in_disk(poly_from_roots(roots))
    assert len(rs) == 70
    found = np.sort_complex(np.array(rs.roots))
    planted = np.sort_complex(roots)
    assert np.max(np.abs(found - planted)) < 1e-6


def test_aberth_overflow_raises_at_once_without_warnings():
    # at degree 511 this input drives the simultaneous iteration out of
    # the floating-point range; the solver must say so, not warn and spin
    spec = InstanceSpec(root_count=128, root_radius=(0.1, 0.9), degree_cap=511, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match=r"overflowed at round \d+ \(degree \d+\)"):
            find_roots_in_disk(generate_instance(spec))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


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
