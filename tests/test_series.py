import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschke import (
    CoefficientSeries,
    DomainError,
    InvalidSeries,
    as_series,
    evaluate,
    evaluate_many,
    h2_norm_sq,
)
from blaschke.series import (
    add,
    deflate,
    divide_conjugate_linear,
    geometric_extension_cap,
    multiply,
    multiply_conjugate_linear,
    scale,
)
from oracles import (
    circle_mean_square,
    naive_deflate,
    naive_eval,
    naive_multiply,
    naive_recurrence,
)


def coeff_lists(max_len=12):
    num = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    return st.lists(
        st.builds(complex, num, num), min_size=1, max_size=max_len
    )


def test_construction_copies_and_freezes():
    raw = np.array([1.0, 2.0], dtype=complex)
    f = CoefficientSeries(raw)
    raw[0] = 99.0
    assert f.coeffs[0] == 1.0
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


def test_empty_series_is_zero():
    f = CoefficientSeries()
    assert len(f) == 0
    assert f.degree_cap == -1
    assert f.is_zero()
    assert f.constant == 0j


def test_nonfinite_rejected():
    with pytest.raises(InvalidSeries):
        CoefficientSeries([1.0, np.nan])
    with pytest.raises(InvalidSeries):
        CoefficientSeries([np.inf])
    with pytest.raises(InvalidSeries):
        CoefficientSeries([complex(0.0, np.inf)])


def test_trim_drops_trailing_zeros_only():
    f = CoefficientSeries([0.0, 1.0, 0.0, 0.0])
    t = f.trim()
    assert len(t) == 2
    assert t.coeffs[0] == 0.0
    assert CoefficientSeries([0.0, 0.0]).trim().degree_cap == -1


def test_tolerant_equality():
    a = CoefficientSeries([1.0, 2.0])
    b = CoefficientSeries([1.0, 2.0, 0.0])
    assert a == b
    assert a == CoefficientSeries([1.0 + 1e-12, 2.0])
    assert a != CoefficientSeries([1.0 + 1e-6, 2.0])
    assert CoefficientSeries() == CoefficientSeries([0.0])


def test_json_round_trip():
    f = CoefficientSeries([1 + 2j, -0.25])
    back = CoefficientSeries.from_json_dict(f.to_json_dict())
    assert np.array_equal(back.coeffs, f.coeffs)
    with pytest.raises(InvalidSeries):
        CoefficientSeries.from_json_dict({"coeffs": "nope"})
    with pytest.raises(InvalidSeries):
        CoefficientSeries.from_json_dict({})


def test_evaluate_geometric_fixture():
    # 1 + z + z^2 + z^3 at z = 1/2 is 15/8
    assert evaluate(as_series([1, 1, 1, 1]), 0.5) == pytest.approx(1.875)


def test_evaluate_outside_disk_rejected():
    with pytest.raises(DomainError):
        evaluate(as_series([1.0]), 1.5)


def test_evaluate_many_matches_scalar():
    f = as_series([0.5, -1.0, 2.0, 0.25j])
    pts = np.exp(1j * np.linspace(0.0, 2 * np.pi, 7))
    vals = evaluate_many(f, pts)
    for z, v in zip(pts, vals):
        assert v == pytest.approx(naive_eval(f.coeffs, z), abs=1e-12)


@given(coeff_lists(), coeff_lists())
def test_multiply_matches_naive(a, b):
    cap = len(a) + len(b) - 2
    fast = multiply(as_series(a), as_series(b), cap)
    slow = naive_multiply(a, b)
    assert len(fast) == cap + 1
    assert np.allclose(fast.coeffs, slow[: cap + 1], atol=1e-9)


def test_multiply_truncates_to_cap():
    f = multiply(as_series([1, 1, 1]), as_series([1, 1, 1]), 2)
    assert np.allclose(f.coeffs, [1, 2, 3])


def test_add_and_scale():
    s = add(as_series([1, 2]), as_series([0, 0, 3]))
    assert np.allclose(s.coeffs, [1, 2, 3])
    assert np.allclose(scale(as_series([1, -2]), 2j).coeffs, [2j, -4j])


def test_deflate_quadratic_fixture():
    # (z - 1/2)(z - 1/3) divided by (z - 1/2)
    f = as_series([1 / 6, -5 / 6, 1.0])
    q, r = deflate(f, 0.5)
    assert np.allclose(q.coeffs, [-1 / 3, 1.0])
    assert abs(r) < 1e-15


@given(coeff_lists(max_len=8), st.floats(min_value=-0.9, max_value=0.9))
def test_deflate_matches_polydiv(coeffs, alpha):
    f = as_series(coeffs).trim()
    if len(f) < 2:
        return
    q, r = deflate(f, alpha)
    q_ref, r_ref = naive_deflate(f.coeffs, alpha)
    assert np.allclose(q.padded(len(q_ref)), q_ref, atol=1e-9)
    assert abs(r - r_ref) < 1e-9


def test_deflate_reconstruction():
    rng = np.random.default_rng(3)
    f = as_series(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    alpha = 0.4 - 0.2j
    q, r = deflate(f, alpha)
    rebuilt = add(multiply(q, as_series([-alpha, 1.0]), f.degree_cap), as_series([r]))
    assert rebuilt == f


def _max_rel_err(got, want):
    want = np.asarray(want)
    return np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n", [4097, 65537])
@pytest.mark.parametrize("modulus", [0.0, 0.5, 0.999, 1 - 1e-9])
def test_recurrences_match_sequential_oracle_at_long_lengths(n, modulus):
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    alpha = modulus * np.exp(0.7j)
    q, r = deflate(coeffs, alpha)
    # deflation runs the recurrence from the top coefficient down
    want = naive_recurrence(alpha, coeffs[::-1])
    assert _max_rel_err(np.append(q.coeffs[::-1], r), want) <= 1e-12
    d = divide_conjugate_linear(coeffs, alpha, n - 1)
    assert _max_rel_err(d.coeffs, naive_recurrence(np.conj(alpha), coeffs)) <= 1e-12


def test_deflate_overflow_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeries):
            deflate(np.ones(1000), 5.0)
        # the same |alpha| with an exactly representable quotient
        q, r = deflate(np.r_[1.0, np.zeros(999)], 5.0)
    assert not np.any(q.coeffs) and r == 1.0


def test_multiply_conjugate_linear_fixture():
    g = multiply_conjugate_linear(as_series([-1 / 3, 1.0]), 0.5)
    assert np.allclose(g.coeffs, [-1 / 3, 7 / 6, -1 / 2])


def test_multiply_conjugate_linear_origin_keeps_length():
    f = as_series([2.0, 3.0])
    g = multiply_conjugate_linear(f, 0.0)
    assert len(g) == len(f)
    assert np.allclose(g.coeffs, f.coeffs)


def test_divide_conjugate_linear_inverts_multiply():
    rng = np.random.default_rng(11)
    f = as_series(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    alpha = 0.3 + 0.45j
    prod = multiply_conjugate_linear(f, alpha)
    back = divide_conjugate_linear(prod, alpha, f.degree_cap)
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-12)


def test_divide_conjugate_linear_geometric_tail():
    # 1/(1 - 0.5 z) has coefficients 0.5^n
    d = divide_conjugate_linear(as_series([1.0]), 0.5, 10)
    assert np.allclose(d.coeffs, 0.5 ** np.arange(11))


def test_h2_norm_matches_boundary_mean():
    f = as_series([0.3, -0.7, 0.2 + 0.1j, 0.05])
    assert h2_norm_sq(f) == pytest.approx(circle_mean_square(f.coeffs), rel=1e-12)


def test_h2_fixture():
    f = as_series([1 / 6, -5 / 6, 1.0])
    assert h2_norm_sq(f) == pytest.approx(62 / 36, rel=1e-15)


def test_h2_norm_past_the_double_range_is_inf_without_warning():
    # pyproject.toml's filterwarnings turns a leaked RuntimeWarning into an error
    assert h2_norm_sq(as_series([1e200])) == np.inf


def test_geometric_extension_cap_tail_is_negligible():
    cap = geometric_extension_cap(4, [0.9])
    assert cap > 4
    # remaining geometric mass beyond the cap, with the polynomial
    # safety factor used by the estimate
    tail = 0.9 ** (2 * (cap - 4)) * (cap + 2) ** 2
    assert tail <= 1e-18


def test_geometric_extension_cap_no_roots():
    assert geometric_extension_cap(5, []) == 5
