import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschke import (
    CoefficientSeries,
    InvalidSeries,
    as_series,
    decompose,
    h2_norm_sq,
)
from blaschke.series import (
    _first_order_recurrence,
    deflate,
    divide_conjugate_linear,
    evaluate_many,
    multiply,
    multiply_conjugate_linear,
)
from oracles import (
    add,
    circle_mean_square,
    naive_deflate,
    naive_eval,
    naive_multiply,
    naive_recurrence,
    series_close,
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


def test_equality_is_exact_after_trimming():
    a = CoefficientSeries([1.0, 2.0])
    assert a == CoefficientSeries([1.0, 2.0, 0.0])
    assert CoefficientSeries() == CoefficientSeries([0.0])
    # both pairs lie within 1e-10 of each other, and neither is equal
    assert CoefficientSeries([1e-12]) != CoefficientSeries([-1e-12])
    assert CoefficientSeries([1.0]) != CoefficientSeries([1.0 + 1e-12])


def test_json_round_trip():
    f = CoefficientSeries([1 + 2j, -0.25])
    back = CoefficientSeries.from_json_dict(f.to_json_dict())
    assert np.array_equal(back.coeffs, f.coeffs)
    with pytest.raises(InvalidSeries):
        CoefficientSeries.from_json_dict({"coeffs": "nope"})
    with pytest.raises(InvalidSeries):
        CoefficientSeries.from_json_dict({})


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
    assert series_close(rebuilt, f)


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


@pytest.mark.parametrize(
    "x",
    [
        np.zeros(0, dtype=complex),
        np.zeros(9, dtype=complex),
        np.r_[0.0, 0.0, 0.0, 1.5 - 2j, 0.0, 3.0, -1j, 0.25, 2.0, 0.0],
        np.r_[1.0 + 1j, 0.0, 0.0, -2.0, 0.5j, 0.0, 1.0, 3.0],
    ],
    ids=["empty", "all-zero", "leading-zeros", "nonzero-first"],
)
def test_first_order_recurrence_matches_sequential_oracle(x):
    # the leading-zeros input takes the branch that skips to the first
    # nonzero entry; the others scan from the start
    x_before = x.copy()
    mult = 0.9 * np.exp(0.4j)
    got = _first_order_recurrence(mult, x)
    assert np.array_equal(x, x_before)
    assert got.shape == x.shape
    nonzero = np.flatnonzero(x)
    first = nonzero[0] if nonzero.size else len(x)
    assert not np.any(got[:first])
    want = naive_recurrence(mult, x)
    if nonzero.size:
        assert _max_rel_err(got, want) <= 1e-14
    else:
        assert np.array_equal(got, np.asarray(want, dtype=complex))


def test_deflate_overflow_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeries):
            deflate(np.ones(1000), 5.0)
        # the same |alpha| with an exactly representable quotient
        q, r = deflate(np.r_[1.0, np.zeros(999)], 5.0)
    assert not np.any(q.coeffs) and r == 1.0


@pytest.mark.parametrize("length", [1, 2, 64])
def test_deflate_by_the_origin_is_the_scan_bit_for_bit(length):
    # by a root at 0 deflate shifts the coefficients without scanning;
    # the scan by 0 gives the same bits where no coefficient is exactly 0
    rng = np.random.default_rng(length)
    f = as_series(rng.standard_normal(length) + 1j * rng.standard_normal(length))
    scan = _first_order_recurrence(0j, f.coeffs[::-1])
    quotient, remainder = deflate(f, 0.0)
    assert quotient.coeffs.tobytes() == scan[:-1][::-1].tobytes()
    assert np.complex128(remainder).tobytes() == scan[-1].tobytes()


# each kernel on f = (z - 0.5)(z + 0.25i)(z - 2) and on an input whose
# result leaves the double range, where it has one: B's coefficients are
# bounded by its Hardy norm, 1, so blaschke_series has none
KERNELS = {
    "deflate": (lambda f: deflate(f, 0.5)[0], lambda: deflate(np.full(3, 1e308), 0.999)),
    "divide_conjugate_linear": (
        lambda f: divide_conjugate_linear(f, 0.5, 9),
        lambda: divide_conjugate_linear(np.full(4, 1e308), 0.999, 9),
    ),
    "multiply": (lambda f: multiply(f, f, 5), lambda: multiply(np.full(3, 1e200), [1e200], 2)),
    "multiply_conjugate_linear": (
        lambda f: multiply_conjugate_linear(f, 0.5),
        lambda: multiply_conjugate_linear(np.full(3, 1e308), -0.999),
    ),
    # the factor is 1: the result holds f's own coefficients
    "multiply_conjugate_linear-at-0": (lambda f: multiply_conjugate_linear(f, 0.0), None),
    "blaschke_series": (lambda f: decompose(f).blaschke_series(9), None),
}


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_results_are_frozen_copies_and_reject_overflow(name):
    run, overflow = KERNELS[name]
    f = as_series(np.convolve(np.convolve([-0.5, 1.0], [0.25j, 1.0]), [-2.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, second = run(f), run(f)
        if overflow is not None:
            with pytest.raises(InvalidSeries):
                overflow()
    assert not first.coeffs.flags.writeable
    assert not np.shares_memory(first.coeffs, f.coeffs)
    assert not np.shares_memory(first.coeffs, second.coeffs)
    assert np.array_equal(first.coeffs, second.coeffs)


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
