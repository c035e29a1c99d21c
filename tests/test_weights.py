import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschke import (
    InvalidSpec,
    WeightSequence,
    as_series,
    classify,
    h2_norm_sq,
    x_norm_sq,
    y_seminorm_sq,
)
from blaschke.weights import _FAMILIES, dirichlet_norm_sq, hardy_sobolev_norm_sq
from oracles import gamma_reference, naive_x_norm_sq, naive_y_seminorm_sq

def zeta(s: float) -> float:
    """Riemann zeta at s, to 40 digits, rounded to a float."""
    with mpmath.workdps(40):
        return float(mpmath.zeta(s))


FAMILIES = [
    ("dirichlet", None, WeightSequence.dirichlet()),
    ("sobolev_square", None, WeightSequence.sobolev_square()),
    ("constant_step", 2.5, WeightSequence.constant_step(2.5)),
    ("indicator", 3, WeightSequence.indicator(3)),
    ("concave_power_sum", 1.5, WeightSequence.concave_power_sum(1.5)),
]


@pytest.mark.parametrize("family,param,w", FAMILIES)
def test_gammas_match_defining_formulas(family, param, w):
    got = w.gammas(20)
    want = gamma_reference(family, param, 20)
    assert np.allclose(got, want, atol=1e-12)
    assert got[0] == 0.0
    assert np.all(np.diff(got) >= 0)


def test_gammas_cache_growth():
    w = WeightSequence.dirichlet()
    assert w.gammas(4)[3] == 3.0
    assert w.gammas(41)[40] == 40.0
    assert np.array_equal(w.gammas(4), [0.0, 1.0, 2.0, 3.0])


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidSpec):
        WeightSequence.constant_step(0.0)
    with pytest.raises(InvalidSpec):
        WeightSequence.constant_step(-1.0)
    with pytest.raises(InvalidSpec):
        WeightSequence.indicator(0)
    with pytest.raises(InvalidSpec):
        WeightSequence.concave_power_sum(0.0)
    with pytest.raises(InvalidSpec):
        WeightSequence("no_such_family")


def test_integer_parameters_are_checked_not_truncated():
    # k = 2.5 used to run as k = 2 from the factory and as a weight from
    # n = 3 on from a parameter mapping; integral values of any type still serve
    for make in (
        WeightSequence.indicator,
        lambda k: WeightSequence("indicator", {"k": k}),
    ):
        for k in (2.5, np.float64(2.5), True, float("nan"), float("inf"), "3"):
            with pytest.raises(InvalidSpec):
                make(k)
        for k in (3, 3.0, np.int64(3), np.float64(3.0)):
            w = make(k)
            assert w == WeightSequence.indicator(3) and type(w.params["k"]) is int
            assert np.array_equal(w.gammas(6), [0, 0, 0, 1, 1, 1])


def test_table_validation_and_extension():
    w = WeightSequence.table([0.0, 1.0, 1.5])
    assert np.allclose(w.gammas(6), [0.0, 1.0, 1.5, 1.5, 1.5, 1.5])
    with pytest.raises(InvalidSpec):
        WeightSequence.table([1.0, 2.0])  # gamma_0 must be 0
    with pytest.raises(InvalidSpec):
        WeightSequence.table([0.0, 2.0, 1.0])  # decreasing
    with pytest.raises(InvalidSpec):
        WeightSequence.table([])


def test_parse_round_trip():
    assert WeightSequence.parse("dirichlet") == WeightSequence.dirichlet()
    assert WeightSequence.parse("constant_step:2.5") == WeightSequence.constant_step(2.5)
    assert WeightSequence.parse("indicator:3") == WeightSequence.indicator(3)
    w = WeightSequence.parse("concave_power_sum:1.5")
    assert w == WeightSequence.concave_power_sum(1.5)
    with pytest.raises(InvalidSpec):
        WeightSequence.parse("fibonacci")


def test_parse_reads_the_argument_as_a_number():
    # int("3.0") used to refuse the k that indicator(3.0) accepts
    w = WeightSequence.parse("indicator:3.0")
    assert w == WeightSequence.indicator(3) and type(w.params["k"]) is int


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: WeightSequence.parse("indicator:2.5"), "2.5"),
        (lambda: WeightSequence.parse("constant_step:abc"), "constant_step:abc"),
        (lambda: WeightSequence.parse("dirichlet:5"), "dirichlet:5"),
        (lambda: WeightSequence("constant_step", {"c": "2"}), "'2'"),
        (lambda: WeightSequence("constant_step", {"c": True}), "True"),
        (lambda: WeightSequence("dirichlet", {"x": 1}), "'x'"),
    ],
    ids=[
        "parse-fractional-k",
        "parse-non-number",
        "parse-argument-without-parameter",
        "string-c",
        "bool-c",
        "unknown-parameter",
    ],
)
def test_weight_parameters_are_checked_in_one_place(make, match):
    # each used to raise a plain ValueError or a TypeError, or to run with
    # the value dropped or kept unchecked
    with pytest.raises(InvalidSpec, match=match):
        make()


def test_descriptor_round_trip():
    for _, _, w in FAMILIES:
        assert WeightSequence(**w.describe()) == w


def test_classification_dirichlet():
    c = classify(WeightSequence.dirichlet())
    assert c.convex and c.concave and c.constant_step
    assert not c.bounded and c.limit is None and not c.tail_summable


def test_classification_sobolev():
    c = classify(WeightSequence.sobolev_square())
    assert c.convex and not c.concave and not c.constant_step
    assert not c.bounded


def test_classification_indicator():
    c1 = classify(WeightSequence.indicator(1))
    assert c1.concave and not c1.convex
    assert c1.bounded and c1.limit == 1.0 and c1.tail_summable
    c3 = classify(WeightSequence.indicator(3))
    assert not c3.convex and not c3.concave
    assert c3.bounded and c3.tail_summable


def test_classification_power_sum():
    c3 = classify(WeightSequence.concave_power_sum(3.0))
    assert c3.concave and not c3.convex
    assert c3.bounded and c3.tail_summable
    assert c3.limit == pytest.approx(zeta(3.0), rel=1e-12)

    c15 = classify(WeightSequence.concave_power_sum(1.5))
    assert c15.concave and c15.bounded and not c15.tail_summable

    c2 = classify(WeightSequence.concave_power_sum(2.0))
    assert c2.bounded and not c2.tail_summable

    c_half = classify(WeightSequence.concave_power_sum(0.5))
    assert c_half.concave and not c_half.bounded


@pytest.mark.parametrize("beta", [1.01, 1.5, 2.0, 2.5, 3.0, 4.0, 10.0])
def test_power_sum_limit_is_zeta(beta):
    limit = classify(WeightSequence.concave_power_sum(beta)).limit
    assert limit == pytest.approx(zeta(beta), rel=1e-13)


def test_classification_table():
    c = classify(WeightSequence.table([0.0, 1.0, 1.5, 1.75]))
    assert c.concave and not c.convex and c.bounded
    flat = classify(WeightSequence.table([0.0, 0.0, 0.0]))
    assert flat.convex and flat.concave


def test_classification_reads_every_table_value():
    # concave steps j^-3 up to j = 150, then each step 0.5 larger
    steps = np.arange(1, 400) ** -3.0
    steps[150:] += 0.5
    c = classify(WeightSequence.table(np.concatenate([[0.0], np.cumsum(steps)])))
    assert not c.concave and not c.convex


def test_classification_sees_the_first_held_value():
    # steps 1, 2, 3; the held value adds a step of 0 after them
    values = [0.0, 1.0, 3.0, 6.0]
    assert not classify(WeightSequence.table(values)).convex


@pytest.mark.parametrize("family,param,w", FAMILIES)
def test_norms_match_naive_sums(family, param, w):
    rng = np.random.default_rng(5)
    f = as_series(rng.standard_normal(10) + 1j * rng.standard_normal(10))
    gammas = gamma_reference(family, param, 11)
    assert x_norm_sq(f, w) == pytest.approx(naive_x_norm_sq(f.coeffs, gammas), rel=1e-12)
    assert y_seminorm_sq(f, w) == pytest.approx(
        naive_y_seminorm_sq(f.coeffs, gammas), rel=1e-12
    )


def test_x_norm_quadratic_fixture():
    w = WeightSequence.dirichlet()
    assert x_norm_sq(as_series([1 / 6, -5 / 6, 1.0]), w) == pytest.approx(97 / 36)
    assert x_norm_sq(as_series([1.0, -5 / 6, 1 / 6]), w) == pytest.approx(27 / 36)


def test_indicator_picks_out_tail_energy():
    f = as_series([3.0, 4.0, 5.0, 6.0])
    w = WeightSequence.indicator(2)
    assert x_norm_sq(f, w) == pytest.approx(25.0 + 36.0)
    assert y_seminorm_sq(f, w) == pytest.approx(16.0)  # only the n=1 step is nonzero


@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=10),
    st.floats(min_value=0.1, max_value=4.0),
)
def test_constant_step_y_is_scaled_h2(coeffs, c):
    f = as_series(coeffs)
    w = WeightSequence.constant_step(c)
    assert y_seminorm_sq(f, w) == pytest.approx(c * h2_norm_sq(f), rel=1e-12, abs=1e-12)


@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=12))
def test_hardy_sobolev_splitting(coeffs):
    f = as_series(coeffs)
    lhs = hardy_sobolev_norm_sq(f)
    rhs = x_norm_sq(f, WeightSequence.sobolev_square()) + h2_norm_sq(f)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_dirichlet_norm_formula():
    f = as_series([1.0, 2.0, 3.0])
    assert dirichlet_norm_sq(f) == pytest.approx(1 + 2 * 4 + 3 * 9)
    assert hardy_sobolev_norm_sq(f) == pytest.approx(1 + 2 * 4 + 5 * 9)


@pytest.mark.parametrize(
    "w",
    [WeightSequence.parse(name) for name in _FAMILIES]
    + [WeightSequence.table([0.0, 1.0, 1.5, 1.75])],
    ids=repr,
)
def test_steps_are_the_differences_of_gammas(w):
    # grow, read a prefix, grow again: every read is the fresh difference
    for n in (0, 1, 2, 40, 1, 20):
        assert np.array_equal(w.steps(n), np.diff(w.gammas(n + 1)))
