import json
import tracemalloc

import numpy as np
import pytest

from blaschke import (
    BlaschkeConditionViolated,
    CapTooLarge,
    DomainError,
    InstanceSpec,
    InvalidSpec,
    KTooSmall,
    WeightClassMismatch,
    WeightSequence,
    as_series,
    boundary_accumulating_roots,
    decompose,
    default_instance_schedule,
    find_roots_in_disk,
    generate_instance,
    run_sweep,
    verify_corollary1,
    verify_corollary2,
    verify_lemma10_chain,
    verify_prop_reflect,
    verify_qian_tail,
    verify_single_root,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3_truncated,
    x_norm_sq,
    y_seminorm_sq,
)
from blaschke import verify as verify_module
from blaschke.series import (
    deflate,
    divide_conjugate_linear,
    multiply,
)
from blaschke.verify import CLAIM_TABLE, CLAIMS, DEFAULT_TOLS, _circle_grid
from oracles import geometric_extension_cap, instance_roots

QUADRATIC = as_series([1 / 6, -5 / 6, 1.0])
DIRICHLET = WeightSequence.dirichlet()


def test_claims_tuple_is_complete():
    assert CLAIMS == (
        "prop_reflect",
        "single_root",
        "lemma10_chain",
        "theorem1",
        "corollary1",
        "corollary2",
        "theorem2",
        "theorem3_truncated",
        "qian_tail_identity",
        "qian_tail_inequality",
    )
    assert set(DEFAULT_TOLS) == set(CLAIMS)


def test_prop_reflect_quadratic():
    r = verify_prop_reflect(QUADRATIC, WeightSequence.sobolev_square())
    assert r.passed and r.kind == "identity"
    assert r.lhs == pytest.approx(29 / 36)
    assert r.slack < 1e-14


def test_worst_step_ignores_last_bit_changes():
    # instance 7 of the seed-7 sweep (two roots, degree 4): its steps'
    # gaps sit at rounding level, so scaling the input by 1 + 2u must
    # leave the reported worst step and worst prefix where they are
    i = 7
    f = generate_instance(default_instance_schedule(100, seed=7)[i])
    scaled = as_series(f.coeffs * (1 + 2 * 2.0**-52))
    for claim, checker, key in (
        ("prop_reflect", verify_prop_reflect, "worst_step"),
        ("lemma10_chain", verify_lemma10_chain, "worst_prefix"),
    ):
        row = CLAIM_TABLE[claim]
        w = row.palette[(i + row.offset) % len(row.palette)]
        assert checker(scaled, w).context[key] == checker(f, w).context[key]


def test_prop_reflect_root_free_is_trivial():
    r = verify_prop_reflect(as_series([1.0, 0.2]), DIRICHLET)
    assert r.passed
    assert r.lhs == r.rhs
    assert "trivial" in r.context["note"]


def test_lemma10_chain_quadratic():
    r = verify_lemma10_chain(QUADRATIC, WeightSequence.sobolev_square())
    assert r.passed
    assert r.lhs == pytest.approx(29 / 36)
    assert r.rhs == pytest.approx(29 / 36)


def test_single_root_requires_exactly_one():
    with pytest.raises(InvalidSpec):
        verify_single_root(QUADRATIC, DIRICHLET)
    r = verify_single_root(as_series([-0.6, 1.0]), DIRICHLET)
    assert r.passed
    assert r.lhs == pytest.approx(0.36)
    assert r.rhs == pytest.approx(0.36)


def test_theorem1_quadratic_dirichlet():
    r = verify_theorem1(QUADRATIC, DIRICHLET)
    assert r.passed and r.kind == "inequality"
    assert r.lhs == pytest.approx(0.75)
    # constant steps make the bound an identity
    assert abs(r.rhs - r.lhs) < 1e-12


def test_theorem1_rejects_concave_only_weight():
    with pytest.raises(WeightClassMismatch):
        verify_theorem1(QUADRATIC, WeightSequence.indicator(2))


def test_theorem1_rejects_boundary_roots():
    f = as_series(np.convolve([-1.0, 1.0], [-0.3, 1.0]))
    with pytest.raises(DomainError):
        verify_theorem1(f, DIRICHLET)


def test_corollary1_quadratic_exact():
    r = verify_corollary1(QUADRATIC, DIRICHLET)
    assert r.passed and r.kind == "identity"
    assert r.lhs == pytest.approx(27 / 36, abs=1e-12)
    assert r.rhs == pytest.approx(27 / 36, abs=1e-12)


def test_corollary1_rejects_nonconstant_step():
    with pytest.raises(WeightClassMismatch):
        verify_corollary1(QUADRATIC, WeightSequence.sobolev_square())


def test_corollary2_monomial():
    r = verify_corollary2(as_series([0.0, 1.0]))
    assert r.passed
    assert r.lhs == pytest.approx(1.0)
    assert r.rhs == pytest.approx(1.0)


def test_theorem2_quadratic_indicator():
    r = verify_theorem2(QUADRATIC, WeightSequence.indicator(1))
    assert r.passed and r.kind == "inequality"
    assert r.lhs == pytest.approx(26 / 36)
    assert r.rhs == pytest.approx(50 / 36)


def test_theorem2_rejects_convex_only_weight():
    with pytest.raises(WeightClassMismatch):
        verify_theorem2(QUADRATIC, WeightSequence.sobolev_square())


def test_qian_tail_quadratic():
    ident, ineq = verify_qian_tail(QUADRATIC, 2)
    assert ident.claim == "qian_tail_identity"
    assert ineq.claim == "qian_tail_inequality"
    assert ident.passed and ineq.passed
    assert ident.lhs == pytest.approx(1 / 36)
    assert ineq.lhs == pytest.approx(1 / 36)
    assert ineq.rhs == pytest.approx(1.0)


def test_qian_tail_k_validation():
    with pytest.raises(InvalidSpec):
        verify_qian_tail(QUADRATIC, 0)


def test_qian_tail_cutoff_of_another_type_is_refused():
    # "2" used to fail the k < 1 test with a TypeError
    with pytest.raises(InvalidSpec, match="'2'"):
        verify_qian_tail(QUADRATIC, "2")


def test_qian_tail_cutoff_is_checked_not_truncated():
    # k = 2.5 used to run the claim at k = 2
    with pytest.raises(InvalidSpec, match="2.5"):
        verify_qian_tail(QUADRATIC, 2.5)
    want = verify_qian_tail(QUADRATIC, 2)
    for k in (2.0, np.int64(2)):
        got = verify_qian_tail(QUADRATIC, k)
        assert [(r.lhs, r.rhs, r.context["k"]) for r in got] == [
            (r.lhs, r.rhs, 2) for r in want
        ]


def test_report_json_key_order():
    r = verify_corollary1(QUADRATIC, DIRICHLET)
    keys = list(r.to_json_dict())
    assert keys[:5] == ["claim", "kind", "passed", "lhs", "rhs"]
    json.dumps(r.to_json_dict())  # must be serializable as is


def test_boundary_accumulating_roots_shape():
    rs = boundary_accumulating_roots(12)
    assert len(rs) == 12
    mags = np.array([abs(a) for a in rs.roots])
    assert np.all(np.diff(mags) > 0)
    assert np.all(mags < 1.0)
    # radii approach 1 quadratically
    assert 1.0 - mags[-1] == pytest.approx(1.0 / 13**2)


def test_theorem3_truncated_small_run():
    roots = boundary_accumulating_roots(8)
    reports = verify_theorem3_truncated(
        roots, as_series([1.0]), WeightSequence.concave_power_sum(3.0), caps=[2, 4, 8]
    )
    assert [r.context["cap"] for r in reports] == [2, 4, 8]
    for r in reports:
        assert r.passed
        assert r.claim == "theorem3_truncated"
        partial = r.context["correction_partial_sums"]
        assert all(b >= a - 1e-15 for a, b in zip(partial, partial[1:]))
        assert r.context["roundtrip_error"] <= 1e-10
        assert r.context["corrections_bounded_by_x"]


def _table(steps):
    return WeightSequence.table(np.concatenate([[0.0], np.cumsum(steps)]))


def test_theorem3_refuses_a_table_concave_only_on_a_prefix():
    # concave steps j^-3 up to j = 150, then each step 0.5 larger
    steps = np.arange(1, 400) ** -3.0
    steps[150:] += 0.5
    with pytest.raises(WeightClassMismatch):
        verify_theorem3_truncated(boundary_accumulating_roots(40, 1.5), [1.0], _table(steps), [5])


def test_theorem1_refuses_a_table_convex_only_on_a_prefix():
    # steps 1 + j/100 grow up to j = 150, then drop to 0.5
    j = np.arange(400)
    with pytest.raises(WeightClassMismatch):
        verify_theorem1(QUADRATIC, _table(np.where(j < 150, 1 + j / 100, 0.5)))


def test_theorem3_fast_approach_round_trip_is_faithful():
    # radii 1 - 1/(j+1)^3 reach 1 - 1/21^3: the section's coefficients
    # decay so slowly that the projection cap runs past 2^16
    roots = boundary_accumulating_roots(20, exponent=3.0)
    g = as_series([1.0, 0.5, 0.25, 0.125])
    (r,) = verify_theorem3_truncated(roots, g, WeightSequence.concave_power_sum(3.0), caps=[20])
    assert r.passed
    assert r.context["roundtrip_error"] <= 1e-10


def test_theorem3_roots_at_origin_give_the_shifted_polynomial():
    # B_2 = z^2, so F_2 = z^2 g has degree len(g) + 1 and the projection
    # cap len(g) + 2 carries it whole
    w = WeightSequence.concave_power_sum(3.0)
    g = as_series([1.0, 0.5])
    (r,) = verify_theorem3_truncated([0j, 0j], g, w, caps=[2])
    assert r.context["x_truncated"] == x_norm_sq(as_series([0.0, 0.0, 1.0, 0.5]), w)


def test_theorem3_section_matches_series_synthesis():
    w = WeightSequence.concave_power_sum(3.0)
    g = as_series([1.0])
    for k in range(1, 9):
        # (1 - conj(b) z) with |b| < 1 keeps every zero of g outside the disk
        g = multiply(g, [1.0, -np.conj(0.7 * np.exp(1j * k))], k)
    roots = boundary_accumulating_roots(12, exponent=2.0)
    (r,) = verify_theorem3_truncated(roots, g, w, caps=[12])
    cap = r.context["projection_cap"]
    section = g
    for alpha in roots:
        section = divide_conjugate_linear(multiply(section, [-alpha, 1.0], cap), alpha, cap)
    assert r.context["x_truncated"] == pytest.approx(x_norm_sq(section, w), rel=1e-12)
    assert r.context["roundtrip_error"] <= 1e-12
    n = r.context["sample_count"]
    predicted = verify_module._predicted_section_cap(len(g) + 12, roots.roots)
    assert n == verify_module._grid_size(2 * (predicted + 1)) >= 2 * (cap + 1)


def _series_section(roots, g, w, cap):
    # F_K = B_K g by series synthesis at cap, with the partial sums of
    # its per-root corrections, as verify_theorem3_truncated defines them
    section = g
    for alpha in roots:
        section = divide_conjugate_linear(multiply(section, [-alpha, 1.0], cap), alpha, cap)
    terms = [
        (1.0 - abs(alpha) ** 2) * y_seminorm_sq(deflate(section, alpha)[0], w)
        for alpha in roots
    ]
    return x_norm_sq(section, w), np.cumsum(terms)


@pytest.mark.parametrize(
    "count, exponent, g_degree",
    [
        (5, 3.0, 0), (8, 2.5, 3), (10, 2.0, 6), (15, 1.5, 0), (20, 2.0, 2), (30, 1.5, 4),
        (12, 2.0, 40),
    ],
)
def test_theorem3_section_agrees_with_series_synthesis_at_the_extension_cap(
    count, exponent, g_degree
):
    # the cap chosen from the section's spectrum drops only what the
    # a-priori extension cap also carries to rounding level
    w = WeightSequence.concave_power_sum(2.5)
    g = _zero_free(g_degree)
    roots = boundary_accumulating_roots(count, exponent)
    (r,) = verify_theorem3_truncated(roots, g, w, caps=[count])
    assert r.passed
    assert r.context["roundtrip_error"] <= 2 * verify_module._SECTION_EPS
    ref_cap = geometric_extension_cap(len(g) + count, roots.roots)
    assert r.context["projection_cap"] < ref_cap
    x_ref, partial_ref = _series_section(roots.roots, g, w, ref_cap)
    assert r.context["x_truncated"] == pytest.approx(x_ref, rel=1e-12)
    assert np.allclose(r.context["correction_partial_sums"], partial_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("modulus, grid", [(0.99, 8000), (0.995, 16200)])
def test_theorem3_clustered_roots_need_one_grid(monkeypatch, modulus, grid):
    # three equal roots give B coefficients like n^2 |a|^n: the predicted
    # cap counts them as one triple pole, so one grid carries the section
    roots = [modulus * np.exp(0.1j)] * 3
    calls = []
    section = verify_module._section
    monkeypatch.setattr(
        verify_module, "_section", lambda *args: calls.append(args[2]) or section(*args)
    )
    (r,) = verify_theorem3_truncated(roots, [1.0], WeightSequence.concave_power_sum(3.0), [3])
    assert r.passed
    assert r.context["roundtrip_error"] <= 2 * verify_module._SECTION_EPS
    assert calls == [grid] and r.context["sample_count"] == grid


def test_theorem3_regrows_an_underpredicted_section(monkeypatch):
    # predicted as one simple pole, the triple root's spectrum runs past
    # the cap: the regrow doubles the grid and projects to its Nyquist
    # limit, and the round trip then certifies the cap
    roots = [0.995 * np.exp(0.1j)] * 3
    w = WeightSequence.concave_power_sum(3.0)
    (ref,) = verify_theorem3_truncated(roots, [1.0], w, [3])
    predict = verify_module._predicted_section_cap
    first = verify_module._grid_size(2 * (predict(4, roots[:1]) + 1))
    # the section run directly on the regrown grid
    regrown, _ = verify_module._section(roots, as_series([1.0]), 2 * first, first - 1)
    project = verify_module.project_coefficients
    caps = []
    monkeypatch.setattr(verify_module, "_predicted_section_cap", lambda b, sub: predict(b, sub[:1]))
    monkeypatch.setattr(
        verify_module, "project_coefficients", lambda s, cap: caps.append(cap) or project(s, cap)
    )
    (r,) = verify_theorem3_truncated(roots, [1.0], w, [3])
    assert r.passed
    assert r.context["roundtrip_error"] <= 2 * verify_module._SECTION_EPS
    assert caps == [predict(4, roots[:1]), first - 1]
    assert r.context["sample_count"] == 2 * first
    assert r.context["projection_cap"] == len(regrown) - 1 > caps[0]
    assert r.context["x_truncated"] == pytest.approx(ref.context["x_truncated"], rel=1e-12)


def test_theorem3_reports_a_stalled_round_trip(monkeypatch):
    # a round trip that a doubled grid does not halve ends in a report
    # that carries it, after one regrow, not in a walk to the size limit
    section = verify_module._section
    grids = []

    def stalled(sub, g, n, cap):
        grids.append(n)
        return section(sub, g, n, cap)[0], 1e-9

    monkeypatch.setattr(verify_module, "_section", stalled)
    roots = boundary_accumulating_roots(6, 2.0)
    (r,) = verify_theorem3_truncated(roots, [1.0], WeightSequence.concave_power_sum(3.0), [6])
    assert r.context["roundtrip_error"] == 1e-9
    assert grids == [grids[0], 2 * grids[0]] and r.context["sample_count"] == grids[1]


def test_theorem3_refuses_a_regrow_past_the_size_limit(monkeypatch):
    # a round trip that keeps halving but never certifies ends in
    # CapTooLarge once the projection cap would pass the size limit
    section = verify_module._section
    errors = iter(0.5 ** k for k in range(1, 100))
    monkeypatch.setattr(verify_module, "_EXTENSION_MAX", 5000)
    monkeypatch.setattr(
        verify_module, "_section", lambda *args: (section(*args)[0], next(errors))
    )
    roots = boundary_accumulating_roots(4, 2.0)
    with pytest.raises(CapTooLarge):
        verify_theorem3_truncated(roots, [1.0], WeightSequence.concave_power_sum(3.0), [4])


def _zero_free(degree):
    # factors (1 - conj(b) z) with |b| = 0.9 keep every zero outside the disk
    g = as_series([1.0])
    for k in range(1, degree + 1):
        g = multiply(g, [1.0, -np.conj(0.9 * np.exp(1j * k))], k)
    return g


def _theorem3_section(g):
    roots = boundary_accumulating_roots(12, exponent=2.0)
    (r,) = verify_theorem3_truncated(roots, g, WeightSequence.concave_power_sum(3.0), caps=[12])
    return r


@pytest.mark.parametrize("degree", [0, 8, 40])
def test_theorem3_section_runs_one_transform_per_grid(monkeypatch, degree):
    # only B is on the grid and g enters by a coefficient product, so
    # whatever g's length the round trip of the projection is the one
    # transform a section runs
    g = _zero_free(degree)
    fft = verify_module.boundary_samples
    calls = []
    monkeypatch.setattr(
        verify_module, "boundary_samples", lambda f, n: calls.append(n) or fft(f, n)
    )
    r = _theorem3_section(g)
    assert r.passed
    assert calls == [r.context["sample_count"]]


def test_theorem3_rejects_slow_root_decay():
    # harmonic approach to the boundary fails the summability screen
    roots = boundary_accumulating_roots(16, exponent=1.0)
    with pytest.raises(BlaschkeConditionViolated):
        verify_theorem3_truncated(
            roots, as_series([1.0]), WeightSequence.concave_power_sum(3.0), caps=[4]
        )


def test_theorem3_rejects_unbounded_weight():
    roots = boundary_accumulating_roots(8)
    with pytest.raises(WeightClassMismatch):
        verify_theorem3_truncated(roots, as_series([1.0]), DIRICHLET, caps=[4])


def test_theorem3_rejects_bad_caps():
    roots = boundary_accumulating_roots(6)
    w = WeightSequence.concave_power_sum(3.0)
    with pytest.raises(InvalidSpec):
        verify_theorem3_truncated(roots, as_series([1.0]), w, caps=[0])
    with pytest.raises(InvalidSpec):
        verify_theorem3_truncated(roots, as_series([1.0]), w, caps=[7])


def test_theorem3_caps_are_checked_not_truncated():
    # caps [2.9, True] used to run as caps 2 and 1
    roots = boundary_accumulating_roots(6)
    w = WeightSequence.concave_power_sum(3.0)
    for bad in (2.9, True, float("nan")):
        with pytest.raises(InvalidSpec, match="integer"):
            verify_theorem3_truncated(roots, as_series([1.0]), w, caps=[4, bad])
    want = verify_theorem3_truncated(roots, as_series([1.0]), w, caps=[2, 4])
    got = verify_theorem3_truncated(roots, as_series([1.0]), w, caps=[2.0, np.int64(4)])
    assert [(r.lhs, r.rhs, r.context["cap"]) for r in got] == [
        (r.lhs, r.rhs, r.context["cap"]) for r in want
    ]


@pytest.mark.parametrize(
    "roots, regrow",
    [
        (boundary_accumulating_roots(11, 2.0).roots, False),
        (boundary_accumulating_roots(10, 2.5).roots, False),
        ([0.995 * np.exp(0.1j)] * 3, True),
    ],
    ids=["K11", "K10", "triple-regrown"],
)
def test_theorem3_grid_follows_the_predicted_cap(monkeypatch, roots, regrow):
    # past 2^10 points the grid lies within 12% of 2 (T^ + 1), and a
    # regrow doubles it
    predict = verify_module._predicted_section_cap
    if regrow:
        # predicted as one simple pole, the triple root needs a regrow
        monkeypatch.setattr(
            verify_module, "_predicted_section_cap", lambda b, sub: predict(b, sub[:1])
        )
    section = verify_module._section
    calls = []
    monkeypatch.setattr(
        verify_module, "_section", lambda *args: calls.append(args[2:]) or section(*args)
    )
    w = WeightSequence.concave_power_sum(3.0)
    (r,) = verify_theorem3_truncated(roots, [1.0], w, [len(roots)])
    assert r.passed
    (n, cap), *rest = calls
    assert n % 4 == 0 and 1024 < 2 * (cap + 1) <= n < 1.12 * 2 * (cap + 1)
    assert rest == ([(2 * n, n - 1)] if regrow else [])
    assert r.context["sample_count"] == (2 * n if regrow else n)


def test_theorem3_section_keeps_half_its_old_working_set():
    # the grid, g's samples and the round trip used to be alive at once,
    # about 7 N complex values; the second call runs with numpy's FFT
    # caches warm, so the trace sees only the section's own arrays
    roots = boundary_accumulating_roots(10, exponent=2.5)
    w = WeightSequence.concave_power_sum(3.0)
    verify_theorem3_truncated(roots, as_series([1.0]), w, caps=[10])
    tracemalloc.start()
    try:
        (r,) = verify_theorem3_truncated(roots, as_series([1.0]), w, caps=[10])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = r.context["sample_count"]
    assert r.passed and n == 26244
    assert peak <= 4 * 16 * n


@pytest.mark.parametrize("degree", [0, 20], ids=["g-degree-0", "g-degree-20"])
def test_theorem3_section_holds_two_and_a_half_grids(monkeypatch, degree):
    # transforms run in the buffers they are padded in and every grid is
    # dropped after its last reader: the grid, B's samples and two
    # scratch quarter grids, or the samples, the projection and the
    # round trip, hold at most 2.5 N complex values, whatever g's length
    roots = boundary_accumulating_roots(10, exponent=2.5)
    g = _zero_free(degree)
    w = WeightSequence.concave_power_sum(3.0)
    verify_theorem3_truncated(roots, g, w, caps=[10])
    fft = verify_module.boundary_samples
    calls = []
    monkeypatch.setattr(
        verify_module, "boundary_samples", lambda f, n: calls.append(n) or fft(f, n)
    )
    tracemalloc.start()
    try:
        (r,) = verify_theorem3_truncated(roots, g, w, caps=[10])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = r.context["sample_count"]
    assert r.passed and n == 26244
    # g is not sampled: the round trip is the one transform
    assert calls == [n]
    assert peak <= 2.6 * 16 * n


def test_roots_too_near_the_circle_for_the_extension_cap_raise():
    # the extension cap would need more than 2M terms to reach its tail
    # bound, so the projection it sizes would be wrong
    w = WeightSequence.concave_power_sum(3.0)
    with pytest.raises(CapTooLarge):
        verify_theorem3_truncated(
            boundary_accumulating_roots(100, exponent=3.0), as_series([1.0]), w, caps=[100]
        )


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-9])
def test_zero_free_claims_hold_next_to_the_circle(delta):
    # each quotient g / (1 - conj(a) z) is a polynomial, so a root 1e-9
    # from the circle costs the claims no more terms than any other root;
    # both sides match a 40-digit reference from the stored coefficients
    mpmath = pytest.importorskip("mpmath")
    f = as_series(np.convolve([-(1 - delta) * np.exp(0.3j), 1.0], [1.0, -0.5]))
    chain = decompose(f)
    with mpmath.workdps(40):
        c = [mpmath.mpc(z) for z in f.coeffs.tolist()]
        a = min(mpmath.polyroots(c[::-1]), key=abs)
        h = [c[1] + a * c[2], c[2]]  # f / (z - a), ascending
        g = [h[0], h[1] - mpmath.conj(a) * h[0], -mpmath.conj(a) * h[1]]

        def weighted(p, at):
            return sum(at(n) * abs(p[n]) ** 2 for n in range(len(p)))

        def sides(gamma, step):
            # x(g) and x(f) - (1 - |a|^2) y(h), x weighing |c_n|^2 by
            # gamma(n) and y by step(n)
            return weighted(g, gamma), weighted(c, gamma) - (1 - abs(a) ** 2) * weighted(h, step)

        def power_sum(n):
            return sum(mpmath.mpf(1) / j**2 for j in range(1, n + 1))

        cases = [
            (verify_single_root(chain, DIRICHLET), sides(lambda n: n, lambda n: 1)),
            (
                verify_single_root(chain, WeightSequence.concave_power_sum(2.0)),
                sides(power_sum, lambda n: mpmath.mpf(1) / (n + 1) ** 2),
            ),
            (
                verify_theorem1(chain, WeightSequence.sobolev_square()),
                sides(lambda n: n * n, lambda n: 2 * n + 1),
            ),
            (
                verify_corollary1(chain, WeightSequence.constant_step(2.0)),
                sides(lambda n: 2 * n, lambda n: 2),
            ),
            # 2 ||h||_D^2 - ||h||_H2^2 weighs h_n by 2 (n + 1) - 1
            (verify_corollary2(chain), sides(lambda n: 1 + n * n, lambda n: 2 * n + 1)),
        ]
        for report, (lhs, rhs) in cases:
            assert report.passed
            assert abs(report.lhs - lhs) <= 1e-14 * abs(lhs)
            assert abs(report.rhs - rhs) <= 1e-14 * abs(rhs)


def test_theorem3_rejects_vanishing_factor():
    roots = boundary_accumulating_roots(6)
    w = WeightSequence.concave_power_sum(3.0)
    with pytest.raises(InvalidSpec):
        verify_theorem3_truncated(roots, as_series([0.0, 1.0]), w, caps=[2])


@pytest.mark.parametrize("modulus", [1 - 1e-12, 1 - 1e-11, 1 + 1e-12])
def test_theorem3_reads_a_quarantined_zero_of_g_by_its_modulus(modulus):
    # a zero of g within the boundary margin is quarantined as
    # near_boundary, not counted in roots; inside the circle it still
    # makes g vanish in the disk
    g = as_series(np.convolve([-modulus * np.exp(0.3j), 1.0], [-2.0, 1.0]))
    assert len(find_roots_in_disk(g).near_boundary) == 1
    roots = boundary_accumulating_roots(6)
    w = WeightSequence.concave_power_sum(3.0)
    if modulus < 1:
        with pytest.raises(InvalidSpec, match="zero free"):
            verify_theorem3_truncated(roots, g, w, caps=[4])
    else:
        (r,) = verify_theorem3_truncated(roots, g, w, caps=[4])
        assert r.passed


@pytest.mark.parametrize("modulus", [1 - 1e-12, 1 + 1e-12, 1 - 1e-3, 1 + 1e-3, 0.5, 2.0])
def test_no_boundary_margin_moves_the_zero_free_test_of_g(modulus):
    # theorem3_truncated finds g's zeros at the default margin: a
    # margin only moves a zero between roots and near_boundary, so
    # "some zero has modulus < 1" reads the same at every margin
    g = as_series(np.convolve([-modulus * np.exp(0.3j), 1.0], [-2.0, 1.0]))
    verdicts = set()
    for margin in (0.0, 1e-10, 1e-3, 0.1, 0.5):
        rs = find_roots_in_disk(g, margin)
        verdicts.add(any(abs(a) < 1.0 for a in (*rs.roots, *rs.near_boundary)))
    assert verdicts == {modulus < 1}


def test_instance_spec_validation():
    with pytest.raises(InvalidSpec):
        generate_instance(InstanceSpec(root_count=-1, root_radius=(0.1, 0.5), degree_cap=8))
    with pytest.raises(InvalidSpec):
        generate_instance(InstanceSpec(root_count=2, root_radius=(0.5, 0.1), degree_cap=8))
    with pytest.raises(InvalidSpec):
        generate_instance(InstanceSpec(root_count=9, root_radius=(0.1, 0.5), degree_cap=8))


def test_generate_instance_plants_recoverable_roots():
    spec = InstanceSpec(root_count=3, root_radius=(0.2, 0.7), degree_cap=8, seed=99)
    f = generate_instance(spec)
    assert f.degree_cap == 8
    planted = sorted(instance_roots(spec), key=abs)
    found = find_roots_in_disk(f)
    recovered = sorted(found.roots, key=abs)
    for want in planted:
        assert min(abs(got - want) for got in recovered) < 1e-8


def test_generate_instance_deterministic():
    spec = InstanceSpec(root_count=2, root_radius=(0.1, 0.8), degree_cap=6, seed=5)
    assert np.array_equal(generate_instance(spec).coeffs, generate_instance(spec).coeffs)


def test_instance_counts_may_be_integral_floats():
    spec = InstanceSpec(root_count=3, root_radius=(0.1, 0.9), degree_cap=8, seed=4)
    floats = InstanceSpec(root_count=3.0, root_radius=(0.1, 0.9), degree_cap=8.0, seed=4.0)
    assert np.array_equal(generate_instance(floats).coeffs, generate_instance(spec).coeffs)


def test_default_schedule_spans_families_and_degrees():
    schedule = default_instance_schedule(14, seed=3)
    assert len(schedule) == 14
    _, reports = run_sweep("all", 14, 3)
    families = {r.context["weight"]["family"] for r in reports if "weight" in r.context}
    assert families == {
        "dirichlet",
        "sobolev_square",
        "constant_step",
        "indicator",
        "concave_power_sum",
    }
    degrees = {spec.degree_cap for spec in schedule}
    assert len(degrees) > 3
    seeds = [spec.seed for spec in schedule]
    assert len(set(seeds)) == len(seeds)


def test_run_sweep_small():
    ok, reports = run_sweep(["corollary1", "prop_reflect"], count=10, seed=1)
    assert ok
    assert len(reports) == 20
    assert {r.claim for r in reports} == {"corollary1", "prop_reflect"}


def test_run_sweep_qian_pair_counts():
    ok, reports = run_sweep(["qian_tail_identity"], count=5, seed=2)
    assert ok
    assert len(reports) == 5
    assert all(r.claim == "qian_tail_identity" for r in reports)


def test_run_sweep_reports_serialize_to_json():
    ok, reports = run_sweep(["theorem1"], count=4, seed=3)
    assert len(reports) == 4
    line = json.dumps(reports[0].to_json_dict())
    first = json.loads(line)
    assert first["claim"] == "theorem1"
    assert first["passed"] is True
    assert "seed" in first["context"]


def test_run_sweep_rejects_theorem3():
    with pytest.raises(InvalidSpec):
        run_sweep(["theorem3_truncated"], count=2, seed=0)
    with pytest.raises(InvalidSpec):
        run_sweep(["no_such_claim"], count=2, seed=0)


def test_run_sweep_degree_one():
    # a degree-1 schedule plants its one root in every instance
    ok, reports = run_sweep("all", 3, seed=0, degree_cap=1)
    assert ok
    assert len(reports) == 27
    assert all(r.passed for r in reports)


def test_sweep_deterministic_under_seed():
    _, first = run_sweep(["theorem2"], count=6, seed=11)
    _, second = run_sweep(["theorem2"], count=6, seed=11)
    assert [r.lhs for r in first] == [r.lhs for r in second]
    assert [r.rhs for r in first] == [r.rhs for r in second]


def test_circle_grid_matches_exp_on_every_quarter():
    # powers of two and sizes the section grid rule produces past 2^10
    for n in [1 << bits for bits in range(2, 18)] + [1080, 9600, 26244, 112500]:
        # exp at the angle of least modulus, -pi < 2 pi j / n <= pi: the
        # rounding of 2 pi j / n grows with j, and near j = n it alone
        # puts exp 1.2e-15 off at the sizes past 2^10
        j = np.arange(n)
        want = np.exp(1j * (2.0 * np.pi * np.where(2 * j > n, j - n, j) / n))
        got = _circle_grid(n)
        assert np.array_equal(got[: n // 4], want[: n // 4])
        # the other quarters are the first rotated by i, -1 and -i, exactly
        quarters = got.reshape(4, n // 4)
        assert np.array_equal(quarters, got[: n // 4] * np.array([[1], [1j], [-1], [-1j]]))
        assert np.max(np.abs(got - want)) <= 1e-15


def test_grid_size_is_the_least_smooth_multiple_of_four():
    # brute force: up to 2^10 the least power of two, past that the least
    # multiple of 4 of the form 2^a 3^b 5^c, never 12% past n
    top = 1 << 18
    powers = 2 ** np.arange(11)
    smooth = np.unique([
        4 * 2**a * 3**b * 5**c
        for a in range(18) for b in range(12) for c in range(9)
        if 4 * 2**a * 3**b * 5**c <= 2 * top
    ])
    n = np.arange(1, top + 1)
    small = n <= 1024
    want = np.where(
        small,
        powers[np.searchsorted(powers, np.minimum(n, 1024))],
        smooth[np.searchsorted(smooth, n)],
    )
    got = np.array([verify_module._grid_size(k) for k in n.tolist()])
    assert np.array_equal(got, want)
    assert np.all(got[~small] < 1.12 * n[~small])
