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
    RootOptions,
    WeightClassMismatch,
    WeightSequence,
    as_series,
    boundary_accumulating_roots,
    default_instance_schedule,
    find_roots_in_disk,
    generate_instance,
    instance_roots,
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
)
from blaschke import verify as verify_module
from blaschke.series import divide_conjugate_linear, multiply
from blaschke.verify import CLAIM_TABLE, CLAIMS, DEFAULT_TOLS, _circle_grid

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
    assert n & (n - 1) == 0 and n >= 2 * (cap + 1) > n // 2


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


@pytest.mark.parametrize("degree, transforms", [(0, 1), (8, 1), (40, 2)])
def test_theorem3_samples_short_g_by_horner(monkeypatch, degree, transforms):
    # g no longer than log2 of the grid is sampled by Horner, so only the
    # round trip of the projection runs a transform
    g = _zero_free(degree)
    fft = verify_module.boundary_samples
    calls = []
    monkeypatch.setattr(
        verify_module, "boundary_samples", lambda f, n: calls.append(n) or fft(f, n)
    )
    r = _theorem3_section(g)
    assert r.passed
    assert len(calls) == transforms
    if transforms == 1:
        monkeypatch.setattr(verify_module, "evaluate_many", lambda f, z: fft(f, len(z)))
        ref = _theorem3_section(g)
        for key in ("x_truncated", "correction_partial_sums"):
            assert np.allclose(r.context[key], ref.context[key], rtol=1e-13, atol=0)
        assert (r.lhs, r.rhs) == pytest.approx((ref.lhs, ref.rhs), rel=1e-13)


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
    assert r.passed and n == 32768
    assert peak <= 4 * 16 * n


def test_roots_too_near_the_circle_for_the_extension_cap_raise():
    # the extension cap would need more than 2M terms to reach its tail
    # bound, so the projection it sizes would be wrong
    w = WeightSequence.concave_power_sum(3.0)
    with pytest.raises(CapTooLarge):
        verify_theorem3_truncated(
            boundary_accumulating_roots(100, exponent=3.0), as_series([1.0]), w, caps=[100]
        )
    f = as_series(np.convolve([-(1 - 1e-6) * np.exp(0.3j), 1.0], [1.0, -0.5]))
    with pytest.raises(CapTooLarge):
        verify_theorem1(f, DIRICHLET)


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
    # theorem3_truncated finds g's zeros at the default root options: a
    # margin only moves a zero between roots and near_boundary, so
    # "some zero has modulus < 1" reads the same at every margin
    g = as_series(np.convolve([-modulus * np.exp(0.3j), 1.0], [-2.0, 1.0]))
    verdicts = set()
    for margin in (0.0, 1e-10, 1e-3, 0.1, 0.5):
        rs = find_roots_in_disk(g, RootOptions(boundary_margin=margin))
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


def test_default_schedule_spans_families_and_degrees():
    schedule = default_instance_schedule(14, seed=3)
    assert len(schedule) == 14
    families = {spec.weight.family for spec in schedule}
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
    for bits in range(2, 18):
        n = 1 << bits
        want = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
        got = _circle_grid(n)
        assert np.array_equal(got[: n // 4], want[: n // 4])
        assert np.max(np.abs(got - want)) <= 1e-15
