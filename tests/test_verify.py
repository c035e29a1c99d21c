import json

import numpy as np
import pytest

from blaschke import (
    BlaschkeConditionViolated,
    DomainError,
    InstanceSpec,
    InvalidSpec,
    KTooSmall,
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
)
from blaschke.verify import CLAIMS, DEFAULT_TOLS

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


def test_theorem3_rejects_vanishing_factor():
    roots = boundary_accumulating_roots(6)
    w = WeightSequence.concave_power_sum(3.0)
    with pytest.raises(InvalidSpec):
        verify_theorem3_truncated(roots, as_series([0.0, 1.0]), w, caps=[2])


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


def test_run_sweep_streams_reports_to_sink():
    seen = []
    ok, reports = run_sweep(["theorem1"], count=4, seed=3, sink=seen.append)
    assert len(seen) == len(reports) == 4
    line = json.dumps(seen[0].to_json_dict())
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
