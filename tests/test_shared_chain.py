"""Claim checkers reading one shared decomposition chain.

run_sweep decomposes each distinct polynomial once (an instance, and its
single-root variant unless the instance has one root already), divides
out the zero-free quotients once per chain, and hands that chain to
every claim; the reports must be exactly those the public checkers give
when each decomposes on its own.
"""

import dataclasses
import json

import pytest

import blaschke.decomposition as decomposition_module
import blaschke.verify as verify_module
from blaschke import (
    InstanceSpec,
    WeightClassMismatch,
    WeightSequence,
    decompose,
    default_instance_schedule,
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
)
from blaschke.verify import (
    _ALL_FAMILY_PALETTE,
    _CONCAVE_PALETTE,
    _CONSTANT_STEP_PALETTE,
    _CONVEX_PALETTE,
)

F = generate_instance(InstanceSpec(root_count=3, root_radius=(0.2, 0.8), degree_cap=12, seed=4))
ONE_ROOT = generate_instance(InstanceSpec(root_count=1, root_radius=(0.2, 0.8), degree_cap=12, seed=4))

# (checker, input, arguments after the input)
CHECKS = [
    (verify_prop_reflect, F, (WeightSequence.sobolev_square(),)),
    (verify_single_root, ONE_ROOT, (WeightSequence.dirichlet(),)),
    (verify_lemma10_chain, F, (WeightSequence.indicator(2),)),
    (verify_theorem1, F, (WeightSequence.sobolev_square(),)),
    (verify_corollary1, F, (WeightSequence.constant_step(2.0),)),
    (verify_corollary2, F, ()),
    (verify_theorem2, F, (WeightSequence.concave_power_sum(2.0),)),
    (verify_qian_tail, F, (3,)),
]
IDS = [check.__name__ for check, _, _ in CHECKS]


def _weight(palette, i):
    """A fresh copy of the palette's weight, with a cache of its own."""
    return WeightSequence(**palette[i % len(palette)].describe())


def _one_at_a_time(count, seed):
    """The sweep's reports, each from a checker that decomposes by itself."""
    out = []
    for i, spec in enumerate(default_instance_schedule(count, seed)):
        f = generate_instance(spec)
        single = generate_instance(dataclasses.replace(spec, root_count=1))
        identity, inequality = verify_qian_tail(f, 1 + i % max(1, spec.degree_cap))
        reports = [
            verify_prop_reflect(f, _weight(_ALL_FAMILY_PALETTE, i)),
            verify_single_root(single, _weight(_ALL_FAMILY_PALETTE, i + 2)),
            verify_lemma10_chain(f, _weight(_ALL_FAMILY_PALETTE, i + 1)),
            verify_theorem1(f, _weight(_CONVEX_PALETTE, i)),
            verify_corollary1(f, _weight(_CONSTANT_STEP_PALETTE, i)),
            verify_corollary2(f),
            verify_theorem2(f, _weight(_CONCAVE_PALETTE, i)),
            identity,
            inequality,
        ]
        for report in reports:
            report.context.setdefault("seed", spec.seed)
            report.context.setdefault("instance_index", i)
        out.extend(reports)
    return out


def test_sweep_reports_match_checkers_one_at_a_time():
    ok, reports = run_sweep("all", 14, seed=5)
    want = _one_at_a_time(14, 5)
    assert ok and len(reports) == len(want) == 14 * 9
    assert reports == want
    # JSON text tells -0.0 from 0.0 and prints every float exactly
    assert [json.dumps(r.to_json_dict()) for r in reports] == [
        json.dumps(r.to_json_dict()) for r in want
    ]


@pytest.fixture
def count_decompositions(monkeypatch):
    calls = []
    real = verify_module.decompose

    def counting(f, *margin):
        calls.append(len(f))
        return real(f, *margin)

    monkeypatch.setattr(verify_module, "decompose", counting)
    return calls


def test_sweep_decomposes_each_distinct_polynomial_once(count_decompositions):
    ok, reports = run_sweep("all", 7, seed=3)
    assert ok and len(reports) == 63
    specs = default_instance_schedule(7, 3)
    # the single-root variant of a one-root instance is the instance itself
    assert [spec.root_count == 1 for spec in specs].count(True) == 2
    assert len(count_decompositions) == 7 + sum(spec.root_count != 1 for spec in specs) == 12


def test_sweep_divides_the_zero_free_quotients_once_per_chain(monkeypatch):
    specs = default_instance_schedule(5, 3)
    want = [a for spec in specs for a in decompose(generate_instance(spec)).roots]
    divided = []
    caps = []
    real = decomposition_module.divide_conjugate_linear

    def counting(f, alpha, cap):
        divided.append(alpha)
        caps.append((cap, len(f) - 1))
        return real(f, alpha, cap)

    for module in (verify_module, decomposition_module):
        monkeypatch.setattr(module, "divide_conjugate_linear", counting, raising=False)
    ok, reports = run_sweep(["theorem1", "corollary1", "corollary2"], 5, seed=3)
    assert ok and len(reports) == 15
    assert divided == want
    # each quotient is divided through the degree of g, no further
    assert all(cap == top for cap, top in caps)


@pytest.mark.parametrize("claims", [["theorem1", "corollary2"], ["single_root"]])
def test_sweep_decomposes_only_the_inputs_it_reads(count_decompositions, claims):
    ok, reports = run_sweep(claims, 5, seed=3)
    assert ok and len(reports) == 5 * len(claims)
    assert len(count_decompositions) == 5


def test_sweep_runs_the_qian_pair_once_per_instance(monkeypatch):
    calls = []
    real = verify_module.verify_qian_tail
    monkeypatch.setattr(
        verify_module, "verify_qian_tail",
        lambda *args: calls.append(args) or real(*args),
    )
    _, reports = run_sweep(["qian_tail_inequality", "qian_tail_identity"], 4, seed=2)
    assert len(calls) == 4
    assert [r.claim for r in reports[:2]] == ["qian_tail_identity", "qian_tail_inequality"]


@pytest.mark.parametrize("check, f, args", CHECKS, ids=IDS)
def test_checker_reads_a_chain_as_it_reads_the_series(check, f, args):
    assert check(decompose(f), *args) == check(f, *args)


def test_chain_input_still_checks_the_weight_class():
    with pytest.raises(WeightClassMismatch):
        verify_theorem1(decompose(F), WeightSequence.indicator(2))
