"""Claim checkers reading one shared decomposition chain.

run_sweep decomposes each instance once (and its single-root variant
once) and hands that chain to every claim; the reports must be exactly
those the public checkers give when each decomposes on its own.
"""

import dataclasses
import json

import pytest

import blaschke.verify as verify_module
from blaschke import (
    InstanceSpec,
    InvalidSpec,
    RootOptions,
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
    return WeightSequence.from_descriptor(palette[i % len(palette)])


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

    def counting(f, opts=None):
        calls.append(len(f))
        return real(f, opts)

    monkeypatch.setattr(verify_module, "decompose", counting)
    return calls


def test_sweep_decomposes_each_instance_twice(count_decompositions):
    ok, reports = run_sweep("all", 7, seed=3)
    assert ok and len(reports) == 63
    assert len(count_decompositions) == 2 * 7


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


@pytest.mark.parametrize("check, f, args", CHECKS, ids=IDS)
def test_checker_refuses_a_chain_with_root_options(check, f, args):
    with pytest.raises(InvalidSpec):
        check(decompose(f), *args, RootOptions())


def test_chain_input_still_checks_the_weight_class():
    with pytest.raises(WeightClassMismatch):
        verify_theorem1(decompose(F), WeightSequence.indicator(2))
