"""Census of the package's exported names, settable values and shared
private names, and of the type of the errors it raises on purpose.

An exported name is a public name of the package that is not a module.
A settable value is a defaulted parameter of a public function or
method exported by the package, a defaulted field of an exported
dataclass, or an optional flag of a CLI subcommand.  A shared private
name is a name with a leading underscore that one package module
imports from another.  The censuses are pinned by name, so a change
that adds or removes a name, an option or a private dependency between
modules shows in this file's diff.
"""

import argparse
import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import blaschke
from blaschke.cli import build_parser

EXPORTED = (
    "BlaschkeConditionViolated",
    "BlaschkeError",
    "BoundarySignal",
    "CLAIMS",
    "CapTooLarge",
    "ChainInconsistent",
    "CoefficientSeries",
    "ConvergenceError",
    "DEFAULT_TOLS",
    "DecompositionChain",
    "DomainError",
    "GrowthClass",
    "InstanceSpec",
    "InsufficientDepth",
    "InvalidSeries",
    "InvalidSpec",
    "KTooSmall",
    "NonFinite",
    "NotARoot",
    "RootOptions",
    "RootSet",
    "UnwindingExpansion",
    "VerificationReport",
    "WeightClassMismatch",
    "WeightSequence",
    "ZeroSeries",
    "add",
    "analytic_signal",
    "as_series",
    "blaschke_eval",
    "blaschke_eval_many",
    "boundary_accumulating_roots",
    "boundary_modulus_gap",
    "boundary_samples",
    "classify",
    "decompose",
    "default_instance_schedule",
    "deflate",
    "dirichlet_norm_sq",
    "divide_conjugate_linear",
    "evaluate",
    "evaluate_many",
    "find_roots_in_disk",
    "generate_instance",
    "h2_norm_sq",
    "hardy_sobolev_norm_sq",
    "instance_roots",
    "load_signal_csv",
    "multiply",
    "multiply_conjugate_linear",
    "project_coefficients",
    "reconstruct",
    "reflect_root",
    "reflection_identity_gap",
    "residual_decay_rate",
    "run_sweep",
    "save_signal_csv",
    "scale",
    "unwind",
    "verify_corollary1",
    "verify_corollary2",
    "verify_lemma10_chain",
    "verify_prop_reflect",
    "verify_qian_tail",
    "verify_single_root",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3_truncated",
    "x_norm_sq",
    "y_seminorm_sq",
)

# private name -> the package modules that import it
SHARED_PRIVATE = {
    "series._coeff_norm": {"decomposition", "unwinding"},
    "weights._integral": {"verify"},
}

SETTABLE = {
    # defaulted dataclass fields
    "InstanceSpec.seed",
    "InstanceSpec.weight",
    "RootOptions.boundary_margin",
    "RootSet.near_boundary",
    "RootSet.roots",
    # defaulted parameters of exported functions and methods
    "RootSet.ordered(near_boundary)",
    "WeightSequence.table(extension_rule)",
    "boundary_accumulating_roots(exponent)",
    "decompose(opts)",
    "default_instance_schedule(degree_cap)",
    "find_roots_in_disk(opts)",
    "run_sweep(degree_cap)",
    "unwind(opts)",
    # optional flags of each subcommand
    "norms --cap",
    "norms --output",
    "roots --cap",
    "roots --margin",
    "roots --output",
    "decompose --cap",
    "decompose --margin",
    "decompose --output",
    "unwind --cap",
    "unwind --csv",
    "unwind --margin",
    "unwind --output",
    "signal --cap",
    "signal --output",
    "signal --samples",
    "verify --cap",
    "verify --caps",
    "verify --k",
    "verify --margin",
    "verify --output",
    "verify --roots",
    "verify --weight",
    "sweep --claim",
    "sweep --count",
    "sweep --degree",
    "sweep --output",
    "sweep --seed",
}


def _defaulted(label, fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return set()
    return {f"{label}({p.name})" for p in params if p.default is not inspect.Parameter.empty}


def _api_census():
    names = set()
    for name, obj in vars(blaschke).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isfunction(obj):
            names |= _defaulted(name, obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                names |= {
                    f"{name}.{field.name}"
                    for field in dataclasses.fields(obj)
                    if field.default is not dataclasses.MISSING
                    or field.default_factory is not dataclasses.MISSING
                }
            for member, fn in inspect.getmembers(obj, inspect.isroutine):
                if not member.startswith("_"):
                    names |= _defaulted(f"{name}.{member}", fn)
    return names


def _flag_census():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        f"{command} {action.option_strings[0]}"
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.option_strings
        and not action.required
        and not isinstance(action, argparse._HelpAction)
    }


def test_settable_values_are_the_pinned_census():
    api, flags = _api_census(), _flag_census()
    assert (len(api), len(flags)) == (13, 27)
    assert api | flags == SETTABLE


def test_exported_names_are_the_pinned_census():
    names = [
        name for name, obj in vars(blaschke).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    ]
    assert tuple(sorted(names)) == EXPORTED


def test_shared_private_names_are_the_pinned_census():
    shared = {}
    for path in Path(blaschke.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        shared.setdefault(f"{node.module}.{alias.name}", set()).add(path.stem)
    assert shared == SHARED_PRIVATE


@pytest.mark.parametrize(
    "call",
    [
        lambda: blaschke.multiply([1.0], [1.0], -1),
        lambda: blaschke.divide_conjugate_linear([1.0], 0.5, -1),
        lambda: blaschke.analytic_signal(blaschke.BoundarySignal(np.ones(8)), -1),
        lambda: blaschke.project_coefficients(np.ones(8), -1),
        lambda: blaschke.unwind([1.0, 0.5], 0),
        lambda: blaschke.WeightSequence.from_descriptor({"family": "indicator", "params": "ab"}),
        lambda: blaschke.WeightSequence.indicator(10**400),
        lambda: blaschke.WeightSequence.constant_step(10**400),
        lambda: blaschke.WeightSequence.concave_power_sum(10**400),
        lambda: blaschke.WeightSequence.table([0, 10**400]),
        lambda: blaschke.WeightSequence.from_descriptor(
            {"family": "table", "params": {"values": 5, "extension_rule": "hold_last"}}
        ),
        lambda: blaschke.default_instance_schedule(3, 7, 2.5),
        lambda: blaschke.run_sweep("all", 2.5, 7),
        lambda: blaschke.run_sweep("all", 3, 7.5),
        lambda: blaschke.run_sweep("all", 3, -1),
        lambda: blaschke.run_sweep("all", 3, 7, 2.5),
    ],
    ids=[
        "multiply",
        "divide_conjugate_linear",
        "analytic_signal",
        "project_coefficients",
        "unwind",
        "weight_params_not_a_mapping",
        "indicator_past_float_range",
        "constant_step_past_float_range",
        "concave_power_sum_past_float_range",
        "table_past_float_range",
        "table_values_not_a_list",
        "schedule_degree_cap",
        "sweep_count",
        "sweep_seed",
        "sweep_negative_seed",
        "sweep_degree_cap",
    ],
)
def test_argument_errors_are_typed(call):
    # each used to raise a plain ValueError, or a TypeError or
    # OverflowError from numpy or float(); the InvalidSpec it raises now
    # is a ValueError
    with pytest.raises(blaschke.BlaschkeError) as info:
        call()
    assert isinstance(info.value, blaschke.InvalidSpec)
    assert isinstance(info.value, ValueError)
