"""Census of the package's exported names, settable values and shared
private names, and of the type of the errors it raises on purpose.

An exported name is a public name of the package that is not a module,
and the package, its demos or its benchmark reads each one, as they read
each public method and property of an exported class.
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
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest

import blaschke
from blaschke.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(blaschke.__file__).parent

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
    "RootSet",
    "UnwindingExpansion",
    "VerificationReport",
    "WeightClassMismatch",
    "WeightSequence",
    "ZeroSeries",
    "analytic_signal",
    "as_series",
    "blaschke_eval_many",
    "boundary_accumulating_roots",
    "boundary_samples",
    "classify",
    "decompose",
    "default_instance_schedule",
    "deflate",
    "dirichlet_norm_sq",
    "divide_conjugate_linear",
    "find_roots_in_disk",
    "generate_instance",
    "h2_norm_sq",
    "hardy_sobolev_norm_sq",
    "load_signal_csv",
    "multiply",
    "multiply_conjugate_linear",
    "project_coefficients",
    "reconstruct",
    "reflect_root",
    "residual_decay_rate",
    "run_sweep",
    "save_signal_csv",
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
    "series._integral": {"decomposition", "signals", "unwinding", "verify", "weights"},
    "series._real": {"decomposition", "verify", "weights"},
}

SETTABLE = {
    # defaulted dataclass fields
    "InstanceSpec.seed",
    "RootSet.near_boundary",
    "RootSet.roots",
    # defaulted parameters of exported functions and methods
    "boundary_accumulating_roots(exponent)",
    "decompose(margin)",
    "default_instance_schedule(degree_cap)",
    "find_roots_in_disk(margin)",
    "run_sweep(degree_cap)",
    "unwind(margin)",
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
    assert (len(api), len(flags)) == (9, 27)
    assert api | flags == SETTABLE


def test_exported_names_are_the_pinned_census():
    names = [
        name for name, obj in vars(blaschke).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    ]
    assert tuple(sorted(names)) == EXPORTED


def _from_package(node):
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == "blaschke"
    )


def _reads(path):
    """Names a file reads from the package: names it imports from a package
    module, attributes of a package module, names it loads where no
    function binds them locally, and string constants other than dict
    keys; none counts inside the def or class of its own name."""
    tree = ast.parse(path.read_text())
    stems = {p.stem for p in PACKAGE.glob("*.py")}
    modules = {"blaschke"} | {
        alias.asname or alias.name
        for node in ast.walk(tree) if _from_package(node)
        for alias in node.names if alias.name in stems
    }
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict) for key in node.keys}
    reads = set()

    def visit(node, hidden):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            hidden = hidden | {
                n.arg if isinstance(n, ast.arg) else n.id
                for n in ast.walk(node)
                if isinstance(n, ast.arg)
                or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hidden = hidden | {node.name}
        if _from_package(node):
            reads.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in hidden:
                reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                reads.add(node.attr)
        elif isinstance(node, ast.Constant) and id(node) not in keys and node.value not in hidden:
            reads.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, hidden)

    visit(tree, frozenset())
    return reads


def test_every_exported_name_is_read_outside_the_tests():
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    reads = set().union(*map(_reads, paths))
    assert [name for name in EXPORTED if name not in reads] == []


def _attribute_reads(path):
    """Attribute names a file reads, none inside the def of its own name."""
    reads = set()

    def visit(node, hidden):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hidden = hidden | {node.name}
        if isinstance(node, ast.Attribute) and node.attr not in hidden:
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, hidden)

    visit(ast.parse(path.read_text()), frozenset())
    return reads


def test_every_public_member_is_read_outside_the_tests():
    # a member counts as read when an attribute of its name is read
    # anywhere in the package, the demos or the benchmark, on any object
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    reads = set().union(*map(_attribute_reads, paths))
    members = [
        f"{name}.{member}"
        for name in EXPORTED
        if inspect.isclass(cls := getattr(blaschke, name))
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and (
            inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod, property))
        )
    ]
    assert [m for m in members if m.split(".")[1] not in reads] == []


def test_shared_private_names_are_the_pinned_census():
    shared = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        shared.setdefault(f"{node.module}.{alias.name}", set()).add(path.stem)
    assert shared == SHARED_PRIVATE


# every margin that is not a real number in [0, 1), not a bool, through
# each function that takes one
_MARGIN_CASES = {
    f"{name}_margin_{label}": functools.partial(call, margin)
    for name, call in (
        ("find_roots_in_disk", lambda m: blaschke.find_roots_in_disk([0.5, 1.0], m)),
        ("decompose", lambda m: blaschke.decompose([0.5, 1.0], m)),
        ("unwind", lambda m: blaschke.unwind([0.5, 1.0], 2, m)),
    )
    for label, margin in (
        ("str", "0.1"), ("none", None), ("true", True), ("false", False),
        ("nan", float("nan")), ("inf", float("inf")), ("negative", -0.5), ("one", 1.0),
    )
}


@pytest.mark.parametrize(
    "call",
    [
        lambda: blaschke.multiply([1.0], [1.0], -1),
        lambda: blaschke.divide_conjugate_linear([1.0], 0.5, -1),
        lambda: blaschke.analytic_signal(blaschke.BoundarySignal(np.ones(8)), -1),
        lambda: blaschke.project_coefficients(np.ones(8), -1),
        lambda: blaschke.unwind([1.0, 0.5], 0),
        lambda: blaschke.WeightSequence("indicator", "ab"),
        lambda: blaschke.WeightSequence.indicator(10**400),
        lambda: blaschke.WeightSequence.constant_step(10**400),
        lambda: blaschke.WeightSequence.concave_power_sum(10**400),
        lambda: blaschke.WeightSequence.table([0, 10**400]),
        lambda: blaschke.WeightSequence("table", {"values": 5}),
        lambda: blaschke.WeightSequence("table", {"values": [0.0, 1.0], "extension_rule": "error"}),
        lambda: blaschke.default_instance_schedule(3, 7, 2.5),
        lambda: blaschke.run_sweep("all", 2.5, 7),
        lambda: blaschke.run_sweep("all", 3, 7.5),
        lambda: blaschke.run_sweep("all", 3, -1),
        lambda: blaschke.run_sweep("all", 3, 7, 2.5),
        lambda: blaschke.BoundarySignal.from_function(np.cos, 8.5),
        lambda: blaschke.analytic_signal(blaschke.BoundarySignal(np.ones(8)), 2.5),
        lambda: blaschke.boundary_samples([1.0, 0.5], 8.5),
        lambda: blaschke.project_coefficients(np.ones(8), 2.5),
        lambda: blaschke.unwind([1.0, 0.5], 2.5),
        lambda: blaschke.unwind([1.0, 0.5], True),
        lambda: blaschke.reconstruct(blaschke.unwind([1.0, 0.5], 1), 0.5),
        lambda: blaschke.boundary_accumulating_roots(2.5),
        lambda: blaschke.multiply([1.0, 0.5], [1.0, 0.5], 2.5),
        lambda: blaschke.multiply([1.0, 0.5], [1.0, 0.5], True),
        lambda: blaschke.divide_conjugate_linear([1.0, 0.5], 0.3, 2.5),
        lambda: blaschke.decompose([0.3, 1.0]).blaschke_series(-1),
        lambda: blaschke.decompose([0.3, 1.0]).blaschke_series(-3),
        lambda: blaschke.decompose([0.3, 1.0]).blaschke_series(2.5),
        lambda: blaschke.generate_instance(blaschke.InstanceSpec(2.5, (0.1, 0.9), 8)),
        lambda: blaschke.generate_instance(blaschke.InstanceSpec(2, (0.1, 0.9), 8.5)),
        lambda: blaschke.generate_instance(blaschke.InstanceSpec(2, (0.1, 0.9), 8, 2.5)),
        lambda: blaschke.generate_instance(blaschke.InstanceSpec(2, (0.1, 0.9), 8, -1)),
        lambda: blaschke.generate_instance(blaschke.InstanceSpec(2, 0.5, 8)),
        lambda: blaschke.generate_instance(blaschke.InstanceSpec(2, ("0.1", 0.9), 8)),
        lambda: blaschke.boundary_accumulating_roots(3, -1.0),
        lambda: blaschke.boundary_accumulating_roots(3, 0.0),
        lambda: blaschke.boundary_accumulating_roots(3, float("inf")),
        lambda: blaschke.boundary_accumulating_roots(3, float("nan")),
        lambda: blaschke.boundary_accumulating_roots(1000, 6.0),
        lambda: blaschke.boundary_accumulating_roots(3, 2000.0),
        lambda: blaschke.BoundarySignal.from_function(np.cos, -1),
        lambda: blaschke.WeightSequence.dirichlet().gammas(2.5),
        lambda: blaschke.WeightSequence.dirichlet().steps(2.5),
        lambda: blaschke.WeightSequence.dirichlet().gammas(True),
        lambda: blaschke.verify_theorem3_truncated(
            blaschke.boundary_accumulating_roots(6),
            [1.0],
            blaschke.WeightSequence.concave_power_sum(3.0),
            3,
        ),
        *_MARGIN_CASES.values(),
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
        "table_unknown_parameter",
        "schedule_degree_cap",
        "sweep_count",
        "sweep_seed",
        "sweep_negative_seed",
        "sweep_degree_cap",
        "signal_sample_count",
        "analytic_signal_cap",
        "boundary_samples_count",
        "project_coefficients_cap",
        "unwind_depth",
        "unwind_depth_bool",
        "reconstruct_index",
        "boundary_accumulating_roots_count",
        "multiply_cap",
        "multiply_cap_bool",
        "divide_conjugate_linear_cap",
        "blaschke_series_cap_minus_one",
        "blaschke_series_negative_cap",
        "blaschke_series_cap",
        "instance_root_count",
        "instance_degree_cap",
        "instance_seed",
        "instance_negative_seed",
        "instance_root_radius_not_a_pair",
        "instance_root_radius_not_real",
        "boundary_accumulating_roots_negative_exponent",
        "boundary_accumulating_roots_zero_exponent",
        "boundary_accumulating_roots_infinite_exponent",
        "boundary_accumulating_roots_nan_exponent",
        "boundary_accumulating_roots_on_the_circle",
        "boundary_accumulating_roots_power_overflow",
        "signal_negative_sample_count",
        "gammas_count",
        "steps_count",
        "gammas_count_bool",
        "theorem3_caps_not_a_collection",
        *_MARGIN_CASES,
    ],
)
def test_argument_errors_are_typed(call):
    # each used to raise a plain ValueError, or a TypeError, IndexError
    # or OverflowError from numpy, range or float(), or ran (unwind at
    # depth True ran one round, multiply at cap True to degree 1, a root
    # find at margin False, boundary_accumulating_roots off the disk or
    # at nan); the InvalidSpec it raises now is a ValueError
    with pytest.raises(blaschke.BlaschkeError) as info:
        call()
    assert isinstance(info.value, blaschke.InvalidSpec)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: blaschke.multiply([1.0], [1.0], -1), -1),
        (lambda: blaschke.unwind([1.0, 0.5], 0), 0),
        (lambda: blaschke.run_sweep("all", 0, 7), 0),
        (lambda: blaschke.default_instance_schedule(3, -1), -1),
        (lambda: blaschke.boundary_accumulating_roots(0), 0),
        (lambda: blaschke.decompose([0.3, 1.0]).blaschke_series(-3), -3),
        (lambda: blaschke.find_roots_in_disk([0.5, 1.0], 1.0), 1.0),
    ],
    ids=[
        "multiply_cap",
        "unwind_depth",
        "sweep_count",
        "schedule_seed",
        "boundary_accumulating_roots_count",
        "blaschke_series_cap",
        "margin",
    ],
)
def test_refusals_name_the_value(call, value):
    # "cap must be nonnegative" and the like used to leave the value out
    with pytest.raises(blaschke.InvalidSpec) as info:
        call()
    assert f"got {value!r}" in str(info.value)


def test_only_series_imports_numbers():
    # the integral and the real-number rules are written once, in series.py
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if "numbers" in modules:
                importers.add(path.stem)
    assert importers == {"series"}
