"""Census of the package's settable values.

A settable value is a defaulted parameter of a public function or
method exported by the package, a defaulted field of an exported
dataclass, or an optional flag of a CLI subcommand.  The census is
pinned by name, so a change that adds or removes an option shows in
this file's diff.
"""

import argparse
import dataclasses
import inspect

import blaschke
from blaschke.cli import build_parser

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
