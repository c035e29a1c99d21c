"""Command line interface.

Exit codes: 0 success, 1 a verification ran and failed, 2 usage or
input errors.  All numeric output is printed with 17 significant
digits so values round-trip exactly through text.

File formats: coefficient JSON {"coeffs": [[re, im], ...]} and signal
CSV (one sample per line).  Subcommands accept either; a CSV input is
converted through the analytic signal map first.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .decomposition import RootOptions, RootSet, decompose, find_roots_in_disk
from .errors import BlaschkeError
from .series import CoefficientSeries, h2_norm_sq
from .signals import (
    BoundarySignal,
    analytic_signal,
    boundary_samples,
    load_signal_csv,
    save_signal_csv,
)
from .unwinding import residual_decay_rate, unwind
from .verify import (
    CLAIM_TABLE,
    CLAIMS,
    run_sweep,
    verify_theorem3_truncated,
)
from .weights import WeightSequence, x_norm_sq, y_seminorm_sq


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_series(path: str, cap: int | None = None) -> CoefficientSeries:
    if path.endswith(".csv"):
        signal = load_signal_csv(path)
        if cap is None:
            cap = signal.sample_count // 2 - 1
        return analytic_signal(signal, cap)
    with open(path) as fh:
        return CoefficientSeries.from_json_dict(json.load(fh))


def _write_json(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_reports(reports, path: str | None) -> None:
    """One report JSON per line."""
    text = "\n".join(json.dumps(r.to_json_dict()) for r in reports)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _root_options(args) -> RootOptions:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["root_residual_tol"] = args.tol
    if getattr(args, "margin", None) is not None:
        kwargs["boundary_margin"] = args.margin
    return RootOptions(**kwargs)


def _cmd_norms(args) -> int:
    f = _load_series(args.input, args.cap)
    w = WeightSequence.parse(args.weight)
    values = {
        "h2_norm_sq": h2_norm_sq(f),
        "x_norm_sq": x_norm_sq(f, w),
        "y_seminorm_sq": y_seminorm_sq(f, w),
    }
    if args.output:
        _write_json(values, args.output)
    else:
        for key, val in values.items():
            print(f"{key} {_fmt(val)}")
    return 0


def _cmd_roots(args) -> int:
    f = _load_series(args.input, args.cap)
    rs = find_roots_in_disk(f, _root_options(args))
    phase = np.pi * (len(rs.nonzero_roots) % 2)
    _write_json(rs.to_json_dict(phase=phase), args.output)
    return 0


def _cmd_decompose(args) -> int:
    f = _load_series(args.input, args.cap)
    chain = decompose(f, _root_options(args))
    _write_json(chain.to_json_dict(), args.output)
    return 0


def _cmd_unwind(args) -> int:
    f = _load_series(args.input, args.cap)
    expansion = unwind(f, args.depth, _root_options(args))
    payload = expansion.to_json_dict()
    if expansion.depth >= 2:
        payload["decay_ratios"] = residual_decay_rate(expansion)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("depth,residual_h2\n")
            for n, energy in enumerate(expansion.residual_h2):
                fh.write(f"{n},{_fmt(energy)}\n")
    _write_json(payload, args.output)
    return 0


def _cmd_signal(args) -> int:
    if args.input.endswith(".csv"):
        signal = load_signal_csv(args.input)
        cap = args.cap if args.cap is not None else signal.sample_count // 2 - 1
        series = analytic_signal(signal, cap)
        _write_json(series.to_json_dict(), args.output)
        return 0
    f = _load_series(args.input)
    count = args.samples or 1 << int(np.ceil(np.log2(max(4, 2 * len(f)))))
    values = boundary_samples(f, count)
    signal = BoundarySignal(values.real)
    if args.output:
        save_signal_csv(signal, args.output)
    else:
        for v in signal.samples:
            print(_fmt(v))
    return 0


def _parse_caps(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_verify(args) -> int:
    w = WeightSequence.parse(args.weight) if args.weight else None
    opts = _root_options(args)
    claim = args.claim
    if claim == "theorem3_truncated":
        if not args.roots:
            raise BlaschkeError("theorem3_truncated needs --roots")
        with open(args.roots) as fh:
            roots, _ = RootSet.from_json_dict(json.load(fh))
        g = _load_series(args.input, args.cap)
        if w is None:
            raise BlaschkeError("theorem3_truncated needs --weight")
        caps = _parse_caps(args.caps or "5,10,20,30")
        reports = verify_theorem3_truncated(roots, g, w, caps, opts, args.claim_tol)
    else:
        row = CLAIM_TABLE[claim]
        f = _load_series(args.input, args.cap)
        if row.needs_weight and w is None:
            raise BlaschkeError(f"{claim} needs --weight")
        reports = row.check(f, w, args.k, opts, args.claim_tol)
        reports = [r for r in reports if r.claim == claim]
    _write_reports(reports, args.output)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sweep(args) -> int:
    all_passed, reports = run_sweep(
        args.claim, args.count, args.seed, degree_cap=args.degree, tol=args.claim_tol,
    )
    _write_reports(reports, args.output)
    failed = sum(1 for r in reports if not r.passed)
    print(
        f"sweep: {len(reports)} reports, {failed} failed",
        file=sys.stderr,
    )
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blaschke",
        description="Blaschke decompositions, weighted Hardy norms, and "
        "the unwinding series on truncated power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, weight=False):
        p.add_argument("--input", required=True, help="coefficient JSON or signal CSV")
        p.add_argument("--output", help="write result here instead of stdout")
        p.add_argument("--cap", type=int, help="truncation order for CSV input")
        p.add_argument("--tol", type=float, help="root residual tolerance")
        p.add_argument("--margin", type=float, help="near-boundary margin")
        if weight:
            p.add_argument(
                "--weight", required=True,
                help="weight family, e.g. dirichlet or constant_step:2",
            )

    p = sub.add_parser("norms", help="weighted norms of a series")
    add_common(p, weight=True)
    p.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("roots", help="roots inside the unit disk")
    add_common(p)
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("decompose", help="Blaschke product times zero-free part")
    add_common(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("unwind", help="iterated decomposition expansion")
    add_common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--csv", help="write (depth, residual_h2) pairs here")
    p.set_defaults(fn=_cmd_unwind)

    p = sub.add_parser("signal", help="convert between signal CSV and series JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--cap", type=int, help="truncation order (CSV input)")
    p.add_argument("--samples", type=int, help="grid size (JSON input)")
    p.set_defaults(fn=_cmd_signal)

    p = sub.add_parser("verify", help="check one claim on one input")
    p.add_argument("--claim", required=True, choices=CLAIMS)
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--cap", type=int)
    p.add_argument("--weight")
    p.add_argument("--k", type=int, default=1, help="tail cutoff for qian claims")
    p.add_argument("--roots", help="root set JSON for theorem3_truncated")
    p.add_argument("--caps", help="comma separated section sizes for theorem3")
    p.add_argument("--tol", type=float, help="root residual tolerance")
    p.add_argument("--margin", type=float)
    p.add_argument("--claim-tol", type=float, help="override claim tolerance")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="run claims over generated instances")
    p.add_argument("--claim", default="all")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--degree", type=int, default=32)
    p.add_argument("--output")
    p.add_argument("--claim-tol", type=float)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BlaschkeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
