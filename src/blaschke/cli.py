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
import functools
import json
import sys

from .decomposition import DEFAULT_MARGIN, RootSet, decompose, find_roots_in_disk
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
            cap = (signal.sample_count - 1) // 2
        return analytic_signal(signal, cap)
    if cap is not None:
        raise BlaschkeError("--cap truncates a signal CSV input; a coefficient JSON has no cap")
    with open(path) as fh:
        return CoefficientSeries.from_json_dict(json.load(fh))


def _emit(text: str, path: str | None) -> None:
    """Write text and a final newline to path, or print it to stdout."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_json(data: dict, path: str | None) -> None:
    _emit(json.dumps(data, indent=2), path)


def _write_reports(reports, path: str | None) -> None:
    """One report JSON per line."""
    _emit("\n".join(json.dumps(r.to_json_dict()) for r in reports), path)


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
    rs = find_roots_in_disk(f, args.margin)
    _write_json(rs.to_json_dict(), args.output)
    return 0


def _cmd_decompose(args) -> int:
    f = _load_series(args.input, args.cap)
    chain = decompose(f, args.margin)
    _write_json(chain.to_json_dict(), args.output)
    return 0


def _cmd_unwind(args) -> int:
    f = _load_series(args.input, args.cap)
    expansion = unwind(f, args.depth, args.margin)
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
    csv_input = args.input.endswith(".csv")
    if csv_input and args.samples is not None:
        raise BlaschkeError("--samples sets the grid of a JSON input; a CSV keeps its own")
    f = _load_series(args.input, args.cap)
    if csv_input:
        _write_json(f.to_json_dict(), args.output)
        return 0
    least = max(4, 2 * len(f))
    count = least if args.samples is None else args.samples
    if count < least:
        raise BlaschkeError(f"--samples must be at least {least}, got {count}")
    signal = BoundarySignal(boundary_samples(f, count).real)
    if args.output:
        save_signal_csv(signal, args.output)
    else:
        for v in signal.samples:
            print(_fmt(v))
    return 0


def _parse_caps(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_verify(args) -> int:
    claim = args.claim
    row = CLAIM_TABLE.get(claim)  # None for theorem3_truncated, which reads all four
    has_row = row is not None
    ignored = {"weight": has_row and not row.needs_weight, "k": not (has_row and row.cutoff),
               "roots": has_row, "caps": has_row, "margin": not has_row}
    for name, skip in ignored.items():
        # --margin holds its default when not given
        if skip and getattr(args, name) not in (None, DEFAULT_MARGIN):
            raise BlaschkeError(f"--{name} does not apply to claim {claim}")
    w = WeightSequence.parse(args.weight) if args.weight else None
    if not has_row:
        if not args.roots:
            raise BlaschkeError("theorem3_truncated needs --roots")
        with open(args.roots) as fh:
            roots = RootSet.from_json_dict(json.load(fh))
        g = _load_series(args.input, args.cap)
        if w is None:
            raise BlaschkeError("theorem3_truncated needs --weight")
        caps = _parse_caps(args.caps or "5,10,20,30")
        reports = verify_theorem3_truncated(roots, g, w, caps)
    else:
        f = _load_series(args.input, args.cap)
        if row.needs_weight and w is None:
            raise BlaschkeError(f"{claim} needs --weight")
        chain = decompose(f, args.margin)
        reports = row.check(chain, w, 1 if args.k is None else args.k)
        reports = [r for r in reports if r.claim == claim]
    _write_reports(reports, args.output)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sweep(args) -> int:
    all_passed, reports = run_sweep(args.claim, args.count, args.seed, degree_cap=args.degree)
    _write_reports(reports, args.output)
    failed = sum(1 for r in reports if not r.passed)
    print(
        f"sweep: {len(reports)} reports, {failed} failed",
        file=sys.stderr,
    )
    return 0 if all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and shared by every
    later one in the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="blaschke",
        description="Blaschke decompositions, weighted Hardy norms, and "
        "the unwinding series on truncated power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="coefficient JSON or signal CSV")
        p.add_argument("--output", help="write result here instead of stdout")
        p.add_argument("--cap", type=int, help="truncation order for CSV input")

    def add_margin(p):
        p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                       help="boundary margin in [0, 1): roots within it of the circle "
                       "are not reflected (default %(default)s)")

    p = sub.add_parser("norms", help="weighted norms of a series")
    add_io(p)
    p.add_argument("--weight", required=True,
                   help="weight family, e.g. dirichlet or constant_step:2")
    p.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("roots", help="roots inside the unit disk")
    add_io(p)
    add_margin(p)
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("decompose", help="Blaschke product times zero-free part")
    add_io(p)
    add_margin(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("unwind", help="iterated decomposition expansion")
    add_io(p)
    add_margin(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--csv", help="write (depth, residual_h2) pairs here")
    p.set_defaults(fn=_cmd_unwind)

    p = sub.add_parser("signal", help="convert between signal CSV and series JSON")
    add_io(p)
    p.add_argument("--samples", type=int,
                   help="grid size of a JSON input, at least max(4, 2 len(coeffs)) (default)")
    p.set_defaults(fn=_cmd_signal)

    p = sub.add_parser("verify", help="check one claim on one input")
    p.add_argument("--claim", required=True, choices=CLAIMS)
    add_io(p)
    add_margin(p)
    p.add_argument("--weight")
    p.add_argument("--k", type=int, help="tail cutoff for qian claims (default 1)")
    p.add_argument("--roots", help="root set JSON for theorem3_truncated")
    p.add_argument("--caps", help="comma separated section sizes for theorem3")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="run claims over generated instances")
    p.add_argument("--claim", default="all")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--degree", type=int, default=32)
    p.add_argument("--output")
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
