"""Command-line interface: dim, oracle, verify, transform, orbit."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .cremona import (
    cremona_curve,
    cremona_curve_full,
    cremona_system,
    curve_invariants,
    line_orbit,
    render_trace,
)
from .literals import format_curve, format_system, parse_curve, parse_system
from .oracle import (
    ALL_RANDOM,
    DEFAULT_CONFIG,
    FUNDAMENTAL,
    OracleConfig,
    oracle_report,
    verify_grid,
    verify_homogeneous,
)
from .speciality import conjectured_dimension
from .systems import CurveClass, dimension_excess, normalize, virtual_dimension

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # usage and parse failures exit with status 1; status 2 is reserved for
    # verification mismatches
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None


def _config(args) -> OracleConfig:
    return OracleConfig(args.prime, args.seeds, args.point_mode)


def _add_oracle_flags(parser) -> None:
    parser.add_argument(
        "--prime",
        type=int,
        default=DEFAULT_CONFIG.prime,
        help="field characteristic (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds",
        type=_seeds,
        default=DEFAULT_CONFIG.seeds,
        help=f"comma-separated seeds (default: {','.join(map(str, DEFAULT_CONFIG.seeds))})",
    )
    parser.add_argument(
        "--point-mode",
        choices=[ALL_RANDOM, FUNDAMENTAL],
        default=DEFAULT_CONFIG.point_mode,
        help="point placement strategy (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fatpoint3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", parents=[], help="conjectured dimension of a system")
    p_dim.add_argument("system", help='system literal, e.g. "12 7^6"')
    p_dim.add_argument("--trace", action="store_true", help="print the reduction trace")
    p_dim.add_argument("--json", action="store_true", help="machine-readable output")
    p_dim.set_defaults(func=cmd_dim)

    p_oracle = sub.add_parser("oracle", help="exact rank-based dimension of a system")
    p_oracle.add_argument("system")
    p_oracle.add_argument("--json", action="store_true")
    _add_oracle_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="compare procedure and oracle on a grid")
    p_verify.add_argument("--dmax", type=int, default=10)
    p_verify.add_argument("--mmax", type=int, default=4)
    p_verify.add_argument("--rmax", type=int, default=10)
    p_verify.add_argument(
        "--homogeneous",
        action="store_true",
        help="classify fixed-r systems over the window 2m <= d <= 2m+2",
    )
    p_verify.add_argument("--r", type=int, default=None, help="point count for --homogeneous")
    p_verify.add_argument("--json", action="store_true")
    _add_oracle_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_tr = sub.add_parser("transform", help="apply one Cremona step")
    p_tr.add_argument("literal", help="system (or curve with --curve) literal")
    p_tr.add_argument("indices", type=int, nargs=4, help="1-based point indices")
    p_tr.add_argument("--curve", action="store_true", help="treat the literal as a curve")
    p_tr.set_defaults(func=cmd_transform)

    p_orbit = sub.add_parser("orbit", help="line orbit under Cremona transforms")
    p_orbit.add_argument("--points", type=int, required=True)
    p_orbit.add_argument("--max-degree", type=int, required=True, help="degree cap")
    p_orbit.set_defaults(func=cmd_orbit)

    return parser


def cmd_dim(args) -> int:
    system = normalize(parse_system(args.system))
    dim, trace = conjectured_dimension(system)
    virtual = virtual_dimension(system)  # one pass over the points
    expected = max(virtual, -1)
    excess = dimension_excess(system, dim, expected)
    verdict = "empty" if dim < 0 else "special" if excess > 0 else "non-special"
    if args.json:
        payload = {
            "system": format_system(system),
            "conjectured_dimension": dim,
            "expected_dimension": expected,
            "virtual_dimension": virtual,
            "verdict": verdict,
            "speciality": excess,
            "empty": dim < 0,
            "final": format_system(trace.final),
            "trace": [
                {
                    "kind": step.kind,
                    "indices": list(step.indices),
                    "alpha": step.alpha,
                    "before": format_system(step.before),
                    "after": format_system(step.after),
                }
                for step in trace.steps
            ],
        }
        print(json.dumps(payload))
        return 0
    print(f"system: {format_system(system)}")
    print(f"conjectured dimension: {dim}")
    print(f"expected dimension: {expected}")
    print(f"verdict: {verdict}" + (f" (speciality {excess})" if excess > 0 else ""))
    if args.trace:
        print(render_trace(trace, start=system))
    return 0


def cmd_oracle(args) -> int:
    system = parse_system(args.system)
    report = oracle_report(system, _config(args))
    if args.json:
        payload = {
            "system": format_system(system),
            "prime": report.prime,
            "seeds": list(report.seeds),
            "point_mode": report.point_mode,
            "rows": report.n_rows,
            "cols": report.n_cols,
            "ranks": list(report.ranks),
            "certified": report.certified,
            "dimension": report.dimension,
            "h1": report.h1,
        }
        print(json.dumps(payload))
        return 0
    print(f"system: {format_system(system)}")
    print(f"matrix: {report.n_rows} x {report.n_cols} over F_{report.prime}")
    agreement = "seeds agree" if report.seeds_agree else f"seed ranks {list(report.ranks)}"
    print(f"rank: {max(report.ranks)} ({agreement})")
    if report.certified:
        print("certified: yes (rank = min(rows, cols))")
    else:
        print(f"certified: no (best of {len(report.ranks)} seeds, a high-probability answer)")
    print(f"dimension: {report.dimension}")
    print(f"h1: {report.h1}")
    return 0


def cmd_verify(args) -> int:
    config = _config(args)
    if args.homogeneous:
        if args.r is None:
            raise ValueError("--homogeneous requires --r")
        rows = verify_homogeneous(args.r, args.mmax, config)
        if args.json:
            payload = [dataclasses.asdict(row) for row in rows]
            print(json.dumps({"r": args.r, "prime": config.prime, "rows": payload}))
        else:
            for row in rows:
                print(
                    f"{row.d}\t{row.m}\t{row.r}\t{row.verdict}\t{row.conjectured}"
                    f"\t{row.expected}" + ("" if row.consistent else "\tINCONSISTENT")
                )
        return 0 if all(row.consistent for row in rows) else 2
    report = verify_grid(args.dmax, args.mmax, args.rmax, config)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.to_tsv())
    return 0 if not report.mismatches else 2


def cmd_transform(args) -> int:
    idx = tuple(i - 1 for i in args.indices)
    if min(idx) < 0:
        raise ValueError("point indices are 1-based")
    if args.curve:
        curve = parse_curve(args.literal)
        if curve.has_incidences:
            if sorted(idx) != [0, 1, 2, 3]:
                raise ValueError("classes with incidence data transform on points 1 2 3 4")
            image = cremona_curve_full(curve)
        else:
            image = cremona_curve(curve, idx)
            image = CurveClass(image.degree, tuple(sorted(image.mults, reverse=True)))
        print(format_curve(image, sugar=False))
        return 0
    image = normalize(cremona_system(parse_system(args.literal), idx))
    print(format_system(image, sugar=False))
    return 0


def cmd_orbit(args) -> int:
    for curve, monotone in line_orbit(args.points, args.max_degree).items():
        inv = curve_invariants(curve)
        flag = "monotone" if monotone else "non-monotone"
        print(f"{format_curve(curve, sugar=False)}\tinvariants {inv[0]} {inv[1]}\t{flag}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"fatpoint3: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
