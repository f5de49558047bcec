"""Command line interface.

Verbs:

* ``expand``   print the remainder polynomial of a type
* ``resolve``  resolve a type and print the fan summary
* ``verify``   run every cross-check on one type, exit nonzero on failure
* ``sweep``    resolve all types in a range, optionally writing CSV
* ``family``   resolve members of the two classical families
* ``export``   write JSON / SVG / DOT artifacts for a type

Exit codes: 0 success, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys

from .fan import DEFAULT_SEED, GroupType, build_resolution, resolution_report
from .polynomial import expand
from .render import (
    fan_json_text,
    fan_to_svg,
    polynomial_json_text,
    require_cross_section,
    subdivision_tree_dot,
)
from .verify import (
    compare_2d,
    family_type,
    measure_type,
    summarize,
    sweep,
    write_sweep_csv,
)


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weights must be comma-separated integers, got {text!r}"
        )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_type_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-r", "--order", type=int, required=True, help="group order r")
    sub.add_argument(
        "-w",
        "--weights",
        type=_parse_weights,
        required=True,
        metavar="A1,A2,...",
        help="weights, comma separated, one of them 1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fujiki-oka",
        description="Exact toric resolutions of cyclic quotient singularities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expand", help="print the remainder polynomial")
    _add_type_args(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = subs.add_parser("resolve", help="resolve and summarise the fan")
    _add_type_args(p)

    p = subs.add_parser("verify", help="run all cross-checks on one type")
    _add_type_args(p)
    p.add_argument(
        "--samples", type=_positive_int, default=1000, help="coverage sample count"
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")

    p = subs.add_parser("sweep", help="resolve every type in a range")
    p.add_argument("--dim", type=int, required=True, help="number of weights")
    p.add_argument("--r-max", type=int, required=True, help="largest order")
    p.add_argument("--r-min", type=int, default=2, help="smallest order")
    p.add_argument("--gorenstein", action="store_true", help="weight sums divisible by r only")
    p.add_argument("--crepant-only", action="store_true", help="list crepant types only")
    p.add_argument("--csv", metavar="PATH", help="write records as CSV")
    p.add_argument("--allow-large", action="store_true", help="lift the size cap")

    p = subs.add_parser("family", help="resolve members of a classical family")
    p.add_argument("name", choices=("plus", "minus"), help="which family")
    members = p.add_mutually_exclusive_group(required=True)
    members.add_argument("-k", type=_positive_int, help="single member index")
    members.add_argument("--k-max", type=_positive_int, help="members 1..k_max")

    p = subs.add_parser("export", help="write artifacts for a type")
    _add_type_args(p)
    p.add_argument("--json", metavar="PATH", help="fan JSON")
    p.add_argument("--poly", metavar="PATH", help="polynomial JSON")
    p.add_argument("--svg", metavar="PATH", help="triangle cross-section (3 weights)")
    p.add_argument("--dot", metavar="PATH", help="subdivision tree in DOT")

    return parser


@contextlib.contextmanager
def _output_files(paths: list[str]):
    """Open every path before the work runs and yield one buffer per path.

    Append mode empties nothing while the work runs, so on any exception the
    files created here are removed and the others keep their bytes.  Once
    the work returns, each file is truncated and given its buffer's text.
    Two paths naming one file would keep only the last text, so they raise
    ``ValueError`` before any file is opened.
    """
    seen: dict[str, str] = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]!r} and {path!r} name the same file")
        seen[real] = path
    handles = []
    try:
        for path in paths:
            created = not os.path.exists(path)
            handles.append((open(path, "a", newline=""), created))
        buffers = [io.StringIO() for _ in handles]
        yield buffers
        for (fh, _), buf in zip(handles, buffers):
            with fh:
                fh.truncate(0)
                fh.write(buf.getvalue())
    except BaseException:
        for fh, created in handles:
            fh.close()
            if created:
                os.remove(fh.name)
        raise


def _group(args: argparse.Namespace) -> GroupType:
    return GroupType.from_weights(args.order, args.weights)


def _cmd_expand(args: argparse.Namespace) -> int:
    poly = expand(_group(args).fraction)
    if args.json:
        sys.stdout.write(polynomial_json_text(poly))
    else:
        print(poly.pretty())
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    group = _group(args)
    report, fan = resolution_report(group, validate=False)
    print(f"type {group}")
    print(f"maximal cones {report.euler}")
    print(f"rays {len(fan.rays)}")
    print(f"smooth {'yes' if report.smooth_all else 'no'}")
    print(f"crepant {'yes' if report.crepant_by_fan else 'no'}")
    for ray in fan.rays:
        tag = "exceptional" if ray.exceptional else "axis"
        coords = ",".join(str(v) for v in ray.scaled)
        print(f"  ray ({coords}) {tag} discrepancy {ray.discrepancy}")
    return 0


def _checkline(ok: bool, label: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {label}")


def _cmd_verify(args: argparse.Namespace) -> int:
    group = _group(args)
    report, fan = resolution_report(group, samples=args.samples, seed=args.seed)
    print(f"type {group}")
    print(f"euler {report.euler}  size {report.size}  height {report.height}")
    _checkline(report.identity_size_height, "size = height + r")
    _checkline(report.identity_euler_size, "euler = size")
    _checkline(report.identity_euler_height, "euler = height + r")
    _checkline(
        report.crepancy_agrees,
        f"crepancy criteria agree ({'crepant' if report.crepant else 'not crepant'})",
    )
    v = report.validation
    _checkline(report.smooth_all, "multiplicities all 1")
    _checkline(v.rays_ok, "rays primitive in the lattice")
    _checkline(
        v.coverage_ok,
        f"coverage clean on {v.samples} samples "
        f"(uncovered {v.uncovered}, overlapping {v.overlapping}, gaps {v.boundary_gaps})",
    )
    _checkline(v.faces_ok, "cone pairs meet in common faces")
    ok = report.ok
    # r/a has a continued fraction only for a coprime to r; the other
    # weight is 1, so the product of the weights stands for a
    if group.n == 2 and math.gcd(group.r, math.prod(group.weights)) == 1:
        cmp2 = compare_2d(fan)
        _checkline(cmp2.ok, f"matches continued fraction {list(cmp2.expansion)} and hull")
        ok = ok and cmp2.ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    with _output_files([args.csv] if args.csv else []) as buffers:
        records = sweep(
            dim=args.dim,
            r_max=args.r_max,
            r_min=args.r_min,
            gorenstein_only=args.gorenstein,
            allow_large=args.allow_large,
        )
        # --crepant-only filters the rows and counts, never the verdict
        shown = [rec for rec in records if rec.crepant] if args.crepant_only else records
        for buf in buffers:
            write_sweep_csv(shown, buf)
    if args.csv:
        print(f"wrote {len(shown)} records to {args.csv}")
    stats = summarize(shown)
    print(
        f"types {stats['types']}  crepant {stats['crepant']}  "
        f"gorenstein {stats['gorenstein']}"
    )
    verdict = summarize(records)
    if verdict["all_ok"]:
        print("all identities hold")
        return 0
    print("FAILURES: " + ", ".join(verdict["failures"]))
    return 1


def _cmd_family(args: argparse.Namespace) -> int:
    ks = [args.k] if args.k is not None else range(1, args.k_max + 1)
    ok = True
    for k in ks:
        group = family_type(args.name, k)
        rec = measure_type(group)
        match = rec.euler == group.r and rec.ok
        ok &= match
        flag = "ok" if match else "FAIL"
        print(f"[{flag}] k={k} {group} euler {rec.euler}")
    return 0 if ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    # the fan renderers, and None for the polynomial JSON, which needs no fan
    outputs = [
        (args.json, fan_json_text),
        (args.poly, None),
        (args.svg, fan_to_svg),
        (args.dot, subdivision_tree_dot),
    ]
    outputs = [(path, render) for path, render in outputs if path]
    if not outputs:
        print("error: nothing to export; pass --json/--poly/--svg/--dot", file=sys.stderr)
        return 2
    # input errors come before any file is opened or the fan is resolved
    group = _group(args)
    if args.svg:
        require_cross_section(group)
    with _output_files([path for path, _ in outputs]) as buffers:
        fan = build_resolution(group) if any(render for _, render in outputs) else None
        for (_, render), buf in zip(outputs, buffers):
            buf.write(render(fan) if render else polynomial_json_text(expand(group.fraction)))
    for path, _ in outputs:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "expand": _cmd_expand,
    "resolve": _cmd_resolve,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "family": _cmd_family,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
