"""Command-line surface: constants, solving, sweeps, modulus
conversion, algebraic-map verification, and boundary reports.

All numeric output is printed with 17 significant digits (12 for the
constants report) so emitted files diff exactly between runs and parse
back bit-identically.  JSON goes to stdout; sweeps write CSV to a
file; boundary reports can additionally emit an SVG plot.

Exit codes: 0 success, 2 usage error, 3 numerical nonconvergence,
4 verification failure (with --strict).
"""

from __future__ import annotations

import argparse
import math
import sys

from .accessory import AccessorySolution, Family, solve_family1, solve_family2
from .belyi import RamificationPortrait, example2_conditions, example_map, verify_belyi
from .constants import critical_constants
from .developing import BoundaryImageReport, boundary_check
from .errors import (AccuracyError, BelyiViolationError, BracketError,
                     DomainError)
from .modulus import k_of_modulus, modulus_of_k

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFICATION = 4

FORBIDDEN_HALF_WIDTH = 1e-9   # reject solve requests this close to k_crit
SWEEP_SKIP_HALF_WIDTH = 2e-6  # silently skip sweep grid points this close
SVG_CLIP_RADIUS = 10.0        # image points beyond this are left off the plot


# ------------------------------------------------------------- JSON emission
#
# json.dumps prints floats with the shortest round-tripping repr, whose
# digit count varies per value; a fixed %.Ng keeps diffs stable.

def _render(obj, digits: int, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        import json
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return '"%r"' % obj
        return "%.*g" % (digits, obj)
    if isinstance(obj, complex):
        return _render({"re": obj.real, "im": obj.imag}, digits, indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(f"{inner}{_render(str(key), digits, 0)}: "
                          f"{_render(val, digits, indent + 1)}"
                          for key, val in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner + _render(val, digits, indent + 1) for val in obj)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _emit(payload: dict, digits: int = 17) -> None:
    print(_render(payload, digits, 0))


def _portrait_payload(portrait: RamificationPortrait) -> dict:
    value_names = {0.0: "0", 1.0: "1", math.inf: "inf"}
    return {
        "degree": portrait.degree,
        "points": [
            {
                "point": None if p.point is None else complex(p.point),
                "local_degree": p.local_degree,
                "critical_value": value_names[p.critical_value],
            }
            for p in portrait.points
        ],
    }


# ---------------------------------------------------------------- subcommands

def _solve_any(k: float, tol_root: float,
               near: float | None = None) -> AccessorySolution:
    """Dispatch on which side of k_crit the shape parameter falls;
    near, a guess at c, is passed on to the solver."""
    cc = critical_constants()
    if abs(k - cc.k_crit) < FORBIDDEN_HALF_WIDTH:
        raise DomainError(
            f"k = {k} lies within {FORBIDDEN_HALF_WIDTH:g} of the critical "
            f"value {cc.k_crit}; no quadrilateral of this kind exists there "
            f"(its modulus would fall in the forbidden interval "
            f"[{cc.K_crit:.6f}, {1.0 / cc.K_crit:.6f}])")
    if k < cc.k_crit:
        return solve_family1(k, tol=tol_root, near=near)
    return solve_family2(k, tol=tol_root, near=near)


def cmd_constants(args: argparse.Namespace) -> int:
    cc = critical_constants()
    _emit({
        "kappa_prime_crit": cc.kappa_prime_crit,
        "kappa_crit": cc.kappa_crit,
        "k_crit": cc.k_crit,
        "modulus_crit": cc.K_crit,
        "lambda": cc.lambda_,
        "b1": cc.b1,
    }, digits=12)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    sol = _solve_any(args.k, args.tol_root)
    _emit({
        "k": args.k,
        "family": sol.param.family.value,
        "c": sol.c,
        "d": sol.d,
        "amplitude": sol.A,
        "alpha": sol.alpha,
        "modulus": sol.modulus,
        "inverse_modulus": 1.0 / sol.modulus,
        "residual": sol.residual,
    })
    return EXIT_OK


def cmd_modulus(args: argparse.Namespace) -> int:
    k = args.k if args.k is not None else k_of_modulus(args.K)
    mod = modulus_of_k(k)
    _emit({"k": k, "modulus": mod, "inverse_modulus": 1.0 / mod})
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 1.0 < args.k_min < args.k_max:
        raise DomainError(
            f"need 1 < --k-min < --k-max, got {args.k_min} and {args.k_max}")
    if args.steps < 2:
        raise DomainError(f"--steps must be at least 2, got {args.steps}")
    cc = critical_constants()
    rows: list[AccessorySolution] = []
    for i in range(args.steps):
        k = args.k_min + (args.k_max - args.k_min) * i / (args.steps - 1)
        if abs(k - cc.k_crit) <= SWEEP_SKIP_HALF_WIDTH:
            print(f"skipping k = {k!r}: within {SWEEP_SKIP_HALF_WIDTH:g} of "
                  f"the critical value {cc.k_crit}", file=sys.stderr)
            continue
        # continue from the previous root of the same family
        family = Family.FIRST if k < cc.k_crit else Family.SECOND
        near = rows[-1].c if rows and rows[-1].param.family is family else None
        rows.append(_solve_any(k, args.tol_root, near))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("k,c,alpha,modulus,residual,family\n")
        for row in rows:
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%s\n" % (
                row.param.k, row.c, row.alpha, row.modulus, row.residual,
                row.param.family.value))
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_belyi(args: argparse.Namespace) -> int:
    n = args.example
    rmap = example_map(n)
    payload: dict = {
        "example": n,
        "label": rmap.label,
        "degree": rmap.degree,
        "variant": rmap.variant,
        "provenance": rmap.provenance,
    }
    strict_failures: list[str] = []
    try:
        portrait = verify_belyi(rmap, tol=1e-10)
        payload["ramified_only_over_0_1_inf"] = True
        payload["portrait"] = _portrait_payload(portrait)
    except BelyiViolationError as exc:
        payload["ramified_only_over_0_1_inf"] = False
        payload["error"] = str(exc)
        strict_failures.append(f"ramification check failed: {exc}")

    if n == 2:
        conditions = example2_conditions("corrected")
        payload["conditions"] = conditions
        bad = {name: val for name, val in conditions.items()
               if name != "w" and val > 1e-10}
        if bad:
            strict_failures.append(f"defining conditions exceed 1e-10: {bad}")
        printed: dict = {"variant": "printed",
                         "conditions": example2_conditions("printed")}
        try:
            verify_belyi(example_map(2, "printed"), tol=1e-10)
            printed["ramified_only_over_0_1_inf"] = True
        except BelyiViolationError as exc:
            printed["ramified_only_over_0_1_inf"] = False
            printed["error"] = str(exc)
        payload["printed_variant"] = printed

    _emit(payload)
    if strict_failures and args.strict:
        for line in strict_failures:
            print(line, file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _write_svg(path: str, report: BoundaryImageReport) -> None:
    """Polyline plot of the boundary image, one colour per side."""
    colors = {"(-1,1)": "#1f77b4", "(1,k)": "#d62728",
              "outer": "#2ca02c", "(-k,-1)": "#9467bd"}
    kept: list[tuple[str, list[complex]]] = []
    for side, samples in zip(report.sides, report.samples):
        pts = [w for _, w in samples if abs(w) <= SVG_CLIP_RADIUS]
        if pts:
            kept.append((side.side, pts))
    flat = [w for _, pts in kept for w in pts]
    lo_x, hi_x = min(w.real for w in flat), max(w.real for w in flat)
    lo_y, hi_y = min(w.imag for w in flat), max(w.imag for w in flat)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-3)
    pad = 0.08 * span
    lo_x, lo_y = lo_x - pad, lo_y - pad
    scale = 640.0 / (span + 2.0 * pad)

    def xy(w: complex) -> str:
        # SVG y axis points down
        return "%.6g,%.6g" % ((w.real - lo_x) * scale,
                              640.0 - (w.imag - lo_y) * scale)

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" '
             'viewBox="0 0 640 640" width="640" height="640">']
    for side, pts in kept:
        coords = " ".join(xy(w) for w in pts)
        lines.append(f'  <polyline fill="none" stroke="{colors[side]}" '
                     f'stroke-width="1.5" points="{coords}">'
                     f'<title>side {side}</title></polyline>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_boundary(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise DomainError(f"--samples must be positive, got {args.samples}")
    sol = _solve_any(args.k, args.tol_root)
    report = boundary_check(sol, samples_per_side=args.samples,
                            tol=args.tol_quad,
                            keep_samples=args.svg is not None)
    _emit({
        "k": args.k,
        "family": sol.param.family.value,
        "alpha": report.alpha,
        "line_angle": report.line_angle,
        "sides": [
            {
                "side": s.side,
                "target": s.target,
                "samples": s.samples,
                "max_dist_assigned": s.max_dist_assigned,
                "max_dist_real": s.max_dist_real,
                "max_dist_unit": s.max_dist_unit,
                "max_dist_line": s.max_dist_line,
            }
            for s in report.sides
        ],
        "unit_sides": list(report.unit_sides),
        "unit_pair_opposite": report.unit_pair_opposite,
        "two_circle_margins": [
            {"pair": pair, "margin": margin}
            for pair, margin in report.two_circle_margins
        ],
    })
    if args.svg is not None:
        _write_svg(args.svg, report)
        print(f"wrote boundary image plot to {args.svg}", file=sys.stderr)
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _tolerance(text: str, allow_zero: bool) -> float:
    """argparse type for a tolerance: finite and >= 0 (or > 0)."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(val) and (val > 0.0 or (allow_zero and val == 0.0))):
        bound = ">= 0" if allow_zero else "> 0"
        raise argparse.ArgumentTypeError(f"must be finite and {bound}, got {text!r}")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphrect",
        description="Spherical quadrilaterals with angles (3/2,1/2,3/2,1/2): "
                    "critical constants, accessory-parameter solving, modulus "
                    "conversion, algebraic-map verification, and boundary "
                    "image reports.")
    parser.add_argument("--tol-quad", type=lambda t: _tolerance(t, False),
                        default=1e-10,
                        help="quadrature tolerance for boundary reports "
                             "(default 1e-10)")
    parser.add_argument("--tol-root", type=lambda t: _tolerance(t, True),
                        default=1e-12,
                        help="root-finding tolerance for solve and sweep "
                             "(default 1e-12)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the critical constants")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("solve", help="solve the accessory-parameter problem")
    p.add_argument("--k", type=float, required=True,
                   help="shape parameter, k > 1 and away from k_crit")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="solve over a k grid and write CSV")
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("modulus", help="convert between k and the modulus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=float, help="shape parameter k > 1")
    group.add_argument("--K", type=float, help="target modulus M > 0")
    p.set_defaults(func=cmd_modulus)

    p = sub.add_parser("belyi", help="verify one of the algebraic example maps")
    p.add_argument("--example", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--strict", action="store_true",
                   help="exit 4 if any check exceeds tolerance")
    p.set_defaults(func=cmd_belyi)

    p = sub.add_parser("boundary", help="three-circle boundary image report")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--samples", type=int, default=16,
                   help="samples per boundary side (default 16)")
    p.add_argument("--svg", help="also write an SVG plot of the image")
    p.set_defaults(func=cmd_boundary)
    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse reads '-inf' (no digit after the '-') as an option, not as
    # a value: glue such values to their option, '--k=-inf'
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and \
                argv[i].lower() in ("-inf", "-infinity", "-nan"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AccuracyError, BracketError) as exc:
        print(f"error: failed to converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except BelyiViolationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    raise SystemExit(main())
