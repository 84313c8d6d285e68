"""Command-line front end: each subcommand wraps one library operation.

Reports are deterministic JSON by default (fixed key order, exact rationals
as "p/q" strings, approximate decimals rounded to 12 places and tagged with
an `_approx` suffix). Exit codes: 0 for definite answers, 2 for
Unknown/BudgetExceeded verdicts, 1 for errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import gds as gdsmod
from . import slices as slmod
from . import visibility as vismod
from .cantor import CantorParams, basic_intervals, ensure_depth
from .errors import (CantorVisError, ClosureNotFinite, OutOfRange,
                     OutputNotWritable, ParseError)
from .exact import Interval, IntervalSet, format_rational, parse_rational
from .render import svg_interval_sets

MAX_BUDGET = 10_000_000

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _approx(x) -> float:
    return round(float(x), 12)


def _q(x: Fraction) -> str:
    return format_rational(x)


def _iv(iv: Interval) -> list:
    return [_q(iv.lo), _q(iv.hi)]


def _ivset(s: IntervalSet) -> list:
    return [_iv(p) for p in s.parts]


def _check_budget(budget: int) -> int:
    if not 1 <= budget <= MAX_BUDGET:
        raise OutOfRange(f"budget must lie in [1, {MAX_BUDGET}], got {budget}")
    return budget


def _orbit_dict(orbit: slmod.OrbitClosure) -> dict:
    return {
        "start": _q(orbit.start),
        "status": orbit.status.value,
        "witness": list(orbit.witness_to_hole) if orbit.witness_to_hole else None,
        "saturated": orbit.saturated,
        "visited_count": len(orbit.visited),
        "visited": [_q(p) for p in orbit.visited],
    }


def _endpoint_rows(reports) -> list:
    return [{"label": r.label, "point": _q(r.point),
             "status": r.orbit.status.value,
             "witness": list(r.orbit.witness_to_hole) if r.orbit.witness_to_hole else None,
             "saturated": r.orbit.saturated,
             "closure_size": len(r.orbit.visited)}
            for r in reports]


def _project_dict(ifs: slmod.ProjectionIfs) -> dict:
    regs = slmod.overlap_regions(ifs)
    return {
        "lambda": _q(ifs.lam),
        "slope_t": _q(ifs.slope_t),
        "attractor": _iv(ifs.attractor),
        "degenerate": ifs.degenerate,
        "effective": list(ifs.effective),
        "maps": [{"label": i + 1, "ratio": _q(m.ratio), "shift": _q(m.shift)}
                 for i, m in enumerate(ifs.maps)],
        "images": [{"label": label, "interval": _iv(img)}
                   for label, img in ifs.images()],
        "overlaps": [{"interval": _iv(r.interval),
                      "maps": [r.left_label, r.right_label],
                      "degenerate": r.degenerate}
                     for r in regs.regions],
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, result_dict, payload, kind)
# ---------------------------------------------------------------------------

def _cmd_classify(args):
    regime = vismod.regime_classify(args.lam)
    result = {
        "regime": regime.tag.value,
        "discriminant": _q(regime.discriminant),
        "discriminant_approx": _approx(regime.discriminant),
        "boundary_flags": {"at_one_third": regime.at_one_third,
                           "at_one_quarter": regime.at_one_quarter},
    }
    return EXIT_OK, result, None, None


def _cmd_visible(args):
    ensure_depth(args.depth)
    ans = vismod.visible_query(args.lam, args.alpha, n=args.depth,
                               k_window=args.k_window)
    result = {"answer": ans.status.value, "reason": ans.reason}
    if ans.gap is not None:
        result["gap"] = _iv(ans.gap)
    if ans.scale_k is not None:
        result["scale_k"] = ans.scale_k
    if ans.core is not None:
        result["core"] = _iv(ans.core)
    if ans.witness is not None:
        result["witness"] = [_q(ans.witness[0]), _q(ans.witness[1])]
    code = EXIT_UNKNOWN if ans.status is vismod.Visibility.UNKNOWN_AT_DEPTH else EXIT_OK
    return code, result, None, None


def _cmd_visible_set(args):
    ensure_depth(args.depth)
    vs = vismod.visible_set(args.lam, args.k_window, n=args.depth)
    result = {
        "regime": vs.regime.tag.value,
        "exact": vs.exact,
        "k_window": vs.k_window,
        "gap_count": len(vs.gaps),
        "gaps": [_iv(g) for g in vs.gaps],
    }
    payload = None
    if args.format == "svg":
        payload = svg_interval_sets(
            [("gaps", IntervalSet(vs.gaps))],
            title=f"visible gaps, lambda={_q(vs.lam)}, |k|<={vs.k_window}")
    return EXIT_OK, result, payload, "svg" if payload else None


def _cmd_quotient_cover(args):
    cover = vismod.quotient_core_cover(args.lam, args.depth)
    result = {
        "n": args.depth,
        "part_count": len(cover),
        "total_length": _q(cover.total_length),
        "total_length_approx": _approx(cover.total_length),
        "parts": _ivset(cover),
    }
    payload = None
    kind = None
    if args.format == "svg":
        payload = svg_interval_sets(
            [(f"n={args.depth}", cover)],
            title=f"quotient cover, lambda={_q(args.lam)}")
        kind = "svg"
    elif args.format == "csv":
        lines = ["lo,hi"] + [f"{_q(p.lo)},{_q(p.hi)}" for p in cover.parts]
        payload = "\n".join(lines) + "\n"
        kind = "csv"
    return EXIT_OK, result, payload, kind


def _parse_interval(text: str) -> Interval:
    bits = text.split(",")
    if len(bits) != 2:
        raise ParseError(f"interval literal must be LO,HI, got {text!r}")
    lo, hi = parse_rational(bits[0]), parse_rational(bits[1])
    if lo > hi:
        raise ParseError(f"interval literal must have LO <= HI, got {text!r}")
    return Interval(lo, hi)


def _cmd_key2_check(args):
    lam = args.lam
    if args.interval_i is not None:
        i = _parse_interval(args.interval_i)
    else:
        i = Interval(1 - lam, 1)
    j = _parse_interval(args.interval_j) if args.interval_j is not None else i
    pieces = vismod.key2_subintervals(lam, i, j)
    holds = vismod.key2_check(lam, i, j)
    result = {
        "holds": holds,
        "i": _iv(i),
        "j": _iv(j),
        "full": _iv(pieces.full),
        "parts": [_iv(p) for p in pieces.parts],
        "margins": {k: _q(v) for k, v in pieces.overlap_margins().items()},
        "union": _ivset(IntervalSet(pieces.parts)),
    }
    return EXIT_OK, result, None, None


def _cmd_thickness(args):
    lam = args.lam
    holds = vismod.thickness_condition(lam)
    result = {
        "holds": holds,
        "lhs": _q(lam),
        "rhs": _q((1 - 2 * lam) ** 2),
    }
    return EXIT_OK, result, None, None


def _cmd_boxdim(args):
    lam = args.lam
    if args.n_min >= args.n_max:
        raise OutOfRange(f"--n-min must be below --n-max, got {args.n_min}, {args.n_max}")
    ensure_depth(args.n_max)
    depths = range(args.n_min, args.n_max + 1)
    if args.family == "basic":
        params = CantorParams(lam)
        covers = [(lam ** n, basic_intervals(params, n)) for n in depths]
    else:
        covers = [(lam ** n, vismod.quotient_core_cover(lam, n)) for n in depths]
    est = vismod.box_dim_estimate(covers)
    points = [{"n": n, "scale": _q(s), "count": c}
              for n, s, c in zip(depths, est.scales, est.counts)]
    result = {
        "family": args.family,
        "slope": _approx(est.slope),
        "intercept": _approx(est.intercept),
        "max_residual": _approx(est.max_residual),
        "points": points,
    }
    payload = None
    kind = None
    if args.format == "csv":
        lines = ["n,scale,count"] + [f"{p['n']},{p['scale']},{p['count']}" for p in points]
        payload = "\n".join(lines) + "\n"
        kind = "csv"
    return EXIT_OK, result, payload, kind


def _cmd_project(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    result = _project_dict(ifs)
    payload = None
    kind = None
    if args.format == "svg":
        rows = [(f"g{label}", IntervalSet([img])) for label, img in ifs.images()]
        rows.append(("overlaps", slmod.overlap_regions(ifs).hole_set()))
        payload = svg_interval_sets(
            rows, title=f"projection images, lambda={_q(ifs.lam)}, t={_q(ifs.slope_t)}")
        kind = "svg"
    return EXIT_OK, result, payload, kind


def _cmd_orbits(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    orbit = slmod.orbit_search(ifs, args.point, budget=_check_budget(args.budget))
    result = _orbit_dict(orbit)
    code = (EXIT_UNKNOWN if orbit.status is slmod.OrbitStatus.BUDGET_EXCEEDED
            else EXIT_OK)
    return code, result, None, None


def _cmd_prop1(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    rep = slmod.prop1_check(ifs, budget=_check_budget(args.budget))
    result = {
        "holds": rep.holds,
        "verdict": rep.verdict.value,
        "failing": [r.label for r in rep.failing()],
        "endpoints": _endpoint_rows(rep.endpoints),
    }
    code = EXIT_UNKNOWN if rep.verdict is slmod.Verdict.UNKNOWN else EXIT_OK
    return code, result, None, None


def _cmd_prop2(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    rep = slmod.prop2_check(ifs, budget=_check_budget(args.budget))
    result = {
        "holds": rep.holds,
        "verdict": rep.verdict.value,
        "closure_size": len(rep.closure_union),
        "closure": [_q(p) for p in rep.closure_union],
        "endpoints": _endpoint_rows(rep.endpoints),
    }
    code = EXIT_UNKNOWN if rep.verdict is slmod.Verdict.UNKNOWN else EXIT_OK
    return code, result, None, None


def _cmd_gds(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    try:
        system, p1, p2 = gdsmod.gds_from_dynamics(ifs, budget=_check_budget(args.budget))
    except ClosureNotFinite as exc:
        result = {"verdict": "unknown", "reason": str(exc)}
        return EXIT_UNKNOWN, result, None, None
    result = system.to_json_dict()
    result["prop1_holds"] = p1.holds
    result["prop2_holds"] = p2.holds
    payload = None
    kind = None
    if args.format == "dot":
        payload = system.to_dot()
        kind = "dot"
    elif args.format == "svg":
        rows = [(f"s{i}", IntervalSet([s])) for i, s in enumerate(system.states)]
        payload = svg_interval_sets(rows, title="graph-directed states")
        kind = "svg"
    return EXIT_OK, result, payload, kind


def _cmd_gds_dim(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    try:
        system, _, _ = gdsmod.gds_from_dynamics(ifs, budget=_check_budget(args.budget))
    except ClosureNotFinite as exc:
        result = {"verdict": "unknown", "reason": str(exc)}
        return EXIT_UNKNOWN, result, None, None
    rho = gdsmod.spectral_radius(system.adjacency)
    result = {
        "dimension": _approx(gdsmod.gds_dimension(system)),
        "spectral_radius": _approx(rho.value),
        "iterations": rho.iterations,
        "residual": _approx(rho.residual),
        "n_states": system.n_states,
        "n_edges": len(system.edges),
    }
    return EXIT_OK, result, None, None


def _cmd_codings(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    ensure_depth(args.depth)
    count = slmod.coding_count(ifs, args.point, args.depth)
    result = {"point": _q(args.point), "depth": args.depth,
              "count": count, "unique": count == 1}
    return EXIT_OK, result, None, None


def _cmd_slice_count(args):
    ensure_depth(args.depth)
    count = slmod.slice_count_2d(args.lam, args.slope_t, args.point, args.depth)
    result = {"point": _q(args.point), "depth": args.depth, "count": count}
    return EXIT_OK, result, None, None


_HANDLERS = {
    "classify": _cmd_classify,
    "visible": _cmd_visible,
    "visible-set": _cmd_visible_set,
    "quotient-cover": _cmd_quotient_cover,
    "key2-check": _cmd_key2_check,
    "thickness": _cmd_thickness,
    "boxdim": _cmd_boxdim,
    "project": _cmd_project,
    "orbits": _cmd_orbits,
    "prop1": _cmd_prop1,
    "prop2": _cmd_prop2,
    "gds": _cmd_gds,
    "gds-dim": _cmd_gds_dim,
    "codings": _cmd_codings,
    "slice-count": _cmd_slice_count,
}


def _add_common(sp, *, lam=True, slope=False, alpha=False, point=False,
                depth=None, k_window=False, budget=False):
    if lam:
        sp.add_argument("--lambda", dest="lam", required=True, type=parse_rational,
                        help="contraction ratio as p/q, 0 < lambda < 1/2")
    if slope:
        sp.add_argument("--slope-t", dest="slope_t", required=True,
                        type=parse_rational, help="slope t > 0 as p/q")
    if alpha:
        sp.add_argument("--alpha", required=True, type=parse_rational,
                        help="query slope alpha >= 0 as p/q")
    if point:
        sp.add_argument("--point", required=True, type=parse_rational,
                        help="point in the attractor as p/q")
    if depth is not None:
        sp.add_argument("--depth", type=int, default=depth,
                        help=f"enumeration depth (default {depth})")
    if k_window:
        sp.add_argument("--k-window", dest="k_window", type=int, default=8,
                        help="scale window half-width (default 8)")
    if budget:
        sp.add_argument("--budget", type=int, default=10_000,
                        help="orbit node budget (default 10000)")
    sp.add_argument("--format", choices=("json", "csv", "svg", "dot"),
                    default="json", help="output format (default json)")
    sp.add_argument("--out", default=None, help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorvis",
        description="Exact visibility, ratio-set, and slice-dynamics computations "
                    "for Cantor-set squares.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("classify", help="regime classification"))
    _add_common(sub.add_parser("visible", help="visibility of one slope"),
                alpha=True, depth=8, k_window=True)
    _add_common(sub.add_parser("visible-set", help="certified visible gaps"),
                depth=6, k_window=True)
    _add_common(sub.add_parser("quotient-cover", help="window quotient outer cover"),
                depth=6)
    p = sub.add_parser("key2-check", help="four-piece quotient refinement identity")
    _add_common(p)
    p.add_argument("--interval-i", default=None, metavar="LO,HI",
                   help="dividend interval (default [1-lambda, 1])")
    p.add_argument("--interval-j", default=None, metavar="LO,HI",
                   help="divisor interval (default: same as --interval-i)")
    _add_common(sub.add_parser("thickness", help="interval-guarantee inequality"))
    p = sub.add_parser("boxdim", help="box-counting slope for a cover family")
    _add_common(p)
    p.add_argument("--family", choices=("basic", "quotient"), default="basic")
    p.add_argument("--n-min", dest="n_min", type=int, default=2)
    p.add_argument("--n-max", dest="n_max", type=int, default=7)
    _add_common(sub.add_parser("project", help="projection system and overlaps"),
                slope=True)
    _add_common(sub.add_parser("orbits", help="inverse-orbit closure of a point"),
                slope=True, point=True, budget=True)
    _add_common(sub.add_parser("prop1", help="endpoint hole-return check"),
                slope=True, budget=True)
    _add_common(sub.add_parser("prop2", help="endpoint finite-closure check"),
                slope=True, budget=True)
    _add_common(sub.add_parser("gds", help="graph-directed system extraction"),
                slope=True, budget=True)
    _add_common(sub.add_parser("gds-dim", help="graph-directed dimension"),
                slope=True, budget=True)
    _add_common(sub.add_parser("codings", help="admissible branch-word count"),
                slope=True, point=True, depth=8)
    _add_common(sub.add_parser("slice-count", help="product cells meeting a slice"),
                slope=True, point=True, depth=8)
    return parser


def _error_text(command, code: str, message: str) -> str:
    report = {"error": {"code": code, "message": message}}
    if command is not None:
        report = {"command": command, **report}
    return json.dumps(report, indent=2) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CantorVisError as exc:
        # bad rational literals raise before any subcommand runs
        sys.stdout.write(_error_text(None, exc.code, str(exc)))
        return EXIT_ERROR
    handler = _HANDLERS[args.command]
    try:
        code, result, payload, kind = handler(args)
    except CantorVisError as exc:
        code, text = EXIT_ERROR, _error_text(args.command, exc.code, str(exc))
    except Exception as exc:
        # a defect, not a domain error: keep the JSON contract, and the
        # traceback for whoever fixes it
        import traceback
        traceback.print_exc()
        code = EXIT_ERROR
        text = _error_text(args.command, "internal", f"{type(exc).__name__}: {exc}")
    else:
        if args.format != "json" and payload is not None:
            text = payload
        else:
            text = json.dumps({"command": args.command, "result": result}, indent=2) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stdout.write(_error_text(args.command, OutputNotWritable.code,
                                     f"cannot write {args.out}: {exc.strerror}"))
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
