"""Command-line front end: each subcommand wraps one library operation.

Reports are deterministic JSON by default (fixed key order, exact rationals
as "p/q" strings, approximate decimals rounded to 12 places and tagged with
an `_approx` suffix). Exit codes: 0 for definite answers, 2 for
Unknown/BudgetExceeded verdicts, 1 for errors, usage errors included.

Each subcommand is one row of `_COMMANDS` and one `_cmd_*` handler.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import gds as gdsmod
from . import slices as slmod
from . import visibility as vismod
from .cantor import CantorParams, basic_intervals
from .errors import (CantorVisError, ClosureNotFinite, OutOfRange,
                     OutputNotWritable, ParseError)
from .exact import Interval, IntervalSet, format_rational, parse_rational
from .render import svg_interval_sets

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _approx(x) -> float:
    return round(float(x), 12)


_q = format_rational


def _iv(iv: Interval) -> list:
    return [_q(iv.lo), _q(iv.hi)]


def _csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(map(str, row)) for row in rows]) + "\n"


def _orbit_fields(orbit: slmod.OrbitClosure) -> dict:
    witness = orbit.witness_to_hole
    return {"status": orbit.status.value, "witness": list(witness) if witness else None,
            "saturated": orbit.saturated}


def _endpoint_rows(reports) -> list:
    return [{"label": r.label, "point": _q(r.point), **_orbit_fields(r.orbit),
             "closure_size": len(r.orbit.parents)}
            for r in reports]


# subcommand handlers: each returns (exit_code, result_dict, renderers), where
# renderers maps each non-JSON format of its row to a function building it

def _cmd_classify(args):
    regime = vismod.regime_classify(args.lam)
    result = {
        "regime": regime.tag.value,
        "discriminant": _q(regime.discriminant),
        "discriminant_approx": _approx(regime.discriminant),
        "boundary_flags": {"at_one_third": regime.at_one_third,
                           "at_one_quarter": regime.at_one_quarter},
    }
    return EXIT_OK, result, {}


def _cmd_visible(args):
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
    return code, result, {}


def _cmd_visible_set(args):
    vs = vismod.visible_set(args.lam, args.k_window, n=args.depth)
    result = {
        "regime": vs.regime.tag.value,
        "exact": vs.exact,
        "k_window": vs.k_window,
        "gap_count": len(vs.gaps),
        "gaps": [_iv(g) for g in vs.gaps],
    }
    return EXIT_OK, result, {"svg": lambda: svg_interval_sets(
        [("gaps", IntervalSet(vs.gaps))],
        title=f"visible gaps, lambda={_q(vs.lam)}, |k|<={vs.k_window}")}


def _cmd_quotient_cover(args):
    cover = vismod.quotient_core_cover(args.lam, args.depth)
    result = {
        "n": args.depth,
        "part_count": len(cover),
        "total_length": _q(cover.total_length),
        "total_length_approx": _approx(cover.total_length),
        "parts": [_iv(p) for p in cover.parts],
    }
    return EXIT_OK, result, {
        "csv": lambda: _csv("lo,hi", result["parts"]),
        "svg": lambda: svg_interval_sets(
            [(f"n={args.depth}", cover)],
            title=f"quotient cover, lambda={_q(args.lam)}"),
    }


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
    i = (Interval(1 - lam, 1) if args.interval_i is None
         else _parse_interval(args.interval_i))
    j = i if args.interval_j is None else _parse_interval(args.interval_j)
    pieces = vismod.key2_subintervals(lam, i, j)
    result = {
        "holds": vismod.key2_check(lam, i, j),
        "i": _iv(i),
        "j": _iv(j),
        "full": _iv(pieces.full),
        "parts": [_iv(p) for p in pieces.parts],
        "margins": {k: _q(v) for k, v in pieces.overlap_margins().items()},
        "union": [_iv(p) for p in IntervalSet(pieces.parts).parts],
    }
    return EXIT_OK, result, {}


def _cmd_thickness(args):
    lam = args.lam
    result = {"holds": vismod.thickness_condition(lam),
              "lhs": _q(lam), "rhs": _q((1 - 2 * lam) ** 2)}
    return EXIT_OK, result, {}


def _cmd_boxdim(args):
    lam = args.lam
    if args.n_min >= args.n_max:
        raise OutOfRange(f"--n-min must be below --n-max, got {args.n_min}, {args.n_max}")
    depths = range(args.n_min, args.n_max + 1)
    build = (partial(basic_intervals, CantorParams(lam)) if args.family == "basic"
             else partial(vismod.quotient_core_cover, lam))
    # deepest first, so the ceilings refuse before any cover is built
    covers = [build(n) for n in reversed(depths)][::-1]
    est = vismod.box_dim_estimate([(lam ** n, c) for n, c in zip(depths, covers)])
    points = [{"n": n, "scale": _q(s), "count": c}
              for n, s, c in zip(depths, est.scales, est.counts)]
    result = {
        "family": args.family,
        "slope": _approx(est.slope),
        "intercept": _approx(est.intercept),
        "max_residual": _approx(est.max_residual),
        "points": points,
    }
    return EXIT_OK, result, {
        "csv": lambda: _csv("n,scale,count", (p.values() for p in points))}


def _cmd_project(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    result = {
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
                     for r in ifs.regions.regions],
    }
    return EXIT_OK, result, {"svg": lambda: svg_interval_sets(
        [(f"g{label}", IntervalSet([img])) for label, img in ifs.images()]
        + [("overlaps", ifs.regions.hole_set())],
        title=f"projection images, lambda={_q(ifs.lam)}, t={_q(ifs.slope_t)}")}


def _cmd_orbits(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    orbit = slmod.orbit_search(ifs, args.point, budget=args.budget)
    result = {"start": _q(orbit.start), **_orbit_fields(orbit),
              "visited_count": len(orbit.parents),
              "visited": [_q(p) for p in orbit.visited]}
    code = (EXIT_UNKNOWN if orbit.status is slmod.OrbitStatus.BUDGET_EXCEEDED
            else EXIT_OK)
    return code, result, {}


def _cmd_prop1(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    rep = slmod.prop1_check(ifs, budget=args.budget)
    result = {
        "holds": rep.holds,
        "verdict": rep.verdict.value,
        "failing": [r.label for r in rep.failing()],
        "endpoints": _endpoint_rows(rep.endpoints),
    }
    code = EXIT_UNKNOWN if rep.verdict is slmod.Verdict.UNKNOWN else EXIT_OK
    return code, result, {}


def _cmd_prop2(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    rep = slmod.prop2_check(ifs, budget=args.budget)
    result = {
        "holds": rep.holds,
        "verdict": rep.verdict.value,
        "closure_size": len(rep.closure_union),
        "closure": [_q(p) for p in rep.closure_union],
        "endpoints": _endpoint_rows(rep.endpoints),
    }
    code = EXIT_UNKNOWN if rep.verdict is slmod.Verdict.UNKNOWN else EXIT_OK
    return code, result, {}


def _cmd_gds(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    system, p1, p2 = gdsmod.gds_from_dynamics(ifs, budget=args.budget)
    result = system.to_json_dict()
    result["prop1_holds"] = p1.holds
    result["prop2_holds"] = p2.holds
    return EXIT_OK, result, {
        "svg": lambda: svg_interval_sets(
            [(f"s{i}", IntervalSet([s])) for i, s in enumerate(system.states)],
            title="graph-directed states"),
        "dot": system.to_dot,
    }


def _cmd_gds_dim(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    system, _, _ = gdsmod.gds_from_dynamics(ifs, budget=args.budget)
    rho = gdsmod.spectral_radius(system.adjacency).value
    result = {
        "dimension": _approx(gdsmod._dimension(rho, system.lam)),
        "spectral_radius": _approx(rho),
        "n_states": system.n_states,
        "n_edges": len(system.edges),
    }
    return EXIT_OK, result, {}


def _cmd_codings(args):
    ifs = slmod.build_projection_ifs(args.lam, args.slope_t)
    count = slmod.coding_count(ifs, args.point, args.depth)
    result = {"point": _q(args.point), "depth": args.depth,
              "count": count, "unique": count == 1}
    return EXIT_OK, result, {}


def _cmd_slice_count(args):
    count = slmod.slice_count_2d(args.lam, args.slope_t, args.point, args.depth)
    result = {"point": _q(args.point), "depth": args.depth, "count": count}
    return EXIT_OK, result, {}


_OPTIONS = {
    "--lambda": dict(dest="lam", required=True, type=parse_rational,
                     help="contraction ratio as p/q, 0 < lambda < 1/2"),
    "--slope-t": dict(required=True, type=parse_rational, help="slope t > 0 as p/q"),
    "--alpha": dict(required=True, type=parse_rational,
                    help="query slope alpha >= 0 as p/q"),
    "--point": dict(required=True, type=parse_rational,
                    help="point in the attractor as p/q"),
    "--k-window": dict(type=int, default=8, help="scale window half-width (default 8)"),
    "--budget": dict(type=int, default=10_000, help="orbit node budget (default 10000)"),
    "--interval-i": dict(metavar="LO,HI",
                         help="dividend interval (default [1-lambda, 1])"),
    "--interval-j": dict(metavar="LO,HI",
                         help="divisor interval (default: same as --interval-i)"),
    "--family": dict(choices=("basic", "quotient"), default="basic"),
    "--n-min": dict(type=int, default=2),
    "--n-max": dict(type=int, default=7),
}

# name: (help, handler, options besides --lambda, default --depth, non-JSON formats)
_COMMANDS = {
    "classify": ("regime classification", _cmd_classify, "", None, ""),
    "visible": ("visibility of one slope", _cmd_visible, "--alpha --k-window", 8, ""),
    "visible-set": ("certified visible gaps", _cmd_visible_set, "--k-window", 6, "svg"),
    "quotient-cover": ("window quotient outer cover", _cmd_quotient_cover, "", 6,
                       "csv svg"),
    "key2-check": ("four-piece quotient refinement identity", _cmd_key2_check,
                   "--interval-i --interval-j", None, ""),
    "thickness": ("interval-guarantee inequality", _cmd_thickness, "", None, ""),
    "boxdim": ("box-counting slope for a cover family", _cmd_boxdim,
               "--family --n-min --n-max", None, "csv"),
    "project": ("projection system and overlaps", _cmd_project, "--slope-t", None, "svg"),
    "orbits": ("inverse-orbit closure of a point", _cmd_orbits,
               "--slope-t --point --budget", None, ""),
    "prop1": ("endpoint hole-return check", _cmd_prop1, "--slope-t --budget", None, ""),
    "prop2": ("endpoint finite-closure check", _cmd_prop2,
              "--slope-t --budget", None, ""),
    "gds": ("graph-directed system extraction", _cmd_gds, "--slope-t --budget", None,
            "svg dot"),
    "gds-dim": ("graph-directed dimension", _cmd_gds_dim, "--slope-t --budget", None, ""),
    "codings": ("admissible branch-word count", _cmd_codings, "--slope-t --point", 8, ""),
    "slice-count": ("product cells meeting a slice", _cmd_slice_count,
                    "--slope-t --point", 8, ""),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError: a coded JSON error, not usage text and exit 2."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cantorvis",
        description="Exact visibility, ratio-set, and slice-dynamics computations "
                    "for Cantor-set squares.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options, depth, formats) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        for flag in ("--lambda", *options.split()):
            sp.add_argument(flag, **_OPTIONS[flag])
        if depth is not None:
            sp.add_argument("--depth", type=int, default=depth,
                            help=f"enumeration depth (default {depth})")
        sp.add_argument("--format", choices=("json", *formats.split()), default="json",
                        help="output format (default json)")
        sp.add_argument("--out", help="write the report to this file")
    return parser


def _report_text(command: str, result: dict) -> str:
    return json.dumps({"command": command, "result": result}, indent=2) + "\n"


def _error_text(command, code: str, message: str) -> str:
    report = {"error": {"code": code, "message": message}}
    if command is not None:
        report = {"command": command, **report}
    return json.dumps(report, indent=2) + "\n"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except CantorVisError as exc:
        # usage errors and bad rational literals raise before any subcommand runs
        sys.stdout.write(_error_text(None, exc.code, str(exc)))
        return EXIT_ERROR
    try:
        code, result, renderers = args.handler(args)
        text = (_report_text(args.command, result) if args.format == "json"
                else renderers[args.format]())
    except ClosureNotFinite as exc:
        # the orbit closures outgrew the budget: an Unknown verdict, not an error
        code = EXIT_UNKNOWN
        text = _report_text(args.command, {"verdict": "unknown", "reason": str(exc)})
    except CantorVisError as exc:
        code, text = EXIT_ERROR, _error_text(args.command, exc.code, str(exc))
    except Exception as exc:
        # a defect, not a domain error: keep the JSON contract, and the
        # traceback for whoever fixes it
        import traceback
        traceback.print_exc()
        code = EXIT_ERROR
        text = _error_text(args.command, "internal", f"{type(exc).__name__}: {exc}")
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
