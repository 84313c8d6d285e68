"""Correctness gate: independent checks of every output, and output digests.

Each ``check_*`` function returns a list of problems; an empty list means the
output passed. The checks re-derive what they need from the inputs (exact
cores, overlap holes, map images, an eigenvalue oracle) instead of asking the
program. Digests cover the exact part of every output and are compared with
``golden.json``, recorded at the seed commit by ``make_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# a gds dimension may differ from the eigenvalue oracle by this much: power
# iteration on a defective spectrum converges like 1/k, and at the 200,000
# iteration cap the radius is still about 1e-5 above its true value
DIMENSION_TOL = 1e-4

# depth at which a witness point must be certified In; witness points are
# scaled endpoints of rank at most the query depth plus 16
MEMBERSHIP_DEPTH = 96


def q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _iv(iv):
    return None if iv is None else [q(iv.lo), q(iv.hi)]


# -- visibility -----------------------------------------------------------------

def exact_core(lam: Fraction) -> tuple[Fraction, Fraction]:
    return 1 - lam, 1 / (1 - lam)


def _is_lambda_power(ratio: Fraction, lam: Fraction, limit: int = 64):
    """The integer k with ratio == lam**k, or None."""
    if ratio <= 0:
        return None
    k, r = 0, ratio
    for _ in range(limit):
        if r == 1:
            return k
        if r > 1:
            r, k = r * lam, k - 1
        else:
            r, k = r / lam, k + 1
    return None


def _structure_gap_problem(lam: Fraction, lo: Fraction, hi: Fraction):
    """None when (lo, hi) is the gap between two consecutive exact scaled cores."""
    core_lo, core_hi = exact_core(lam)
    k = _is_lambda_power(lo / core_hi, lam)
    if k is None or hi != lam ** (k - 1) * core_lo:
        return f"gap ({q(lo)}, {q(hi)}) is not between consecutive scaled cores"
    return None


def check_cover(lam: Fraction, cover) -> list[str]:
    parts = list(cover.parts)
    if not parts:
        return ["empty cover"]
    problems = []
    if any(a.hi >= b.lo for a, b in zip(parts, parts[1:])):
        problems.append("cover parts not sorted and disjoint")
    lo, hi = exact_core(lam)
    if (parts[0].lo, parts[-1].hi) != (lo, hi):
        problems.append(f"cover hull [{q(parts[0].lo)}, {q(parts[-1].hi)}] "
                        f"is not [{q(lo)}, {q(hi)}]")
    if lam >= Fraction(1, 3) and len(parts) != 1:
        problems.append(f"cover for lambda >= 1/3 has {len(parts)} parts, not 1")
    return problems


def check_visible_query(lam: Fraction, alpha: Fraction, ans, membership, params) -> list[str]:
    """Certificates of one visible_query answer.

    `membership` and `params` are the program's cantor.membership and
    CantorParams(lam): the witness points must be certified In by them.
    """
    status = ans.status.value
    problems = []
    if status == "NotVisible":
        if ans.witness is None and ans.core is None and alpha != 0:
            problems.append("NotVisible without witness or core")
        if ans.witness is not None:
            x, y = ans.witness
            if y == 0 or x / y != alpha:
                problems.append(f"witness {q(x)}/{q(y)} != alpha {q(alpha)}")
            for point in (x, y):
                verdict = membership(params, point, MEMBERSHIP_DEPTH).status.value
                if verdict != "In":
                    problems.append(f"witness point {q(point)} is {verdict}, not In")
        if ans.core is not None:
            if not ans.core.lo <= alpha <= ans.core.hi:
                problems.append(f"alpha {q(alpha)} outside core {_iv(ans.core)}")
            if lam >= Fraction(1, 3) and ans.witness is None:
                lo, hi = exact_core(lam)
                k = ans.scale_k
                if k is None or (ans.core.lo, ans.core.hi) != (lam ** k * lo, lam ** k * hi):
                    problems.append(f"core {_iv(ans.core)} is not an exact scaled core")
    elif status == "Visible":
        gap = ans.gap
        if gap is None or not gap.lo < alpha < gap.hi:
            problems.append(f"gap {_iv(gap)} does not contain alpha {q(alpha)}")
        elif lam >= Fraction(1, 3):
            problem = _structure_gap_problem(lam, gap.lo, gap.hi)
            if problem:
                problems.append(problem)
    elif status != "UnknownAtDepth":
        problems.append(f"unknown status {status!r}")
    return problems


def check_visible_set(lam: Fraction, vs) -> list[str]:
    gaps = list(vs.gaps)
    problems = []
    if any(not g.lo < g.hi for g in gaps):
        problems.append("empty gap")
    if any(a.hi > b.lo for a, b in zip(gaps, gaps[1:])):
        problems.append("gaps not sorted and disjoint")
    if any(g.lo <= 0 for g in gaps):
        problems.append("gap at a nonpositive slope")
    disc = lam * lam - 3 * lam + 1
    if disc <= 0 and gaps:
        problems.append("gaps reported where every slope is blocked")
    if lam >= Fraction(1, 3):
        problems.extend(p for p in (_structure_gap_problem(lam, g.lo, g.hi) for g in gaps) if p)
    return problems


def digest_cover(cover) -> str:
    return digest([_iv(p) for p in cover.parts])


def digest_visible_query(ans) -> str:
    return digest({
        "status": ans.status.value, "reason": ans.reason, "scale_k": ans.scale_k,
        "core": _iv(ans.core), "gap": _iv(ans.gap),
        "witness": None if ans.witness is None else [q(w) for w in ans.witness],
    })


def digest_visible_set(vs) -> str:
    return digest({"exact": vs.exact, "regime": vs.regime.tag.value,
                   "gaps": [_iv(g) for g in vs.gaps]})


# -- slice dynamics -------------------------------------------------------------

def projection_maps(lam: Fraction, t: Fraction) -> dict[int, Fraction]:
    """Shift of each of the four maps x -> lam*x + shift, by label."""
    return {1: -(1 - lam) * t, 2: (1 - lam) * (1 - t), 3: Fraction(0), 4: 1 - lam}


def holes(lam: Fraction, t: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Nondegenerate overlaps of consecutive images of [-t, 1]."""
    images = sorted((lam * -t + s, lam + s) for s in set(projection_maps(lam, t).values()))
    out = []
    for (alo, ahi), (blo, bhi) in zip(images, images[1:]):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo < hi:
            out.append((lo, hi))
    return out


def check_gds(lam: Fraction, t: Fraction, system) -> list[str]:
    """Criterion-7 checks: every edge image sits inside its source state and
    meets no hole interior."""
    shifts = projection_maps(lam, t)
    hs = holes(lam, t)
    states = system.states
    problems = []
    if not system.edges:
        problems.append("graph-directed system has no edges")
    for e in system.edges:
        piece = states[e.dst]
        lo, hi = lam * piece.lo + shifts[e.label], lam * piece.hi + shifts[e.label]
        if not (states[e.src].lo <= lo and hi <= states[e.src].hi):
            problems.append(f"edge {e} image [{q(lo)}, {q(hi)}] outside its source state")
        if any(max(lo, hlo) < min(hi, hhi) for hlo, hhi in hs):
            problems.append(f"edge {e} image meets a hole interior")
    return problems


def numpy_spectral_radius(adjacency) -> float:
    """The largest eigenvalue modulus by numpy.linalg.eigvals.

    numpy is imported here, not at the top, so that the benchmark process
    only loads it when the program does; the benchmark runs this function in
    its helper interpreter (helper.py).
    """
    import numpy as np
    a = np.array(adjacency, dtype=float)
    return float(max(abs(np.linalg.eigvals(a)))) if a.size else 0.0


def oracle_dimension(lam: Fraction, adjacency, spectral_radius=numpy_spectral_radius) -> float:
    """log(rho)/(-log lam), rho the spectral radius of the adjacency matrix."""
    rho = spectral_radius(adjacency)
    return math.log(rho) / -math.log(float(lam)) if rho > 1 else 0.0


def check_dimension(lam: Fraction, system, dimension: float,
                    spectral_radius=numpy_spectral_radius) -> list[str]:
    oracle = oracle_dimension(lam, system.adjacency, spectral_radius)
    if not abs(dimension - oracle) <= DIMENSION_TOL:
        return [f"dimension {dimension!r} differs from the eigenvalue oracle {oracle!r}"]
    return []


def check_counts(counts) -> list[str]:
    return [f"coding_count {c} != slice_count_2d {s} at offset {q(a)}"
            for a, c, s in counts if c != s]


def digest_gds(ifs, outcome: str, system=None, p1=None, p2=None) -> str:
    body = {"effective": list(ifs.effective), "degenerate": ifs.degenerate,
            "outcome": outcome}
    if system is not None:
        body.update({
            "states": [_iv(s) for s in system.states],
            "edges": [[e.src, e.dst, e.label] for e in system.edges],
            "separation": system.separation.value,
            "prop1": p1.verdict.value, "prop2": p2.verdict.value,
            "closure": [q(x) for x in p2.closure_union],
        })
    return digest(body)


def digest_univoque(est) -> str:
    return digest({"scales": [q(s) for s in est.scales], "counts": list(est.counts)})


def digest_count(count: int) -> str:
    return digest(count)


# -- cli ------------------------------------------------------------------------

# report fields that are floating point; everything else in a report is exact
APPROX_FIELDS = {"dimension", "spectral_radius", "iterations", "residual",
                 "slope", "intercept", "max_residual"}


def _exact_part(obj):
    if isinstance(obj, dict):
        return {k: _exact_part(v) for k, v in obj.items()
                if not k.endswith("_approx") and k not in APPROX_FIELDS}
    if isinstance(obj, list):
        return [_exact_part(v) for v in obj]
    return obj


def digest_cli(exit_code: int, text: str) -> str:
    """Digest of the exit code and the exact content of a report."""
    try:
        body = _exact_part(json.loads(text))
    except ValueError:
        body = text
    return digest({"exit": exit_code, "report": body})


def check_error_report(exit_code: int, stdout: str, code=None) -> list[str]:
    """An error must exit 1 and print {"error": {"code", "message"}} as JSON."""
    problems = []
    if exit_code != 1:
        problems.append(f"exit code {exit_code}, expected 1")
    try:
        err = json.loads(stdout)["error"]
        got = err["code"]
        if not isinstance(got, str) or not got or not isinstance(err["message"], str):
            raise TypeError
    except (ValueError, KeyError, TypeError):
        return problems + ["stdout is not a coded JSON error"]
    if code is not None and got != code:
        problems.append(f"error code {got!r}, expected {code!r}")
    return problems
