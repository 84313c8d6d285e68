"""The benchmark's own tests: the correctness gate rejects corrupted outputs,
and the same seed generates the same inputs.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return wl.Program()


def _witnessed(prog):
    lam = F(2, 7)
    alpha = 1 - lam
    ans = prog.vis.visible_query(lam, alpha, n=6)
    assert ans.status.value == "NotVisible" and ans.witness is not None
    return lam, alpha, ans


def _check(prog, lam, alpha, ans):
    return gate.check_visible_query(lam, alpha, ans, prog.cantor.membership,
                                    prog.cantor.CantorParams(lam))


def test_gate_accepts_a_true_witness(prog):
    assert _check(prog, *_witnessed(prog)) == []


def test_gate_rejects_a_witness_with_the_wrong_ratio(prog):
    lam, alpha, ans = _witnessed(prog)
    x, y = ans.witness
    bad = dataclasses.replace(ans, witness=(x + F(1, 1000), y))
    assert any("!= alpha" in p for p in _check(prog, lam, alpha, bad))


def test_gate_rejects_a_witness_outside_the_cantor_set(prog):
    lam, alpha, ans = _witnessed(prog)
    x, y = ans.witness
    # same ratio, but the middle-gap points are not in K
    scale = F(1, 2) / x
    bad = dataclasses.replace(ans, witness=(x * scale, y * scale))
    assert any("not In" in p for p in _check(prog, lam, alpha, bad))


def test_gate_rejects_a_gap_that_misses_alpha(prog):
    lam = F(7, 20)
    ans = prog.vis.visible_query(lam, F(17, 10), n=6)
    assert _check(prog, lam, F(17, 10), ans) == []
    bad = dataclasses.replace(ans, gap=prog.vis.Interval(F(1), F(3, 2)))
    assert _check(prog, lam, F(17, 10), bad)


def test_gate_rejects_a_wrong_cover(prog):
    lam = F(1, 3)
    cover = prog.vis.quotient_core_cover(lam, 3)
    assert gate.check_cover(lam, cover) == []
    IntervalSet, Interval = prog.vis.IntervalSet, prog.vis.Interval
    split = IntervalSet([Interval(F(2, 3), 1), Interval(F(11, 10), F(3, 2))])
    assert gate.check_cover(lam, split)
    short = IntervalSet([Interval(F(2, 3), F(4, 3))])
    assert gate.check_cover(lam, short)


def test_gate_rejects_a_cover_whose_digest_changed(prog):
    req = ("qcc", F(1, 4), 4)
    cover = wl.execute(prog, req, lambda: None)
    golden = {wl.request_key(req): gate.digest_cover(cover)}
    assert wl.verify(prog, req, cover, golden) == []
    # fill the first inner gap: still a valid-looking cover with the right hull
    a, b, c, *rest = cover.parts
    filled = prog.vis.IntervalSet([a, prog.vis.Interval(b.lo, c.hi), *rest])
    assert gate.check_cover(req[1], filled) == []
    assert wl.verify(prog, req, filled, golden) == [f"digest mismatch for {wl.request_key(req)}"]


def test_gate_rejects_a_wrong_count(prog):
    assert gate.check_counts([(F(0), 3, 3)]) == []
    assert gate.check_counts([(F(0), 3, 4)])


def test_gate_checks_edges_and_dimension(prog):
    lam, t = F(1, 3), F(1, 2)
    ifs = prog.slices.build_projection_ifs(lam, t)
    system, _, _ = prog.gds.gds_from_dynamics(ifs)
    dim = prog.gds.gds_dimension(system)
    assert gate.check_gds(lam, t, system) == []
    assert gate.check_dimension(lam, system, dim) == []
    assert gate.check_dimension(lam, system, dim + 1e-3)
    e = system.edges[0]
    wrong = dataclasses.replace(e, label=e.label % 4 + 1)
    bad = dataclasses.replace(system, edges=(wrong, *system.edges[1:]))
    assert gate.check_gds(lam, t, bad)


def test_gate_requires_a_coded_json_error():
    ok = '{"error": {"code": "parse-error", "message": "x"}}'
    assert gate.check_error_report(1, ok, "parse-error") == []
    assert gate.check_error_report(1, ok, "out-of-range")
    assert gate.check_error_report(1, "", None)
    assert gate.check_error_report(0, ok, None)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b, c = wl.Rounds(workload, 7), wl.Rounds(workload, 7), wl.Rounds(workload, 8)
    first = [a.next() for _ in range(3)]
    assert first == [b.next() for _ in range(3)]
    assert first != [c.next() for _ in range(3)]


def test_rounds_keep_their_composition():
    vis = wl.Rounds("visibility-mix", 3)
    assert len({tuple(sorted(r[0] for r in vis.next())) for _ in range(5)}) == 1
    sl = wl.Rounds("slice-dynamics", 3)
    for _ in range(3):
        ts = sorted(r[2] for r in sl.next() if r[3] == wl.SLICE_BUDGET)
        assert sum(t in wl.CAPPED_T for t in ts) == 1
        assert [t for t in ts if t not in wl.CAPPED_T] == sorted(wl.LIGHT_T + wl.LIGHT_T_TWICE)
        # every criterion-8 draw in every round
        assert len(ts) == len(wl.LIGHT_T + wl.LIGHT_T_TWICE) + 1


def test_every_input_has_a_recorded_digest():
    import json
    golden = json.loads((Path(wl.__file__).with_name("golden.json")).read_text())
    for req in wl.golden_keys_visibility():
        assert wl.request_key(req) in golden
    for args in wl.README_EXAMPLES:
        assert "cli|" + args in golden
    for lam, t, budget in wl.slice_inputs():
        assert wl.golden_key("gds", lam, t, budget) in golden


def test_helper_kernel_is_apart_from_this_interpreter():
    """The speed kernel runs in the helper: gc settings and a large heap in
    the benchmark process change neither the helper's state nor, beyond
    noise, the kernel's time."""
    import gc
    import statistics

    from helper import Helper

    with Helper() as helper:
        before = statistics.median(helper.calibrate() for _ in range(7))
        threshold = gc.get_threshold()
        heap = [[i] for i in range(300_000)]
        gc.set_threshold(1)
        try:
            state = helper.state()
            after = statistics.median(helper.calibrate() for _ in range(7))
        finally:
            gc.set_threshold(*threshold)
            del heap
    assert state == {"gc_enabled": False, "gc_threshold": list(threshold),
                     "cantorvis_loaded": False}
    assert after < 3 * before


def test_helper_oracle_matches_numpy():
    from helper import Helper

    adjacency = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    with Helper() as helper:
        rho = helper.spectral_radius(adjacency)
    assert rho == pytest.approx(gate.numpy_spectral_radius(adjacency))
    assert rho == pytest.approx(2.0)


def _run_python(code: str) -> str:
    import subprocess
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**wl.child_env(), "PYTHONPATH": f"{wl.SRC}:{Path(wl.__file__).parent}"},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_install_wraps_only_loaded_modules():
    out = _run_python(
        "import sys, tracing, cantorvis\n"
        "rec = tracing.Recorder(); tracing.install(rec)\n"
        "print('cantorvis.cli' in sys.modules, 'cantorvis.render' in sys.modules,\n"
        "      any(owner.__name__ == 'cantorvis.cli' for owner, _, _ in rec._restore))")
    assert out == "False False False"


def test_first_import_is_a_span():
    out = _run_python(
        "import tracing\n"
        "rec = tracing.Recorder()\n"
        "tracing.time_first_import(rec, 'xml', 'import_xml')\n"
        "import xml.dom.minidom\n"
        "import xml.dom.minidom, xml.sax\n"
        "own, calls = rec.self_times()\n"
        "print(calls['import_xml'], rec.total('import_xml') > 0)")
    assert out == "1 True"
