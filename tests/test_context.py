"""The per-job context: each per-face object is built once per job, jobs
do not see each other's state, failures are not cached, and repeated use
in one process keeps no dead objects alive."""

import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from stringykit import jacobian, linalg, reporting, sheaves
from stringykit.errors import (DegenerateCoefficients, StabilizationFailed,
                               TruncationTooSmall)
from stringykit.gkz import connection_on_hb
from stringykit.gpoly import g_polynomial
from stringykit.jacobian import (Context, HatModel, coefficient_function,
                                 random_coefficients)
from stringykit.koszul import cohomology_d, cohomology_dhat, hb_assemble
from stringykit.lattice import (FacePoset, cone_from_rays, cone_over_polytope,
                                make_gorenstein_pair)
from stringykit.reporting import parse_input, render_report, run
from stringykit.sheaves import (BigradedComplex, FanSpace, MinimalSheaf,
                                _nonzero_cohomology, annihilator_face)
from test_sheaves import one_class_or_none

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]
P2 = [(1, 0), (0, 1), (-1, -1)]


@pytest.mark.parametrize("name", ["segment", "square"])
def test_report_builds_each_per_face_object_once(name, monkeypatch):
    builds = {"quotient": Counter(), "hat": Counter(),
              "face_is_nondegenerate": Counter()}
    memo = Counter()
    hat_init = HatModel.__init__
    certificate = Context.face_is_nondegenerate
    get = Context._get

    def counting_hat(self, face, fn, D, deformed=True):
        builds["hat" if deformed else "quotient"][(face, fn, D, deformed)] \
            += 1
        hat_init(self, face, fn, D, deformed)

    def counting_certificate(self, face, f):
        builds["face_is_nondegenerate"][(face, f)] += 1
        return certificate(self, face, f)

    def counting_get(self, key, build):
        def counted():
            memo[key] += 1
            return build()
        return get(self, key, counted)

    monkeypatch.setattr(HatModel, "__init__", counting_hat)
    monkeypatch.setattr(Context, "face_is_nondegenerate",
                        counting_certificate)
    monkeypatch.setattr(Context, "_get", counting_get)

    job = parse_input(json.loads((CORPUS / (name + ".json")).read_text()))
    report, code = run(job)
    assert code == 0
    assert render_report(report) == \
        (CORPUS / (name + ".report.json")).read_text()
    for counter in builds.values():
        assert counter and max(counter.values()) == 1
    # every memo entry, R1 per key among them, is built once
    assert memo and max(memo.values()) == 1
    assert any(key[0] == "r1" for key in memo)
    # f and g, no resample at these seeds
    assert len([key for key in memo if key[0] == "nondegenerate"]) == 2


def test_jobs_in_one_process_match_separate_processes(tmp_path):
    docs = [{"polytope_vertices": [[-1], [1]], "f": "random:seed=1",
             "g": "random:seed=%d" % seed} for seed in (2, 7)]
    in_process = [render_report(run(parse_input(doc))[0]) for doc in docs]
    assert in_process[0] != in_process[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for doc, expected in zip(docs, in_process):
        job_path = tmp_path / "job.json"
        out_path = tmp_path / "report.json"
        job_path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "stringykit.cli", "report",
             str(job_path), "--output", str(out_path)],
            capture_output=True, text=True, cwd=str(ROOT), env=env)
        assert proc.returncode == 0, proc.stderr
        assert out_path.read_text() == expected


def test_no_face_poset_outlives_its_job(monkeypatch):
    """Two corpus jobs on different cones in one process: once their
    reports are dropped, the face posets of the first job's pair are
    gone.  The module-level caches that stay, ``koszul._slots`` and
    ``sheaves._monomials``, are keyed by wedge tuples and small ints,
    bounded by the rank, and hold no object of a job."""
    posets = []
    build_pair = reporting._build_pair

    def recording(job):
        pair = build_pair(job)
        posets.append([weakref.ref(pair.poset()),
                       weakref.ref(pair.dual_poset())])
        return pair

    monkeypatch.setattr(reporting, "_build_pair", recording)
    reports = [run(parse_input(json.loads((CORPUS / name).read_text())))
               for name in ("segment.json", "square.json")]
    assert [code for _, code in reports] == [0, 0]
    del reports
    gc.collect()
    assert len(posets) == 2
    assert [ref() for ref in posets[0]] == [None, None]


def _degenerate_cases():
    pair = make_gorenstein_pair(cone_over_polytope(P2))
    f = random_coefficients(pair, "f", 1)
    g = random_coefficients(pair, "g", 2)
    f0 = coefficient_function(pair, "f", {p: 0 for p in pair.delta()})
    g0 = coefficient_function(pair, "g", {p: 0 for p in pair.delta_dual()})
    return pair, [(f0, g), (f, g0)]


@pytest.mark.parametrize("verifier", [cohomology_d, hb_assemble,
                                      connection_on_hb])
def test_degenerate_rejected_without_context(verifier):
    """A verifier takes only a certified context, and Context(pair, f, g)
    refuses degenerate f or g before the verifier can run."""
    pair, cases = _degenerate_cases()
    for f, g in cases:
        with pytest.raises(DegenerateCoefficients):
            verifier(Context(pair, f, g))


def test_set_coefficients_rejects_degenerate():
    pair, cases = _degenerate_cases()
    for f, g in cases:
        ctx = Context(pair)
        with pytest.raises(DegenerateCoefficients):
            ctx.set_coefficients(f, g)
        assert (ctx.f, ctx.g) == (None, None)


def test_context_takes_f_and_g_together():
    pair = make_gorenstein_pair(cone_over_polytope(P2))
    f = random_coefficients(pair, "f", 1)
    with pytest.raises(ValueError):
        Context(pair, f)


def test_swapped_context_shares_the_memo():
    pair = make_gorenstein_pair(cone_over_polytope(P2))
    f = random_coefficients(pair, "f", 1)
    g = random_coefficients(pair, "g", 2)
    ctx = Context(pair, f, g)
    back = ctx.swap().swap()
    assert (back.pair, back.f, back.g) == (ctx.pair, ctx.f, ctx.g)
    assert ctx.swap().pair == pair.swap()
    assert (ctx.swap().f, ctx.swap().g) == (g, f)
    top = pair.poset().top
    got = ctx.swap().r1(top, ctx.f)
    entry = ctx._memo[("r1", top, ctx.f)]
    assert ctx.r1(top, ctx.f) == got == entry
    assert ctx._memo[("r1", top, ctx.f)] is entry


def test_ha_is_hb_of_the_swapped_context():
    pair = make_gorenstein_pair(cone_over_polytope(P2))
    f = random_coefficients(pair, "f", 1)
    g = random_coefficients(pair, "g", 2)
    ctx = Context(pair, f, g)
    assert cohomology_dhat(ctx.swap(), D=2 * pair.rank).dims == \
        cohomology_dhat(Context(pair.swap(), g, f), D=2 * pair.rank).dims


def test_failures_raise_on_every_call(monkeypatch):
    pair, cases = _degenerate_cases()
    ctx = Context(pair)
    for f, g in cases:
        for _ in range(2):
            with pytest.raises(DegenerateCoefficients):
                ctx.certify(f, g)
    attempts = []

    def unstable(face, g, D, deformed=True):
        if not deformed:
            return HatModel(face, g, D, deformed)
        attempts.append(face)
        raise StabilizationFailed("no stable truncation")

    monkeypatch.setattr(jacobian, "HatModel", unstable)
    g = cases[0][1]
    top = pair.dual_poset().top
    for _ in range(2):
        with pytest.raises(StabilizationFailed):
            ctx.r1_hat(top, g)
    assert len(attempts) == 2


def test_context_memo_returns_one_object_per_key():
    pair = make_gorenstein_pair(cone_over_polytope(P2))
    ctx = Context(pair)
    g = random_coefficients(pair, "g", 2, ctx=ctx)
    top = pair.dual_poset().top
    # the quotient certified with g is the one r1 reads
    assert ctx.quotient(top, g) is ctx.quotient(top, g)
    # r1 hands out a copy of its one memo entry
    got = ctx.r1(top, g)
    entry = ctx._memo[("r1", top, g)]
    assert ctx.r1(top, g) == got == entry and got is not entry
    assert ctx._memo[("r1", top, g)] is entry
    # r1_hat has no memo entry of its own: it reads the memoized model
    assert ctx.hat_model(top, g) is ctx.hat_model(top, g)
    assert ctx.r1_hat(top, g) == ctx.r1_hat(top, g)
    model = ctx.hat_model(top, g)
    assert model.interior_level_data() is model.interior_level_data()
    # a fresh context shares nothing
    fresh = Context(pair)
    assert fresh.r1(top, g) == ctx.r1(top, g)
    assert fresh._memo[("r1", top, g)] is not entry


def test_r1_answers_are_the_callers_to_change():
    """r1 and r1_hat hand out dicts a caller may change: asking again
    gives the fresh answer, never the changed one."""
    pair = make_gorenstein_pair(cone_over_polytope(P2))
    ctx = Context(pair, random_coefficients(pair, "f", seed=1),
                  random_coefficients(pair, "g", seed=2))
    top, dual_top = pair.poset().top, pair.dual_poset().top
    for ask in (lambda: ctx.r1(top, ctx.f),
                lambda: ctx.r1(dual_top, ctx.g),
                lambda: ctx.r1_hat(dual_top, ctx.g)):
        answer = dict(ask())
        assert answer
        got = ask()
        got[99] = 1
        del got[min(answer)]
        assert ask() == answer
        got.clear()
        assert ask() == answer


def test_r1_drops_the_quotient_it_read():
    """r1 is the last reader of a face's graded quotient, so the memo
    drops the quotient once r1 has read it.  The drop pays for itself:
    without it, the tracemalloc peak of ``reporting.run`` on a
    ``verify flatness`` job (seeds 1 and 2, Python 3.11) rises from 524
    to 680 KB on the polar P2 pair and from 727 to 889 KB on the polar
    square pair."""
    pair = make_gorenstein_pair(cone_over_polytope(P2))
    ctx = Context(pair, random_coefficients(pair, "f", seed=1),
                  random_coefficients(pair, "g", seed=2))
    for poset, fn in ((pair.poset(), ctx.f), (pair.dual_poset(), ctx.g)):
        for face in poset:
            ctx.quotient(face, fn)
            ctx.r1(face, fn)
            assert ("quotient", face, fn) not in ctx._memo
            assert ("r1", face, fn) in ctx._memo


def test_prop_maincoro_sweeps_keep_no_sheaf_alive(monkeypatch):
    live = weakref.WeakSet()
    init = sheaves.MinimalSheaf.__init__

    def tracking_init(self, *args):
        init(self, *args)
        live.add(self)

    monkeypatch.setattr(sheaves.MinimalSheaf, "__init__", tracking_init)
    cone = cone_over_polytope(SQUARE)
    fan = FanSpace(cone)

    def sweep():
        for theta0 in fan.poset:
            tstar = annihilator_face(theta0, fan.dual_poset)
            for sigma0 in fan.dual_poset:
                if fan.dual_poset.leq(sigma0, tstar):
                    got = Context().sheaf_cohomology(
                        fan, fan.cell(theta0, sigma0), 3)
                    assert got == one_class_or_none(fan, theta0, sigma0)

    counts = []
    for _ in range(2):
        sweep()
        gc.collect()
        counts.append(len(live))
    assert counts[1] <= counts[0]


def test_g_polynomials_not_shared_across_posets():
    # the square cone and the simplicial 4-cone both have four facets, so
    # their [zero, top] intervals have equal face keys and different g
    cones = [cone_over_polytope(SQUARE),
             cone_from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                             (0, 0, 0, 1)]),
             cone_over_polytope(P2)]
    kept = [FacePoset(cone) for cone in cones]
    expected = [{(a.key(), b.key()): g_polynomial(poset, a, b)
                 for a in poset for b in poset if poset.leq(a, b)}
                for poset in kept]
    for _ in range(5):
        for cone, want in zip(cones, expected):
            poset = FacePoset(cone)
            got = {(a.key(), b.key()): g_polynomial(poset, a, b)
                   for a in poset for b in poset if poset.leq(a, b)}
            assert got == want
            del poset


def _counting_builds(monkeypatch):
    """Counters of MinimalSheaf builds and of HatModel builds by kind."""
    builds = Counter()
    sheaf_init, hat_init = MinimalSheaf.__init__, HatModel.__init__

    def counting_sheaf(self, *args):
        builds["sheaf"] += 1
        sheaf_init(self, *args)

    def counting_hat(self, face, fn, D, deformed=True):
        builds["hat" if deformed else "quotient"] += 1
        hat_init(self, face, fn, D, deformed)

    monkeypatch.setattr(MinimalSheaf, "__init__", counting_sheaf)
    monkeypatch.setattr(HatModel, "__init__", counting_hat)
    return builds


@pytest.mark.parametrize("poly", [P2, SQUARE], ids=["p2", "square"])
def test_sheaf_cohomology_truncates_degreewise(poly):
    """The zero-cell complex at D = 5 is the one at D = 6 below total
    degree 5, block by block, zero blocks included."""
    fan = FanSpace(cone_over_polytope(poly))
    h5, h6 = (BigradedComplex(MinimalSheaf(fan, fan.zero_cell(), D))
              .cohomology() for D in (5, 6))
    assert h5 and h5 == {k: d for k, d in h6.items() if k[1] <= 4}


def test_context_builds_each_sheaf_once(monkeypatch):
    builds = _counting_builds(monkeypatch)
    ctx = Context()
    fan = ctx.fan(cone_over_polytope(SQUARE))
    assert ctx.fan(cone_over_polytope(SQUARE)) is fan
    for origin in fan.cells:
        want = _nonzero_cohomology(fan, origin, 3)
        assert ctx.sheaf_cohomology(fan, origin, 4) == \
            _nonzero_cohomology(fan, origin, 4)
        assert ctx.sheaf_cohomology(fan, origin, 3) == want
    assert builds["sheaf"] == 3 * len(fan.cells)
    # a request above the stored truncation builds again
    origin = fan.cells[-1]
    assert ctx.sheaf_cohomology(fan, origin, 5) == \
        _nonzero_cohomology(fan, origin, 5)
    assert builds["sheaf"] == 3 * len(fan.cells) + 2
    assert any(_nonzero_cohomology(fan, o, 3) for o in fan.cells)
    with pytest.raises(TruncationTooSmall):
        ctx.sheaf_cohomology(fan, origin, 0)


def test_sheaf_cohomology_reads_the_window_it_is_asked(monkeypatch):
    built = []

    def fake(fan, origin, D):
        built.append(D)
        return {(0, 0): 1, (1, D - 1): 2}

    monkeypatch.setattr(jacobian, "_nonzero_cohomology", fake)
    ctx = Context()
    assert ctx.sheaf_cohomology(None, "origin", 6) == {(0, 0): 1, (1, 5): 2}
    assert ctx.sheaf_cohomology(None, "origin", 5) == {(0, 0): 1}
    assert ctx.sheaf_cohomology(None, "origin", 6) == {(0, 0): 1, (1, 5): 2}
    assert ctx.sheaf_cohomology(None, "origin", 7) == {(0, 0): 1, (1, 6): 2}
    assert built == [6, 7]


def test_thm_key_and_prop_maincoro_in_any_order():
    doc = json.loads((CORPUS / "p2_triangle.json").read_text())
    sections = []
    for verify in (["thm-key"], ["prop-maincoro"],
                   ["thm-key", "prop-maincoro"],
                   ["prop-maincoro", "thm-key"]):
        report, code = run(parse_input(dict(doc, verify=verify)))
        assert code == 0
        sections.append(json.loads(render_report(report))["verifications"])
    want = json.loads((CORPUS / "p2_triangle.report.json").read_text())
    want = {n: want["verifications"][n] for n in ("thm-key", "prop-maincoro")}
    assert sections[0] == {"thm-key": want["thm-key"]}
    assert sections[1] == {"prop-maincoro": want["prop-maincoro"]}
    assert sections[2] == sections[3] == want


def test_complexes_job_work_is_pinned(monkeypatch):
    """The P2 corpus job with the five complexes verifiers builds the
    zero-cell sheaf once (thm-key at D = 6; prop-maincoro reads it at
    D = 5) and one deformed hat model per face and side.  exact_pivots
    takes rows with no zero entry, and no caller hands it one."""
    builds = _counting_builds(monkeypatch)
    rows_in = Counter()
    pivots_of = linalg.exact_pivots

    def recording(rows):
        rows = list(rows)
        rows_in["all"] += len(rows)
        rows_in["with a zero"] += sum(not all(r.values()) for r in rows)
        return pivots_of(rows)

    monkeypatch.setattr(linalg, "exact_pivots", recording)
    names = ["thm-key", "thm-main", "prop-maincoro", "bhiso", "maingkz"]
    doc = json.loads((CORPUS / "p2_triangle.json").read_text())
    report, code = run(parse_input(dict(doc, verify=names)))
    assert code == 0
    want = json.loads((CORPUS / "p2_triangle.report.json").read_text())
    assert json.loads(render_report(report))["verifications"] == \
        {n: want["verifications"][n] for n in names}
    assert builds == {"sheaf": 27, "hat": 16, "quotient": 16}
    assert rows_in["all"] > 10000 and rows_in["with a zero"] == 0

