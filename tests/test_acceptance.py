"""Acceptance suite: the eight exit criteria, one test per criterion.

Everything is exact rational arithmetic, so every tolerance is equality.
Each test prints a single pass line (run with -s to see them).
"""

import json
import time
from pathlib import Path

from stringykit.gkz import connection_on_hb, curvature_report
from stringykit.jacobian import (Context, coefficient_function,
                                 random_coefficients)
from stringykit.koszul import (_columns, _dhat_piece, _levels, cohomology_d,
                               cohomology_dhat, decomposition_dims,
                               hb_assemble, v_basis)
from stringykit.lattice import (FacePoset, cone_from_rays,
                                cone_over_polytope, dual_cone, dual_face,
                                interval_is_eulerian, make_gorenstein_pair)
from stringykit.gpoly import g_polynomial
from stringykit.reporting import parse_input, render_report, run
from stringykit.sheaves import FanSpace, MinimalSheaf, annihilator_face
from test_sheaves import (expected_generator_bidegrees, one_class_or_none,
                          zero_cell_cohomology)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

QUADRANT = [(1, 0), (0, 1)]
SIMPLEX_R3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]
PENTAGON = [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)]
P2 = [(1, 0), (0, 1), (-1, -1)]


def _pairs():
    return {
        "r1_ray": make_gorenstein_pair(cone_from_rays([(1,)])),
        "segment": make_gorenstein_pair(cone_over_polytope([(-1,), (1,)])),
        "p2_triangle": make_gorenstein_pair(cone_over_polytope(P2)),
        "square": make_gorenstein_pair(cone_over_polytope(SQUARE)),
    }


def _report(name, started, detail=""):
    dt = time.monotonic() - started
    print("PASS criterion %s (%.1f s)%s"
          % (name, dt, " -- " + detail if detail else ""))


def test_criterion_1_theorem_key_vanishing():
    t0 = time.monotonic()
    cones = {
        "quadrant": cone_from_rays(QUADRANT),
        "simplicial r=3": cone_from_rays(SIMPLEX_R3),
        "cone over square": cone_over_polytope(SQUARE),
    }
    for label, cone in cones.items():
        nonzero = zero_cell_cohomology(cone, 6)
        assert nonzero == {}, (label, nonzero)
    # the report states the verdict over the window it read
    report, code = run(parse_input({"rays": [list(r) for r in QUADRANT],
                                    "verify": ["thm-key"]}))
    section = report["verifications"]["thm-key"]
    assert (section["verdict"], code) == ("pass", 0)
    assert section["window"]["max_total_degree"] == 5
    _report("1 (Theorem key vanishing, deg_x+deg_y <= 5, exact)", t0)


def test_criterion_2_prop_maincoro():
    t0 = time.monotonic()
    checked = 0
    for cone in (cone_from_rays(QUADRANT), cone_over_polytope(SQUARE)):
        fan = FanSpace(cone)
        ctx = Context()
        for theta0 in fan.poset:
            tstar = annihilator_face(theta0, fan.dual_poset)
            for sigma0 in fan.dual_poset:
                if not fan.dual_poset.leq(sigma0, tstar):
                    continue
                got = ctx.sheaf_cohomology(fan, fan.cell(theta0, sigma0), 5)
                assert got == one_class_or_none(fan, theta0, sigma0), \
                    (theta0, sigma0, got)
                checked += 1
    _report("2 (one-class/vanishing for every origin, exact)", t0,
            "%d origins" % checked)


def test_criterion_3_theorem_main_decomposition():
    t0 = time.monotonic()
    pairs = _pairs()
    for label in ("r1_ray", "segment", "p2_triangle"):
        pair = pairs[label]
        for seed in (1, 2, 3):
            f = random_coefficients(pair, "f", seed=seed)
            g = random_coefficients(pair, "g", seed=seed + 100)
            rep = cohomology_d(Context(pair, f, g), D=6)
            deco = decomposition_dims(Context(pair, f, g))
            for k in range(6):
                assert rep.dims[k] == deco.get(k, 0), \
                    (label, seed, k)
            if label == "p2_triangle":
                assert sum(rep.dims.values()) == 4
                assert deco == {1: 2, 2: 2}
    _report("3 (Theorem main per-degree equality, k <= 5, exact)", t0,
            "3 pairs x 3 seeds")


def test_criterion_4_bhiso_dimension_equality():
    t0 = time.monotonic()
    count = 0
    for label, pair in _pairs().items():
        for seed in (1, 2, 3):
            g = random_coefficients(pair, "g", seed=seed)
            for sigma in pair.dual_poset():
                assert Context().r1_hat(sigma, g) == \
                    Context().r1(sigma, g), (label, seed, sigma)
                count += 1
            swapped = pair.swap()
            f = random_coefficients(swapped, "g", seed=seed + 50)
            for theta in swapped.dual_poset():
                assert Context().r1_hat(theta, f) == \
                    Context().r1(theta, f), (label, seed, theta)
                count += 1
    _report("4 (hat/graded dimension equality per level, exact)", t0,
            "%d face checks" % count)


def test_criterion_5_maingkz_hatted_cohomology():
    t0 = time.monotonic()
    for label, pair in _pairs().items():
        f = random_coefficients(pair, "f", seed=1)
        g = random_coefficients(pair, "g", seed=2)
        rep = cohomology_dhat(Context(pair, f, g), D=2 * pair.rank, p_max=8)
        assert not rep.flags, (label, rep.flags)
        assert all(p <= 8 for p in rep.window["stabilized_at"].values())
        got = {k: v for k, v in rep.dims.items() if v}
        assert got == hb_assemble(Context(pair, f, g)), label
        if label == "p2_triangle":
            assert got == {2: 1, 3: 2, 4: 1}
    _report("5 (stabilized hatted cohomology = assembly, p <= 8, exact)",
            t0)


def test_criterion_6_maingkz_flatness():
    # The acceptance formula as originally drafted (plain derivative
    # symmetry) is equivalent to the curvature identity only up to the
    # commutator [A_n, A_n'], which is nonzero on the 2x2 block; the
    # identity below is the exact flatness of Theorem mainGKZ's
    # connection: the curvature of d + A adds that commutator to the
    # antisymmetrized derivative, so symmetric derivatives mean a flat
    # connection only where the matrices commute.
    t0 = time.monotonic()
    pair = _pairs()["p2_triangle"]
    f = random_coefficients(pair, "f", seed=1)
    blocks_seen = 0
    for seed in (2, 3, 4):
        g = random_coefficients(pair, "g", seed=seed)
        blocks = connection_on_hb(Context(pair, f, g))
        for block in blocks:
            if not block.matrices:
                continue
            rep = curvature_report(block)
            assert rep["flat"], (seed, block.sigma, rep)
            blocks_seen += 1
    assert blocks_seen == 3
    _report("6 (flat connection identity, all pairs (n,n'), exact)", t0,
            "3 base points")


def test_criterion_7_structural_suites():
    t0 = time.monotonic()
    pairs = _pairs()

    # d^2 = 0 and dhat^2 = 0 as matrix identities
    pair = pairs["segment"]
    f = random_coefficients(pair, "f", seed=3)
    g = random_coefficients(pair, "g", seed=4)
    d, dhat = _columns(f, g), _columns(f, g, hat=True)
    basis = v_basis(pair, 3)
    for k in range(3):
        for col in (d(e) for e in basis[k]):
            acc = {}
            for elt, v in col.items():
                for elt2, w in d(elt).items():
                    acc[elt2] = acc.get(elt2, 0) + v * w
            assert not any(acc.values())
    levels = _levels(pair)
    for gv in range(4):
        for col in (dhat(e) for e in _dhat_piece(levels, pair.rank, gv, 4)):
            acc = {}
            for elt, v in col.items():
                for elt2, w in dhat(elt).items():
                    acc[elt2] = acc.get(elt2, 0) + v * w
            assert not any(acc.values())

    # duality involutions
    for pair in pairs.values():
        assert dual_cone(dual_cone(pair.cone)) == pair.cone
        for face in pair.poset():
            fd = dual_face(pair, face)
            assert face.dim + fd.dim == pair.rank
            assert dual_face(pair, fd) == face

    # Eulerian posets
    for pair in pairs.values():
        for poset in (pair.poset(), pair.dual_poset()):
            assert interval_is_eulerian(poset, poset.zero, poset.top)

    # g-polynomial oracles
    sq = FacePoset(cone_over_polytope(SQUARE))
    assert g_polynomial(sq, sq.zero, sq.top) == {0: 1, 1: 1}
    pent = FacePoset(cone_over_polytope(PENTAGON))
    assert g_polynomial(pent, pent.zero, pent.top) == {0: 1, 1: 2}
    simp = FacePoset(cone_from_rays(SIMPLEX_R3))
    assert g_polynomial(simp, simp.zero, simp.top) == {0: 1}

    # minimal-sheaf generator degrees match the g-polynomial coefficients
    fan = FanSpace(cone_over_polytope(SQUARE))
    sheaf = MinimalSheaf(fan, fan.zero_cell(), 4)
    for cell in sheaf.support:
        got = {}
        for pq in sheaf.gens.get(cell, ()):
            got[pq] = got.get(pq, 0) + 1
        assert got == expected_generator_bidegrees(fan, cell)

    # swap symmetry of totals and rescaling invariance of R1 dims
    pair = pairs["p2_triangle"]
    f = random_coefficients(pair, "f", seed=5)
    g = random_coefficients(pair, "g", seed=6)
    a = decomposition_dims(Context(pair, f, g))
    b = decomposition_dims(Context(pair.swap(), g, f))
    assert sum(a.values()) == sum(b.values())
    from fractions import Fraction
    f2 = coefficient_function(pair, "f", {p: Fraction(9, 7) * v
                                         for p, v in f.values})
    for face in pair.poset():
        assert Context().r1(face, f) == Context().r1(face, f2)

    _report("7 (structural property suites, exact)", t0)


def test_criterion_8_determinism():
    t0 = time.monotonic()
    doc = json.loads((CORPUS / "p2_triangle.json").read_text())
    outs = []
    for _ in range(2):
        job = parse_input(doc)
        report, code = run(job)
        assert code == 0
        outs.append(render_report(report))
    assert outs[0] == outs[1]
    _report("8 (byte-identical reports for identical jobs)", t0)
