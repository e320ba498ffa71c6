"""Log-derivative ideals, quotients, R1, nondegeneracy, hat structure."""

from fractions import Fraction

import pytest

from stringykit import jacobian
from stringykit.errors import DegenerateCoefficients
from stringykit.jacobian import (CoefficientFunction, Context, HatModel,
                                 _hat_action_vec, coefficient_function,
                                 log_derivative_elements, random_coefficients)
from stringykit.lattice import (FacePoset, cone_from_rays, cone_over_polytope,
                                make_gorenstein_pair, padd, points_at_degree,
                                span_coords)
from stringykit.linalg import Echelon, vec_add
from test_linalg import labelled_rank

P2 = [(1, 0), (0, 1), (-1, -1)]


def p2_pair():
    return make_gorenstein_pair(cone_over_polytope(P2))


def const_f(pair, value=1):
    return coefficient_function(pair, "f", {p: value for p in pair.delta()})


def fermat_f(pair):
    vals = {}
    for p in pair.delta():
        vals[p] = 0 if p == (0, 0, 1) else 1
    return coefficient_function(pair, "f", vals)


def dense_rank_oracle(vectors, points):
    """Dense elimination from scratch (independent of the sparse kernel)."""
    idx = {p: i for i, p in enumerate(points)}
    rows = [[Fraction(0)] * len(points) for _ in vectors]
    for i, v in enumerate(vectors):
        for p, c in v.items():
            rows[i][idx[p]] = Fraction(c)
    rank = 0
    for col in range(len(points)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [a - f * b if b else a
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_log_derivatives_zero_face():
    pair = p2_pair()
    f = const_f(pair)
    assert log_derivative_elements(pair.poset().zero, f) == []


def test_log_derivatives_ray():
    pair = p2_pair()
    f = const_f(pair, 1)
    ray = pair.poset().by_rays[((1, 0, 1),)]
    elems = log_derivative_elements(ray, f)
    assert len(elems) == 1
    assert list(elems[0].keys()) == [(1, 0, 1)]


def test_log_derivatives_full_cone_count_and_content():
    pair = p2_pair()
    f = fermat_f(pair)
    top = pair.poset().top
    elems = log_derivative_elements(top, f)
    assert len(elems) == 3
    # each generator is sum over the three vertices of mu(m) [m]
    for j, e in enumerate(elems):
        for m, c in e.items():
            assert c == span_coords(top, m)[j]
        assert (0, 0, 1) not in e  # Fermat kills the center


def test_quotient_dims_triangle_const():
    pair = p2_pair()
    q = Context().quotient(pair.poset().top, const_f(pair))
    assert [q.dims[k] for k in range(6)] == [1, 1, 1, 0, 0, 0]


def shifted_dense_dims(face, gens, lam, D):
    """Per degree k <= D: the number of points minus the dense rank of
    the generators times every point of degree k - 1."""
    dims = {}
    for k in range(D + 1):
        pts = points_at_degree(face, k, lam)
        vectors = [{tuple(a + b for a, b in zip(m, c)): v
                    for m, v in g.items()}
                   for c in points_at_degree(face, k - 1, lam) for g in gens]
        dims[k] = len(pts) - dense_rank_oracle(vectors, pts)
    return dims


def test_quotient_dims_against_dense_oracle():
    pair = p2_pair()
    const_g = coefficient_function(pair, "g",
                                   {p: 1 for p in pair.delta_dual()})
    for poset, fns in (
            (pair.poset(), [const_f(pair), random_coefficients(pair, "f", 1)]),
            (pair.dual_poset(), [const_g, random_coefficients(pair, "g", 2)])):
        for fn in fns:
            for face in poset:
                q = Context().quotient(face, fn)
                assert q.dims == shifted_dense_dims(
                    face, log_derivative_elements(face, fn), fn.lam, q.D)


def test_quotient_dims_ray_unit():
    pair = p2_pair()
    ray = pair.poset().by_rays[((1, 0, 1),)]
    q = Context().quotient(ray, const_f(pair, 1))
    assert [q.dims[k] for k in range(4)] == [1, 0, 0, 0]


def test_quotient_dims_zero_function_gives_hilbert():
    pair = p2_pair()
    f = const_f(pair, 0)
    top = pair.poset().top
    q = Context().quotient(top, f)
    for k in range(6):
        assert q.dims[k] == len(points_at_degree(top, k, pair.deg_dual))


# the cones of the corpus jobs and of the benchmark's polar pairs
JOB_CONES = {
    "p2_triangle": lambda: cone_over_polytope(P2),
    "r1_ray": lambda: cone_from_rays([(1,)]),
    "segment": lambda: cone_over_polytope([(-1,), (1,)]),
    "square": lambda: cone_over_polytope([(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "polar_p2": lambda: cone_over_polytope([(-1, -1), (2, -1), (-1, 2)]),
    "polar_square": lambda: cone_over_polytope(
        [(-1, -1), (1, -1), (1, 1), (-1, 1)]),
}


def job_context(name):
    """The pair's context at the jobs' coefficients, random:seed=1 and 2."""
    pair = make_gorenstein_pair(JOB_CONES[name]())
    ctx = Context(pair)
    ctx.set_coefficients(random_coefficients(pair, "f", 1, ctx),
                         random_coefficients(pair, "g", 2, ctx))
    return ctx


@pytest.mark.parametrize("name", sorted(JOB_CONES))
def test_lattice_step_against_elimination(name):
    ctx = job_context(name)
    for poset, fn in ((ctx.pair.poset(), ctx.f),
                      (ctx.pair.dual_poset(), ctx.g)):
        for face in poset:
            q = ctx.quotient(face, fn)
            gens = log_derivative_elements(face, fn)
            for k in q.zero_levels:
                rows = [{padd(m, c): v for m, v in gen.items()}
                        for c in q.levels[k - 1] for gen in gens]
                assert labelled_rank(rows) == len(q.levels[k]), (face, k)
            assert q.dims == shifted_dense_dims(face, gens, fn.lam, q.D)
            if name == "polar_p2" and face is poset.top:
                assert {face.dim + 1, face.dim + 2} <= q.zero_levels


def test_lattice_step_falls_back_on_an_uncovered_point():
    # the cone over the Reeve tetrahedron with r = 2: its level-one points
    # are the four vertices, and (1, 1, 1, 2) is no sum of two of them
    cone = cone_over_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    lam = (0, 0, 0, 1)
    top = FacePoset(cone).top
    ones = points_at_degree(top, 1, lam)
    assert ones == [(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 2, 1)]
    fn = CoefficientFunction(cone, lam, tuple(zip(ones, (1, 2, -3, 5))))
    q = HatModel(top, fn, top.dim + 2, deformed=False)
    assert q.dims[1] == 0 and not q._covered(2)
    assert (1, 1, 1, 2) in q.levels[2]
    assert 2 not in q.zero_levels and q.dims[2] > 0
    assert q.dims == shifted_dense_dims(
        top, log_derivative_elements(top, fn), lam, q.D)


@pytest.mark.parametrize("name", sorted(JOB_CONES))
def test_lower_model_is_a_fresh_build(name):
    """The model at dim+1 read off the build at dim+2 is the model a
    fresh build at dim+1 gives, on every face of both sides."""
    ctx = job_context(name)
    for poset, fn in ((ctx.pair.poset(), ctx.f),
                      (ctx.pair.dual_poset(), ctx.g)):
        for face in poset:
            model = HatModel(face, fn, face.dim + 2)
            low = model.lower()
            fresh = HatModel(face, fn, face.dim + 1)
            assert model._lower is None
            assert low.D == fresh.D == face.dim + 1
            assert low.ideal.basis_rows() == fresh.ideal.basis_rows()
            assert [low.ideal.shadow(c) for c in low.ideal.pivot_columns()] \
                == [fresh.ideal.shadow(c)
                    for c in fresh.ideal.pivot_columns()]
            assert low.pivots == fresh.pivots
            assert (low.levels, low.points) == (fresh.levels, fresh.points)
            assert low.dims == fresh.dims
            assert low.interior_level_data() == fresh.interior_level_data()


def test_hat_model_enumerates_each_level_once(monkeypatch):
    """A model enumerates its levels 0..D once; R1 and the certified hat
    dims filter the interior points from them and scan nothing again."""
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=2)
    calls = []
    real = jacobian.points_at_degree

    def counted(face, k, lam):
        calls.append((face, k))
        return real(face, k, lam)
    monkeypatch.setattr(jacobian, "points_at_degree", counted)
    for face in pair.dual_poset():
        calls.clear()
        Context().r1(face, g)
        assert calls == [(face, k) for k in range(face.dim + 3)]
        calls.clear()
        model = HatModel(face, g, face.dim + 2)
        model.interior_level_data()
        model.lower().interior_level_data()
        assert calls == [(face, k) for k in range(face.dim + 3)]


class AscendingHatModel(HatModel):
    """The hat model with each level's points inserted in ascending
    order: the same ideal at a higher cost, as the oracle of the order."""

    def _generators(self, levels=None):
        for points in self.levels[:self.D] if levels is None else levels:
            for c in points:
                yield from HatModel._generators(self, [[c]])


@pytest.mark.parametrize("name", sorted(JOB_CONES))
def test_build_order_changes_no_row(name):
    """Each level's points inserted in descending order give the ideal
    rows and the row derivatives of the ascending order, on every face of
    both sides, deformed or graded."""
    ctx = job_context(name)
    reordered = 0
    for poset, fn in ((ctx.pair.poset(), ctx.f),
                      (ctx.pair.dual_poset(), ctx.g)):
        for face in poset:
            for deformed in (True, False):
                model = HatModel(face, fn, face.dim + 2, deformed)
                oracle = AscendingHatModel(face, fn, face.dim + 2, deformed)
                reordered += [c for c, _, _ in model._generators()] != \
                    [c for c, _, _ in oracle._generators()]
                assert model.ideal._rows == oracle.ideal._rows
                assert model.dims == oracle.dims
                if deformed:
                    assert model.row_derivatives(fn.domain()) == \
                        oracle.row_derivatives(fn.domain())
    assert reordered or name == "r1_ray"


def test_certification_ideal_rank_is_pinned():
    # the rows of the graded models that certify f and g of the P2 corpus
    # job; eliminating the levels above dim as well gave 576
    ctx = job_context("p2_triangle")
    assert sum(ctx.quotient(face, fn).ideal.rank
               for poset, fn in ((ctx.pair.poset(), ctx.f),
                                 (ctx.pair.dual_poset(), ctx.g))
               for face in poset) == 155


def test_p3_certifies_f_and_g():
    """The rank-4 pair over P3: both seeded coefficient functions pass the
    certificate.  The g side's top face has 2,925 points at level 6; its
    quotient is h* = (1, 31, 31, 1) and the levels above dim are proved
    zero by the lattice-point step."""
    pair = make_gorenstein_pair(cone_over_polytope(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]))
    ctx = Context(pair)
    ctx.set_coefficients(random_coefficients(pair, "f", 1, ctx),
                         random_coefficients(pair, "g", 2, ctx))
    for poset, fn, hstar in ((pair.poset(), ctx.f, [1, 1, 1, 1]),
                             (pair.dual_poset(), ctx.g, [1, 31, 31, 1])):
        q = ctx.quotient(poset.top, fn)
        assert [q.dims[k] for k in range(q.D + 1)] == hstar + [0, 0, 0]
        assert q.zero_levels == {5, 6}
    assert len(q.levels[6]) == 2925


def test_r1_zero_face():
    pair = p2_pair()
    assert Context().r1(pair.poset().zero, const_f(pair)) == {0: 1}


def test_r1_triangle_full_cone():
    pair = p2_pair()
    assert Context().r1(pair.poset().top, const_f(pair)) == {1: 1, 2: 1}


def test_r1_ray_vanishes():
    pair = p2_pair()
    for rays in pair.poset():
        if rays.dim == 1:
            assert Context().r1(rays, const_f(pair)) == {}


def test_r1_rescaling_invariance():
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=3)
    f2 = coefficient_function(pair, "f", {p: Fraction(7, 3) * v
                                         for p, v in f.values})
    for face in pair.poset():
        assert Context().r1(face, f) == Context().r1(face, f2)


def test_basis_independence_of_ideal_dims():
    pair = p2_pair()
    f = fermat_f(pair)
    top = pair.poset().top
    q1 = Context().quotient(top, f)
    # second basis of linear functionals: unimodular recombination
    gens = log_derivative_elements(top, f)
    u = [[1, 1, 0], [0, 1, 0], [1, 0, 1]]
    gens2 = []
    for row in u:
        e = {}
        for c, g in zip(row, gens):
            for m, v in g.items():
                e[m] = e.get(m, 0) + c * v
        gens2.append({m: v for m, v in e.items() if v})
    assert q1.dims == shifted_dense_dims(top, gens2, pair.deg_dual, 5)


def test_nondegenerate_fermat():
    pair = p2_pair()
    assert Context(pair).is_nondegenerate(fermat_f(pair))
    assert Context(pair).is_nondegenerate(const_f(pair))
    # the certificate reads the context's posets: a function on a cone of
    # another pair is refused, not certified on the wrong faces
    other = make_gorenstein_pair(cone_from_rays([(1, 0), (0, 1)]))
    with pytest.raises(ValueError):
        Context(other).is_nondegenerate(const_f(pair))


def test_degenerate_zero():
    pair = p2_pair()
    assert not Context(pair).is_nondegenerate(const_f(pair, 0))


def test_degenerate_single_vertex_support():
    pair = p2_pair()
    vals = {p: 0 for p in pair.delta()}
    vals[(1, 0, 1)] = 1
    f = coefficient_function(pair, "f", vals)
    assert not Context(pair).is_nondegenerate(f)
    # the 2-face avoiding the support carries a zero ideal
    for face in pair.poset():
        if face.dim == 2 and (1, 0, 1) not in face.rays:
            assert not Context().face_is_nondegenerate(face, f)


def hat_action(face, g, mu, vec):
    """mu . vec in the hat module, vec a sparse dict: _hat_action_vec with
    the log-derivative elements of g summed by the coordinates of mu."""
    weights = {}
    for a, elem in zip(mu, log_derivative_elements(face, g)):
        weights = vec_add(weights, elem, a)
    return _hat_action_vec(face, weights.items(), tuple(mu), vec)


def test_hat_action_at_origin():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=1)
    sigma = pair.dual_poset().top
    zero = (0,) * 3
    out = hat_action(sigma, g, (1, 0, 0), {zero: 1})
    # mu(0) = 0, so only the degree-raising part appears
    expect = {}
    for n in g.domain():
        c = g(n) * span_coords(sigma, n)[0]
        if c:
            expect[n] = c
    assert out == expect


def test_hat_action_ray_formula():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=2)
    poset = pair.dual_poset()
    ray = next(f for f in poset if f.dim == 1)
    n = ray.rays[0]
    b = g(n)
    for k in (1, 2, 3):
        kn = tuple(k * x for x in n)
        out = hat_action(ray, g, (1,), {kn: 1})
        mu_n = span_coords(ray, n)[0]
        expect = {tuple((k + 1) * x for x in n): b * mu_n}
        if k * mu_n:
            expect[kn] = Fraction(k * mu_n)
        assert out == expect


def test_hat_action_commutes():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=5)
    sigma = pair.dual_poset().top
    for pt in [(0, 0, 1), (1, 0, 1), (0, 0, 2)]:
        v = {pt: 1}
        for mu1 in [(1, 0, 0), (0, 1, 0), (1, 2, 0)]:
            for mu2 in [(0, 0, 1), (1, 1, 1)]:
                a = hat_action(sigma, g, mu2, hat_action(sigma, g, mu1, v))
                b = hat_action(sigma, g, mu1, hat_action(sigma, g, mu2, v))
                assert a == b


def test_hat_model_generators_are_the_hat_action():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=2)
    sigma = pair.dual_poset().top
    model = HatModel(sigma, g, sigma.dim + 2)
    ech = Echelon()
    count = 0
    for (c, j, vec), pivot in zip(model._generators(), model.pivots):
        mu = tuple(int(i == j) for i in range(sigma.dim))
        expect = hat_action(sigma, g, mu, {c: 1})
        assert vec == expect
        assert pivot == (ech.insert(expect) if expect else None)
        count += 1
    assert count == len(model.pivots) == \
        sigma.dim * sum(len(level) for level in model.levels[:-1])
    assert ech.basis_rows() == model.ideal.basis_rows()


def test_row_derivatives_refuse_a_rank_jump():
    # at g = 0 the generators at the origin vanish, while the classes of
    # their derivatives do not: the ideal's rank jumps there
    pair = p2_pair()
    g0 = coefficient_function(pair, "g", {p: 0 for p in pair.delta_dual()})
    sigma = pair.dual_poset().top
    model = HatModel(sigma, g0, sigma.dim + 2)
    with pytest.raises(DegenerateCoefficients):
        model.row_derivatives(sorted(pair.delta_dual()))


def test_row_derivatives_refuse_a_graded_model():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=2)
    sigma = pair.dual_poset().top
    model = HatModel(sigma, g, sigma.dim + 2, deformed=False)
    assert model.zero_levels
    with pytest.raises(ValueError, match="deformed"):
        model.row_derivatives(sorted(pair.delta_dual()))


def test_r1_hat_zero_face():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=1)
    assert Context().r1_hat(pair.dual_poset().zero, g) == {0: 1}


def test_r1_hat_matches_r1_on_dual_triangle():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=1)
    sigma = pair.dual_poset().top
    hat = Context().r1_hat(sigma, g)
    assert hat == Context().r1(sigma, g)
    assert sum(hat.values()) == 2


def test_r1_hat_all_faces_three_seeds():
    pair = p2_pair()
    for seed in (1, 2, 3):
        g = random_coefficients(pair, "g", seed=seed)
        for sigma in pair.dual_poset():
            assert Context().r1_hat(sigma, g) == Context().r1(sigma, g)


def test_random_coefficients_deterministic():
    pair = p2_pair()
    a = random_coefficients(pair, "f", seed=11)
    b = random_coefficients(pair, "f", seed=11)
    assert a.values == b.values
