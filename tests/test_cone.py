import hashlib
import random
from fractions import Fraction

import pytest

from thermo_ops import (DomainError, cone_membership, cone_vertices,
                        hull_check, hull_facets, make_gibbs_context,
                        pull_back, simplex_coordinates, thermal_cone,
                        thermo_majorizes)
from thermo_ops.cone import _admits
from thermo_ops.linprog import in_convex_hull
from thermo_ops.majorization import ExactLorenz, exact_lorenz

from conftest import rand_ctx, rand_pop

F = Fraction


class TestMembership:
    def test_thermal_always_reachable(self):
        rng = random.Random(1)
        for _ in range(50):
            ctx = rand_ctx(rng, nmax=4, dmax_total=20, distinct=False)
            p = rand_pop(rng, ctx.n)
            assert cone_membership(p, ctx.g, ctx)

    def test_self_membership(self, seven_ctx):
        p = (F(1, 5), F(3, 5), F(1, 5))
        assert cone_membership(p, p, seven_ctx)

    def test_sharper_state_not_reachable(self, two_thirds_ctx):
        assert not cone_membership((F(1, 2), F(1, 2)), (F(1), F(0)),
                                   two_thirds_ctx)


class TestVertices:
    def test_thermal_state_single_vertex(self, two_thirds_ctx):
        scaled = tuple(two_thirds_ctx.g)
        assert cone_vertices(scaled, two_thirds_ctx) == (scaled,)

    def test_pure_two_level(self, two_thirds_ctx):
        verts = set(cone_vertices((F(1), F(0)), two_thirds_ctx))
        assert verts == {(F(1), F(0)), (F(1, 2), F(1, 2))}

    def test_thermal_in_hull(self, two_thirds_ctx):
        verts = cone_vertices((F(1), F(0)), two_thirds_ctx)
        assert in_convex_hull(two_thirds_ctx.g, verts)
        # explicit coefficients: g = 1/3 * (1,0) + 2/3 * (1/2,1/2)
        g = (F(1, 3) * 1 + F(2, 3) * F(1, 2),
             F(1, 3) * 0 + F(2, 3) * F(1, 2))
        assert g == tuple(two_thirds_ctx.g)

    def test_float_context(self):
        ctx = make_gibbs_context([0, 1, 2], None)
        p = (0.5, 0.3, 0.2)
        verts = cone_vertices(p, ctx)
        assert p in verts
        for v in verts:
            assert cone_membership(p, v, ctx)

    def test_vertex_count_and_membership(self):
        import math
        rng = random.Random(21)
        for _ in range(30):
            ctx = rand_ctx(rng, nmax=4, dmax_total=16, distinct=False)
            p = rand_pop(rng, ctx.n)
            verts = cone_vertices(p, ctx)
            assert len(verts) <= math.factorial(ctx.n)
            for v in verts:
                assert cone_membership(p, v, ctx)

    def test_vertex_tuple_matches_evaluate_reference(self):
        # the integer-curve vertices equal, in order and after dedup, the
        # source curve read by LorenzCurve.evaluate along every ordering
        import itertools
        from thermo_ops import lorenz_curve
        rng = random.Random(24)
        for _ in range(40):
            ctx = rand_ctx(rng, nmax=5, dmax_total=60, distinct=False)
            p = rand_pop(rng, ctx.n)
            lp = lorenz_curve(p, ctx)
            expected = []
            for perm in itertools.permutations(range(ctx.n)):
                vertex = [None] * ctx.n
                cx = prev = 0
                for k in perm:
                    cx = cx + ctx.g[k]
                    y = lp.evaluate(cx)
                    vertex[k] = y - prev
                    prev = y
                if tuple(vertex) not in expected:
                    expected.append(tuple(vertex))
            got = cone_vertices(p, ctx)
            assert got == tuple(expected)
            assert all(type(v) is F for vt in got for v in vt)

    def test_vertices_saturate_source_curve(self):
        # a saturation point reproduces the source curve at the cumulative
        # grid of its own beta-order
        import itertools
        from thermo_ops import lorenz_curve
        rng = random.Random(22)
        for _ in range(20):
            ctx = rand_ctx(rng, nmax=4, dmax_total=14)
            p = rand_pop(rng, ctx.n)
            lp = lorenz_curve(p, ctx)
            for perm in itertools.permutations(range(ctx.n)):
                vertex = [None] * ctx.n
                cx = prev = 0
                for k in perm:
                    cx = cx + ctx.g[k]
                    y = lp.evaluate(cx)
                    vertex[k] = y - prev
                    prev = y
                lv = lorenz_curve(vertex, ctx)
                cx = 0
                for k in perm:
                    cx = cx + ctx.g[k]
                    assert lv.evaluate(cx) == lp.evaluate(cx)


# SHA-256 of the vertices over ``pinned_cone_corpus``, as written when the
# self-check still called cone_membership once per vertex.
CONE_PIN = ("dbeb77bf2e72e3b1f2343158dd1a410c"
            "e8cbaaa4fa2f65d84fe968cf6005bdbc")


def pinned_cone_corpus():
    """Sources with n <= 5: exact populations in exact contexts, float
    populations in exact contexts and float populations in float
    contexts."""
    rng = random.Random(1202)
    for trial in range(150):
        kind = trial % 3
        if kind == 2:
            n = rng.randint(2, 5)
            ctx = make_gibbs_context(
                [rng.uniform(0, 3) for _ in range(n)], None)
        else:
            ctx = rand_ctx(rng, nmax=5, dmax_total=40, distinct=False)
        p = rand_pop(rng, ctx.n)
        if kind:
            p = tuple(float(v) for v in p)
        yield ctx, p


class TestPinnedVertices:
    def test_vertices_unchanged(self):
        lines = [repr(cone_vertices(p, ctx))
                 for ctx, p in pinned_cone_corpus()]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == CONE_PIN


class TestSelfCheck:
    """The integer self-check of cone_vertices against cone_membership."""

    def test_verdict_matches_cone_membership(self):
        rng = random.Random(1303)
        admitted = refused = 0
        for _ in range(60):
            ctx = rand_ctx(rng, nmax=5, dmax_total=30, distinct=False)
            p = rand_pop(rng, ctx.n)
            curve = exact_lorenz(p, ctx)
            denom = curve.scale * curve.lam
            source = ExactLorenz([v * curve.lam for v in curve.nums], denom,
                                 ctx.d)
            for vertex in cone_vertices(p, ctx):
                nums = [v * denom for v in vertex]
                assert all(v.denominator == 1 for v in nums)
                nums = [int(v) for v in nums]
                # the vertex itself, and a point one step of mass away
                i, j = rng.sample(range(ctx.n), 2)
                moved = list(nums)
                step = min(moved[i], rng.randint(1, denom))
                moved[i] -= step
                moved[j] += step
                for point in (nums, moved):
                    verdict = _admits(source, point)
                    assert verdict == cone_membership(
                        p, tuple(F(v, denom) for v in point), ctx)
                    admitted += verdict
                    refused += not verdict
                # one unit of mass more or less is never in the cone
                for unit in (1, -1):
                    moved[i] += unit
                    assert not _admits(source, moved)
                    moved[i] -= unit
        assert refused >= 500 and admitted >= 1000

    def test_corrupted_vertex_is_refused(self, monkeypatch, seven_ctx):
        """A vertex read one unit above the source curve escapes the cone
        and is refused."""
        at = ExactLorenz.at
        monkeypatch.setattr(
            ExactLorenz, "at",
            lambda self, x: at(self, x) + (0 < x < self.xs[-1]))
        with pytest.raises(DomainError,
                           match="internal: vertex escapes the cone"):
            cone_vertices((F(1, 5), F(3, 5), F(1, 5)), seven_ctx)


class TestHullOracle:
    def test_pure_two_level_exhaustive(self, two_thirds_ctx):
        report = hull_check((F(1), F(0)), two_thirds_ctx)
        assert report.exhaustive and report.ok

    def test_thermal_trivial(self, two_thirds_ctx):
        report = hull_check(tuple(two_thirds_ctx.g), two_thirds_ctx)
        assert report.ok

    def test_three_levels_random(self, seven_ctx):
        rng = random.Random(33)
        for _ in range(5):
            p = rand_pop(rng, 3)
            report = hull_check(p, seven_ctx)
            assert report.exhaustive and report.ok

    def test_sampled_beyond_exhaustive(self):
        from thermo_ops import gibbs_context_from_weights
        ctx = gibbs_context_from_weights(
            [F(5, 11), F(3, 11), F(2, 11), F(1, 11)])
        rng = random.Random(2)
        p = rand_pop(rng, 4)
        report = hull_check(p, ctx, samples=120, seed=3)
        assert not report.exhaustive
        assert report.image_violations == 0

    def test_membership_iff_majorization(self, seven_ctx):
        rng = random.Random(55)
        p = rand_pop(rng, 3)
        verts = cone_vertices(p, seven_ctx)
        hits = misses = 0
        for _ in range(60):
            q = rand_pop(rng, 3)
            inside = in_convex_hull(q, verts)
            assert inside == thermo_majorizes(p, q, seven_ctx)
            hits += inside
            misses += not inside
        assert hits and misses


class TestPlottingAids:
    def test_facets_two_level(self, two_thirds_ctx):
        cone = thermal_cone((F(1), F(0)), two_thirds_ctx, facets=False)
        assert cone.hull_facets is None
        # dimension 1 after normalisation: facets come from the interval hull
        eqs = hull_facets(cone.vertices)
        assert eqs is not None and len(eqs) == 2

    def test_facets_three_level(self, seven_ctx):
        cone = thermal_cone((F(1), F(0), F(0)), seven_ctx, facets=True)
        import numpy as np
        pts = np.array([[float(v) for v in vert[:-1]]
                        for vert in cone.vertices])
        for eq in cone.hull_facets:
            vals = pts @ np.array(eq[:-1]) + eq[-1]
            assert (vals <= 1e-9).all()

    def test_simplex_coordinates(self):
        coords = simplex_coordinates([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert coords[0] == (0.0, 0.0)
        assert coords[1] == (1.0, 0.0)
        assert abs(coords[2][0] - 0.5) < 1e-12
        assert abs(coords[2][1] - 3 ** 0.5 / 2) < 1e-12


def facet_corpus():
    """Seeded cones with n = 3, 4: exact sources in exact contexts, float
    sources in exact contexts and float sources in float contexts."""
    rng = random.Random(1616)
    for trial in range(90):
        n, kind = 3 + trial % 2, trial % 3
        if kind == 2:
            ctx = make_gibbs_context([rng.uniform(0, 3) for _ in range(n)],
                                     None)
        else:
            ctx = rand_ctx(rng, nmin=n, nmax=n, dmax_total=40,
                           distinct=trial % 5 > 0)
        p = rand_pop(rng, n)
        yield ctx, tuple(float(v) for v in p) if kind else p


def affine_rank(points) -> int:
    """Affine rank of exact points, by elimination on their differences."""
    rows = [[b - a for a, b in zip(points[0], pt)] for pt in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            f = r[col] / pivot[col]
            r[:] = [x - f * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


#: vertex sets whose points span no more than a hyperplane
FLAT_VERTEX_SETS = [
    # three levels: distinct points on one line
    [(F(1, 2), F(1, 2), 0), (F(1, 4), F(1, 4), F(1, 2)), (0, 0, 1)],
    # four levels: coplanar points, and collinear ones
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1),
     (F(1, 3), F(1, 3), 0, F(1, 3))],
    [(0.25, 0.25, 0.25, 0.25), (0.5, 0.5, 0.0, 0.0),
     (0.0, 0.0, 0.5, 0.5), (0.375, 0.375, 0.125, 0.125)],
    # repeated points: no more distinct ones than n - 1
    [(1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0)],
]


class TestFacetOracle:
    """hull_facets against Qhull (scipy.spatial.ConvexHull)."""

    def test_matches_qhull(self):
        spatial = pytest.importorskip("scipy.spatial")
        sizes = set()
        for ctx, p in facet_corpus():
            n = ctx.n
            vertices = cone_vertices(p, ctx)
            rows = hull_facets(vertices)
            pts = [[F(v) for v in vert[:-1]] for vert in vertices]
            if len(vertices) < n:
                assert rows is None
                continue
            qhull = spatial.ConvexHull([[float(v) for v in pt]
                                        for pt in pts])
            # the distinct planes are equal, and each row appears once
            for eq in qhull.equations:
                assert any(max(abs(a - b) for a, b in zip(eq, row)) < 1e-9
                           for row in rows)
            for row in rows:
                assert any(max(abs(a - b) for a, b in zip(eq, row)) < 1e-9
                           for eq in qhull.equations)
            assert list(rows) == sorted(set(rows))
            assert len(rows) <= 2 ** n - 2
            for row in rows:
                assert abs(sum(a * a for a in row[:-1]) - 1) < 1e-12
                values = [sum(F(a) * x for a, x in zip(row, pt)) + F(row[-1])
                          for pt in pts]
                assert max(values) <= 1e-12
                touching = [pt for pt, v in zip(pts, values)
                            if abs(v) <= 1e-12]
                assert affine_rank(touching) >= n - 2
            sizes.add((n, len(vertices)))
        assert {n for n, _ in sizes} == {3, 4} and (4, 24) in sizes

    def test_degenerate_hulls_are_none(self, seven_ctx):
        thermal = tuple(seven_ctx.g)
        assert hull_facets(cone_vertices(thermal, seven_ctx)) is None
        for vertices in FLAT_VERTEX_SETS:
            assert hull_facets(vertices) is None

    def test_qhull_rejects_the_degenerate_hulls(self):
        spatial = pytest.importorskip("scipy.spatial")
        for vertices in FLAT_VERTEX_SETS:
            with pytest.raises(spatial.QhullError):
                spatial.ConvexHull([[float(v) for v in vert[:-1]]
                                    for vert in vertices])


class TestPullbackImagesInsideCone:
    def test_images_are_members(self, seven_ctx):
        rng = random.Random(8)
        p = rand_pop(rng, 3)
        for _ in range(40):
            perm = list(range(seven_ctx.D))
            rng.shuffle(perm)
            img = pull_back(perm, seven_ctx).apply(p)
            assert thermo_majorizes(p, img, seven_ctx)
