"""Thermal-cone geometry: membership, candidate extreme points, and the
brute-force hull oracle validating them against pullback images.

The vertex construction reads the source's Lorenz curve along every level
ordering; the hull oracle checks, where exhaustive enumeration is feasible,
that those points and the images of all slot permutations span the same
convex body.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .core import (DomainError, GibbsContext, Number, ThermoPermutation,
                   as_values, coerce_exact, has_float)
from .majorization import (ExactLorenz, _dominates, as_number, exact_lorenz,
                           slot_counts, thermo_majorizes)


@dataclass(frozen=True)
class ThermalCone:
    source: tuple[Number, ...]
    vertices: tuple[tuple[Number, ...], ...]
    hull_facets: tuple[tuple[float, ...], ...] | None = None


def cone_membership(p, q, ctx: GibbsContext, tol: Number | None = None) -> bool:
    """q is reachable from p by a thermal process iff p thermo-majorizes q;
    all three routes are consulted and must agree."""
    return thermo_majorizes(p, q, ctx, tol, route="all")


def _admits(source: ExactLorenz, v) -> bool:
    """Whether the source curve thermo-majorizes the numerators v over its
    scale, exactly: equal sums, and the curve, abs and embedded routes all
    with zero slack.  Routes that disagree are a DomainError."""
    return sum(v) == source.ys[-1] and _dominates(
        source, ExactLorenz(v, source.scale, source.d), 0, "all")


def cone_vertices(p, ctx: GibbsContext) -> tuple[tuple[Number, ...], ...]:
    """Beta-order saturation points: for each level ordering, read the
    source curve at that ordering's cumulative-weight grid.

    The curve is the integer one, read in slots, so a grid point's value is
    a numerator over one common denominator and depends only on its
    cumulative slot count: each is read once, and vertices are deduplicated
    exactly.  Every vertex is checked to lie in the cone on those
    numerators, before rounding (all three routes, zero slack).  Entries
    are Fractions, or floats when an input number is one.
    """
    pv = as_values(p)
    n = ctx.n
    curve = exact_lorenz(pv, ctx)
    steps = slot_counts(ctx)[0]
    values = {}
    seen = set()
    out = []
    for perm in itertools.permutations(range(n)):
        vertex = [None] * n
        cx = 0
        prev = 0
        for k in perm:
            cx += steps[k]
            y = values.get(cx)
            if y is None:
                y = values[cx] = curve.at(cx)
            vertex[k] = y - prev
            prev = y
        vt = tuple(vertex)
        if vt not in seen:
            seen.add(vt)
            out.append(vt)
    denom = curve.scale * curve.lam
    source = ExactLorenz([v * curve.lam for v in curve.nums], denom, steps)
    for vt in out:
        if not _admits(source, vt):
            raise DomainError("internal: vertex escapes the cone")
    inexact = has_float(pv, ctx.g)
    number = {v: as_number(v, denom, inexact) for v in set().union(*out)}
    return tuple(tuple(number[v] for v in vt) for vt in out)


def _tables(row_sums: Sequence[int], col_sums: Sequence[int]):
    """Nonnegative integer matrices with the given margins (row-recursive)."""
    n = len(col_sums)

    def fill_row(r, cols_left):
        if r == len(row_sums):
            if all(c == 0 for c in cols_left):
                yield []
            return
        target = row_sums[r]

        def fill_cell(c, left, row):
            if c == n - 1:
                if left <= cols_left[c]:
                    yield row + [left]
                return
            for v in range(min(left, cols_left[c]) + 1):
                yield from fill_cell(c + 1, left - v, row + [v])

        for row in fill_cell(0, target, []):
            new_cols = [cl - v for cl, v in zip(cols_left, row)]
            for rest in fill_row(r + 1, new_cols):
                yield [row] + rest

    yield from fill_row(0, list(col_sums))


def _exhaustive_images(p, ctx: GibbsContext):
    """Distinct pullback images of all D! slot permutations, enumerated as
    block-count tables with margins d (every table is realised by at least
    one permutation)."""
    images = set()
    for table in _tables(ctx.d, ctx.d):
        counts = {(i, j): v for i, row in enumerate(table)
                  for j, v in enumerate(row)}
        images.add(ThermoPermutation.from_counts(counts, ctx.d).apply(p))
    return images


@dataclass(frozen=True)
class HullReport:
    images_checked: int
    image_violations: int
    vertex_violations: int
    exhaustive: bool

    @property
    def ok(self) -> bool:
        return self.image_violations == 0 and self.vertex_violations == 0


def hull_check(p, ctx: GibbsContext, samples: int = 500, seed: int = 0,
               check_vertices: bool = True,
               exhaustive_up_to: int = 8) -> HullReport:
    """Brute-force oracle for the vertex construction.

    Exhaustive over all slot permutations for D <= exhaustive_up_to (via
    block-count tables, which enumerate the distinct pullbacks), a seeded
    random sample beyond that.  Checks every pullback image against
    conv(vertices), and optionally every vertex against conv(images).
    """
    from .birkhoff import pull_back
    from .linprog import in_convex_hull
    ctx.require_rational()
    if ctx.D > 12:
        raise DomainError("hull oracle limited to D <= 12")
    pv = coerce_exact(as_values(p), "p")
    vertices = cone_vertices(pv, ctx)
    exhaustive = ctx.D <= exhaustive_up_to
    if exhaustive:
        images = _exhaustive_images(pv, ctx)
    else:
        rng = random.Random(seed)
        images = set()
        for _ in range(samples):
            perm = list(range(ctx.D))
            rng.shuffle(perm)
            images.add(tuple(pull_back(perm, ctx).apply(pv)))
    image_bad = sum(0 if in_convex_hull(img, vertices) else 1
                    for img in images)
    vertex_bad = 0
    if check_vertices and exhaustive:
        image_list = sorted(images)
        vertex_bad = sum(0 if in_convex_hull(v, image_list) else 1
                         for v in vertices)
    return HullReport(len(images), image_bad, vertex_bad, exhaustive)


def hull_facets(vertices: Sequence[Sequence[Number]]
                ) -> tuple[tuple[float, ...], ...] | None:
    """Facet inequalities of the vertex set in the normalisation hyperplane
    (float mode, n <= 4); None when the hull is degenerate."""
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    pts = np.array([[float(v) for v in vert[:-1]] for vert in vertices])
    n = pts.shape[1] + 1
    if n > 4:
        raise DomainError("facet enumeration limited to n <= 4")
    if len(pts) <= n - 1:
        return None
    if n == 2:
        lo, hi = float(pts.min()), float(pts.max())
        if lo == hi:
            return None
        return ((1.0, -hi), (-1.0, lo))
    try:
        hull = ConvexHull(pts)
    except (QhullError, ValueError):
        return None
    return tuple(tuple(float(c) for c in eq) for eq in hull.equations)


def thermal_cone(p, ctx: GibbsContext, facets: bool = False) -> ThermalCone:
    pv = as_values(p)
    vertices = cone_vertices(pv, ctx)
    eqs = hull_facets(vertices) if facets else None
    return ThermalCone(tuple(pv), vertices, eqs)


def simplex_coordinates(points: Sequence[Sequence[Number]]
                        ) -> list[tuple[float, float]]:
    """Ternary-plot coordinates for three-level populations (normalised)."""
    out = []
    for pt in points:
        pt = as_values(pt)
        if len(pt) != 3:
            raise DomainError("simplex coordinates need exactly three levels")
        total = sum(pt)
        if any(v < 0 for v in pt) or not total > 0:
            raise DomainError("simplex coordinates need nonnegative entries "
                              "with a positive sum")
        a, b, c = (float(v / total) for v in pt)
        out.append((b + c / 2, c * (3 ** 0.5) / 2))
    return out
