"""Thermal-cone geometry: membership, candidate extreme points, and the
brute-force hull oracle validating them against pullback images.

The vertex construction reads the source's Lorenz curve along every level
ordering; the hull oracle checks, where exhaustive enumeration is feasible,
that those points and the images of all slot permutations span the same
convex body.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .core import (DomainError, GibbsContext, Number, ThermoPermutation,
                   as_values, auto_tol, coerce_exact, has_float)
from .majorization import (ExactLorenz, _dominates, _scaled, as_number,
                           exact_lorenz, slot_counts, thermo_majorizes)


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
    (each vertex's last entry dropped; n <= 4): one row ``(*a, b)`` per
    facet, sorted, with ``a`` the unit outward normal and ``a . x + b <= 0``
    on every vertex (the row format of Qhull's ``equations``).  None when
    the hull is degenerate: at most n - 1 distinct points, or all of them
    on one hyperplane.  No vertices, vertices of unequal length, and more
    distinct vertices than n! (the most a thermal cone has, one per
    beta-ordering) are a DomainError.

    For n = 3, 4 the facets are found exactly, in integers: the coordinates
    go over one common denominator (a float converts exactly), every n - 1
    distinct points span a candidate hyperplane, which is a facet when no
    two points lie strictly on opposite sides of it, and each facet is
    rounded to floats once.  Each candidate is checked against every point,
    so m points cost about m^n steps: meant for a thermal cone's vertices
    (``cone_vertices``), at most 24 points, not for a general point cloud.
    Float vertices are rounded values themselves, so a face of the cone
    can come out as slivers whose rows differ in the last bits; by the
    tolerance rule (``core.auto_tol``) a row within ``FLOAT_TOL`` of an
    earlier one is then dropped, and for exact vertices only an equal row
    is.
    """
    verts = [as_values(v) for v in vertices]
    if not verts:
        raise DomainError("facet enumeration needs at least one vertex")
    n = len(verts[0])
    if any(len(v) != n for v in verts):
        raise DomainError("vertices must all have the same length")
    if n > 4:
        raise DomainError("facet enumeration limited to n <= 4")
    if len(set(verts)) > math.factorial(n):
        raise DomainError(f"facet enumeration takes at most n! = "
                          f"{math.factorial(n)} distinct vertices")
    if n < 2:
        return None
    if n == 2:
        xs = [float(v[0]) for v in verts]
        lo, hi = min(xs), max(xs)
        if lo == hi:
            return None
        return ((1.0, -hi), (-1.0, lo))
    d = n - 1
    nums, scale = _scaled(*(v[:-1] for v in verts))
    # in the plane (d = 2) a point gets z = 0 and an edge's normal is its
    # cross product with the z axis, so both dimensions share one loop
    pts = sorted({tuple(p) + (0,) * (3 - d) for p in nums})
    planes = set()
    for a, b, *c in itertools.combinations(pts, d):
        c = c[0] if c else (a[0], a[1], a[2] + 1)
        u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
        nx = u[1] * v[2] - u[2] * v[1]
        ny = u[2] * v[0] - u[0] * v[2]
        nz = u[0] * v[1] - u[1] * v[0]
        off = -(nx * a[0] + ny * a[1] + nz * a[2])
        side = 0
        for x, y, z in pts:
            s = nx * x + ny * y + nz * z + off
            if s > 0:
                if side < 0:
                    break
                side = 1
            elif s < 0:
                if side > 0:
                    break
                side = -1
        else:
            if side:  # else every point lies on it, or the normal is 0
                row = (nx, ny, nz)[:d] + (off,)
                g = math.gcd(*row) * -side  # outward: every point at <= 0
                planes.add(tuple(r // g for r in row))
    if not planes:
        return None  # the points span no more than a hyperplane
    tol = auto_tol(None, *verts)
    rows = []
    for row in sorted(_unit_row(row, scale) for row in planes):
        if not any(max(abs(x - y) for x, y in zip(row, kept)) <= tol
                   for kept in rows):
            rows.append(row)
    return tuple(rows)


def _unit_row(row, scale: int) -> tuple[float, ...]:
    """The float row ``(*a, b)`` of the integer facet ``row`` (a normal and
    an offset over coordinates scaled by ``scale``), with ``|a| = 1``."""
    *normal, off = row
    top = max(abs(c) for c in normal)
    a = [c / top for c in normal]  # int / int rounds once, for any size
    norm = math.hypot(*a)
    return (*(c / norm for c in a), off / (top * scale) / norm)


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
