"""Exact linear-programming feasibility for the verification oracles.

A dense phase-1 simplex over ``fractions.Fraction`` with Bland's rule: slow
but immune to cycling and to floating-point misjudgements, which is what the
cross-checks here need.  Instances stay small (a few dozen variables).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import DomainError, GibbsContext, as_values

_ZERO = Fraction(0)
_ONE = Fraction(1)


def feasible(rows: Sequence[Sequence], rhs: Sequence):
    """Solve ``A x = b, x >= 0`` exactly.

    Returns a list of Fractions or None when the system is infeasible.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
    # tableau columns: n structural, m artificial, rhs
    width = n + m + 1
    t = [a[i] + [_ONE if k == i else _ZERO for k in range(m)] + [b[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    # phase-1 objective row: reduced costs of min(sum of artificials)
    z = [sum(t[i][j] for i in range(m)) for j in range(width)]
    for k in range(m):
        z[n + k] = _ZERO

    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if t[i][enter] > 0:
                ratio = t[i][width - 1] / t[i][enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise DomainError("unbounded phase-1 objective (malformed input)")
        piv = t[leave][enter]
        t[leave] = [v / piv for v in t[leave]]
        for i in range(m):
            if i != leave and t[i][enter] != 0:
                f = t[i][enter]
                t[i] = [vi - f * vl for vi, vl in zip(t[i], t[leave])]
        f = z[enter]
        z = [vz - f * vl for vz, vl in zip(z, t[leave])]
        basis[leave] = enter

    if sum(t[i][width - 1] for i in range(m) if basis[i] >= n) != 0:
        return None
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = t[i][width - 1]
    return x


def gibbs_map_exists(p, q, ctx: GibbsContext,
                     pins: Sequence[tuple[tuple[int, int], Fraction]] = ()):
    """Feasibility of {G >= 0 column-stochastic, G g = g, G p = q}.

    The independent oracle for the thermo-majorisation routes.  Optional
    ``pins`` force entries G[i|j] to given values.  Returns the witness matrix
    columns or None.  Limited to n <= 6 by design; the oracle is a
    verification path, not a production solver.
    """
    ctx.require_rational()
    n = ctx.n
    if n > 6:
        raise DomainError("LP oracle limited to n <= 6")
    pv = [Fraction(v) for v in as_values(p)]
    qv = [Fraction(v) for v in as_values(q)]
    if len(pv) != n or len(qv) != n:
        raise DomainError("population and context dimensions differ")
    g = [Fraction(v) for v in ctx.g]

    def var(i, j):
        return i * n + j

    rows = []
    rhs = []
    for j in range(n):  # column sums
        row = [_ZERO] * (n * n)
        for i in range(n):
            row[var(i, j)] = _ONE
        rows.append(row)
        rhs.append(_ONE)
    for i in range(n):  # G g = g
        row = [_ZERO] * (n * n)
        for j in range(n):
            row[var(i, j)] = g[j]
        rows.append(row)
        rhs.append(g[i])
    for i in range(n):  # G p = q
        row = [_ZERO] * (n * n)
        for j in range(n):
            row[var(i, j)] = pv[j]
        rows.append(row)
        rhs.append(qv[i])
    for (i, j), value in pins:
        row = [_ZERO] * (n * n)
        row[var(i, j)] = _ONE
        rows.append(row)
        rhs.append(Fraction(value))
    x = feasible(rows, rhs)
    if x is None:
        return None
    return tuple(tuple(x[var(i, j)] for i in range(n)) for j in range(n))


def in_convex_hull(point: Sequence, generators: Sequence[Sequence]) -> bool:
    """Exact membership of a point in the convex hull of the generators."""
    pt = [Fraction(v) for v in as_values(point)]
    gens = [[Fraction(v) for v in as_values(gen)] for gen in generators]
    if not gens:
        return False
    k = len(gens)
    dim = len(pt)
    if any(len(gen) != dim for gen in gens):
        raise DomainError("point and generator dimensions differ")
    rows = [[_ONE] * k]
    rhs = [_ONE]
    for i in range(dim):
        rows.append([gen[i] for gen in gens])
        rhs.append(pt[i])
    return feasible(rows, rhs) is not None
