"""Exact rational brute-force LP oracle: vertex enumeration with Fractions.

Cross-check only.  The solver in :mod:`l1lattice.lp` never calls into this
module; it exists so the test suite and the selftest can compare simplex
answers against exact arithmetic on small programs (a handful of variables
and constraints; the enumeration is exponential).

Every variable is nonnegative, the LP convention of :mod:`l1lattice.lp`.
With x >= 0 the feasible set is pointed, so it is nonempty iff it has a
vertex, and a finite minimum is attained at one.
Unboundedness is decided exactly on the recession cone normalized by
sum(d) = 1.

Enumeration details: a maximal independent subset of the equality rows is
force-included in every candidate active set (equalities hold at every
feasible point, so some rank basis through them defines each vertex);
choosing an active bound x_j = 0 eliminates the variable, so only reduced
square systems are solved exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _to_fractions(arr) -> list[list[Fraction]]:
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(arr)]


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; returns None when singular."""
    n = len(rows)
    if n == 0:
        return []
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = _ONE / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _independent_rows(rows) -> list[int]:
    """Indices of a maximal linearly independent subset, by exact elimination."""
    basis: list[list[Fraction]] = []
    picked: list[int] = []
    for idx, row in enumerate(rows):
        work = row[:]
        for b in basis:
            lead = next((j for j, v in enumerate(b) if v != 0), None)
            if lead is not None and work[lead] != 0:
                factor = work[lead] / b[lead]
                work = [w - factor * v for w, v in zip(work, b)]
        if any(v != 0 for v in work):
            basis.append(work)
            picked.append(idx)
    return picked


def _vertices(n, eq, beq, ub, hub, stop_when=None):
    """Yield all vertices of {x >= 0, eq x = beq, ub x <= hub}, exactly.

    ``stop_when(x)`` may truncate the enumeration early (used for the
    recession-direction test, where one witness suffices).
    """
    forced = _independent_rows(eq)
    others = list(range(len(ub)))
    vertices = []
    seen = set()
    e = len(forced)
    if e > n:
        return vertices
    for b in range(0, n - e + 1):            # bound rows chosen
        r = n - e - b                        # inequality rows chosen
        if r > len(ub):
            continue
        for zero_vars in itertools.combinations(range(n), b):
            keep = [j for j in range(n) if j not in zero_vars]
            base_rows = [[eq[i][j] for j in keep] for i in forced]
            base_rhs = [beq[i] for i in forced]
            for row_subset in itertools.combinations(others, r):
                mat = base_rows + [[ub[i][j] for j in keep] for i in row_subset]
                rhs = base_rhs + [hub[i] for i in row_subset]
                sol = _solve_square(mat, rhs)
                if sol is None:
                    continue
                if any(v < 0 for v in sol):
                    continue
                x = [_ZERO] * n
                for j, v in zip(keep, sol):
                    x[j] = v
                if any(sum(row[j] * x[j] for j in range(n)) != bi
                       for row, bi in zip(eq, beq)):
                    continue
                if any(sum(row[j] * x[j] for j in range(n)) > hi
                       for row, hi in zip(ub, hub)):
                    continue
                key = tuple(x)
                if key in seen:
                    continue
                seen.add(key)
                vertices.append(x)
                if stop_when is not None and stop_when(x):
                    return vertices
    return vertices


def solve_exact(p: lp.LinearProgram):
    """Exact (status, optimal value or None) of the LP, with x >= 0."""
    n = p.n_vars
    c = [Fraction(float(v)) for v in p.c]
    eq = _to_fractions(p.a_eq) if p.n_eq else []
    beq = [Fraction(float(v)) for v in p.b_eq]
    ub = _to_fractions(p.g_ub) if p.n_ub else []
    hub = [Fraction(float(v)) for v in p.h_ub]

    vertices = _vertices(n, eq, beq, ub, hub)
    if not vertices:
        return lp.INFEASIBLE, None

    if any(ci < 0 for ci in c):
        # recession cone normalized to the simplex sum(d) = 1
        cone_eq = eq + [[_ONE] * n]
        cone_beq = [_ZERO] * len(beq) + [_ONE]

        def negative_cost(d):
            return sum(ci * di for ci, di in zip(c, d)) < 0

        directions = _vertices(n, cone_eq, cone_beq, ub,
                               [_ZERO] * len(hub), stop_when=negative_cost)
        if directions and negative_cost(directions[-1]):
            return lp.UNBOUNDED, None

    best = min(sum(ci * vi for ci, vi in zip(c, v)) for v in vertices)
    return lp.OPTIMAL, best
