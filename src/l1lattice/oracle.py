"""Exact brute-force LP oracle: vertex enumeration in integer arithmetic.

Cross-check only.  The solver in :mod:`l1lattice.lp` never calls into this
module; it exists so the test suite and the selftest can compare simplex
answers against exact arithmetic on small programs (a handful of variables
and constraints; the enumeration is exponential).

Every variable is nonnegative, the LP convention of :mod:`l1lattice.lp`.
With x >= 0 the feasible set is pointed, so it is nonempty iff it has a
vertex, and a finite minimum is attained at one.  Unboundedness is decided
exactly on the recession cone normalized by sum(d) = 1.

Arithmetic: every float is dyadic, so ``Fraction(float(v))`` is exact;
each constraint row [a | b] and the objective c are scaled to Python ints
by the lcm of their denominators.  Square systems are solved by
fraction-free Gauss-Jordan elimination (Bareiss 1968) into Cramer
numerators, x_j = N_j / D with D > 0.  The vertex tests are integer sign
tests (N_j >= 0, a.N == b D, g.N <= h D), and one ``Fraction`` c.N / D is
formed per feasible vertex.

Enumeration details: a maximal independent subset of the equality rows is
force-included in every candidate active set (equalities hold at every
feasible point, so some rank basis through them defines each vertex);
choosing an active bound x_j = 0 eliminates the variable, so only reduced
square systems are solved.  A vertex reached from several active sets is
yielded once per set, which changes neither the minimum nor a sign test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from . import lp


def _scaled(values) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, as ints, and the lcm."""
    exact = [Fraction(float(v)) for v in values]
    scale = math.lcm(*(f.denominator for f in exact))
    return [f.numerator * (scale // f.denominator) for f in exact], scale


def _dot(row, x) -> int:
    """row . x over the first len(x) entries of ``row``."""
    return sum(map(mul, row, x))


def _solve_square(rows):
    """Fraction-free Gauss-Jordan on the augmented integer rows [A | b].

    Returns (D, N) with A x = b at x = N / D and D > 0, or None when A is
    singular.  Every live entry stays an integer minor of [A | b], so each
    division by the previous pivot is exact (Bareiss 1968).
    """
    a = [row[:] for row in rows]
    n = len(a)
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        pivot, tail = a[k][k], a[k][k + 1:]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                row[k + 1:] = [(pivot * v - f * w) // prev
                               for v, w in zip(row[k + 1:], tail)]
        prev = pivot
    sign = 1 if prev > 0 else -1
    return sign * prev, [sign * row[n] for row in a]


def _independent_rows(rows) -> list[int]:
    """Indices of a maximal linearly independent subset (fraction-free)."""
    basis: list[list[int]] = []
    picked: list[int] = []
    for idx, row in enumerate(rows):
        work = row[:]
        for b in basis:
            lead = next(j for j, v in enumerate(b) if v)
            if work[lead]:
                work = [b[lead] * w - work[lead] * v for w, v in zip(work, b)]
        if any(work):
            basis.append(work)
            picked.append(idx)
    return picked


def _vertices(n, eq, ub):
    """Yield (D, N) for the vertices N / D of {x >= 0, eq, ub}, exactly.

    ``eq`` and ``ub`` hold augmented integer rows [a | b] for a.x = b and
    a.x <= b; N has all n entries and D > 0.
    """
    forced = [eq[i] for i in _independent_rows([row[:n] for row in eq])]
    e = len(forced)
    for b in range(0, n - e + 1):            # bound rows chosen
        r = n - e - b                        # inequality rows chosen
        if r > len(ub):
            continue
        for zero_vars in itertools.combinations(range(n), b):
            keep = [j for j in range(n) if j not in zero_vars]
            cols = keep + [n]
            base = [[row[j] for j in cols] for row in forced]
            projected = [[row[j] for j in cols] for row in ub]
            for subset in itertools.combinations(projected, r):
                sol = _solve_square(base + list(subset))
                if sol is None:
                    continue
                d, num = sol
                if any(v < 0 for v in num):
                    continue
                x = [0] * n
                for j, v in zip(keep, num):
                    x[j] = v
                if any(_dot(row, x) != row[n] * d for row in eq):
                    continue
                if any(_dot(row, x) > row[n] * d for row in ub):
                    continue
                yield d, x


def solve_exact(p: lp.LinearProgram):
    """Exact (status, optimal value or None) of the LP, with x >= 0."""
    n = p.n_vars
    c, c_scale = _scaled(p.c)
    eq = [_scaled([*row, v])[0] for row, v in zip(p.a_eq, p.b_eq)]
    ub = [_scaled([*row, v])[0] for row, v in zip(p.g_ub, p.h_ub)]

    best = min((Fraction(_dot(c, x), d) for d, x in _vertices(n, eq, ub)),
               default=None)
    if best is None:
        return lp.INFEASIBLE, None

    if any(ci < 0 for ci in c):
        # recession cone normalized to the simplex sum(d) = 1
        cone_eq = [row[:n] + [0] for row in eq] + [[1] * (n + 1)]
        cone_ub = [row[:n] + [0] for row in ub]
        if any(_dot(c, x) < 0 for _, x in _vertices(n, cone_eq, cone_ub)):
            return lp.UNBOUNDED, None

    return lp.OPTIMAL, best / c_scale
