"""Exact LP oracle: a two-phase simplex in integer arithmetic.

Two entries share one phase 1.  ``solve_exact(p)`` gives the exact status
and optimum of a ``LinearProgram``, so the test suite and the selftest can
compare simplex answers against exact arithmetic.  ``feasible_point(rows,
rhs)`` gives an exact vertex x >= 0 of the equality system rows @ x = rhs,
integer rows and float right-hand sides, or None when it has none; the
minimal part-count search of :mod:`l1lattice.decompose` decides every
per-atom system with it.  The solver in :mod:`l1lattice.lp` never calls
into this module.

Every variable is nonnegative, the LP convention of :mod:`l1lattice.lp`.

Arithmetic: every float is dyadic, so ``float.as_integer_ratio`` is
exact.  ``solve_exact`` scales the constraint rows [a | b] to Python ints
by the lcm of all their denominators, and the objective c by the lcm of
its own.  ``feasible_point``'s rows are integers already, so it scales
only the right-hand side, by the lcm s of its denominators, and carries no
objective row.  No float and no tolerance is used after that.  Neither
scaling moves a pivot: one positive factor on all rows of [A | b], or on
the column b alone, keeps the sign of every phase-1 reduced cost, the
order of every ratio and every zero test, so the basis path is the one of
the unscaled system, and the vertex of [A | s b] is s times its vertex.
For the same reason the pivots do not depend on a power-of-two scaling of
the right-hand sides.  The tableau is kept as integers over one common
denominator D > 0: every entry is an integer minor of the original system
(an entry of adj(B) A for the current basis B), so the fraction-free pivot
(p T_i - T_i[q] T_r) / D divides exactly (Edmonds 1967, the division of
Bareiss 1968).  The objective rows are carried as tableau rows.

It runs the phase design of :mod:`l1lattice.lp` in integers, on the same
columns (originals, then slacks).  Rows with a negative right-hand side
are negated.  Each <= row with h >= 0 starts with its slack basic; every
other row starts with an artificial.  Pivoting follows Bland's rule
(Bland 1977: lowest-index entering column, ratio ties to the lowest basic
index), which terminates in exact arithmetic.  Phase 1 minimizes the sum
of the artificials: a nonzero minimum means INFEASIBLE.  An artificial
left basic at level zero is pivoted out on any nonzero original or slack
entry of its row (its right-hand side is 0, so the row may be negated
first to make that entry positive); a row with no such entry is redundant
and is dropped.  Every basic column then holds D in its row and 0
elsewhere, so the vertex reads x_B = rhs / D.  Phase 2 minimizes c: an
entering column with no positive entry means UNBOUNDED, otherwise the
optimum is the exact ``Fraction`` read off the objective row.  Artificial
columns are not stored, since they never re-enter.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import lp


def _scaled(rows) -> tuple[list[list[int]], int]:
    """``rows`` times the lcm of all their denominators, as ints, and the
    lcm."""
    exact = [[float(v).as_integer_ratio() for v in row] for row in rows]
    scale = math.lcm(*(d for row in exact for _, d in row))
    return [[n * (scale // d) for n, d in row] for row in exact], scale


def _pivot(tab, r, q, d) -> int:
    """Pivot ``tab`` in place on entry (r, q) > 0 over denominator ``d``.

    Row r is unchanged; every other row T_i becomes
    (p T_i - T_i[q] T_r) / d, an exact division.  Returns the new
    denominator p = tab[r][q].
    """
    top = tab[r]
    p = top[q]
    for i, row in enumerate(tab):
        if i != r:
            f = row[q]
            tab[i] = [(p * v - f * w) // d for v, w in zip(row, top)]
    return p


def _bland(tab, basis, d):
    """Minimize the last row of ``tab`` from a feasible basis by Bland's rule.

    ``basis[i]`` is the basic variable of constraint row ``tab[i]``; each row
    ends with its right-hand side.  Returns the final denominator, or None
    when the objective is unbounded below.
    """
    while True:
        q = next((j for j, v in enumerate(tab[-1][:-1]) if v < 0), None)
        if q is None:
            return d
        r = None
        for i, b in enumerate(basis):
            row = tab[i]
            if row[q] > 0 and (r is None or (row[-1] * tab[r][q], b)
                               < (tab[r][-1] * row[q], basis[r])):
                r = i
        if r is None:
            return None
        basis[r] = q
        d = _pivot(tab, r, q, d)


def _phase_1(tab, basis, width):
    """Phase 1 and the drive-out of the artificials, in place; the final
    denominator, or None when the constraints are infeasible.

    The first len(basis) rows of ``tab`` are the constraints over ``width``
    stored columns, each ending with its right-hand side >= 0, and
    ``basis[i]`` is row i's basic variable (width + i for an artificial).
    Any rows after them are objectives, pivoted along.
    """
    artificial = [row for row, b in zip(tab, basis) if b >= width]
    tab.append([-sum(row[j] for row in artificial) for j in range(width + 1)])
    d = _bland(tab, basis, 1)                # phase 1 is bounded below by 0
    if tab.pop()[-1]:
        return None
    for r in reversed(range(len(basis))):   # drops shift only done rows
        if basis[r] < width:
            continue
        row = tab[r]
        q = next((j for j, v in enumerate(row[:-1]) if v), None)
        if q is None:
            del tab[r], basis[r]
            continue
        if row[q] < 0:
            tab[r] = [-v for v in row]
        basis[r] = q
        d = _pivot(tab, r, q, d)
    return d


def _feasible_tableau(p: lp.LinearProgram):
    """The tableau, basis and denominator after phase 1 and the drive-out of
    the artificials, with the objective c as the last row, and c's scale;
    None when the system is infeasible."""
    n, n_ub = p.n_vars, p.n_ub
    width = n + n_ub                         # original and slack columns
    (c,), c_scale = _scaled([p.c])
    rows, _ = _scaled([*(list(a) + [b] for a, b in zip(p.a_eq, p.b_eq)),
                       *(list(g) + [h] for g, h in zip(p.g_ub, p.h_ub))])
    tab, basis = [], []
    for i, row in enumerate(rows):
        k = i - p.n_eq                       # slack index, < 0 on eq rows
        row = row[:n] + [int(j == k) for j in range(n_ub)] + row[n:]
        if row[-1] < 0:
            row = [-v for v in row]
        tab.append(row)
        # the slack starts basic only on a <= row that kept its sign
        basis.append(n + k if k >= 0 and row[n + k] == 1 else width + i)
    tab.append(c + [0] * (n_ub + 1))
    d = _phase_1(tab, basis, width)
    if d is None:
        return None
    return tab, basis, d, c_scale


def solve_exact(p: lp.LinearProgram):
    """Exact (status, optimal value or None) of the LP, with x >= 0."""
    start = _feasible_tableau(p)
    if start is None:
        return lp.INFEASIBLE, None
    tab, basis, d, c_scale = start
    d = _bland(tab, basis, d)
    if d is None:
        return lp.UNBOUNDED, None
    return lp.OPTIMAL, Fraction(-tab[-1][-1], d * c_scale)


def feasible_point(rows, rhs) -> list[Fraction] | None:
    """An exact vertex x >= 0 of rows @ x = rhs, or None when there is none.

    ``rows`` is a nonempty list of equally long rows of Python ints, and
    ``rhs`` their float right-hand sides.  Only ``rhs`` is scaled, by
    the lcm s of its denominators; the vertex of rows @ y = s rhs is s x.
    """
    (b,), scale = _scaled([rhs])
    tab = [[*row, v] if v >= 0 else [*(-a for a in row), -v]
           for row, v in zip(rows, b)]
    n = len(rows[0])
    basis = list(range(n, n + len(tab)))
    d = _phase_1(tab, basis, n)
    if d is None:
        return None
    x = [Fraction(0)] * n
    d *= scale
    for row, j in zip(tab, basis):
        x[j] = Fraction(row[-1], d)
    return x
