"""Exact LP oracle: a two-phase simplex in integer arithmetic.

Cross-check only.  The solver in :mod:`l1lattice.lp` never calls into this
module; it exists so the test suite and the selftest can compare simplex
answers against exact arithmetic.

Every variable is nonnegative, the LP convention of :mod:`l1lattice.lp`.

Arithmetic: every float is dyadic, so ``float.as_integer_ratio`` is
exact; each constraint row [a | b] and the objective c are scaled to
Python ints by the lcm of their denominators.  No float and no tolerance
is used after that.  The tableau is kept as integers over one common
denominator D > 0: every entry is an integer minor of the original
system (an entry of adj(B) A for the current basis B), so the
fraction-free pivot (p T_i - T_i[q] T_r) / D divides exactly (Edmonds
1967, the division of Bareiss 1968).  Both objective rows are carried as
tableau rows.

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
and is dropped.  Phase 2 minimizes c: an entering column with no positive
entry means UNBOUNDED, otherwise the optimum is the exact ``Fraction``
read off the objective row.  Artificial columns are not stored, since
they never re-enter.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import lp


def _scaled(values) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, as ints, and the lcm."""
    exact = [float(v).as_integer_ratio() for v in values]
    scale = math.lcm(*(d for _, d in exact))
    return [n * (scale // d) for n, d in exact], scale


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


def solve_exact(p: lp.LinearProgram):
    """Exact (status, optimal value or None) of the LP, with x >= 0."""
    n, n_ub = p.n_vars, p.n_ub
    width = n + n_ub                         # original and slack columns
    c, c_scale = _scaled(p.c)
    tab, basis = [], []
    for i, (a, b) in enumerate([*zip(p.a_eq, p.b_eq),
                                *zip(p.g_ub, p.h_ub)]):
        k = i - p.n_eq                       # slack index, < 0 on eq rows
        row = _scaled([*a, b])[0]
        row = row[:n] + [int(j == k) for j in range(n_ub)] + row[n:]
        if row[-1] < 0:
            row = [-v for v in row]
        tab.append(row)
        # the slack starts basic only on a <= row that kept its sign
        basis.append(n + k if k >= 0 and row[n + k] == 1 else width + i)
    artificial = [row for row, b in zip(tab, basis) if b >= width]
    tab.append(c + [0] * (n_ub + 1))
    tab.append([-sum(row[j] for row in artificial) for j in range(width + 1)])

    d = _bland(tab, basis, 1)                # phase 1 is bounded below by 0
    if tab.pop()[-1]:
        return lp.INFEASIBLE, None
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

    d = _bland(tab, basis, d)
    if d is None:
        return lp.UNBOUNDED, None
    return lp.OPTIMAL, Fraction(-tab[-1][-1], d * c_scale)
