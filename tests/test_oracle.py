import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1lattice import lp
from l1lattice.acceptance import random_small_lp
from l1lattice.lp import LinearProgram
from l1lattice.oracle import solve_exact

# ---------------------------------------------------------------------------
# Reference: the Fraction vertex enumeration that was the first oracle,
# kept verbatim apart from the names.
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _to_fractions(arr) -> list[list[Fraction]]:
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(arr)]


def _reference_solve_square(rows, rhs):
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


def _reference_independent_rows(rows) -> list[int]:
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


def _reference_vertices(n, eq, beq, ub, hub, stop_when=None):
    """Yield all vertices of {x >= 0, eq x = beq, ub x <= hub}, exactly.

    ``stop_when(x)`` may truncate the enumeration early (used for the
    recession-direction test, where one witness suffices).
    """
    forced = _reference_independent_rows(eq)
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
                sol = _reference_solve_square(mat, rhs)
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


def reference_solve_exact(p: lp.LinearProgram):
    """Exact (status, optimal value or None) of the LP, with x >= 0."""
    n = p.n_vars
    c = [Fraction(float(v)) for v in p.c]
    eq = _to_fractions(p.a_eq) if p.n_eq else []
    beq = [Fraction(float(v)) for v in p.b_eq]
    ub = _to_fractions(p.g_ub) if p.n_ub else []
    hub = [Fraction(float(v)) for v in p.h_ub]

    vertices = _reference_vertices(n, eq, beq, ub, hub)
    if not vertices:
        return lp.INFEASIBLE, None

    if any(ci < 0 for ci in c):
        # recession cone normalized to the simplex sum(d) = 1
        cone_eq = eq + [[_ONE] * n]
        cone_beq = [_ZERO] * len(beq) + [_ONE]

        def negative_cost(d):
            return sum(ci * di for ci, di in zip(c, d)) < 0

        directions = _reference_vertices(n, cone_eq, cone_beq, ub,
                                         [_ZERO] * len(hub),
                                         stop_when=negative_cost)
        if directions and negative_cost(directions[-1]):
            return lp.UNBOUNDED, None

    best = min(sum(ci * vi for ci, vi in zip(c, v)) for v in vertices)
    return lp.OPTIMAL, best


# ---------------------------------------------------------------------------


def _one_program_per_shape(seed):
    """One random_small_lp program of every (variables, equality rows,
    inequality rows) shape it draws, from one seeded stream."""
    rng = np.random.default_rng(seed)
    shapes = {(n, m_eq, m_ub) for n in range(1, 7) for m_eq in range(3)
              for m_ub in range(0 if m_eq else 1, 9 - m_eq)}
    found = {}
    while len(found) < len(shapes):
        p = random_small_lp(rng)
        found.setdefault((p.n_vars, p.n_eq, p.n_ub), p)
    return [found[s] for s in sorted(shapes)]


@st.composite
def integer_programs(draw):
    """Integer LPs with at most 3 variables, at most 4 equality and
    inequality rows in all, and entries in -4..4."""
    n = draw(st.integers(1, 3))
    m_eq = draw(st.integers(0, 4))
    m_ub = draw(st.integers(0, 4 - m_eq))

    def rows(m, width):
        return draw(st.lists(st.lists(st.integers(-4, 4), min_size=width,
                                      max_size=width),
                             min_size=m, max_size=m))

    c, eq, ub = rows(1, n)[0], rows(m_eq, n + 1), rows(m_ub, n + 1)
    return LinearProgram(c, [r[:n] for r in eq] or None,
                         [r[n] for r in eq] or None,
                         [r[:n] for r in ub] or None,
                         [r[n] for r in ub] or None)


def _scaled(p, s):
    return LinearProgram(p.c * s, p.a_eq * s, p.b_eq * s, p.g_ub * s,
                         p.h_ub * s)


class TestMatchesFractionEnumeration:
    """The integer simplex returns the identical status and the identical
    exact Fraction as the Fraction vertex enumeration."""

    @pytest.mark.parametrize("scale", [1.0, 0.1, 1e-3, 1.25])
    def test_every_shape(self, scale):
        # 0.1 and 1e-3 make large power-of-two denominators that differ
        # from row to row; 1.25 makes small non-integer ones
        statuses = set()
        for p in _one_program_per_shape(17):
            q = _scaled(p, scale)
            got = solve_exact(q)
            assert got == reference_solve_exact(q)
            assert got[1] is None or type(got[1]) is Fraction
            statuses.add(got[0])
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}

    @given(integer_programs())
    @settings(deadline=None, max_examples=300)
    def test_integer_programs(self, program):
        assert solve_exact(program) == reference_solve_exact(program)


# Programs with known exact answers, among them degenerate ones: cycling,
# an artificial that leaves through a negative entry, and repeated and
# summed rows.  tests/test_lp.py runs them through lp.solve too.
HAND_SOLVED = [
    # x1 + x2 = -1 has no nonnegative solution
    (LinearProgram([1.0, 1.0], [[1.0, 1.0]], [-1.0]),
     (lp.INFEASIBLE, None)),
    # min -x1 s.t. x1 - x2 <= 1: x = (1 + t, t) for every t >= 0
    (LinearProgram([-1.0, 0.0], g_ub=[[1.0, -1.0]], h_ub=[1.0]),
     (lp.UNBOUNDED, None)),
    # min x s.t. 3x = 1
    (LinearProgram([1.0], [[3.0]], [1.0]), (lp.OPTIMAL, Fraction(1, 3))),
    # min x1 + 2 x2 with x1 + x2 = 2 written twice: x = (2, 0)
    (LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0]),
     (lp.OPTIMAL, Fraction(2))),
    # the same row repeated with another right-hand side
    (LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [2.0, 3.0]),
     (lp.INFEASIBLE, None)),
    # x1 + x2 = 1, x2 + x3 = 2 and their sum: min x1 + x3 = 3 - 2 x2
    # at x2 = 1
    (LinearProgram([1.0, 0.0, 1.0],
                   [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]],
                   [1.0, 2.0, 3.0]), (lp.OPTIMAL, Fraction(1))),
    # the sum row with a right-hand side that is not the sum
    (LinearProgram([1.0, 0.0, 1.0],
                   [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]],
                   [1.0, 2.0, 4.0]), (lp.INFEASIBLE, None)),
    # x1 + x2 <= 2, x1 <= 1 and x2 <= 1 all pass through (1, 1)
    (LinearProgram([-1.0, -2.0],
                   g_ub=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                   h_ub=[2.0, 1.0, 1.0]), (lp.OPTIMAL, Fraction(-3))),
    # all-zero rows: 0 = 0 and 0 <= 1 hold everywhere
    (LinearProgram([1.0, -1.0], [[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0],
                   [[0.0, 0.0]], [1.0]), (lp.OPTIMAL, Fraction(-1))),
    # ... while 0 <= -1 and 0 = 1 hold nowhere
    (LinearProgram([1.0, 1.0], g_ub=[[0.0, 0.0]], h_ub=[-1.0]),
     (lp.INFEASIBLE, None)),
    (LinearProgram([1.0, 1.0], [[0.0, 0.0]], [1.0]),
     (lp.INFEASIBLE, None)),
    # Beale's (1955) example of cycling under Dantzig's rule: x1, x2
    # and x3 are the slacks of his three <= rows, and the optimum is
    # x = (3/4, 0, 0, 1, 0, 1, 0)
    (LinearProgram([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0],
                   [[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                    [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]],
                   [0.0, 0.0, 1.0]), (lp.OPTIMAL, Fraction(-5, 4))),
    # -x1 - x2 = 0 forces x = 0.  Phase 1 starts optimal (its costs are
    # (1, 1)), so the artificial stays basic at level zero and can leave
    # only through a negative entry; dropping the row instead would
    # leave x1 free and min -x1 + x2 unbounded
    (LinearProgram([-1.0, 1.0], [[-1.0, -1.0]], [0.0]),
     (lp.OPTIMAL, Fraction(0))),
]


class TestHandSolved:
    @pytest.mark.parametrize("program, expected", HAND_SOLVED)
    def test_program(self, program, expected):
        assert solve_exact(program) == expected
        assert reference_solve_exact(program) == expected
