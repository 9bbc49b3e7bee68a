"""Dense simplex solver: Dantzig pricing with a Bland fallback, started by
phase 1 or at a given basis.

Deliberately small and deterministic: desk-scale problems (up to a few
hundred variables), 64-bit floats throughout, lowest-index tie breaking
everywhere.  Used for the minimal-norm extension program; the per-atom
systems of the minimal part-count search are decided exactly by
:mod:`l1lattice.oracle`.

Conventions
-----------
minimize    c . x
subject to  a_eq x == b_eq
            g_ub x <= h_ub
            x >= 0

Every variable is nonnegative, and no other bound exists: a free variable
is the difference of two adjacent nonnegative columns, and a cap x[j] <= u
is a row of g_ub.

Duals are reported per constraint, equality rows first, then inequality
rows.  Signs follow the convention in which the dual objective is
``b_eq . y_eq + h_ub . y_ub`` with ``y_ub <= 0``, so weak duality reads
``dual objective <= primal objective``.

Phases
------
Rows with a negative right-hand side are negated.  The tableau's columns
are the original variables, then one slack per inequality row; the last
column is the rhs.

``solve(p, start=basis)`` takes a basis, one column per row, and forms the
tableau B^-1 [rows | rhs].  It raises LPError unless B is nonsingular and
its vertex is feasible (x_B >= -FEAS_TOL, scaled by the rhs; x_B is then
clamped at 0), and it runs phase 2 only.  Without a start, phase 1 runs:
a <= row that kept its sign starts with its slack basic; every other row i
starts with an implicit artificial, basis index n_cols + i.  Artificials
have no stored column, so they never re-enter.  Phase 1 minimizes their
sum: a minimum above FEAS_TOL (scaled by the rhs) means INFEASIBLE.  An
artificial left basic at level zero is pivoted out on the lowest nonbasic
column with a nonzero entry in its row; a row with none is redundant and
is dropped.  Phase 2 runs on the same tableau, its last row rebuilt from c
minus the basic costs c_B times their rows.

Pricing
-------
Every phase prices by Dantzig's rule (Dantzig 1963): the most negative
reduced cost enters.  After DEGENERATE_RUN pivots in a row whose leaving
variable was at or below PIVOT_TOL times the rhs scale, Bland's rule
(Bland 1977) prices until a leaving variable is above it.  The simplex ends:
a pivot that moves the vertex strictly lowers the objective, and Bland's
rule ends any degenerate run.  The leaving row is the minimum ratio; ratios
within 1e-15 of it, relative, tie, and the lowest basic index among them
leaves.  Unlike an absolute margin, a relative one does not depend on the
unit of the rhs.

Exit check
----------
Before it returns OPTIMAL, ``solve`` recomputes the duals from the final
basis and requires primal feasibility, dual feasibility (every reduced
cost >= -tol), the duality gap and complementary slackness each within
FEAS_TOL of the size of the terms they sum; otherwise it raises LPError.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
#: degenerate pivots in a row after which Bland's rule prices in place of
#: Dantzig's, until a pivot moves the vertex again
DEGENERATE_RUN = 20


class LPError(RuntimeError):
    """Raised when the solver cannot certify a result (should not happen on
    well-posed inputs; surfaced instead of returning garbage)."""


def _matrix(a, name: str, cols: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, cols))
    m = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if m.size == 0:
        return np.zeros((0, cols))
    if m.shape[1] != cols:
        raise ValueError(f"{name} has {m.shape[1]} columns, expected {cols}")
    return m


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Data of one dense LP; see the module docstring for the conventions.
    Omitted constraint blocks are empty."""

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    g_ub: np.ndarray | None = None
    h_ub: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64).ravel()
        n = c.size
        if n == 0:
            raise ValueError("c is empty: an LP needs at least one variable")
        b_eq = np.asarray(self.b_eq, dtype=np.float64).ravel() if self.b_eq is not None else np.zeros(0)
        h_ub = np.asarray(self.h_ub, dtype=np.float64).ravel() if self.h_ub is not None else np.zeros(0)
        a_eq = _matrix(self.a_eq, "a_eq", n)
        g_ub = _matrix(self.g_ub, "g_ub", n)
        if a_eq.shape[0] != b_eq.size:
            raise ValueError("a_eq and b_eq sizes disagree")
        if g_ub.shape[0] != h_ub.size:
            raise ValueError("g_ub and h_ub sizes disagree")
        for arr, name in ((c, "c"), (a_eq, "a_eq"), (b_eq, "b_eq"),
                          (g_ub, "g_ub"), (h_ub, "h_ub")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "g_ub", g_ub)
        object.__setattr__(self, "h_ub", h_ub)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_eq(self) -> int:
        return self.b_eq.size

    @property
    def n_ub(self) -> int:
        return self.h_ub.size


@dataclass(frozen=True, eq=False)
class LPSolution:
    status: str
    primal: np.ndarray | None
    dual: np.ndarray | None
    objective_value: float | None
    basis: tuple[int, ...] | None
    feasibility_residual: float
    cs_residual: float
    duality_gap: float


# ---------------------------------------------------------------------------
# standard form:  min c_s . y,  rows y = rhs,  y >= 0
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _StandardForm:
    c: np.ndarray            # costs over x, then one slack per inequality row
    rows: np.ndarray         # (m, n_vars + n_ub): [a_eq 0; g_ub I]
    rhs: np.ndarray          # (m,), normalized nonnegative
    row_sign: np.ndarray     # +1/-1 applied to each original row


def _standard_form(p: LinearProgram) -> _StandardForm:
    n, m_eq, m_ub = p.n_vars, p.n_eq, p.n_ub
    rows = np.zeros((m_eq + m_ub, n + m_ub))
    rows[:m_eq, :n] = p.a_eq
    rows[m_eq:, :n] = p.g_ub
    rows[m_eq:, n:] = np.eye(m_ub)
    rhs = np.concatenate([p.b_eq, p.h_ub])

    neg = rhs < 0.0
    rows[neg] *= -1.0
    rhs[neg] *= -1.0
    row_sign = np.where(neg, -1.0, 1.0)

    c = np.zeros(n + m_ub)
    c[:n] = p.c
    return _StandardForm(c, rows, rhs, row_sign)


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])


def _run_simplex(tab: np.ndarray, basis: list[int], n_cols: int,
                 max_iter: int, flat: float) -> str:
    """Iterate on a tableau whose last row is the (negated-cost) objective and
    whose last column is the rhs.  Dantzig's rule: the most negative reduced
    cost enters, the lowest index among equals.  After DEGENERATE_RUN pivots
    in a row whose leaving variable was at most ``flat``, Bland's rule
    (lowest eligible index) prices until a leaving variable is above it.  On
    ratio ties, within 1e-15 relative, the row whose basic variable has the
    lowest index leaves.
    Returns OPTIMAL or UNBOUNDED (of the phase objective)."""
    m = tab.shape[0] - 1
    run = 0
    for _ in range(max_iter):
        red = tab[-1, :n_cols]
        if run < DEGENERATE_RUN:
            col = int(red.argmin())
            if red[col] >= -PIVOT_TOL:
                return OPTIMAL
        else:
            candidates = np.nonzero(red < -PIVOT_TOL)[0]
            if candidates.size == 0:
                return OPTIMAL
            col = int(candidates[0])
        col_vals = tab[:m, col]
        rows_ok = np.nonzero(col_vals > PIVOT_TOL)[0]
        if rows_ok.size == 0:
            return UNBOUNDED
        ratios = tab[rows_ok, -1] / col_vals[rows_ok]
        best = ratios.min()
        tied = rows_ok[ratios <= best + 1e-15 * abs(best)]
        row = int(min(tied, key=lambda r: basis[r]))
        run = run + 1 if tab[row, -1] <= flat else 0
        _pivot(tab, row, col)
        basis[row] = col
        tab[:m, -1] = np.maximum(tab[:m, -1], 0.0)
    raise LPError("simplex iteration limit exceeded")


def _phase_1(p: LinearProgram, sf: _StandardForm, tab: np.ndarray,
             scale: float, max_iter: int):
    """Minimize the sum of the artificials on ``tab`` (rows | rhs, objective
    row zero).  Returns the tableau without its dropped rows, the basis and
    the kept row indices, or None when the LP is infeasible."""
    m, n_cols = sf.rows.shape
    # the slack of a <= row that kept its sign, else artificial n_cols + i
    basis = [p.n_vars + i - p.n_eq if i >= p.n_eq and sf.row_sign[i] > 0.0
             else n_cols + i for i in range(m)]
    for i in range(m):
        if basis[i] >= n_cols:
            tab[-1] -= tab[i]
    if _run_simplex(tab, basis, n_cols, max_iter,
                    PIVOT_TOL * scale) != OPTIMAL:
        raise LPError("phase-1 objective unbounded (cannot happen)")
    if -tab[-1, -1] > FEAS_TOL * scale:
        return None

    # drive surviving artificials out of the basis, dropping redundant rows
    kept = []
    for i in range(m):
        if basis[i] >= n_cols:
            col = next((j for j in range(n_cols) if j not in basis
                        and abs(tab[i, j]) > PIVOT_TOL), None)
            if col is None:
                continue
            _pivot(tab, i, col)
            basis[i] = col
        kept.append(i)
    return tab[kept + [m]], [basis[i] for i in kept], kept


def _start_tableau(tab: np.ndarray, start: Sequence[int],
                   scale: float) -> list[int]:
    """Turn ``tab`` (rows | rhs, objective row zero) into B^-1 [rows | rhs]
    for the basis B of the columns ``start``, one per row, after checking
    that B is nonsingular and its vertex feasible; returns the basis."""
    m, n_cols = tab.shape[0] - 1, tab.shape[1] - 1
    basis = [int(b) for b in start]
    if (len(basis) != m or len(set(basis)) != m
            or not all(0 <= b < n_cols for b in basis)):
        raise LPError(f"a start basis names {m} distinct columns "
                      f"in 0..{n_cols - 1}")
    try:
        tab[:m] = np.linalg.solve(tab[:m, basis], tab[:m])
    except np.linalg.LinAlgError:
        raise LPError("start basis is singular") from None
    if not np.all(np.isfinite(tab[:m])):
        raise LPError("start basis is numerically singular")
    if not np.all(tab[:m, -1] >= -FEAS_TOL * scale):
        raise LPError("start basis is not primal feasible")
    tab[:m, -1] = np.maximum(tab[:m, -1], 0.0)
    return basis


def solve(p: LinearProgram, start: Sequence[int] | None = None) -> LPSolution:
    """Solve the LP; deterministic for identical inputs.

    ``start`` names a primal feasible basis of the standard form, one column
    (originals, then slacks) per constraint row; phase 2 then starts from it
    and phase 1 never runs.  A start basis that is singular or infeasible
    raises LPError."""
    sf = _standard_form(p)
    m, n_cols = sf.rows.shape
    scale = 1.0 + float(np.max(np.abs(sf.rhs))) if m else 1.0
    max_iter = 20000 + 200 * (m + n_cols)
    tab = np.zeros((m + 1, n_cols + 1))
    tab[:m, :n_cols] = sf.rows
    tab[:m, -1] = sf.rhs

    if start is None:
        found = _phase_1(p, sf, tab, scale, max_iter)
        if found is None:
            return _no_solution(INFEASIBLE)
        tab, basis, kept = found
    else:
        basis = _start_tableau(tab, start, scale)
        kept = list(range(m))

    # ----- phase 2: original objective -------------------------------------
    tab[-1] = 0.0
    tab[-1, :n_cols] = sf.c
    for r, b in enumerate(basis):
        tab[-1] -= sf.c[b] * tab[r]
    if _run_simplex(tab, basis, n_cols, max_iter,
                    PIVOT_TOL * scale) == UNBOUNDED:
        return _no_solution(UNBOUNDED)

    x_std = np.zeros(n_cols)
    x_std[basis] = tab[:-1, -1]
    return _finish(p, sf, np.array(kept, dtype=np.int64), basis, x_std)


def _no_solution(status: str) -> LPSolution:
    nan = float("nan")
    return LPSolution(status, None, None, None, None, nan, nan, nan)


def _finish(p: LinearProgram, sf: _StandardForm, row_keep_idx: np.ndarray,
            basis: list[int], x_std: np.ndarray) -> LPSolution:
    x = x_std[:p.n_vars]
    objective = float(p.c @ x)

    # duals from the final basis: solve B^T y = c_B on the kept rows
    kept = sf.rows[row_keep_idx]
    bmat = kept[:, basis]
    c_b = sf.c[np.array(basis, dtype=np.int64)]
    try:
        y_kept = np.linalg.solve(bmat.T, c_b)
    except np.linalg.LinAlgError:
        y_kept = np.linalg.lstsq(bmat.T, c_b, rcond=None)[0]
    y_std = np.zeros(sf.rows.shape[0])
    y_std[row_keep_idx] = y_kept
    dual = sf.row_sign * y_std  # undo rhs sign normalization

    # residuals, in the original problem space
    feas = 0.0
    if p.n_eq:
        feas = max(feas, float(np.max(np.abs(p.a_eq @ x - p.b_eq))))
    if p.n_ub:
        feas = max(feas, float(np.max(p.g_ub @ x - p.h_ub, initial=0.0)))
    feas = max(feas, float(np.max(-x)))

    # duality gap against the dual objective of the full standard system
    dual_obj = float(sf.rhs @ y_std)
    gap = abs(objective - dual_obj)

    # complementary slackness on the standard system
    red = sf.c - sf.rows.T @ y_std
    cs = float(np.max(np.abs(x_std * red), initial=0.0))
    slack_rows = sf.rhs - sf.rows @ x_std
    cs = max(cs, float(np.max(np.abs(y_std * slack_rows), initial=0.0)))

    # the exit check: each residual against the size of the terms it sums.
    # Row i sums rhs_i and |A||x| along the row, column j sums |c_j| and
    # |y||A| down it; a dual computed as zero is zero only to the precision
    # of the largest dual, so y enters the gap and complementary slackness
    # through its largest entry
    abs_x, abs_y = np.abs(x_std), np.abs(y_std)
    abs_rows = np.abs(sf.rows)
    row_max = (sf.rhs + abs_rows @ abs_x).max(initial=0.0)
    col_size = np.abs(sf.c) + abs_y @ abs_rows
    y_max = abs_y.max(initial=0.0)
    x_terms = abs_x @ col_size
    checks = (("primal feasibility", feas, row_max),
              ("dual feasibility", -red.min(), col_size.max()),
              ("duality gap", gap, x_terms + y_max * sf.rhs.sum()),
              ("complementary slackness", cs, max(x_terms, y_max * row_max)))
    for name, residual, size in checks:
        if not residual <= FEAS_TOL * size:
            raise LPError(f"{name} residual {residual:.3e} exceeds "
                          f"{FEAS_TOL:g} x {size:.3e} at the final basis")

    return LPSolution(OPTIMAL, x, dual, objective, tuple(int(b) for b in basis),
                      float(feas), cs, gap)
