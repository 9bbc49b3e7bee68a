"""Lattice decompositions of function families into nonnegative parts.

A decomposition of f_1, ..., f_n produces nonnegative parts h_1, ..., h_k
with

    h_1 + ... + h_k = |f_1| v ... v |f_n|

and, per input function, coefficients recombining the parts into f_i: a
global sign matrix with entries in {-1, 0, 1} in real mode, or per-atom
unimodular coefficient fields in complex mode.  Both constructions are
recursive on n, splitting the atoms by the lowest-index argmax of the
moduli and recursing on the remaining functions inside each cell.

Each level is assembled from whole blocks, one per argmax cell i.  In real
mode the cell contributes the sub-decomposition's parts restricted to where
f_i >= 0, the same parts restricted to where f_i < 0, and the two residual
parts (+-f_i - tau_i) on those sets, where tau_i is the pointwise max of the
remaining moduli; its sign block has +1 / -1 by orientation in row i and
the sub-decomposition's signs (twice, then two zero columns) in the other
rows.  In complex mode the cell contributes the sub-decomposition's parts
and one residual part (|f_i| - tau_i); its coefficient block has the phase
of f_i in row i and the sub-decomposition's coefficients (then 0 for the
residual) in the other rows.  Cell refinements likewise build all
(cell, part) products as one masked block.

The recursion emits an exactly predictable number of parts before pruning:

    real     k(1) = 2,  k(n) = 2 n (k(n-1) + 1)   ->  2, 12, 78, 632, 6330
    complex  k(1) = 1,  k(n) = n (k(n-1) + 1)     ->  1, 4, 15, 64, 325

Also here: refinement to constant coefficients on cells, finite nets on the
unit circle for approximate constant coefficients, pruning, the invariant
checker, and the exhaustive minimal part-count search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lp
from .core import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn,
                   group_columns, unit_phases)

#: relative tolerance for the decomposition identities
IDENTITY_TOL = 1e-10
#: tolerance on |coefficient| - 1 for unimodular coefficient fields
UNIMODULAR_TOL = 1e-12

REAL_PREPRUNE = (2, 12, 78, 632, 6330)
COMPLEX_PREPRUNE = (1, 4, 15, 64, 325)


def preprune_count(n: int, mode: str) -> int:
    """Parts emitted by the recursion for an n-member family, before pruning."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == REAL:
        k = 2
        for m in range(2, n + 1):
            k = 2 * m * (k + 1)
    else:
        k = 1
        for m in range(2, n + 1):
            k = m * (k + 1)
    return k


@dataclass(frozen=True, eq=False)
class TraceNode:
    """One level of the recursion: the number of functions split, the part
    count emitted at this level, and one sub-trace per argmax cell."""

    n_functions: int
    pre_prune_count: int
    children: tuple["TraceNode", ...]

    def level_counts(self) -> list[int]:
        """Pre-prune counts from this level down to the single-function base."""
        counts = [self.pre_prune_count]
        node = self
        while node.children:
            node = node.children[0]
            counts.append(node.pre_prune_count)
        return counts


def verify_trace_counts(node: TraceNode, mode: str) -> bool:
    """Check the emitted part counts against the recursion, exactly."""
    if node.n_functions == 1:
        return node.pre_prune_count == (2 if mode == REAL else 1)
    if len(node.children) != node.n_functions:
        return False
    child_counts = {c.pre_prune_count for c in node.children}
    if len(child_counts) != 1:
        return False
    k = child_counts.pop()
    n = node.n_functions
    expected = 2 * n * (k + 1) if mode == REAL else n * (k + 1)
    if node.pre_prune_count != expected:
        return False
    return all(verify_trace_counts(c, mode) for c in node.children)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Nonnegative parts plus recombination coefficients for one family.

    ``parts_matrix`` has one row per part.  In real mode ``signs`` is the
    (n, k) matrix of entries in {-1, 0, 1}; in complex mode ``coeffs`` is the
    (n, k, atoms) array of per-atom coefficients of modulus 1 or 0.
    """

    space: MeasureSpace
    mode: str
    parts_matrix: np.ndarray
    signs: np.ndarray | None
    coeffs: np.ndarray | None
    trace: TraceNode

    @property
    def k(self) -> int:
        return self.parts_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.signs.shape[0] if self.signs is not None else self.coeffs.shape[0]

    @cached_property
    def parts(self) -> tuple[SimpleFn, ...]:
        return tuple(SimpleFn(self.space, REAL, row) for row in self.parts_matrix)

    def recombined(self) -> np.ndarray:
        """The (n, atoms) matrix sum_j coeff_ij * h_j, one row per function."""
        if self.signs is not None:
            return self.signs.astype(np.float64) @ self.parts_matrix
        return np.einsum("ijw,jw->iw", self.coeffs, self.parts_matrix)


# ---------------------------------------------------------------------------
# the recursions
# ---------------------------------------------------------------------------

def _split_real(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, TraceNode]:
    n = values.shape[0]
    if n == 1:
        v = values[0]
        parts = np.vstack([np.where(v >= 0.0, v, 0.0), np.where(v >= 0.0, 0.0, -v)])
        signs = np.array([[1, -1]], dtype=np.int8)
        return parts, signs, TraceNode(1, 2, ())

    cells = np.argmax(np.abs(values), axis=0)
    orientation = np.array([1, -1, 1, -1], dtype=np.int8)
    part_blocks: list[np.ndarray] = []
    sign_blocks: list[np.ndarray] = []
    children = []
    for i in range(n):
        in_cell = cells == i
        rest = np.arange(n) != i
        sub = values[rest] * in_cell
        sub_parts, sub_signs, child = _split_real(sub)
        children.append(child)
        tau = np.max(np.abs(sub), axis=0)
        pos = in_cell & (values[i] >= 0.0)
        neg = in_cell & (values[i] < 0.0)
        # the sub-parts restricted to where f_i >= 0 and f_i < 0, then the
        # two residuals; row i of the signs is +1 or -1 accordingly
        part_blocks += [sub_parts * pos, sub_parts * neg,
                        ((values[i] - tau) * pos)[None],
                        ((-values[i] - tau) * neg)[None]]
        k_sub = sub_parts.shape[0]
        block = np.zeros((n, 2 * k_sub + 2), dtype=np.int8)
        block[i] = np.repeat(orientation, [k_sub, k_sub, 1, 1])
        block[rest, :2 * k_sub] = np.hstack([sub_signs, sub_signs])
        sign_blocks.append(block)

    parts = np.vstack(part_blocks)
    return parts, np.hstack(sign_blocks), TraceNode(n, parts.shape[0], tuple(children))


def _split_complex(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, TraceNode]:
    n = values.shape[0]
    if n == 1:
        v = values[0]
        coeff = unit_phases(v)[None, None, :]
        return np.abs(v)[None, :], coeff, TraceNode(1, 1, ())

    moduli = np.abs(values)
    cells = np.argmax(moduli, axis=0)
    part_blocks: list[np.ndarray] = []
    coeff_blocks: list[np.ndarray] = []   # each (n, k_sub + 1, atoms)
    children = []
    for i in range(n):
        in_cell = cells == i
        rest = np.arange(n) != i
        sub = values[rest] * in_cell
        sub_parts, sub_coeffs, child = _split_complex(sub)
        children.append(child)
        tau = np.max(np.abs(sub), axis=0)
        part_blocks += [sub_parts, ((moduli[i] - tau) * in_cell)[None]]
        # row i is the phase of f_i for the whole block; the residual part
        # is 0 in every other row
        k_sub = sub_parts.shape[0]
        block = np.zeros((n, k_sub + 1, values.shape[1]), dtype=np.complex128)
        block[i] = unit_phases(values[i])
        block[rest, :k_sub] = sub_coeffs
        coeff_blocks.append(block)

    parts = np.vstack(part_blocks)
    coeffs = np.concatenate(coeff_blocks, axis=1)
    return parts, coeffs, TraceNode(n, parts.shape[0], tuple(children))


def decompose_real(fs: FnFamily) -> Decomposition:
    """Decompose a real family with a global sign matrix."""
    if fs.mode != REAL:
        raise ValueError("decompose_real requires a real-mode family")
    parts, signs, node = _split_real(fs.value_matrix)
    return Decomposition(fs.space, REAL, parts, signs, None, node)


def decompose_complex(fs: FnFamily) -> Decomposition:
    """Decompose a family with per-atom unimodular coefficient fields.

    Real input is allowed and treated as complex.
    """
    values = fs.value_matrix.astype(np.complex128)
    parts, coeffs, node = _split_complex(values)
    return Decomposition(fs.space, COMPLEX, parts, None, coeffs, node)


def prune(d: Decomposition) -> Decomposition:
    """Drop parts that are identically zero, with their coefficient columns.

    Kept parts and coefficients are untouched (bit for bit); the trace still
    records the pre-prune counts.
    """
    keep = np.any(d.parts_matrix != 0.0, axis=1)
    if np.all(keep):
        return d
    signs = d.signs[:, keep] if d.signs is not None else None
    coeffs = d.coeffs[:, keep, :] if d.coeffs is not None else None
    return Decomposition(d.space, d.mode, d.parts_matrix[keep], signs, coeffs, d.trace)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    passed: bool
    sum_residual: float                 # parts sum vs lattice max, relative
    recombination_residuals: tuple[float, ...]  # per function, relative
    negativity: float                   # most negative part value (0 if none)
    coefficient_violations: tuple[str, ...]
    worst_atoms: tuple[str, ...]        # atom label of the worst residual per check
    tolerance: float

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "sum_residual": self.sum_residual,
            "recombination_residuals": list(self.recombination_residuals),
            "negativity": self.negativity,
            "coefficient_violations": list(self.coefficient_violations),
            "worst_atoms": list(self.worst_atoms),
            "tolerance": self.tolerance,
        }


def verify_decomposition(d: Decomposition, fs: FnFamily,
                         tol: float = IDENTITY_TOL) -> DecompositionReport:
    """Check both decomposition identities and the coefficient domains.

    Residuals are reported relative to max(1, ||lattice max||_inf).
    """
    latmax = np.max(np.abs(fs.value_matrix), axis=0)
    scale = max(1.0, float(latmax.max()))
    atoms = fs.space.atoms

    sums = d.parts_matrix.sum(axis=0)
    sum_res = np.abs(sums - latmax)
    i_sum = int(np.argmax(sum_res))
    worst = [atoms[i_sum]]

    recombined = d.recombined()
    rec_res = []
    for i in range(fs.size):
        res = np.abs(recombined[i] - fs.value_matrix[i])
        j = int(np.argmax(res))
        rec_res.append(float(res[j]) / scale)
        worst.append(atoms[j])

    negativity = float(min(0.0, d.parts_matrix.min(initial=0.0)))

    violations: list[str] = []
    if d.signs is not None:
        bad = ~np.isin(d.signs, (-1, 0, 1))
        for i, j in zip(*np.nonzero(bad)):
            violations.append(f"sign[{i}][{j}]={d.signs[i, j]} not in {{-1,0,1}}")
    else:
        mod = np.abs(d.coeffs)
        bad = (mod != 0.0) & (np.abs(mod - 1.0) > UNIMODULAR_TOL)
        for i, j, w in zip(*np.nonzero(bad)):
            violations.append(
                f"coeff[{i}][{j}] at atom {atoms[w]} has modulus {mod[i, j, w]}")
            if len(violations) >= 10:
                break

    passed = (float(sum_res[i_sum]) / scale <= tol
              and all(r <= tol for r in rec_res)
              and negativity >= -0.0
              and not violations)
    return DecompositionReport(passed, float(sum_res[i_sum]) / scale,
                               tuple(rec_res), negativity, tuple(violations),
                               tuple(worst), tol)


# ---------------------------------------------------------------------------
# constant coefficients on cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CellDecomposition:
    """Parts restricted to a partition of the atoms so that every coefficient
    is a single scalar of modulus 1 or 0 per (function, part-on-cell) pair.

    ``epsilon`` is the approximation bound the coefficients satisfy; 0 means
    the recombination is exact.
    """

    space: MeasureSpace
    mode: str
    cells: tuple[tuple[int, ...], ...]
    parts_matrix: np.ndarray            # (k * n_cells, atoms)
    alphas: np.ndarray                  # (n, k * n_cells) complex
    epsilon: float

    @property
    def n_parts(self) -> int:
        return self.parts_matrix.shape[0]

    @cached_property
    def parts(self) -> tuple[SimpleFn, ...]:
        return tuple(SimpleFn(self.space, REAL, row) for row in self.parts_matrix)

    def recombined(self) -> np.ndarray:
        return self.alphas @ self.parts_matrix.astype(np.complex128)


def _coeff_array(d: Decomposition) -> np.ndarray:
    if d.coeffs is not None:
        return d.coeffs
    n_atoms = d.space.size
    return np.repeat(d.signs.astype(np.complex128)[:, :, None], n_atoms, axis=2)


def _cells_to_decomposition(d: Decomposition, rounded: np.ndarray,
                            epsilon: float) -> CellDecomposition:
    groups = group_columns(rounded)
    mask = np.zeros((len(groups), d.space.size))
    for c, g in enumerate(groups):
        mask[c, g] = 1.0
    # one block of k parts per cell, each restricted to its cell
    parts = (mask[:, None, :] * d.parts_matrix[None]).reshape(-1, d.space.size)
    reps = [g[0] for g in groups]
    alphas = rounded[:, :, reps].transpose(0, 2, 1).reshape(d.n, -1)
    cells = tuple(tuple(g) for g in groups)
    return CellDecomposition(d.space, d.mode, cells, parts, alphas, epsilon)


def refine_to_constant_coeffs(d: Decomposition) -> CellDecomposition:
    """Make every coefficient constant by refining the atoms into cells on
    which all coefficient fields are constant.  Exact: epsilon = 0."""
    return _cells_to_decomposition(d, _coeff_array(d), 0.0)


def circle_net(eps: float) -> np.ndarray:
    """Points of the finite net on the unit circle used for rounding, without
    the extra 0.  Even count, so 1 and -1 are always included."""
    m = 2 * math.ceil(math.pi / eps)
    angles = 2.0 * math.pi * np.arange(m) / m
    pts = np.exp(1j * angles)
    # snap the cardinal points so real input rounds exactly
    pts[0] = 1.0
    pts[m // 2] = -1.0
    if m % 4 == 0:
        pts[m // 4] = 1j
        pts[3 * m // 4] = -1j
    return pts


def eps_net_coeffs(d: Decomposition, eps: float) -> CellDecomposition:
    """Round every coefficient to the nearest point of a finite net on the
    unit circle (with 0 kept at 0), then refine into cells where the rounded
    values are constant.

    The recombination error is at most eps times the lattice max, pointwise.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    coeff = _coeff_array(d)
    m = 2 * math.ceil(math.pi / eps)
    mod = np.abs(coeff)
    angles = np.angle(coeff)
    ticks = np.rint(angles * m / (2.0 * math.pi)).astype(np.int64) % m
    net = circle_net(eps)
    rounded = np.where(mod == 0.0, 0.0 + 0.0j, net[ticks])
    return _cells_to_decomposition(d, rounded, eps)


@dataclass(frozen=True)
class CellReport:
    passed: bool
    sum_residual: float
    bound_excess: float     # max over atoms of |f_i - sum| - eps * latmax
    tolerance: float


def verify_cell_decomposition(cd: CellDecomposition, fs: FnFamily,
                              tol: float = IDENTITY_TOL) -> CellReport:
    """Check the part-sum identity and the epsilon residual bound."""
    latmax = np.max(np.abs(fs.value_matrix), axis=0)
    scale = max(1.0, float(latmax.max()))
    sum_res = float(np.max(np.abs(cd.parts_matrix.sum(axis=0) - latmax))) / scale
    resid = np.abs(cd.recombined() - fs.value_matrix.astype(np.complex128))
    excess = float(np.max(resid - cd.epsilon * latmax[None, :])) / scale
    passed = sum_res <= tol and excess <= tol
    return CellReport(passed, sum_res, excess, tol)


# ---------------------------------------------------------------------------
# minimal part-count search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OptimalKResult:
    feasible: bool
    k: int | None
    signs: np.ndarray | None
    parts: tuple[SimpleFn, ...] | None
    infeasible_k: tuple[int, ...]
    k_max_tried: int
    candidates_tried: int

    def to_json(self) -> dict:
        out = {
            "feasible": self.feasible,
            "k": self.k,
            "infeasible_k": list(self.infeasible_k),
            "k_max_tried": self.k_max_tried,
            "candidates_tried": self.candidates_tried,
        }
        if self.signs is not None:
            out["signs"] = [[int(e) for e in row] for row in self.signs]
        return out


def _atom_feasible(columns: np.ndarray, target: np.ndarray, total: float) -> lp.LPSolution | None:
    """Feasibility of h >= 0, sum h = total, columns @ h = target, via LP."""
    k = columns.shape[1]
    a_eq = np.vstack([np.ones((1, k)), columns])
    b_eq = np.concatenate([[total], target])
    sol = lp.solve(lp.linear_program(np.zeros(k), a_eq=a_eq, b_eq=b_eq))
    return sol if sol.status == lp.OPTIMAL else None


def optimal_k_search(fs: FnFamily, k_max: int) -> OptimalKResult:
    """Smallest k admitting one global sign matrix that decomposes the family.

    Exhausts sign matrices in {-1, 0, 1}^(n x k) up to column permutation and
    duplicate columns (i.e. k-subsets of the 3^n distinct columns, in
    lexicographic order), checking per-atom feasibility with an LP.  Guarded
    to n <= 4 and k_max <= 8; the candidate count explodes beyond that.
    """
    if fs.mode != REAL:
        raise ValueError("optimal_k_search requires a real-mode family")
    n = fs.size
    if n > 4:
        raise ValueError("optimal_k_search is capped at n <= 4")
    if not 1 <= k_max <= 8:
        raise ValueError("k_max must be in 1..8")

    values = fs.value_matrix
    latmax = np.max(np.abs(values), axis=0)
    active = np.nonzero(latmax > 0.0)[0]
    all_columns = [np.array(t, dtype=np.int8)
                   for t in itertools.product((-1, 0, 1), repeat=n)]

    tried = 0
    infeasible: list[int] = []
    for k in range(1, k_max + 1):
        for combo in itertools.combinations(all_columns, k):
            tried += 1
            matrix = np.stack(combo, axis=1).astype(np.float64)
            sols = []
            ok = True
            for w in active:
                sol = _atom_feasible(matrix, values[:, w], float(latmax[w]))
                if sol is None:
                    ok = False
                    break
                sols.append((w, sol))
            if not ok:
                continue
            parts_matrix = np.zeros((k, fs.space.size))
            for w, sol in sols:
                parts_matrix[:, w] = sol.primal
            parts = tuple(SimpleFn(fs.space, REAL, row) for row in parts_matrix)
            return OptimalKResult(True, k, matrix.astype(np.int8), parts,
                                  tuple(infeasible), k_max, tried)
        infeasible.append(k)
    return OptimalKResult(False, None, None, None, tuple(infeasible), k_max, tried)


@dataclass(frozen=True, eq=False)
class ComplexN1Result:
    k: int
    part: SimpleFn | None
    coeff: SimpleFn | None


def optimal_k_complex_n1(f: SimpleFn) -> ComplexN1Result:
    """Minimal part count for a single function with unimodular coefficients:
    1 with the witness (|f|, phase of f) unless f vanishes identically."""
    a = np.abs(f.values)
    if not np.any(a != 0.0):
        return ComplexN1Result(0, None, None)
    coeff = unit_phases(f.values.astype(np.complex128))
    return ComplexN1Result(1, SimpleFn(f.space, REAL, a),
                           SimpleFn(f.space, COMPLEX, coeff))
