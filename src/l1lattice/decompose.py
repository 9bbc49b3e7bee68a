"""Lattice decompositions of function families into nonnegative parts.

A decomposition of f_1, ..., f_n produces nonnegative parts h_1, ..., h_k
with

    h_1 + ... + h_k = |f_1| v ... v |f_n|

and, per input function, coefficients recombining the parts into f_i: a
global sign matrix with entries in {-1, 0, 1} in real mode, or per-atom
unimodular coefficient fields in complex mode.  Both constructions are
recursive on n: split the atoms into the lowest-index argmax cells of the
moduli, and decompose the other functions restricted to each cell.

The recursion tree depends only on n: a node of m functions has one child
of m - 1 functions per cell.  So the tree is built one level at a time,
all n! / m! nodes of the level of m functions as one array:

- Top down, shared by both modes: the (nodes, m, atoms) values of a level
  give its cells, the (nodes * m, m - 1, atoms) sub-families of the level
  below, and tau_i, the pointwise max of the other moduli on cell i.
- Bottom up, per mode.  In real mode cell i contributes the
  sub-decomposition's parts restricted to where f_i >= 0, the same parts
  restricted to where f_i < 0, and the two residual parts (+-f_i - tau_i)
  on those sets.  Its sign block has +1 / -1 by orientation in row i and
  the sub-decomposition's signs (twice, then two zero columns) in the other
  rows, so the signs depend on n alone.  In complex mode the cell
  contributes the sub-decomposition's parts and one residual part
  (|f_i| - tau_i); its coefficient block has the phase of f_i in row i and
  the sub-decomposition's coefficients (then 0 for the residual) elsewhere.

All nodes of a level emit the same number of parts before pruning:

    real     k(1) = 2,  k(m) = 2 m (k(m-1) + 1)   ->  2, 12, 78, 632, 6330
    complex  k(1) = 1,  k(m) = m (k(m-1) + 1)     ->  1, 4, 15, 64, 325

Also here: refinement to constant coefficients on cells (all (cell, part)
products as one masked block), finite nets on the unit circle for
approximate constant coefficients, pruning, the invariant checker, and the
exhaustive minimal part-count search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .core import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn,
                   argmax_partition, check_entries, group_columns,
                   pos_neg_split, unit_phases)

#: relative tolerance for the decomposition identities
IDENTITY_TOL = 1e-10
#: tolerance on |coefficient| - 1 for unimodular coefficient fields
UNIMODULAR_TOL = 1e-12
#: smallest circle-net mesh: 2 ceil(pi / 1e-6) = 6,283,186 net points
MIN_NET_EPS = 1e-6

#: most sign matrices optimal_k_search may try, sum_{k <= k_max} C(3^n, k):
#: n <= 2 with any k_max, n = 3 with k_max <= 3, n = 4 with k_max <= 2.  On
#: 50 atoms n = 3, k_max = 3 (3,303, all infeasible) took 0.35 s when random
#: and 6.2 s with the infeasible atoms last (46 atoms (1, 0, 0), then four
#: cube vertices); n = 4, k_max = 2 (3,321) took 0.37 s and 1.3 s.  Each
#: candidate solves up to one LP per atom (shared 2-core x86-64, one BLAS)
MAX_CANDIDATES = 4_000

REAL_PREPRUNE = (2, 12, 78, 632, 6330)
COMPLEX_PREPRUNE = (1, 4, 15, 64, 325)


def preprune_count(n: int, mode: str) -> int:
    """Parts emitted by the recursion for an n-member family, before pruning."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = 2 if mode == REAL else 1
    for m in range(2, n + 1):
        k = (2 * m if mode == REAL else m) * (k + 1)
    return k


def verify_trace_counts(counts: tuple[int, ...], mode: str) -> bool:
    """Check per-level part counts, top level first, against the recursion
    exactly: the level of m functions emits k(m) parts."""
    m = len(counts)
    for k, k_sub in zip(counts, counts[1:]):
        if k != (2 * m if mode == REAL else m) * (k_sub + 1):
            return False
        m -= 1
    return m == 1 and counts[-1] == (2 if mode == REAL else 1)


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
    level_counts: tuple[int, ...]       # pre-prune parts per level, top first

    @property
    def k(self) -> int:
        return self.parts_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.signs.shape[0] if self.signs is not None else self.coeffs.shape[0]

    def recombined(self) -> np.ndarray:
        """The (n, atoms) matrix sum_j coeff_ij * h_j, one row per function."""
        if self.signs is not None:
            return self.signs.astype(np.float64) @ self.parts_matrix
        return np.einsum("ijw,jw->iw", self.coeffs, self.parts_matrix)


# ---------------------------------------------------------------------------
# the level construction
# ---------------------------------------------------------------------------

def _rest_rows(m: int) -> np.ndarray:
    """The (m, m - 1) array whose row i lists 0..m-1 without i, in order."""
    return np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)


def _levels(values: np.ndarray) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
    """The recursion tree of the (n, atoms) ``values``, top down: per level
    of m >= 2 functions its (nodes, m, atoms) values, cell masks (row i is
    cell i) and tau, then the (nodes, 1, atoms) last level.  Node c m + i
    of a level is node c above it without row i, restricted to cell i."""
    levels = []
    v = values[None]
    while v.shape[1] > 1:
        nodes, m, atoms = v.shape
        in_cell = argmax_partition(v)[:, None, :] == np.arange(m)[:, None]
        sub = v[:, _rest_rows(m)] * in_cell[:, :, None]
        levels.append((v, in_cell, np.max(np.abs(sub), axis=2)))
        v = sub.reshape(nodes * m, m - 1, atoms)
    return levels, v


def _real_signs(sub: np.ndarray, m: int) -> np.ndarray:
    """The (m, k) sign template of the level of m functions from the
    (m - 1, k_sub) template below it."""
    k_sub = sub.shape[1]
    blocks = np.zeros((m, m, 2 * k_sub + 2), dtype=np.int8)  # cell, row, part
    for i, rest in enumerate(_rest_rows(m)):
        blocks[i, i] = np.repeat([1, -1, 1, -1], [k_sub, k_sub, 1, 1])
        blocks[i, rest, :2 * k_sub] = np.hstack([sub, sub])
    return np.hstack(blocks)


def _split_real(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    levels, base = _levels(values)
    parts = np.stack(pos_neg_split(base[:, 0]), axis=1)
    signs = np.array([[1, -1]], dtype=np.int8)
    counts = [2]
    for v, in_cell, tau in reversed(levels):
        nodes, m, atoms = v.shape
        sub = parts.reshape(nodes, m, -1, atoms)
        pos = in_cell & (v >= 0.0)
        neg = in_cell & (v < 0.0)
        parts = np.concatenate([sub * pos[:, :, None], sub * neg[:, :, None],
                                ((v - tau) * pos)[:, :, None],
                                ((-v - tau) * neg)[:, :, None]], axis=2)
        parts = parts.reshape(nodes, -1, atoms)
        signs = _real_signs(signs, m)
        counts.append(parts.shape[1])
    return parts[0], signs, tuple(reversed(counts))


def _split_complex(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    levels, base = _levels(values)
    parts = np.abs(base)
    coeffs = unit_phases(base)[:, :, None]      # node, row, part, atom
    counts = [1]
    for v, in_cell, tau in reversed(levels):
        nodes, m, atoms = v.shape
        k_sub = parts.shape[1]
        residual = (np.abs(v) - tau) * in_cell
        parts = np.concatenate([parts.reshape(nodes, m, k_sub, atoms),
                                residual[:, :, None]], axis=2)
        parts = parts.reshape(nodes, -1, atoms)
        sub = coeffs.reshape(nodes, m, m - 1, k_sub, atoms)
        phases = unit_phases(v)
        blocks = np.zeros((nodes, m, m, k_sub + 1, atoms), dtype=np.complex128)
        for i, rest in enumerate(_rest_rows(m)):    # node, row, cell, part, atom
            blocks[:, i, i] = phases[:, i, None]
            blocks[:, rest, i, :k_sub] = sub[:, i]
        coeffs = blocks.reshape(nodes, m, -1, atoms)
        counts.append(parts.shape[1])
    return parts[0], coeffs[0], tuple(reversed(counts))


def _check_size(fs: FnFamily, mode: str) -> None:
    """Reject a family whose decomposition needs more than MAX_ENTRIES
    entries: the pre-prune parts, times n in complex mode for the
    coefficient fields."""
    n, atoms = fs.size, fs.space.size
    # k(n) >= n! is above any budget under 10! = 3,628,800 from n = 10 on,
    # so larger n is charged the count of n = 10
    k = preprune_count(min(n, 10), mode)
    check_entries(k * atoms * (n if mode == COMPLEX else 1),
                  f"a {mode} decomposition of {n} members on {atoms} atoms")


def decompose_real(fs: FnFamily) -> Decomposition:
    """Decompose a real family with a global sign matrix."""
    if fs.mode != REAL:
        raise ValueError("decompose_real requires a real-mode family")
    _check_size(fs, REAL)
    parts, signs, counts = _split_real(fs.value_matrix)
    return Decomposition(fs.space, REAL, parts, signs, None, counts)


def decompose_complex(fs: FnFamily) -> Decomposition:
    """Decompose a family with per-atom unimodular coefficient fields.

    Real input is allowed and treated as complex.
    """
    _check_size(fs, COMPLEX)
    values = fs.value_matrix.astype(np.complex128)
    parts, coeffs, counts = _split_complex(values)
    return Decomposition(fs.space, COMPLEX, parts, None, coeffs, counts)


def prune(d: Decomposition) -> Decomposition:
    """Drop parts that are identically zero, with their coefficient columns.

    Kept parts and coefficients are untouched (bit for bit); the level
    counts still record the pre-prune counts.
    """
    keep = np.any(d.parts_matrix != 0.0, axis=1)
    if np.all(keep):
        return d
    signs = d.signs[:, keep] if d.signs is not None else None
    coeffs = d.coeffs[:, keep, :] if d.coeffs is not None else None
    return Decomposition(d.space, d.mode, d.parts_matrix[keep], signs, coeffs,
                         d.level_counts)


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


def verify_decomposition(d: Decomposition, fs: FnFamily) -> DecompositionReport:
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

    passed = (float(sum_res[i_sum]) / scale <= IDENTITY_TOL
              and all(r <= IDENTITY_TOL for r in rec_res)
              and negativity >= -0.0
              and not violations)
    return DecompositionReport(passed, float(sum_res[i_sum]) / scale,
                               tuple(rec_res), negativity, tuple(violations),
                               tuple(worst), IDENTITY_TOL)


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

    def recombined(self) -> np.ndarray:
        return self.alphas @ self.parts_matrix.astype(np.complex128)


def _coeff_array(d: Decomposition) -> np.ndarray:
    """The (n, k, atoms) complex coefficients; in real mode the signs, which
    are the same on every atom, as an (n, k, 1) array that broadcasts."""
    if d.coeffs is not None:
        return d.coeffs
    return d.signs.astype(np.complex128)[:, :, None]


def _cells_to_decomposition(d: Decomposition, rounded: np.ndarray,
                            epsilon: float) -> CellDecomposition:
    rounded = np.broadcast_to(rounded, (d.n, d.k, d.space.size))
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
    the extra 0: m = 2 ceil(pi / eps) of them, an even count, so 1 and -1 are
    always included.  eps must be finite and at least MIN_NET_EPS."""
    if not (math.isfinite(eps) and eps >= MIN_NET_EPS):
        raise ValueError(f"eps must be finite and at least {MIN_NET_EPS:g}, "
                         f"got {eps}")
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
    net = circle_net(eps)
    m = net.size
    coeff = _coeff_array(d)
    mod = np.abs(coeff)
    angles = np.angle(coeff)
    ticks = np.rint(angles * m / (2.0 * math.pi)).astype(np.int64) % m
    rounded = np.where(mod == 0.0, 0.0 + 0.0j, net[ticks])
    return _cells_to_decomposition(d, rounded, eps)


@dataclass(frozen=True)
class CellReport:
    passed: bool
    sum_residual: float
    bound_excess: float     # max over atoms of |f_i - sum| - eps * latmax
    tolerance: float


def verify_cell_decomposition(cd: CellDecomposition, fs: FnFamily) -> CellReport:
    """Check the part-sum identity and the epsilon residual bound."""
    latmax = np.max(np.abs(fs.value_matrix), axis=0)
    scale = max(1.0, float(latmax.max()))
    sum_res = float(np.max(np.abs(cd.parts_matrix.sum(axis=0) - latmax))) / scale
    resid = np.abs(cd.recombined() - fs.value_matrix.astype(np.complex128))
    excess = float(np.max(resid - cd.epsilon * latmax[None, :])) / scale
    passed = sum_res <= IDENTITY_TOL and excess <= IDENTITY_TOL
    return CellReport(passed, sum_res, excess, IDENTITY_TOL)


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
    sol = lp.solve(lp.LinearProgram(np.zeros(k), a_eq, b_eq))
    return sol if sol.status == lp.OPTIMAL else None


def optimal_k_search(fs: FnFamily, k_max: int) -> OptimalKResult:
    """Smallest k admitting one global sign matrix that decomposes the family.

    Exhausts sign matrices in {-1, 0, 1}^(n x k) up to column permutation and
    duplicate columns (i.e. k-subsets of the 3^n distinct columns, in
    lexicographic order), checking per-atom feasibility with an LP.  Refuses
    k_max outside 1..8 and more than MAX_CANDIDATES candidates up to k_max.
    """
    if fs.mode != REAL:
        raise ValueError("optimal_k_search requires a real-mode family")
    n = fs.size
    if not 1 <= k_max <= 8:
        raise ValueError("k_max must be in 1..8")
    candidates = sum(math.comb(3 ** n, k) for k in range(1, k_max + 1))
    if candidates > MAX_CANDIDATES:
        raise ValueError(f"optimal_k_search with n = {n} and k_max = {k_max} "
                         f"tries up to {candidates:,} sign matrices, above the "
                         f"budget of {MAX_CANDIDATES:,}")

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

