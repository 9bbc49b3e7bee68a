"""Lattice decompositions of function families into nonnegative parts.

A decomposition of f_1, ..., f_n produces nonnegative parts h_1, ..., h_k
with

    h_1 + ... + h_k = |f_1| v ... v |f_n|

and, per input function, coefficients recombining the parts into f_i: a
global sign matrix with entries in {-1, 0, 1} in real mode, or per-atom
unimodular coefficient fields in complex mode.  Both constructions are
recursive on n: split the atoms into the lowest-index argmax cells of the
moduli, and decompose the other functions restricted to each cell.  Cell i
contributes the sub-decomposition's parts and the residual |f_i| - tau_i,
tau_i being the max of the other moduli; real mode does so twice, on
f_i >= 0 and on f_i < 0, with signs +1 / -1 in row i and the
sub-decomposition's signs (then 0) in the other rows, so the sign matrix
depends on n alone.  In complex mode the cell's coefficients are the phase
of f_i in row i and the sub-decomposition's coefficients (then 0) elsewhere.
Every node of m functions emits the same number of parts before pruning:

    real     k(1) = 2,  k(m) = 2 m (k(m-1) + 1)   ->  2, 12, 78, 632, 6330
    complex  k(1) = 1,  k(m) = m (k(m-1) + 1)     ->  1, 4, 15, 64, 325

The tree is never built: an atom lies in one cell per node, so it follows
one chain, its members by decreasing modulus, ties to the lower index.  Its
nonzero parts are the telescoping |f_s1| - |f_s2|, ..., |f_sn|, at rows
fixed by each member's position among those left in the node (and by its
sign in real mode); every other part is +0.0 there.  In complex mode the
node at depth e spans k(n - e) rows, one block per member left in it, and
each member's row holds its phase on its own block.

The real sign template is built one level at a time, each level gathered
from the level below in one indexing step.

Also here: pruning, the invariant checker, the exhaustive minimal
part-count search, and refinement to constant coefficients on cells,
exact or rounded to a finite net on the unit circle.  A refinement keeps
only the nonzero (cell, part) rows and is read from each atom's chain, so
it never builds the dense decomposition; it is the same whether that
decomposition is pruned or not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .core import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn,
                   check_entries, group_columns, unit_phases)

#: relative tolerance for the decomposition identities
IDENTITY_TOL = 1e-10
#: tolerance on |coefficient| - 1 for unimodular coefficient fields
UNIMODULAR_TOL = 1e-12
#: smallest circle-net mesh: 2 ceil(pi / 1e-6) = 6,283,186 net points, of
#: which no more are computed than there are coefficients to round
#: (decompose --eps 1e-6 on a complex 2-member family of 4 atoms: 37 MB
#: peak RSS, the same as at --eps 0.1)
MIN_NET_EPS = 1e-6

#: most sign matrices optimal_k_search may try, sum_{k <= k_max} C(3^n, k):
#: n <= 2 with any k_max, n = 3 with k_max <= 3, n = 4 with k_max <= 2.  On
#: 50 atoms, every search infeasible (medians of 9 calls): n = 3, k_max = 3
#: (3,303 candidates) took 2 ms on random_family(rng, random_space(rng, 50),
#: 3, REAL), rng = rng_for(3), and 5 ms on 50 unit-weight atoms with the
#: infeasible ones last, 46 atoms (1, 0, 0) then (1, 1, 1), (1, 1, -1),
#: (1, -1, 1), (-1, 1, 1) (95 exact solves); n = 4, k_max = 2 (3,321) took
#: 2 ms the same way from rng_for(4) and 2 ms on 46 atoms (1, 0, 0, 0) then
#: (1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, 1), (-1, 1, 1, 1), the face bound
#: refuting every candidate of both.  Without the bound, one exact solve
#: per candidate and atom until one fails took 0.07 s, 0.67 s, 0.06 s and
#: 0.15 s (shared 2-core x86-64, one BLAS).  A candidate the bound
#: cannot refute still solves up to one system per active atom, so
#: MAX_LP_SOLVES bounds candidates x active atoms as well
MAX_CANDIDATES = 4_000
#: most per-atom exact solves optimal_k_search may need, candidates x active
#: atoms: every search within MAX_CANDIDATES on at most 50 atoms fits.  At
#: the budget, n = 3, k_max = 3 on 60 unit-weight atoms (198,180), 56 atoms
#: (1, 0, 0) then the four vertices (1, +-1, +-1), the search took 0.10 s
#: (3,454 solves; median of 9 calls), and oracle.feasible_point on all
#: 198,180 systems, each candidate's rows [1 ... 1; C] against each atom's
#: [1, f(w)], took 3.4 s (0.017 ms each; same machine)
MAX_LP_SOLVES = MAX_CANDIDATES * 50

REAL_PREPRUNE = (2, 12, 78, 632, 6330)
COMPLEX_PREPRUNE = (1, 4, 15, 64, 325)


def preprune_count(n: int, mode: str) -> int:
    """Parts emitted by the recursion for an n-member family, before pruning."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _node_sizes(n, mode)[n]


def _node_sizes(n: int, mode: str) -> list[int]:
    """k(0) = 0, k(1), ..., k(n): the parts of a node of m functions."""
    sizes = [0]
    for m in range(1, n + 1):
        sizes.append((2 * m if mode == REAL else m) * (sizes[-1] + 1))
    return sizes


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

    @property
    def k(self) -> int:
        return self.parts_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.signs.shape[0] if self.signs is not None else self.coeffs.shape[0]

    @property
    def level_counts(self) -> tuple[int, ...]:
        """Pre-prune parts per recursion level, top first."""
        return tuple(preprune_count(m, self.mode) for m in range(self.n, 0, -1))

    def recombined(self) -> np.ndarray:
        """The (n, atoms) matrix sum_j coeff_ij * h_j, one row per function."""
        if self.signs is not None:
            return self.signs.astype(np.float64) @ self.parts_matrix
        return np.einsum("ijw,jw->iw", self.coeffs, self.parts_matrix)


# ---------------------------------------------------------------------------
# the chain walk
# ---------------------------------------------------------------------------

def _chain(values: np.ndarray, mode: str) -> tuple[np.ndarray, ...]:
    """Each atom's chain through the (n, atoms) ``values``, as (n, atoms)
    arrays by depth: the row of the part emitted there, its height (the
    modulus step, never -0.0), the member taken and the first row of the
    node the atom is in."""
    n, atoms = values.shape
    sizes = _node_sizes(n, mode)
    branches = 2 if mode == REAL else 1
    w = np.arange(atoms)
    moduli = np.abs(values)
    order = np.argsort(-moduli, axis=0, kind="stable")
    top = moduli[order, w]
    heights = top.copy()
    heights[:-1] -= top[1:]
    # the cell of depth e in its node: later members with a lower index
    later = (np.arange(n)[:, None] < np.arange(n))[:, :, None]
    local = np.sum((order[None] < order[:, None]) & later, axis=1)
    neg = values[order, w] < 0.0 if mode == REAL else np.zeros((n, atoms), dtype=bool)
    rows = np.empty((n, atoms), dtype=np.intp)
    starts = np.empty((n, atoms), dtype=np.intp)
    start = np.zeros(atoms, dtype=np.intp)
    for e in range(n):
        k_sub = sizes[n - e - 1]
        cell = start + local[e] * branches * (k_sub + 1)
        starts[e] = start
        rows[e] = cell + branches * k_sub + neg[e]
        start = cell + neg[e] * k_sub
    return rows, heights, order, starts


def _dense_parts(rows: np.ndarray, heights: np.ndarray, k: int) -> np.ndarray:
    """The (k, atoms) parts of a chain: each (row, atom) is written at most
    once, and every other part is +0.0 there."""
    parts = np.zeros((k, rows.shape[1]))
    parts[rows, np.arange(rows.shape[1])] = heights
    return parts


def _real_signs(sub: np.ndarray, m: int) -> np.ndarray:
    """The (m, k) sign template of a node of m functions from the
    (m - 1, k_sub) template below it: cell i holds the sub-template twice
    (f_i >= 0, then f_i < 0) in the rows other than i, in order, then two
    zero columns, and [1]*k_sub + [-1]*k_sub + [1, -1] in row i."""
    k_sub = sub.shape[1]
    padded = np.zeros((m, 2 * k_sub + 2), dtype=np.int8)
    padded[:m - 1, :k_sub] = sub
    padded[:m - 1, k_sub:2 * k_sub] = sub
    r = np.arange(m)
    blocks = padded[r - (r > r[:, None])]             # cell, row, part
    blocks[r, r] = np.repeat([1, -1, 1, -1], [k_sub, k_sub, 1, 1])
    return blocks.transpose(1, 0, 2).reshape(m, -1)


def _split_real(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, heights, _, _ = _chain(values, REAL)
    signs = np.array([[1, -1]], dtype=np.int8)
    for m in range(2, values.shape[0] + 1):
        signs = _real_signs(signs, m)
    return _dense_parts(rows, heights, signs.shape[1]), signs


def _split_complex(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, heights, order, starts = _chain(values, COMPLEX)
    n, atoms = values.shape
    sizes = _node_sizes(n, COMPLEX)
    phases = unit_phases(values)
    coeffs = np.zeros((n, sizes[n], atoms), dtype=np.complex128)
    # the top node: member c on block c, every atom alike
    size = sizes[n - 1] + 1
    for c in range(n):
        coeffs[c, c * size:(c + 1) * size] = phases[c]
    w = np.arange(atoms)
    for e in range(1, n):
        # block c of the node belongs to the c-th smallest member left in it
        members = np.sort(order[e:], axis=0)[:, None]
        block = np.arange(sizes[n - e]).reshape(n - e, -1, 1)
        coeffs[members, starts[e] + block, w] = phases[members, w]
    return _dense_parts(rows, heights, sizes[n]), coeffs


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
    parts, signs = _split_real(fs.value_matrix)
    return Decomposition(fs.space, REAL, parts, signs, None)


def decompose_complex(fs: FnFamily) -> Decomposition:
    """Decompose a family with per-atom unimodular coefficient fields.

    Real input is allowed and treated as complex.
    """
    _check_size(fs, COMPLEX)
    values = fs.value_matrix.astype(np.complex128)
    parts, coeffs = _split_complex(values)
    return Decomposition(fs.space, COMPLEX, parts, None, coeffs)


def prune(d: Decomposition) -> Decomposition:
    """Drop parts that are identically zero, with their coefficient columns.

    Kept parts and coefficients are untouched (bit for bit); the level
    counts still record the pre-prune counts.
    """
    keep = (d.parts_matrix != 0.0).any(axis=1)
    if keep.all():
        return d
    signs = d.signs[:, keep] if d.signs is not None else None
    coeffs = d.coeffs[:, keep, :] if d.coeffs is not None else None
    return Decomposition(d.space, d.mode, d.parts_matrix[keep], signs, coeffs)


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
        s = d.signs
        bad = (s != -1) & (s != 0) & (s != 1)
        if bad.any():
            for i, j in zip(*np.nonzero(bad)):
                violations.append(f"sign[{i}][{j}]={s[i, j]} not in {{-1,0,1}}")
    else:
        mod = np.abs(d.coeffs)
        bad = (mod != 0.0) & (np.abs(mod - 1.0) > UNIMODULAR_TOL)
        if bad.any():
            for i, j, w in zip(*np.nonzero(bad)):
                violations.append(f"coeff[{i}][{j}] at atom {atoms[w]} has "
                                  f"modulus {mod[i, j, w]}")
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

    Only the nonzero (cell, part) rows are kept, by cell, then by part: at
    most n per atom, each supported in one cell.  ``epsilon`` is the
    approximation bound the coefficients satisfy; 0 means the recombination
    is exact.
    """

    space: MeasureSpace
    mode: str
    cells: tuple[tuple[int, ...], ...]
    parts_matrix: np.ndarray            # (rows, atoms), nonzero rows only
    alphas: np.ndarray                  # (n, rows) complex, one column per row
    epsilon: float

    @property
    def n_parts(self) -> int:
        return self.parts_matrix.shape[0]

    def recombined(self) -> np.ndarray:
        return self.alphas @ self.parts_matrix.astype(np.complex128)


def _net_points(ticks: np.ndarray, m: int) -> np.ndarray:
    """Points exp(2 pi i t / m) of the net of m points on the unit circle,
    for the integer ticks t in 0..m-1, with the cardinal points snapped so
    that real input rounds exactly (m is even, so 1 and -1 are in it)."""
    points = np.exp(1j * (2.0 * math.pi * ticks / m))
    points[ticks == 0] = 1.0
    points[ticks == m // 2] = -1.0
    if m % 4 == 0:
        points[ticks == m // 4] = 1j
        points[ticks == 3 * m // 4] = -1j
    return points


def _net_round(coeff: np.ndarray, eps: float) -> np.ndarray:
    """Every entry of the complex ``coeff`` rounded to the nearest point of
    the circle net of mesh eps, m = 2 ceil(pi / eps) points, with 0 kept at
    0.  At most as many net points are computed as there are nonzero
    entries; each point is the same whichever way it is computed.  eps
    must be finite and at least MIN_NET_EPS."""
    if not (math.isfinite(eps) and eps >= MIN_NET_EPS):
        raise ValueError(f"eps must be finite and at least {MIN_NET_EPS:g}, "
                         f"got {eps}")
    m = 2 * math.ceil(math.pi / eps)
    nonzero = coeff != 0.0
    angles = np.angle(coeff[nonzero])
    ticks = np.rint(angles * m / (2.0 * math.pi)).astype(np.int64) % m
    # evaluate the fewer points: the whole net, or one per coefficient
    points = (_net_points(np.arange(m), m)[ticks] if m <= ticks.size
              else _net_points(ticks, m))
    rounded = np.zeros(coeff.shape, dtype=np.complex128)
    rounded[nonzero] = points
    return rounded


def _refinement(fs: FnFamily, mode: str, eps: float | None) -> CellDecomposition:
    """The decomposition of ``fs`` in ``mode``, its coefficients rounded by
    ``_net_round`` unless eps is None, refined into cells on which every
    coefficient is constant, read from each atom's chain.

    On the part row of depth e, member order[e'] has the coefficient
    taken[e'] for e' <= e and every other member 0: in real mode +-1 by the
    member's sign, in complex mode its phase.  Real mode is one cell, its
    sign matrix being the same on every atom.  In complex mode each
    (member, row) entry of an atom's coefficient column is written once,
    on the member's own block at the top, then inside the block of each
    member taken before it, always with the member's phase, so the column
    is a function of the member order and the taken coefficients.  That
    key can be read back from the column (zero members come last, in index
    order, and each later member's entries lie inside the block of the
    member taken before it), so grouping the atoms by the key with every
    zero made +0.0 groups them by column, whether the decomposition is
    pruned or not.  Each row's coefficients are those of its cell's first
    atom.  Refuses what decompose_real or decompose_complex refuses, then
    eps outside ``_net_round``'s range."""
    _check_size(fs, mode)
    if mode == REAL and fs.mode != REAL:
        raise ValueError("a real refinement requires a real-mode family")
    values = (fs.value_matrix if mode == REAL
              else fs.value_matrix.astype(np.complex128))
    n, atoms = values.shape
    rows, heights, order, _ = _chain(values, mode)
    w = np.arange(atoms)
    if mode == REAL:
        taken = np.where(values[order, w] < 0.0, -1.0, 1.0).astype(np.complex128)
    else:
        taken = unit_phases(values)[order, w]
    if eps is not None:
        taken = _net_round(taken, eps)
    groups = ([list(range(atoms))] if mode == REAL else group_columns(
        np.concatenate([order.astype(np.complex128), taken + 0.0])))
    cell_of = np.empty(atoms, dtype=np.intp)
    for c, g in enumerate(groups):
        cell_of[g] = c
    # the nonzero (cell, part) rows, keyed cell * k + part row and sorted
    k = _node_sizes(n, mode)[n]
    e, w = np.nonzero(heights)
    index, row = np.unique(cell_of[w] * k + rows[e, w], return_inverse=True)
    parts = np.zeros((index.size, atoms))
    parts[row, w] = heights[e, w]
    # one entry of each kept row: its depth is the same on every atom of
    # the cell, and in real mode so are its signs
    pick = np.empty(index.size, dtype=np.intp)
    pick[row] = np.arange(row.size)
    e, w = e[pick], w[pick]
    if mode == COMPLEX:
        w = np.array([g[0] for g in groups], dtype=np.intp)[index // k]
    alphas = np.zeros((n, index.size), dtype=np.complex128)
    alphas[order[:, w], np.arange(index.size)] = np.where(
        np.arange(n)[:, None] <= e, taken[:, w], 0.0)
    cells = tuple(tuple(g) for g in groups)
    return CellDecomposition(fs.space, mode, cells, parts, alphas,
                             0.0 if eps is None else eps)


def refine_to_constant_coeffs(fs: FnFamily, mode: str) -> CellDecomposition:
    """The decomposition of ``fs`` in ``mode`` refined into cells on which
    every coefficient is constant.  Exact: epsilon = 0."""
    return _refinement(fs, mode, None)


def eps_net_coeffs(fs: FnFamily, mode: str, eps: float) -> CellDecomposition:
    """The decomposition of ``fs`` in ``mode``, every coefficient rounded to
    the nearest point of a finite net on the unit circle (with 0 kept at
    0), refined into cells where the rounded values are constant.

    The recombination error is at most eps times the lattice max, pointwise.
    """
    return _refinement(fs, mode, eps)


@dataclass(frozen=True)
class CellReport:
    passed: bool
    sum_residual: float
    bound_excess: float     # max over atoms of |f_i - sum| - eps * latmax
    violations: tuple[str, ...]     # partition, negative parts, alpha moduli
    tolerance: float


def verify_cell_decomposition(cd: CellDecomposition, fs: FnFamily) -> CellReport:
    """Check the part-sum identity, the epsilon residual bound, that the
    cells partition the atoms, that no part is negative and that every
    alpha is 0 or unimodular; at most 10 violations of each of the last two
    are named."""
    latmax = np.max(np.abs(fs.value_matrix), axis=0)
    scale = max(1.0, float(latmax.max()))
    sum_res = float(np.max(np.abs(cd.parts_matrix.sum(axis=0) - latmax))) / scale
    resid = np.abs(cd.recombined() - fs.value_matrix.astype(np.complex128))
    excess = float(np.max(resid - cd.epsilon * latmax[None, :])) / scale

    violations: list[str] = []
    if sorted(w for g in cd.cells for w in g) != list(range(fs.space.size)):
        violations.append("cells do not partition the atoms")
    j, w = np.nonzero(cd.parts_matrix < 0.0)
    violations += [f"part[{r}] at atom {fs.space.atoms[c]} is "
                   f"{cd.parts_matrix[r, c]}" for r, c in zip(j[:10], w[:10])]
    mod = np.abs(cd.alphas)
    i, j = np.nonzero((mod != 0.0) & (np.abs(mod - 1.0) > UNIMODULAR_TOL))
    violations += [f"alpha[{a}][{b}] has modulus {mod[a, b]}"
                   for a, b in zip(i[:10], j[:10])]

    passed = (sum_res <= IDENTITY_TOL and excess <= IDENTITY_TOL
              and not violations)
    return CellReport(passed, sum_res, excess, tuple(violations),
                      IDENTITY_TOL)


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
    lp_solves: int                      # per-atom systems solved; not in to_json

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


def _face_masks(columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The cube-face bound as a (len(columns), atoms) table of 2n-bit masks,
    for the (C, n) sign ``columns`` and the (n, atoms) ``values`` of active
    atoms.  A candidate is refuted on an atom unless the OR of its columns'
    masks there has all 2n bits set.

    Atom w has L = max_i |f_i(w)| > 0, the point p = f(w) / L and the face
    (a, s) of [-1, 1]^n that p lies on: a is the first row with |f_a(w)| ==
    L and s = sign f_a(w).  Column c lies on that face when c_a == s; it
    then sets bit 2 i when c_i >= p_i and bit 2 i + 1 when c_i <= p_i.  A
    candidate's masks OR to all bits iff every p_i lies in [m_i, M_i], the
    min and max of c_i over its face columns, and to none when it has no
    face column.

    No candidate with a vertex h >= 0 is refuted: h lies on the face
    columns, since sum h = L and (C h)_a = s L with |C[a, j]| <= 1, so
    f(w) / L is in their hull.  m_i and M_i are -1, 0 or 1, and p is the
    correctly rounded f(w) / L, so p_i outside [m_i, M_i] means the exact
    quotient is outside too.  For n <= 2 the face is a point or a segment,
    so full masks mean p is in the hull, unless a nonzero f_i(w) / L
    underflowed to 0: the oracle then runs only on the accepted candidate.
    For n >= 3 the bound is a necessary condition only.
    """
    n, atoms = values.shape
    latmax = np.max(np.abs(values), axis=0)
    tight = np.argmax(np.abs(values) == latmax, axis=0)
    side = np.where(values[tight, np.arange(atoms)] > 0.0, 1, -1)
    points = (values / latmax).T                # atom, row
    cols = columns[:, None, :]                  # column, atom, row
    shifts = 2 * np.arange(n)
    bits = np.bitwise_or.reduce(((cols >= points) << shifts)
                                | ((cols <= points) << (shifts + 1)), axis=2)
    return np.where(columns[:, tight] == side, bits, 0)


def optimal_k_search(fs: FnFamily, k_max: int) -> OptimalKResult:
    """Smallest k admitting one global sign matrix that decomposes the family.

    Exhausts sign matrices in {-1, 0, 1}^(n x k) up to column permutation and
    duplicate columns (i.e. k-subsets of the 3^n distinct columns, in
    lexicographic order), deciding each atom's feasibility exactly with the
    integer oracle.  The cube-face bound of ``_face_masks``, one column x
    atom table per search, first refutes without the oracle every candidate
    it proves infeasible on some atom; only a survivor is formed as a sign
    matrix and solves the per-atom systems in order, so the answer and
    ``candidates_tried`` are those of trying every candidate exactly.  The
    witness parts are the exact vertices, each rounded once.  Refuses k_max
    outside 1..8, more than MAX_CANDIDATES candidates up to k_max and more
    than MAX_LP_SOLVES candidates x active atoms.
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
    if candidates * active.size > MAX_LP_SOLVES:
        raise ValueError(f"optimal_k_search with n = {n} and k_max = {k_max} "
                         f"on {active.size:,} active atoms needs up to "
                         f"{candidates * active.size:,} LP solves, above the "
                         f"budget of {MAX_LP_SOLVES:,}")
    all_columns = np.array(list(itertools.product((-1, 0, 1), repeat=n)),
                           dtype=np.int8)
    masks = _face_masks(all_columns, values[:, active])
    rhs = np.vstack([latmax, values]).T.tolist()    # atom w: [L(w), f(w)]
    full = (1 << 2 * n) - 1

    tried = 0
    solves = 0
    infeasible: list[int] = []
    for k in range(1, k_max + 1):
        combos = np.array(list(itertools.combinations(range(3 ** n), k)),
                          dtype=np.intp).reshape(-1, k)
        joined = np.bitwise_or.reduce(masks[combos], axis=1)
        for c in np.flatnonzero(np.all(joined == full, axis=1)):
            matrix = all_columns[combos[c]].T
            rows = [[1] * k, *matrix.tolist()]   # sum h = L(w), C h = f(w)
            parts_matrix = np.zeros((k, fs.space.size))
            for w in active:
                solves += 1
                h = oracle.feasible_point(rows, rhs[w])
                if h is None:
                    break
                parts_matrix[:, w] = [float(v) for v in h]
            else:
                parts = tuple(SimpleFn(fs.space, REAL, row) for row in parts_matrix)
                return OptimalKResult(True, k, matrix, parts,
                                      tuple(infeasible), k_max,
                                      tried + int(c) + 1, solves)
        tried += len(combos)
        infeasible.append(k)
    return OptimalKResult(False, None, None, None, tuple(infeasible), k_max,
                          tried, solves)
