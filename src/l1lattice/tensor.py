"""Finite tensors in L1(mu, L-infinity(nu)) and their projective norm.

A tensor element is a finite list of pairs (f on mu, phi on nu) evaluating
to g(omega)(s) = sum f(omega) phi(s); its norm is

    ||g|| = integral over mu of  max over s of |g(omega)(s)| .

The canonical representation groups the nu atoms into cells on which every
phi is constant, which rewrites g as sum z_i (x) indicator(E_i) and attains
the representation minimum

    ||g|| = min over representations of
            (integral max_j |f_j| dmu) ||sum_j |phi_j|||_inf .

Also here: the operator/tensor pairing, extremal functionals attaining the
integral of a pointwise max, and the tensor-norm proof trace of the L1
inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (COMPLEX, REAL, FnFamily, MeasureSpace, _as_mode_array,
                   argmax_partition, check_entries, d_norm, group_columns,
                   unit_phases)
from .operators import (INEQ_TOL, KernelOperator, ProofTrace, _eq_step,
                        _le_step, apply_family, apply_matrix, op_norm)


@dataclass(frozen=True, eq=False)
class TensorElement:
    """A finite sum of elementary tensors f_r (x) phi_r: row r of ``f_matrix``
    (terms, mu atoms) and of ``phi_matrix`` (terms, nu atoms)."""

    mu_space: MeasureSpace
    nu_space: MeasureSpace
    mode: str
    f_matrix: np.ndarray
    phi_matrix: np.ndarray

    def __post_init__(self):
        f = _as_mode_array(self.f_matrix, self.mode, (None, self.mu_space.size),
                           "left factors")
        phi = _as_mode_array(self.phi_matrix, self.mode,
                             (f.shape[0], self.nu_space.size), "right factors")
        if f.shape[0] == 0:
            raise ValueError("a tensor element needs at least one term")
        object.__setattr__(self, "f_matrix", f)
        object.__setattr__(self, "phi_matrix", phi)

    @property
    def n_terms(self) -> int:
        return self.f_matrix.shape[0]

    @cached_property
    def evaluation(self) -> np.ndarray:
        """g(omega)(s) as a (mu atoms, nu atoms) matrix."""
        check_entries(self.mu_space.size * self.nu_space.size,
                      f"the evaluation of a tensor on {self.mu_space.size} x "
                      f"{self.nu_space.size} atoms")
        m = self.f_matrix.T @ self.phi_matrix
        m.flags.writeable = False
        return m


def integral_of_sup(mu_w: np.ndarray, evaluation: np.ndarray) -> float:
    """Integral over mu of the sup over nu atoms of |g|, from the
    (mu atoms, nu atoms) evaluation matrix F.T @ Phi of the stacked factors."""
    return float(mu_w @ np.max(np.abs(evaluation), axis=1))


def tensor_norm(g: TensorElement) -> float:
    """Integral over mu of the sup over nu atoms of |g|."""
    return integral_of_sup(g.mu_space.weight_array, g.evaluation)


@dataclass(frozen=True, eq=False)
class CanonicalRep:
    """g rewritten over cells of nu on which all right factors are constant."""

    cells: tuple[tuple[int, ...], ...]
    z: np.ndarray            # (cells, mu atoms): z_i on row i

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def canonical_rep(g: TensorElement) -> CanonicalRep:
    """Group nu atoms by the exact vector of right-factor values; on each cell
    the evaluation is a single function z_i of omega (a linear combination of
    the left factors)."""
    cells = tuple(tuple(c) for c in group_columns(g.phi_matrix))
    z = g.evaluation[:, [c[0] for c in cells]].T
    return CanonicalRep(cells, z)


def rebuild_from_canonical(g: TensorElement, rep: CanonicalRep) -> TensorElement:
    """The tensor element sum_i z_i (x) indicator(cell_i)."""
    indicators = np.zeros((rep.n_cells, g.nu_space.size))
    for i, cell in enumerate(rep.cells):
        indicators[i, list(cell)] = 1.0
    return TensorElement(g.mu_space, g.nu_space, g.mode, rep.z, indicators)


def representation_product(g: TensorElement) -> float:
    """The upper bound a representation certifies:
    (integral max_j |f_j| dmu) * ||sum_j |phi_j|||_inf."""
    left = float(g.mu_space.weight_array @ np.max(np.abs(g.f_matrix), axis=0))
    right = float(np.max(np.sum(np.abs(g.phi_matrix), axis=0)))
    return left * right


@dataclass(frozen=True)
class RepresentationReport:
    norm: float
    products: tuple[float, ...]
    canonical_product: float
    canonical_cells: int
    passed: bool
    tolerance: float


def verify_min_representation(g: TensorElement, alt_reps: list[TensorElement]
                              ) -> RepresentationReport:
    """Check that every representation of g certifies an upper bound for the
    tensor norm, and that the canonical representation attains it.

    Alternative representations must evaluate pointwise equal to g; a
    mismatch is rejected with the maximal deviation.
    """
    norm = tensor_norm(g)
    scale = 1.0 + abs(norm)
    for idx, rep in enumerate(alt_reps):
        if rep.mu_space != g.mu_space or rep.nu_space != g.nu_space:
            raise ValueError(f"representation {idx} lives on different spaces")
        dev = float(np.max(np.abs(rep.evaluation - g.evaluation)))
        if dev > 1e-10 * scale:
            raise ValueError(
                f"representation {idx} does not evaluate to g "
                f"(max deviation {dev:.3e})")
    products = tuple(representation_product(rep) for rep in alt_reps)
    rep = canonical_rep(g)
    canonical = representation_product(rebuild_from_canonical(g, rep))
    passed = (all(p >= norm - INEQ_TOL * scale for p in products)
              and abs(canonical - norm) <= INEQ_TOL * scale)
    return RepresentationReport(norm, products, canonical, rep.n_cells,
                                passed, INEQ_TOL)


def pair_rows(images: np.ndarray, phis: np.ndarray, nu_w: np.ndarray):
    """sum over rows r of integral images[r] phis[r] dnu: the pairing of
    an operator with sum_r f_r (x) phi_r, given the images T f_r."""
    return np.sum((images * phis) @ nu_w)


def pair_operator_tensor(t: KernelOperator, g: TensorElement):
    """The pairing sum_terms integral (Tf) phi dnu.

    Linear in both arguments; returns a float in real mode and a complex
    scalar otherwise.
    """
    if g.mu_space != t.domain:
        raise ValueError("tensor mu side must be the operator domain")
    if g.nu_space != t.codomain:
        raise ValueError("tensor nu side must be the operator codomain")
    if t.mode == REAL and g.mode == COMPLEX:
        raise ValueError("a real-mode operator cannot pair with a complex tensor")
    total = pair_rows(apply_matrix(t, g.f_matrix), g.phi_matrix,
                      t.codomain.weight_array)
    if g.mode == REAL and t.mode == REAL:
        return float(np.real(total))
    return complex(total)


def attain_max_functional(hs: FnFamily) -> np.ndarray:
    """Functionals phi_1..phi_n, the rows of an (n, atoms) matrix, with
    ||sum |phi_j|||_inf = 1 whose pairing with h_1..h_n equals the integral
    of max_j |h_j|.

    Per atom the lowest argmax index j* carries the conjugate phase of
    h_j* (its sign in real mode, and 1 where the value vanishes); all other
    functionals vanish there.
    """
    values = hs.value_matrix
    pick = argmax_partition(values)
    n, n_atoms = values.shape
    cols = np.arange(n_atoms)
    picked = values[pick, cols]
    phases = np.conj(unit_phases(picked.astype(np.complex128)))
    phases[picked == 0.0] = 1.0
    dtype = np.complex128 if hs.mode == COMPLEX else np.float64
    out = np.zeros((n, n_atoms), dtype=dtype)
    out[pick, cols] = phases.real if hs.mode == REAL else phases
    return out


def proof_trace_tensor(t: KernelOperator, fs: FnFamily) -> ProofTrace:
    """Certify the L1 inequality via tensor norms: pair the image family with
    extremal functionals, then contract through the operator."""
    image = apply_family(t, fs)
    phis = attain_max_functional(image)
    mode = image.mode
    g_before = TensorElement(t.domain, t.codomain, mode, fs.value_matrix, phis)
    g_after = TensorElement(t.codomain, t.codomain, mode, image.value_matrix,
                            phis)

    nu_w = t.codomain.weight_array
    int_max = float(nu_w @ np.max(np.abs(image.value_matrix), axis=0))
    pairing = pair_rows(g_after.f_matrix, g_after.phi_matrix, nu_w)
    sup_sum = float(np.max(np.sum(np.abs(g_after.phi_matrix), axis=0)))

    steps = [
        _eq_step("attainment", "extremal functionals pair to the integral of the max",
                 int_max, float(abs(pairing)), INEQ_TOL),
        _le_step("pairing bound", "a pairing is at most the tensor norm",
                 float(abs(pairing)), tensor_norm(g_after), INEQ_TOL),
        _le_step("operator contraction",
                 "applying T termwise contracts by at most ||T||",
                 tensor_norm(g_after), op_norm(t) * tensor_norm(g_before),
                 INEQ_TOL),
        _le_step("representation bound",
                 "a representation bounds the tensor norm",
                 tensor_norm(g_before), d_norm(fs) * sup_sum, INEQ_TOL),
        _le_step("final bound", "the L1 inequality",
                 int_max, op_norm(t) * d_norm(fs) * sup_sum, INEQ_TOL),
    ]
    return ProofTrace(tuple(steps), INEQ_TOL)
