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

from .core import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn, d_norm,
                   group_columns, unit_phases)
from .operators import (INEQ_TOL, KernelOperator, ProofTrace,
                        _check_applicable, _eq_step, _le_step, apply,
                        apply_matrix, op_norm)


def _to_mode(f: SimpleFn, mode: str) -> SimpleFn:
    if f.mode == mode:
        return f
    return SimpleFn(f.space, mode, f.values.astype(np.complex128))

#: tolerance for bit-near comparisons of evaluations (exact in theory)
EVAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TensorElement:
    """A finite sum of elementary tensors f (x) phi."""

    mu_space: MeasureSpace
    nu_space: MeasureSpace
    mode: str
    terms: tuple[tuple[SimpleFn, SimpleFn], ...]

    def __post_init__(self):
        terms = tuple((f, phi) for f, phi in self.terms)
        if not terms:
            raise ValueError("a tensor element needs at least one term")
        for f, phi in terms:
            if f.space != self.mu_space:
                raise ValueError("left factors must live on the mu space")
            if phi.space != self.nu_space:
                raise ValueError("right factors must live on the nu space")
            if f.mode != self.mode or phi.mode != self.mode:
                raise ValueError("term modes must match the tensor mode")
        object.__setattr__(self, "terms", terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @cached_property
    def f_matrix(self) -> np.ndarray:
        m = np.vstack([f.values for f, _ in self.terms])
        m.flags.writeable = False
        return m

    @cached_property
    def phi_matrix(self) -> np.ndarray:
        m = np.vstack([phi.values for _, phi in self.terms])
        m.flags.writeable = False
        return m

    @cached_property
    def evaluation(self) -> np.ndarray:
        """g(omega)(s) as a (mu atoms, nu atoms) matrix."""
        m = self.f_matrix.T @ self.phi_matrix
        m.flags.writeable = False
        return m


def tensor_norm(g: TensorElement) -> float:
    """Integral over mu of the sup over nu atoms of |g|."""
    sup = np.max(np.abs(g.evaluation), axis=1)
    return float(g.mu_space.weight_array @ sup)


@dataclass(frozen=True, eq=False)
class CanonicalRep:
    """g rewritten over cells of nu on which all right factors are constant."""

    cells: tuple[tuple[int, ...], ...]
    z: tuple[SimpleFn, ...]

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def canonical_rep(g: TensorElement) -> CanonicalRep:
    """Group nu atoms by the exact vector of right-factor values; on each cell
    the evaluation is a single function z_i of omega (a linear combination of
    the left factors)."""
    cells = tuple(tuple(c) for c in group_columns(g.phi_matrix))
    z = tuple(SimpleFn(g.mu_space, g.mode, g.evaluation[:, c[0]]) for c in cells)
    return CanonicalRep(cells, z)


def rebuild_from_canonical(g: TensorElement, rep: CanonicalRep) -> TensorElement:
    """The tensor element sum_i z_i (x) indicator(cell_i)."""
    terms = []
    for cell, z in zip(rep.cells, rep.z):
        ind = np.zeros(g.nu_space.size)
        ind[list(cell)] = 1.0
        terms.append((z, SimpleFn(g.nu_space, g.mode, ind.astype(
            np.complex128 if g.mode == COMPLEX else np.float64))))
    return TensorElement(g.mu_space, g.nu_space, g.mode, tuple(terms))


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

    def to_json(self) -> dict:
        return {"norm": self.norm, "products": list(self.products),
                "canonical_product": self.canonical_product,
                "canonical_cells": self.canonical_cells,
                "passed": self.passed, "tolerance": self.tolerance}


def verify_min_representation(g: TensorElement, alt_reps: list[TensorElement],
                              tol: float = INEQ_TOL) -> RepresentationReport:
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
    passed = (all(p >= norm - tol * scale for p in products)
              and abs(canonical - norm) <= tol * scale)
    return RepresentationReport(norm, products, canonical, rep.n_cells,
                                passed, tol)


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
    tf = apply_matrix(t, g.f_matrix)
    total = np.sum((tf * g.phi_matrix) @ t.codomain.weight_array)
    if g.mode == REAL and t.mode == REAL:
        return float(np.real(total))
    return complex(total)


def attain_max_functional(hs: FnFamily) -> list[SimpleFn]:
    """Functionals phi_1..phi_n with ||sum |phi_j|||_inf = 1 whose pairing
    with h_1..h_n equals the integral of max_j |h_j|.

    Per atom the lowest argmax index j* carries the conjugate phase of
    h_j* (its sign in real mode, and 1 where the value vanishes); all other
    functionals vanish there.
    """
    values = hs.value_matrix
    moduli = np.abs(values)
    pick = np.argmax(moduli, axis=0)
    n, n_atoms = values.shape
    cols = np.arange(n_atoms)
    picked = values[pick, cols]
    phases = np.conj(unit_phases(picked.astype(np.complex128)))
    phases[picked == 0.0] = 1.0
    dtype = np.complex128 if hs.mode == COMPLEX else np.float64
    out = np.zeros((n, n_atoms), dtype=dtype)
    out[pick, cols] = phases.real if hs.mode == REAL else phases
    return [SimpleFn(hs.space, hs.mode, row) for row in out]


def proof_trace_tensor(t: KernelOperator, fs: FnFamily,
                       tol: float = INEQ_TOL) -> ProofTrace:
    """Certify the L1 inequality via tensor norms: pair the image family with
    extremal functionals, then contract through the operator."""
    for f in fs.members:
        _check_applicable(t, f)
    image = FnFamily(tuple(apply(t, f) for f in fs.members))
    phis = attain_max_functional(image)
    mode = image.mode
    g_before = TensorElement(t.domain, t.codomain, mode,
                             tuple((_to_mode(f, mode), p)
                                   for f, p in zip(fs.members, phis)))
    g_after = TensorElement(t.codomain, t.codomain, mode,
                            tuple(zip(image.members, phis)))

    nu_w = t.codomain.weight_array
    int_max = float(nu_w @ np.max(np.abs(image.value_matrix), axis=0))
    pairing = np.sum((image.value_matrix * np.vstack([p.values for p in phis]))
                     @ nu_w)
    sup_sum = float(np.max(np.sum(np.abs(np.vstack([p.values for p in phis])),
                                  axis=0)))

    steps = [
        _eq_step("attainment", "extremal functionals pair to the integral of the max",
                 int_max, float(abs(pairing)), tol),
        _le_step("pairing bound", "a pairing is at most the tensor norm",
                 float(abs(pairing)), tensor_norm(g_after), tol),
        _le_step("operator contraction",
                 "applying T termwise contracts by at most ||T||",
                 tensor_norm(g_after), op_norm(t) * tensor_norm(g_before), tol),
        _le_step("representation bound",
                 "a representation bounds the tensor norm",
                 tensor_norm(g_before), d_norm(fs) * sup_sum, tol),
        _le_step("final bound", "the L1 inequality",
                 int_max, op_norm(t) * d_norm(fs) * sup_sum, tol),
    ]
    return ProofTrace(tuple(steps), tol)
