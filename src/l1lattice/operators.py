"""Kernel operators between L1 spaces of finite atomic measures.

An operator T from L1(mu) to L1(nu) is given by a kernel matrix K with one
row per codomain atom and one column per domain atom, acting as

    (Tf)(s_i) = sum_j K[i][j] f(omega_j) mu_j .

The domain weights are folded into the action, which makes the operator
norm exactly the maximum nu-weighted column sum of |K| (the supremum of
||Tf||/||f|| is attained at the normalized point masses).  On top of the
action this module provides the entrywise modulus |T|, the check of the
Grothendieck L1 inequality

    integral max_i |Tf_i| dnu  <=  ||T|| integral max_i |f_i| dmu ,

the domination of order-bounded families, and numerically certified proof
traces for the inequality via the real and complex decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn, d_norm
from .decompose import decompose_complex, decompose_real, eps_net_coeffs

#: relative tolerance for all inequality reports and proof-trace slacks
INEQ_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """A matrix kernel between two finite atomic measure spaces."""

    domain: MeasureSpace
    codomain: MeasureSpace
    kernel: np.ndarray
    mode: str

    def __post_init__(self):
        k = np.asarray(self.kernel)
        shape = (self.codomain.size, self.domain.size)
        if k.shape != shape:
            raise ValueError(f"kernel must have shape {shape}, got {k.shape}")
        if self.mode == REAL:
            if np.iscomplexobj(k):
                if np.any(k.imag != 0.0):
                    raise ValueError("real-mode kernel must have zero imaginary part")
                k = k.real
            k = k.astype(np.float64)
        elif self.mode == COMPLEX:
            k = k.astype(np.complex128)
        else:
            raise ValueError(f"mode must be {REAL!r} or {COMPLEX!r}")
        if not np.isfinite(k).all():
            i, j = np.argwhere(~np.isfinite(k))[0]
            raise ValueError(
                f"kernel entries must be finite, got {k[i, j]} at [{i}][{j}]")
        # astype copied, so freezing k leaves the caller's array writeable
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)


def identity_operator(space: MeasureSpace, mode: str = REAL) -> KernelOperator:
    """The identity on L1 of one space: kernel delta_ij / mu_i."""
    k = np.diag(1.0 / space.weight_array)
    return KernelOperator(space, space, k, mode)


def zero_operator(domain: MeasureSpace, codomain: MeasureSpace,
                  mode: str = REAL) -> KernelOperator:
    return KernelOperator(domain, codomain,
                          np.zeros((codomain.size, domain.size)), mode)


def _check_applicable(t: KernelOperator, f: SimpleFn) -> None:
    if f.space != t.domain:
        raise ValueError("function does not live on the operator domain")
    if t.mode == REAL and f.mode == COMPLEX:
        raise ValueError("a real-mode operator cannot act on a complex function")


def apply(t: KernelOperator, f: SimpleFn) -> SimpleFn:
    """Apply the operator: weighted kernel action, linear in f."""
    _check_applicable(t, f)
    out = t.kernel @ (f.values * t.domain.weight_array)
    mode = COMPLEX if (t.mode == COMPLEX or f.mode == COMPLEX) else REAL
    return SimpleFn(t.codomain, mode, out)


def apply_matrix(t: KernelOperator, values: np.ndarray) -> np.ndarray:
    """Kernel action on a stack of functions, one row each."""
    return (values * t.domain.weight_array) @ t.kernel.T


def op_norm(t: KernelOperator) -> float:
    """Operator norm: the maximum nu-weighted column sum of |K|."""
    col_sums = t.codomain.weight_array @ np.abs(t.kernel)
    return float(np.max(col_sums))


def modulus(t: KernelOperator) -> KernelOperator:
    """The operator with entrywise-absolute kernel.

    Positivity-preserving, dominates t pointwise (|Tf| <= |T||f|) and has
    the same operator norm (identical weighted column sums, bit for bit).
    """
    return KernelOperator(t.domain, t.codomain, np.abs(t.kernel), REAL)


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    ratio: float | None
    holds: bool
    tight: bool
    tolerance: float

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio,
                "holds": self.holds, "tight": self.tight,
                "tolerance": self.tolerance}


def check_grothendieck(t: KernelOperator, fs: FnFamily,
                       tol: float = INEQ_TOL) -> InequalityReport:
    """Evaluate both sides of the L1 inequality for one operator and family."""
    for f in fs.members:
        _check_applicable(t, f)
    image = FnFamily(tuple(apply(t, f) for f in fs.members))
    lhs = d_norm(image)
    rhs = op_norm(t) * d_norm(fs)
    ratio = lhs / rhs if rhs != 0.0 else None
    holds = lhs <= rhs * (1.0 + tol)
    tight = abs(lhs - rhs) <= tol * (1.0 + abs(rhs))
    return InequalityReport(lhs, rhs, ratio, holds, tight, tol)


def dominate(t: KernelOperator, phi: SimpleFn) -> SimpleFn:
    """A nonnegative dominating function for the image of an order interval.

    For phi >= 0 returns psi = |T| phi, which satisfies
    integral psi dnu <= ||T|| integral phi dmu and |Tf| <= psi pointwise for
    every f with |f| <= phi.
    """
    if phi.mode != REAL or np.any(phi.values < 0.0):
        raise ValueError("phi must be real and nonnegative")
    return apply(modulus(t), phi)


# ---------------------------------------------------------------------------
# proof traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProofStep:
    """One certified inequality (or identity) in a proof chain."""

    name: str
    rule: str
    kind: str                # "le" or "eq"
    lhs: float
    rhs: float
    slack: float             # rhs - lhs
    witness_atom: str | None
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "rule": self.rule, "kind": self.kind,
                "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack,
                "witness_atom": self.witness_atom, "passed": self.passed}


@dataclass(frozen=True, eq=False)
class ProofTrace:
    steps: tuple[ProofStep, ...]
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)

    @property
    def final_lhs(self) -> float:
        return self.steps[-1].lhs

    @property
    def final_rhs(self) -> float:
        return self.steps[-1].rhs

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self.steps],
                "tolerance": self.tolerance, "all_passed": self.all_passed}


def _le_step(name: str, rule: str, lhs: float, rhs: float, tol: float,
             witness: str | None = None) -> ProofStep:
    slack = rhs - lhs
    return ProofStep(name, rule, "le", float(lhs), float(rhs), float(slack),
                     witness, slack >= -tol * (1.0 + abs(rhs)))


def _eq_step(name: str, rule: str, lhs: float, rhs: float, tol: float) -> ProofStep:
    slack = rhs - lhs
    return ProofStep(name, rule, "eq", float(lhs), float(rhs), float(slack),
                     None, abs(slack) <= tol * (1.0 + abs(rhs)))


def _pointwise_le(name: str, rule: str, lhs: np.ndarray, rhs: np.ndarray,
                  atoms: tuple[str, ...], tol: float) -> ProofStep:
    """Certify a pointwise inequality at its tightest atom."""
    w = int(np.argmax(lhs - rhs))
    return _le_step(name, rule, float(lhs[w]), float(rhs[w]), tol, atoms[w])


def proof_trace_real(t: KernelOperator, fs: FnFamily,
                     tol: float = INEQ_TOL) -> ProofTrace:
    """Certify the L1 inequality for a real family through the sign-matrix
    decomposition, one chain step at a time."""
    if fs.mode != REAL or t.mode != REAL:
        raise ValueError("proof_trace_real requires real operator and family")
    for f in fs.members:
        _check_applicable(t, f)
    d = decompose_real(fs)
    nu_atoms = t.codomain.atoms
    nu_w = t.codomain.weight_array
    mu_w = t.domain.weight_array

    t_parts = np.abs(apply_matrix(t, d.parts_matrix))          # |Th_j| rows
    bound = t_parts.sum(axis=0)                                # sum_j |Th_j|
    t_family = np.abs(apply_matrix(t, fs.value_matrix))        # |Tf_i| rows

    steps = []
    for i in range(fs.size):
        steps.append(_pointwise_le(
            f"triangle f_{i + 1}", "recombine then triangle inequality",
            t_family[i], bound, nu_atoms, tol))
    steps.append(_pointwise_le(
        "max over family", "pointwise max of the per-function bounds",
        t_family.max(axis=0), bound, nu_atoms, tol))

    int_max = float(nu_w @ t_family.max(axis=0))
    int_bound = float(nu_w @ bound)
    steps.append(_le_step("integrate", "integrate the pointwise bound",
                          int_max, int_bound, tol))
    part_norms = t_parts @ nu_w
    steps.append(_eq_step("swap sum and integral",
                          "finite sum of integrals", int_bound,
                          float(part_norms.sum()), tol))
    part_masses = d.parts_matrix @ mu_w
    opn = op_norm(t)
    steps.append(_le_step("bound each part",
                          "||Th|| <= ||T|| integral h for h >= 0",
                          float(part_norms.sum()),
                          opn * float(part_masses.sum()), tol))
    steps.append(_eq_step("parts sum to the lattice max",
                          "part masses add up to the dominated-family norm",
                          float(part_masses.sum()), d_norm(fs), tol))
    steps.append(_le_step("final bound", "the L1 inequality",
                          int_max, opn * d_norm(fs), tol))
    return ProofTrace(tuple(steps), tol)


def proof_trace_complex(t: KernelOperator, fs: FnFamily, eps: float,
                        tol: float = INEQ_TOL) -> ProofTrace:
    """Certify the L1 inequality through the unimodular decomposition rounded
    to constant coefficients, with the (1 + n eps) relaxation."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    for f in fs.members:
        _check_applicable(t, f)
    d = decompose_complex(fs)
    cd = eps_net_coeffs(d, eps)
    n = fs.size
    nu_atoms = t.codomain.atoms
    nu_w = t.codomain.weight_array
    mu_w = t.domain.weight_array
    latmax = np.max(np.abs(fs.value_matrix), axis=0)

    values = fs.value_matrix.astype(np.complex128)
    residual = values - cd.recombined()                         # p_i rows
    t_parts = np.abs(apply_matrix(t, cd.parts_matrix))          # |Th_j|
    t_resid = np.abs(apply_matrix(t, residual))                 # |Tp_i|
    t_family = np.abs(apply_matrix(t, values))                  # |Tf_i|
    bound = t_parts.sum(axis=0) + t_resid.sum(axis=0)

    steps = []
    mu_atoms = t.domain.atoms
    for i in range(n):
        steps.append(_pointwise_le(
            f"residual bound p_{i + 1}",
            "rounded coefficients leave at most eps of the lattice max",
            np.abs(residual[i]), eps * latmax, mu_atoms, tol))
    for i in range(n):
        steps.append(_pointwise_le(
            f"triangle f_{i + 1}",
            "recombine, then triangle inequality over parts and residuals",
            t_family[i], bound, nu_atoms, tol))
    steps.append(_pointwise_le(
        "max over family", "pointwise max of the per-function bounds",
        t_family.max(axis=0), bound, nu_atoms, tol))

    int_max = float(nu_w @ t_family.max(axis=0))
    int_bound = float(nu_w @ bound)
    steps.append(_le_step("integrate", "integrate the pointwise bound",
                          int_max, int_bound, tol))
    opn = op_norm(t)
    mass = float((cd.parts_matrix @ mu_w).sum())
    resid_mass = float((np.abs(residual) @ mu_w).sum())
    steps.append(_le_step("bound parts and residuals",
                          "||Tg|| <= ||T|| ||g|| termwise",
                          int_bound, opn * (mass + resid_mass), tol))
    dn = d_norm(fs)
    steps.append(_eq_step("parts sum to the lattice max",
                          "part masses add up to the dominated-family norm",
                          mass, dn, tol))
    steps.append(_le_step("residual mass",
                          "n residuals, each at most eps of the lattice max",
                          resid_mass, n * eps * dn, tol))
    steps.append(_le_step("final bound", "the relaxed L1 inequality",
                          int_max, (1.0 + n * eps) * opn * dn, tol))
    return ProofTrace(tuple(steps), tol)
