"""Minimal-norm extension of operators defined on subspaces of L1(mu).

Given a subspace X spanned by independent functions and the images Tb of a
basis, the smallest operator norm among all kernel extensions of T to the
whole space is the value of a linear program.  The kernel is split into its
positive and negative parts, K = K+ - K-, the standard LP form of an L1
objective:

    minimize   t
    subject to sum_i nu_i (K+_ij + K-_ij) <= t      for every domain atom j
               sum_j mu_j b(j) (K+_ij - K-_ij) = (T b)(s_i)
                                  for every basis element b and codomain atom s_i
               t, K+, K- >= 0

Column sums of |K| never exceed those of K+ + K-, and any interpolating
kernel splits into feasible parts max(K, 0) and max(-K, 0), so the norm of
K+ - K- at an optimum equals the optimal t.  The optimum alpha is the
extension constant: the smallest C in the dominated-family inequality
restricted to X.  The LP dual multipliers of the interpolation constraints
assemble into a tensor certificate g = sum b_r (x) phi_r in X (x) B0 whose
pairing ratio |<T, g>| / ||g|| witnesses that no smaller C works.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .core import REAL, MeasureSpace, _as_mode_array
from .operators import (INEQ_TOL, KernelOperator, ProofTrace, _eq_step,
                        _le_step, apply_rows, op_norm)
from .tensor import (CanonicalRep, TensorElement, canonical_rep, pair_rows,
                     tensor_norm)

#: atoms per side accepted by alpha_via_lp.  The cap alone does not bound the
#: cost, which grows with dim X: at 32 atoms per side one solve took 0.07-0.09
#: s at dim 1, 0.16-0.28 s at dim 2, 0.37-0.58 s at dim 3 and 2.3-3.4 s at
#: dim 8 (shared 2-core x86-64, one BLAS thread)
MAX_AMBIENT_ATOMS = 32

RESTRICTION_TOL = 1e-8
NORM_TOL = 1e-7
CERTIFICATE_TOL = 1e-6
RANK_TOL = 1e-10
#: condition (b) samples families of 1..CONDITION_B_MAX_FAMILY functions
CONDITION_B_MAX_FAMILY = 5
#: random tensors checked against condition (d) per verification
CONDITION_D_TRIALS = 200
#: largest condition (b) sample.  At the cap, extend --verify took 1.1-1.3 s
#: and peaked at 117 MB RSS on 32 x 32 atoms, dim 1, 3.7-3.8 s and 123 MB on
#: 32 x 32 atoms, dim 8, and 0.6 s and 77 MB on 12 x 12 atoms, dim 3 (shared
#: 2-core x86-64, one BLAS thread)
MAX_TRIALS = 1_000_000
#: condition (b) draws and checks the families of one size in chunks of at
#: most this many, which bounds its temporaries whatever the trial count
#: (unchunked, the cases above peaked at 848 MB and 377 MB); the chunks
#: reproduce the draws of one call, and a sample of at most this many
#: trials is one chunk per size
CONDITION_B_CHUNK = 10_000


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of L1(mu) spanned by the linearly independent real rows of
    ``basis_matrix`` (dim, atoms)."""

    ambient: MeasureSpace
    basis_matrix: np.ndarray

    def __post_init__(self):
        mat = _as_mode_array(self.basis_matrix, REAL, (None, self.ambient.size),
                             "basis")
        if mat.shape[0] == 0:
            raise ValueError("a subspace needs at least one basis element")
        if mat.shape[0] > self.ambient.size:
            raise ValueError("more basis elements than atoms cannot be independent")
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[0] == 0.0:
            raise ValueError("basis elements are all zero")
        if sv[-1] <= RANK_TOL * sv[0]:
            raise ValueError("basis is not linearly independent "
                             f"(singular value ratio {sv[-1] / sv[0]:.3e})")
        object.__setattr__(self, "basis_matrix", mat)

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class RestrictedOperator:
    """An operator on a subspace, given by the real images of its basis: row
    r of ``image_matrix`` (dim, codomain atoms) is T b_r."""

    subspace: Subspace
    codomain: MeasureSpace
    image_matrix: np.ndarray

    def __post_init__(self):
        m = _as_mode_array(self.image_matrix, REAL, (None, self.codomain.size),
                           "images")
        if m.shape[0] != self.subspace.dim:
            raise ValueError("need exactly one image per basis element")
        object.__setattr__(self, "image_matrix", m)


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    extension: KernelOperator
    alpha: float
    lp_objective: float
    certificate: TensorElement | None       # None when alpha is 0
    certificate_ratio: float | None


def extension_lp(x: Subspace, t: RestrictedOperator) -> lp.LinearProgram:
    """The extension LP.  Variables: t, then the pair K+_ij, K-_ij for each
    (i, j) in row-major order, all >= 0.

    Each K+_ij sits next to its K-_ij, the layout ``start_basis`` reads.
    The order no longer decides the answer: with all K+ columns ahead of all
    K- columns, Bland's rule alone ended in a spurious unbounded phase 1 or
    at a non-optimal vertex on about 1 in 1000 instances with 4..12 atoms
    per side, but Dantzig pricing solved the same 2,500 instances in either
    order, from phase 1 and from the start basis.  Refuses more than
    MAX_AMBIENT_ATOMS atoms per side before building.
    """
    if x.ambient.size > MAX_AMBIENT_ATOMS or t.codomain.size > MAX_AMBIENT_ATOMS:
        raise ValueError(f"extension instances are capped at "
                         f"{MAX_AMBIENT_ATOMS} atoms per side")
    n_mu = x.ambient.size
    n_nu = t.codomain.size
    pair_sum, pair_diff = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    # column mass of atom j: sum_i nu_i (K+_ij + K-_ij) - t <= 0
    mass = np.kron(np.kron(t.codomain.weight_array, np.eye(n_mu)), pair_sum)
    g_ub = np.hstack([-np.ones((n_mu, 1)), mass])
    # interpolation row (r, i): sum_j mu_j b_r(j) (K+_ij - K-_ij) = (T b_r)(s_i)
    weighted = x.basis_matrix * x.ambient.weight_array
    interp = np.einsum("rj,ik->rikj", weighted, np.eye(n_nu))
    interp = np.kron(interp.reshape(x.dim * n_nu, n_nu * n_mu), pair_diff)
    a_eq = np.hstack([np.zeros((x.dim * n_nu, 1)), interp])
    c = np.zeros(g_ub.shape[1])
    c[0] = 1.0
    return lp.LinearProgram(c, a_eq, t.image_matrix.ravel(),
                            g_ub, np.zeros(n_mu))


def start_basis(x: Subspace, t: RestrictedOperator) -> list[int]:
    """A primal feasible basis of ``extension_lp(x, t)``, read off its
    structure, as columns of lp's standard form (t, the K pairs, then one
    slack per mass row).

    Interpolation row (r, i) reads only kernel row i, and every kernel row
    meets the same matrix W = (mu_j b_r(j)).  Partial pivoting picks dim
    atoms J on which W is invertible; K_i solved on J makes each entry basic
    as K+ or K- by its sign.  t is basic on the mass row of the heaviest
    column, and every other mass row's slack is basic at t minus its mass.
    The basis is block triangular with nonsingular diagonal blocks (the W
    blocks, t's -1, then an identity)."""
    n_mu, n_nu = x.ambient.size, t.codomain.size
    weighted = x.basis_matrix * x.ambient.weight_array
    work = weighted.copy()
    atoms = []
    for r in range(x.dim):
        j = int(np.argmax(np.abs(work[r])))
        atoms.append(j)
        work[r + 1:] -= np.outer(work[r + 1:, j] / work[r, j], work[r])
        work[r + 1:, j] = 0.0
    kernel = np.linalg.solve(weighted[:, atoms], t.image_matrix)  # (dim, nu)
    pairs = 1 + 2 * (np.arange(n_nu) * n_mu + np.array(atoms)[:, None])
    mass = t.codomain.weight_array @ np.abs(kernel).T
    heaviest = atoms[int(np.argmax(mass))]
    slacks = 1 + 2 * n_mu * n_nu + np.arange(n_mu)
    return sorted([0, *(pairs + (kernel < 0.0)).ravel().tolist(),
                   *np.delete(slacks, heaviest).tolist()])


def alpha_via_lp(x: Subspace, t: RestrictedOperator) -> ExtensionResult:
    """Compute the extension constant, a minimal-norm extension and a dual
    certificate.  The LP starts at ``start_basis``, so phase 1 never runs."""
    program = extension_lp(x, t)
    sol = lp.solve(program, start=start_basis(x, t))
    if sol.status != lp.OPTIMAL:
        raise lp.LPError(f"extension LP ended {sol.status}; the interpolation "
                         "constraints should always be satisfiable")
    n_nu = t.codomain.size
    kernel = (sol.primal[1::2] - sol.primal[2::2]).reshape(n_nu, x.ambient.size)
    extension = KernelOperator(x.ambient, t.codomain, kernel, REAL)
    alpha = op_norm(extension)

    certificate = None
    ratio = None
    if alpha > 0.0:
        # g = sum_r b_r (x) phi_r with phi_r the duals of the interpolation
        # rows of b_r, divided by the nu weights
        nu_w = t.codomain.weight_array
        phis = sol.dual[:x.dim * n_nu].reshape(x.dim, n_nu) / nu_w
        certificate = TensorElement(x.ambient, t.codomain, REAL,
                                    x.basis_matrix, phis)
        pairing = abs(float(pair_rows(t.image_matrix, certificate.phi_matrix,
                                      nu_w)))
        # duals that underflowed to a zero-norm certificate witness nothing
        norm = tensor_norm(certificate)
        ratio = pairing / norm if norm > 0.0 else 0.0
    return ExtensionResult(extension, alpha, float(sol.objective_value),
                           certificate, ratio)


def certificate_failure(result: ExtensionResult) -> str | None:
    """Why the dual certificate does not witness alpha, or None when its
    pairing ratio reaches alpha (1 - CERTIFICATE_TOL) or alpha is zero.

    A ratio below alpha means the LP stopped at a non-optimal vertex, so
    alpha itself is wrong."""
    ratio, alpha = result.certificate_ratio, result.alpha
    if ratio is None or ratio >= alpha * (1.0 - CERTIFICATE_TOL):
        return None
    return f"certificate ratio {ratio:.12g} below alpha {alpha:.12g}"


# ---------------------------------------------------------------------------
# condition (b) sampling and the end-to-end verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionBReport:
    max_ratio: float
    trials: int
    violations: int
    passed: bool
    tolerance: float

    def to_json(self) -> dict:
        return {"max_ratio": self.max_ratio, "trials": self.trials,
                "violations": self.violations, "passed": self.passed,
                "tolerance": self.tolerance}


def _family_ratios(both: np.ndarray, mu_w: np.ndarray, nu_w: np.ndarray,
                   coeffs: np.ndarray) -> np.ndarray:
    """Dominated-norm ratios d_nu(T f_i) / d_mu(f_i) for families given as a
    (count, n, dim) stack of coefficients; zero families give ratio 0.

    ``both`` is [basis | images] (dim, mu atoms + nu atoms), so every member
    of every family is evaluated on both sides by one product."""
    count, n, dim = coeffs.shape
    vals = coeffs.reshape(count * n, dim) @ both
    np.abs(vals, out=vals)
    vals = vals.reshape(count, n, -1)
    top = vals[:, 0]
    for i in range(1, n):
        np.maximum(top, vals[:, i], out=top)
    mu = mu_w.size
    num = top[:, mu:] @ nu_w
    den = top[:, :mu] @ mu_w
    return np.divide(num, den, out=np.zeros(count), where=den > 0.0)


def _check_trials(trials: int) -> None:
    if not 0 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 0..{MAX_TRIALS}, got {trials}")


def check_condition_b(x: Subspace, t: RestrictedOperator, alpha: float,
                      trials: int, seed: int = 0,
                      extra_coeffs: tuple[np.ndarray, ...] = ()
                      ) -> ConditionBReport:
    """Sample random families from span X and check their dominated-norm
    ratios against alpha.

    The sampler draws standard-normal basis coefficients for families of
    size 1..CONDITION_B_MAX_FAMILY, ``trials`` families in 0..MAX_TRIALS.
    Callers may add deterministic candidate families, each an (m, dim)
    matrix of basis coefficients, via ``extra_coeffs``; the certificate
    family of the extension LP attains the supremum, so including it makes
    the reported maximum a tight lower bound for alpha.
    """
    _check_trials(trials)
    rng = np.random.default_rng(np.uint64(seed))
    both = np.hstack([x.basis_matrix, t.image_matrix])
    mu_w = x.ambient.weight_array
    nu_w = t.codomain.weight_array
    ratios = []
    sizes = rng.integers(1, CONDITION_B_MAX_FAMILY + 1, size=trials)
    counts = np.bincount(sizes, minlength=CONDITION_B_MAX_FAMILY + 1)
    for n in range(1, CONDITION_B_MAX_FAMILY + 1):
        count = int(counts[n])
        for start in range(0, count, CONDITION_B_CHUNK):
            batch = rng.standard_normal(
                (min(CONDITION_B_CHUNK, count - start), n, x.dim))
            ratios.append(_family_ratios(both, mu_w, nu_w, batch))
    for coeffs in extra_coeffs:
        ratios.append(_family_ratios(both, mu_w, nu_w, coeffs[np.newaxis]))
    all_ratios = np.concatenate([np.zeros(0), *ratios])
    bound = alpha * (1.0 + INEQ_TOL)
    violations = int(np.sum(all_ratios > bound))
    return ConditionBReport(float(np.max(all_ratios, initial=0.0)),
                            int(all_ratios.size), violations, violations == 0,
                            INEQ_TOL)


def certificate_family_coeffs(certificate: TensorElement) -> np.ndarray:
    """Basis coefficients of the canonical family z_1..z_m of the certificate.

    On each canonical cell the certificate evaluates to one function of
    omega, a combination of the basis with the cell's right-factor values as
    coefficients.  This family attains the condition (b) supremum at the LP
    optimum.
    """
    return _cell_coeffs(certificate, canonical_rep(certificate))


def _cell_coeffs(certificate: TensorElement, rep: CanonicalRep) -> np.ndarray:
    """certificate_family_coeffs, from the canonical representation."""
    reps = [cell[0] for cell in rep.cells]
    return certificate.phi_matrix[:, reps].T        # (m, dim)


def _condition_d_chain(x: Subspace, t: RestrictedOperator, alpha: float,
                       certificate: TensorElement, rep: CanonicalRep,
                       coeffs: np.ndarray) -> ProofTrace:
    """Certify the duality chain on the certificate: pairing, canonical
    rewrite, functional bound, condition (b) at the canonical family
    (``coeffs``), and the canonical attainment of the tensor norm."""
    nu_w = t.codomain.weight_array
    mu_w = x.ambient.weight_array
    z_vals = coeffs @ x.basis_matrix               # (m, mu atoms)
    tz_vals = coeffs @ t.image_matrix              # (m, nu atoms)

    pairing = float(pair_rows(t.image_matrix, certificate.phi_matrix, nu_w))
    cell_of_atom = np.empty(t.codomain.size, dtype=np.int64)
    for idx, cell in enumerate(rep.cells):
        cell_of_atom[list(cell)] = idx
    canon_pairing = float(np.sum(tz_vals[cell_of_atom, np.arange(t.codomain.size)]
                                 * nu_w))
    abs_cell_sum = float(np.sum(np.abs(
        tz_vals[cell_of_atom, np.arange(t.codomain.size)]) * nu_w))
    int_max_tz = float(np.max(np.abs(tz_vals), axis=0) @ nu_w)
    int_max_z = float(np.max(np.abs(z_vals), axis=0) @ mu_w)
    norm_g = tensor_norm(certificate)

    steps = [
        _eq_step("canonical pairing",
                 "the pairing only sees the evaluation, not the representation",
                 pairing, canon_pairing, INEQ_TOL),
        _le_step("triangle", "modulus inside the integral",
                 abs(pairing), abs_cell_sum, INEQ_TOL),
        _le_step("max over cells",
                 "cell indicators sum to one, so the max dominates",
                 abs_cell_sum, int_max_tz, INEQ_TOL),
        _le_step("dominated-family bound at alpha",
                 "condition (b) applied to the canonical family",
                 int_max_tz, alpha * int_max_z, INEQ_TOL),
        _eq_step("canonical attainment",
                 "the canonical representation attains the tensor norm",
                 alpha * int_max_z, alpha * norm_g, INEQ_TOL),
        _le_step("final bound", "pairing at most alpha times the tensor norm",
                 abs(pairing), alpha * norm_g, INEQ_TOL),
    ]
    return ProofTrace(tuple(steps), INEQ_TOL)


def condition_d_tensors(x: Subspace, t: RestrictedOperator, seed: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The random tensors sum_i f_i (x) phi_i in X (x) B0 of condition (d).

    Trial k has n_k in 1..3 terms: the standard-normal basis coefficients of
    f_1..f_n and the values of phi_1..phi_n, uniform on [-1, 1], fill rows
    :n_k of ``coeffs[k]`` (CONDITION_D_TRIALS, 3, dim) and ``phis[k]``
    (CONDITION_D_TRIALS, 3, nu atoms), and the remaining rows are zero.
    Every n_k is drawn first, then all the normals in one call and all the
    uniforms in one call.
    """
    rng = np.random.default_rng(np.uint64(seed) + np.uint64(0x9E3779B9))
    n = rng.integers(1, 4, size=CONDITION_D_TRIALS)
    coeffs = rng.standard_normal((CONDITION_D_TRIALS, 3, x.dim))
    phis = rng.uniform(-1.0, 1.0, size=(CONDITION_D_TRIALS, 3, t.codomain.size))
    unused = np.arange(3) >= n[:, np.newaxis]
    coeffs[unused] = 0.0
    phis[unused] = 0.0
    return coeffs, phis


def check_condition_d(x: Subspace, t: RestrictedOperator, alpha: float,
                      coeffs: np.ndarray, phis: np.ndarray
                      ) -> tuple[float, str | None]:
    """Check |<T, g>| <= alpha ||g|| on the tensors of condition_d_tensors,
    taken in order: the largest ratio up to the first violation, and that
    violation's message (None when there is none).

    All tensors are evaluated at once; zero padding rows add nothing to a
    norm or a pairing.  A tensor of norm 0 is skipped.
    """
    f = coeffs @ x.basis_matrix                          # (trials, 3, mu atoms)
    evaluation = np.swapaxes(f, 1, 2) @ phis             # (trials, mu, nu atoms)
    norms = np.max(np.abs(evaluation), axis=2) @ x.ambient.weight_array
    pairings = np.abs(np.sum(
        ((coeffs @ t.image_matrix) * phis) @ t.codomain.weight_array, axis=1))
    counted = norms != 0.0
    ratios = np.divide(pairings, norms, out=np.zeros(norms.shape),
                       where=counted)
    violated = np.flatnonzero(
        counted & (pairings > alpha * norms * (1.0 + INEQ_TOL) + 1e-15))
    if violated.size == 0:
        return float(np.max(ratios, initial=0.0)), None
    first = violated[0]
    return (float(np.max(ratios[:first + 1])),
            f"condition (d) violated: ratio {float(ratios[first]):.12g}")


@dataclass(frozen=True, eq=False)
class ExtensionTheoremReport:
    alpha: float
    lp_objective: float
    restriction_residuals: tuple[float, ...]
    certificate_ratio: float | None
    condition_b: ConditionBReport
    condition_d_max_ratio: float
    chain: ProofTrace | None
    bracket_width: float | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "lp_objective": self.lp_objective,
            "restriction_residuals": list(self.restriction_residuals),
            "certificate_ratio": self.certificate_ratio,
            "condition_b": self.condition_b.to_json(),
            "condition_d_max_ratio": self.condition_d_max_ratio,
            "chain": self.chain.to_json() if self.chain else None,
            "bracket_width": self.bracket_width,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def verify_extension_theorem(x: Subspace, t: RestrictedOperator,
                             trials: int = 10_000, seed: int = 0,
                             result: ExtensionResult | None = None
                             ) -> ExtensionTheoremReport:
    """End-to-end certification of the extension equivalences on one instance.

    ``result`` is an ``alpha_via_lp(x, t)`` result already at hand; the LP is
    solved only when it is omitted.  ``trials`` outside 0..MAX_TRIALS is
    refused before any LP is solved.
    """
    _check_trials(trials)
    if result is None:
        result = alpha_via_lp(x, t)
    alpha = result.alpha
    failures: list[str] = []

    nu_w = t.codomain.weight_array
    residuals = []
    images = apply_rows(result.extension, x.basis_matrix)
    for image, y in zip(images, t.image_matrix):
        res = float(np.sum(nu_w * np.abs(image - y)))       # l1 norm, as l1_norm
        residuals.append(res)
        if res > RESTRICTION_TOL * (1.0 + float(np.sum(nu_w * np.abs(y)))):
            failures.append(f"extension does not restrict to T (residual {res:.3e})")

    if abs(result.lp_objective - alpha) > NORM_TOL * (1.0 + alpha):
        failures.append("LP objective and extension norm disagree")

    if result.certificate is not None:
        failure = certificate_failure(result)
        if failure is not None:
            failures.append(failure)
        rep = canonical_rep(result.certificate)
        cert_coeffs = _cell_coeffs(result.certificate, rep)
        chain = _condition_d_chain(x, t, alpha, result.certificate, rep,
                                   cert_coeffs)
        if not chain.all_passed:
            failures.append("duality chain step failed")
        extra = (cert_coeffs,)
    else:
        chain = None
        extra = ()

    cond_b = check_condition_b(x, t, alpha, trials, seed=seed,
                               extra_coeffs=extra)
    if not cond_b.passed:
        failures.append(f"{cond_b.violations} sampled families exceed alpha")

    d_max, failure = check_condition_d(x, t, alpha,
                                       *condition_d_tensors(x, t, seed))
    if failure is not None:
        failures.append(failure)

    bracket = None
    if result.certificate_ratio is not None:
        bracket = abs(result.certificate_ratio - cond_b.max_ratio)

    return ExtensionTheoremReport(alpha, result.lp_objective, tuple(residuals),
                                  result.certificate_ratio, cond_b, d_max,
                                  chain, bracket, tuple(failures))
