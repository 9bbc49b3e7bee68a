"""Independent output checks, recomputed with plain numpy.

None of these trusts a pass flag of the program: each recomputes the
identity or bound from the raw input arrays and the returned data. Every
function returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import numpy as np

# relative tolerance of the recomputed identities; the package certifies
# them at 1e-10, so 1e-9 only absorbs a different summation order
TOL = 1e-9


def _scale(values: np.ndarray) -> tuple[np.ndarray, float]:
    latmax = np.max(np.abs(values), axis=0)
    return latmax, max(1.0, float(latmax.max()))


def decomposition(values: np.ndarray, parts: np.ndarray, signs=None,
                  coeffs=None, floor: float = 0.0) -> list[str]:
    """Parts are nonnegative, sum to the lattice max and recombine to every
    f_i through the sign matrix (real) or coefficient fields (complex).

    The recursive construction gives parts >= 0 exactly; ``floor`` admits
    the roundoff of parts that come out of an LP solve instead."""
    problems = []
    latmax, scale = _scale(values)
    if parts.size and parts.min() < -floor * scale:
        problems.append(f"negative part value {parts.min()!r}")
    if np.max(np.abs(parts.sum(axis=0) - latmax)) > TOL * scale:
        problems.append("parts do not sum to the lattice max")
    if signs is not None:
        if not np.all(np.isin(signs, (-1, 0, 1))):
            problems.append("sign outside {-1, 0, 1}")
        recombined = signs.astype(np.float64) @ parts
    else:
        mod = np.abs(coeffs)
        if np.any((mod != 0.0) & (np.abs(mod - 1.0) > TOL)):
            problems.append("coefficient neither 0 nor unimodular")
        recombined = np.einsum("ijw,jw->iw", coeffs, parts)
    if np.max(np.abs(recombined - values)) > TOL * scale:
        problems.append("parts do not recombine to the family")
    return problems


def cell_decomposition(values: np.ndarray, cells: list, parts: np.ndarray,
                       alphas: np.ndarray, eps: float) -> list[str]:
    """Cells partition the atoms, parts sum to the lattice max, scalar
    coefficients are 0 or unimodular and recombine within eps * latmax."""
    problems = []
    latmax, scale = _scale(values)
    atoms = sorted(w for c in cells for w in c)
    if atoms != list(range(values.shape[1])):
        problems.append("cells do not partition the atoms")
    if parts.size and parts.min() < 0.0:
        problems.append("negative part value")
    if np.max(np.abs(parts.sum(axis=0) - latmax)) > TOL * scale:
        problems.append("cell parts do not sum to the lattice max")
    mod = np.abs(alphas)
    if np.any((mod != 0.0) & (np.abs(mod - 1.0) > TOL)):
        problems.append("cell coefficient neither 0 nor unimodular")
    resid = np.abs(alphas @ parts - values) - eps * latmax[None, :]
    if np.max(resid) > TOL * scale:
        problems.append("cell recombination exceeds eps times the lattice max")
    return problems


def inequality_sides(kernel: np.ndarray, mu_w: np.ndarray, nu_w: np.ndarray,
                     values: np.ndarray) -> tuple[float, float]:
    """Both sides of the L1 inequality: the integral of max_i |Tf_i| and
    ||T|| times the integral of max_i |f_i|."""
    images = (values * mu_w) @ kernel.T
    lhs = float(nu_w @ np.max(np.abs(images), axis=0))
    norm = float(np.max(nu_w @ np.abs(kernel)))
    return lhs, norm * float(mu_w @ np.max(np.abs(values), axis=0))


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def proof_trace(kernel, mu_w, nu_w, values, steps, relax: float) -> list[str]:
    """Every step has nonnegative slack and the last step is the (relaxed)
    inequality with both sides recomputed here."""
    problems = []
    for s in steps:
        ok = (s["rhs"] - s["lhs"] >= -TOL * (1.0 + abs(s["rhs"]))
              if s["kind"] == "le" else close(s["lhs"], s["rhs"]))
        if not ok:
            problems.append(f"proof step {s['name']!r} fails")
    lhs, rhs = inequality_sides(kernel, mu_w, nu_w, values)
    if not (close(steps[-1]["lhs"], lhs) and close(steps[-1]["rhs"], relax * rhs)):
        problems.append("final proof step disagrees with the recomputed sides")
    return problems


def extension(basis: np.ndarray, mu_w: np.ndarray, images: np.ndarray,
              nu_w: np.ndarray, kernel: np.ndarray, alpha: float,
              phis: np.ndarray, ratio: float) -> list[str]:
    """The extension restricts to T on the basis, alpha is its weighted
    column-sum max, and the certificate g = sum b_r (x) phi_r has pairing
    ratio |<T, g>| / ||g|| >= alpha (1 - 1e-6), recomputed here."""
    problems = []
    restricted = (basis * mu_w) @ kernel.T
    resid = np.abs(restricted - images) @ nu_w
    if np.any(resid > 1e-8 * (1.0 + np.abs(images) @ nu_w)):
        problems.append("extension does not restrict to T")
    norm = float(np.max(nu_w @ np.abs(kernel)))
    if not close(norm, alpha, 1e-12):
        problems.append(f"alpha {alpha!r} is not the kernel norm {norm!r}")
    pairing = float(np.sum((images * phis) @ nu_w))
    g_norm = float(mu_w @ np.max(np.abs(basis.T @ phis), axis=1))
    own_ratio = abs(pairing) / g_norm
    if not close(own_ratio, ratio, 1e-8):
        problems.append(f"certificate ratio {ratio!r} recomputes to {own_ratio!r}")
    if own_ratio < alpha * (1.0 - 1e-6):
        problems.append("certificate ratio below alpha")
    return problems


def lp_agreement(program: dict, status: str, value, primal,
                 oracle_status: str, oracle_value) -> list[str]:
    """The simplex status and value agree with the exact oracle, and an
    optimal primal is feasible with the reported objective."""
    if status != oracle_status:
        return [f"lp status {status} but oracle {oracle_status}"]
    if status != "optimal":
        return []
    problems = []
    exact = float(oracle_value)
    if abs(value - exact) > 1e-7 * (1.0 + abs(exact)):
        problems.append(f"lp value {value!r} but oracle {exact!r}")
    x = primal
    if x.min() < -1e-9:
        problems.append("lp primal violates x >= 0")
    if program["a_eq"].size and np.max(np.abs(program["a_eq"] @ x - program["b_eq"])) > 1e-7:
        problems.append("lp primal violates an equality row")
    if program["g_ub"].size and np.max(program["g_ub"] @ x - program["h_ub"]) > 1e-7:
        problems.append("lp primal violates an inequality row")
    if not close(float(program["c"] @ x), value, 1e-7):
        problems.append("lp objective does not match its primal")
    return problems


def optimal_k(values: np.ndarray, k: int, signs: np.ndarray,
              parts: np.ndarray) -> list[str]:
    """The witness reproduces the family with at most 2^n parts. Its parts
    are LP primal values, so they may undershoot 0 by roundoff."""
    problems = decomposition(values, parts, signs=signs, floor=TOL)
    if not 1 <= k <= 2 ** values.shape[0] or signs.shape[1] != k:
        problems.append(f"minimal k {k} outside 1..2^n")
    return problems
