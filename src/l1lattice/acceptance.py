"""The acceptance suite: seeded property sweeps with exact combinatorial
checks, runnable from pytest or from the ``selftest`` subcommand.

Every criterion is deterministic given the seed; reports contain no
timings (only boolean runtime flags), so two runs with the same seed
produce byte-identical output.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import jsonio, lp, oracle
from .core import COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn
from .decompose import (COMPLEX_PREPRUNE, REAL_PREPRUNE, decompose_complex,
                        decompose_real, optimal_k_search, preprune_count,
                        prune, verify_decomposition, verify_trace_counts)
from .extension import verify_extension_theorem
from .generate import (random_family, random_fn, random_operator,
                       random_restricted, random_space, random_subspace,
                       random_tensor, rng_for)
from .operators import (apply_matrix, check_domination, check_grothendieck,
                        dominate, identity_operator, modulus, op_norm,
                        proof_trace_complex, proof_trace_real)
from .tensor import (TensorElement, proof_trace_tensor,
                     verify_min_representation)


@dataclass(frozen=True)
class CriterionOutcome:
    number: int
    name: str
    passed: bool
    runtime_ok: bool | None
    elapsed: float          # seconds; excluded from serialized reports
    details: dict

    def to_json(self) -> dict:
        return {"number": self.number, "name": self.name, "passed": self.passed,
                "runtime_ok": self.runtime_ok, "details": self.details}

    def line(self) -> str:
        return status_line(self.number, self.name, self.passed)


def status_line(number: int, name: str, passed: bool) -> str:
    """The one-line summary of a criterion, as ``selftest`` prints it."""
    return f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {name}"


def _count(base: int, scale: float) -> int:
    return max(1, int(round(base * scale)))


def _criterion(number: int, name: str, cap: float | None = None):
    """Make a body ``(seed, scale) -> (ok, details)`` a timed criterion: it
    passes when ok and, given a ``cap`` in seconds, when it ran within it."""
    def decorate(body):
        @functools.wraps(body)
        def criterion(seed: int, scale: float = 1.0) -> CriterionOutcome:
            start = time.perf_counter()
            ok, details = body(seed, scale)
            elapsed = time.perf_counter() - start
            runtime_ok = None if cap is None else elapsed <= cap
            return CriterionOutcome(number, name, ok and runtime_ok is not False,
                                    runtime_ok, elapsed, details)
        return criterion
    return decorate


# ---------------------------------------------------------------------------

@_criterion(1, "decomposition soundness", cap=60.0)
def criterion_1(seed: int, scale: float):
    """Decomposition soundness on seeded random families, both modes."""
    rng = rng_for(seed + 101)
    trials = _count(1000, scale)
    worst = {"real": 0.0, "complex": 0.0}
    failures = 0
    for mode in (REAL, COMPLEX):
        for _ in range(trials):
            space = random_space(rng, int(rng.integers(1, 51)))
            fs = random_family(rng, space, int(rng.integers(1, 6)), mode)
            d = decompose_real(fs) if mode == REAL else decompose_complex(fs)
            report = verify_decomposition(d, fs)
            residual = max(report.sum_residual,
                           max(report.recombination_residuals))
            worst[mode] = max(worst[mode], residual)
            if not report.passed or residual > 1e-10:
                failures += 1
    return failures == 0, {"trials_per_mode": trials, "failures": failures,
                           "max_residual_real": worst["real"],
                           "max_residual_complex": worst["complex"]}


def _emitted_counts(fs: FnFamily, mode: str) -> tuple[int, ...]:
    """The parts each decomposition emits on the leading m members of the
    family, for m = n, ..., 1: the per-level counts of the recursion."""
    split = decompose_real if mode == REAL else decompose_complex
    return tuple(split(FnFamily(fs.space, fs.mode, fs.value_matrix[:m])).k
                 for m in range(fs.size, 0, -1))


@_criterion(2, "recursion part counts")
def criterion_2(seed: int, scale: float):
    """Pre-prune part counts match the recursion exactly and respect the
    factorial growth bounds.  The per-level counts are those the
    decompositions emit on the leading members of each family."""
    rng = rng_for(seed + 202)
    ok = True
    observed = {"real": [], "complex": []}
    for n in range(1, 6):
        space = random_space(rng, 6)
        fs_r = random_family(rng, space, n, REAL)
        fs_c = random_family(rng, space, n, COMPLEX)
        d_r = decompose_real(fs_r)
        d_c = decompose_complex(fs_c)
        observed["real"].append(d_r.k)
        observed["complex"].append(d_c.k)
        ok &= d_r.k == REAL_PREPRUNE[n - 1] == preprune_count(n, REAL)
        ok &= d_c.k == COMPLEX_PREPRUNE[n - 1] == preprune_count(n, COMPLEX)
        ok &= verify_trace_counts(_emitted_counts(fs_r, REAL), REAL)
        ok &= verify_trace_counts(_emitted_counts(fs_c, COMPLEX), COMPLEX)
        ok &= d_r.k <= math.exp(0.5) * 2 ** n * math.factorial(n)
        ok &= d_c.k <= math.e * math.factorial(n)
    return ok, {"observed": observed, "expected_real": list(REAL_PREPRUNE),
                "expected_complex": list(COMPLEX_PREPRUNE)}


def pattern_family_n2() -> FnFamily:
    """Nine unit-weight atoms realizing every sign and dominance pattern of a
    two-function family; needs the full 2^2 sign columns."""
    space = MeasureSpace(tuple(f"p{i}" for i in range(9)), (1.0,) * 9)
    return FnFamily(space, REAL,
                    [[1.0, 1.0, -1.0, -1.0, 2.0, 1.0, 1.0, 0.0, -2.0],
                     [1.0, -1.0, 1.0, -1.0, 1.0, 2.0, 0.0, 1.0, -1.0]])


@_criterion(3, "minimal part counts", cap=300.0)
def criterion_3(seed: int, scale: float):
    """Minimal part counts at desk scale: 2^n for the sign search (n = 1, 2,
    with the n = 2 infeasibility of k = 3 certified by exhaustion) and
    2^n - 1 = 1 for one complex function."""
    space2 = MeasureSpace(("u", "v"), (1.0, 1.0))
    fs1 = FnFamily(space2, REAL, [[1.0, -1.0]])
    res1 = optimal_k_search(fs1, k_max=4)
    ok = res1.feasible and res1.k == 2 and res1.infeasible_k == (1,)

    res2 = optimal_k_search(pattern_family_n2(), k_max=5)
    ok &= res2.feasible and res2.k == 4 and res2.infeasible_k == (1, 2, 3)

    fc = FnFamily(space2, COMPLEX, [[1j, 2.0 + 0.0j]])
    resc = prune(decompose_complex(fc))
    ok &= resc.k == 1
    return ok, {"n1_k": res1.k, "n2_k": res2.k,
                "n2_infeasible": list(res2.infeasible_k),
                "n2_candidates_tried": res2.candidates_tried,
                "complex_n1_k": resc.k}


@_criterion(4, "L1 inequality")
def criterion_4(seed: int, scale: float):
    """The L1 inequality holds on random instances, with equality at the
    identity."""
    rng = rng_for(seed + 404)
    trials = _count(1000, scale)
    violations = 0
    worst_ratio = 0.0
    for mode in (REAL, COMPLEX):
        for _ in range(trials):
            dom = random_space(rng, int(rng.integers(1, 9)))
            cod = random_space(rng, int(rng.integers(1, 9)), prefix="s")
            t = random_operator(rng, dom, cod, mode)
            fs = random_family(rng, dom, int(rng.integers(1, 6)), mode)
            report = check_grothendieck(t, fs)
            if not report.holds:
                violations += 1
            if report.ratio is not None:
                worst_ratio = max(worst_ratio, report.ratio)
    tight_ok = True
    for _ in range(_count(20, scale)):
        space = random_space(rng, int(rng.integers(1, 9)))
        t = identity_operator(space)
        fs = random_family(rng, space, int(rng.integers(1, 6)), REAL)
        report = check_grothendieck(t, fs)
        tight_ok &= report.holds and report.tight
    return violations == 0 and tight_ok, {
        "trials_per_mode": trials, "violations": violations,
        "max_ratio": worst_ratio, "identity_tight": tight_ok}


@_criterion(5, "proof traces")
def criterion_5(seed: int, scale: float):
    """Proof traces carry no negative slack; the tensor trace reproduces the
    inequality report's bound."""
    rng = rng_for(seed + 505)
    trials = _count(200, scale)
    bad_steps = 0
    mismatch = 0.0
    for _ in range(trials):
        dom = random_space(rng, int(rng.integers(1, 7)))
        cod = random_space(rng, int(rng.integers(1, 7)), prefix="s")
        n = int(rng.integers(1, 4))

        t = random_operator(rng, dom, cod, REAL)
        fs = random_family(rng, dom, n, REAL)
        if not proof_trace_real(t, fs).all_passed:
            bad_steps += 1

        tc = random_operator(rng, dom, cod, COMPLEX)
        fsc = random_family(rng, dom, n, COMPLEX)
        for eps in (0.1, 0.01):
            if not proof_trace_complex(tc, fsc, eps).all_passed:
                bad_steps += 1

        mode = REAL if rng.integers(2) == 0 else COMPLEX
        tt = random_operator(rng, dom, cod, mode)
        fst = random_family(rng, dom, n, mode)
        trace = proof_trace_tensor(tt, fst)
        if not trace.all_passed:
            bad_steps += 1
        rhs = check_grothendieck(tt, fst).rhs
        mismatch = max(mismatch, abs(trace.final_rhs - rhs) / (1.0 + abs(rhs)))
    return bad_steps == 0 and mismatch <= 1e-9, {
        "trials": trials, "bad_steps": bad_steps,
        "max_final_bound_mismatch": mismatch}


@_criterion(6, "operator modulus and domination")
def criterion_6(seed: int, scale: float):
    """Modulus identities and domination of order intervals."""
    rng = rng_for(seed + 606)
    trials = _count(1000, scale)
    ok = True
    worst_pointwise = 0.0
    for i in range(trials):
        mode = REAL if i % 2 == 0 else COMPLEX
        dom = random_space(rng, int(rng.integers(1, 9)))
        cod = random_space(rng, int(rng.integers(1, 9)), prefix="s")
        t = random_operator(rng, dom, cod, mode)
        abs_t = modulus(t)
        ok &= op_norm(abs_t) == op_norm(t)

        f = random_fn(rng, dom, mode)
        lhs = np.abs(apply_matrix(t, f.values[None, :]))[0]
        rhs = apply_matrix(abs_t, np.abs(f.values)[None, :])[0]
        worst_pointwise = max(worst_pointwise, float(np.max(lhs - rhs)))
        ok &= bool(np.all(lhs <= rhs + 1e-10))

        phi = SimpleFn(dom, REAL, np.abs(random_fn(rng, dom, REAL).values))
        ok &= check_domination(t, phi, dominate(t, phi), rng)[2] is None
    return ok, {"trials": trials, "max_pointwise_excess": worst_pointwise}


def _recombined_reps(rng, g: TensorElement, count: int) -> list[TensorElement]:
    reps = []
    t = g.n_terms
    for _ in range(count):
        extra = int(rng.integers(0, 3))
        size = t + extra
        f_pad = np.vstack([g.f_matrix,
                           np.zeros((extra, g.mu_space.size), dtype=g.f_matrix.dtype)])
        phi_pad = np.vstack([g.phi_matrix,
                             np.zeros((extra, g.nu_space.size), dtype=g.phi_matrix.dtype)])
        r = rng.standard_normal((size, size))
        f_new = r @ f_pad
        phi_new = np.linalg.solve(r.T, phi_pad)
        reps.append(TensorElement(g.mu_space, g.nu_space, g.mode, f_new,
                                  phi_new))
    return reps


@_criterion(7, "representation minimality")
def criterion_7(seed: int, scale: float):
    """Every representation certifies an upper bound for the tensor norm; the
    canonical one attains it."""
    rng = rng_for(seed + 707)
    trials = _count(200, scale)
    reps_per = _count(100, scale)
    ok = True
    worst_gap = 0.0
    for i in range(trials):
        mode = REAL if i % 2 == 0 else COMPLEX
        mu = random_space(rng, int(rng.integers(1, 7)))
        nu = random_space(rng, int(rng.integers(1, 7)), prefix="s")
        g = random_tensor(rng, mu, nu, int(rng.integers(1, 5)), mode)
        reps = _recombined_reps(rng, g, reps_per)
        report = verify_min_representation(g, reps)
        ok &= report.passed
        worst_gap = max(worst_gap,
                        abs(report.canonical_product - report.norm)
                        / (1.0 + report.norm))
    return ok, {"trials": trials, "reps_per_trial": reps_per,
                "max_canonical_gap": worst_gap}


@_criterion(8, "extension theorem", cap=600.0)
def criterion_8(seed: int, scale: float):
    """Extension theorem end to end: restriction, norm, certificate,
    sampled condition (b) and the bracket between the two alpha bounds."""
    rng = rng_for(seed + 808)
    instances = _count(100, scale)
    trials = _count(10_000, scale)
    failures = 0
    tight_brackets = 0
    nonzero = 0
    for idx in range(instances):
        ambient = random_space(rng, int(rng.integers(2, 7)))
        nu = random_space(rng, int(rng.integers(2, 7)), prefix="s")
        dim = int(rng.integers(1, 1 + min(3, ambient.size)))
        x = random_subspace(rng, ambient, dim)
        t = random_restricted(rng, x, nu)
        report = verify_extension_theorem(x, t, trials=trials,
                                          seed=seed + 9000 + idx)
        if not report.passed:
            failures += 1
            continue
        if report.alpha > 1e-12:
            nonzero += 1
            if report.bracket_width <= 1e-3 * report.alpha:
                tight_brackets += 1
    ok = failures == 0 and tight_brackets >= int(0.9 * nonzero)
    return ok, {"instances": instances, "failures": failures,
                "nonzero_alpha": nonzero, "tight_brackets": tight_brackets,
                "condition_b_trials": trials}


def random_small_lp(rng) -> lp.LinearProgram:
    """Small integer-data LP (exact in floats) for oracle comparisons."""
    n = int(rng.integers(1, 7))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(0 if m_eq else 1, 9 - m_eq))
    c = rng.integers(-4, 5, size=n).astype(float)
    a = rng.integers(-4, 5, size=(m_eq, n)).astype(float)
    g = rng.integers(-4, 5, size=(m_ub, n)).astype(float)
    if rng.integers(2) == 0:
        x0 = rng.integers(0, 4, size=n).astype(float)
        b = a @ x0
        h = g @ x0 + rng.integers(0, 5, size=m_ub).astype(float)
    else:
        b = rng.integers(-4, 5, size=m_eq).astype(float)
        h = rng.integers(-4, 5, size=m_ub).astype(float)
    return lp.LinearProgram(c, a if m_eq else None, b if m_eq else None,
                            g if m_ub else None, h if m_ub else None)


@_criterion(9, "LP oracle agreement")
def criterion_9(seed: int, scale: float):
    """Simplex answers agree with the exact integer-simplex oracle."""
    rng = rng_for(seed + 909)
    trials = _count(500, scale)
    disagreements = 0
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(trials):
        program = random_small_lp(rng)
        sol = lp.solve(program)
        status, value = oracle.solve_exact(program)
        statuses[status] += 1
        if sol.status != status:
            disagreements += 1
        elif status == lp.OPTIMAL:
            exact = float(value)
            if abs(sol.objective_value - exact) > 1e-7 * (1.0 + abs(exact)):
                disagreements += 1
    return disagreements == 0, {"trials": trials,
                                "disagreements": disagreements,
                                "statuses": statuses}


@_criterion(10, "determinism")
def criterion_10(seed: int, scale: float):
    """In-process determinism: re-running sample criteria with the same seed
    yields byte-identical reports.  (The CLI selftest is additionally
    compared byte for byte across two runs by the test suite.)"""
    light = min(scale, 0.02)
    first = [criterion_1(seed, light).to_json(), criterion_4(seed, light).to_json()]
    second = [criterion_1(seed, light).to_json(), criterion_4(seed, light).to_json()]
    return (jsonio.dumps(first) == jsonio.dumps(second),
            {"compared_bytes": len(jsonio.dumps(first))})


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_selftest(seed: int, fast: bool = False) -> dict:
    """Run all criteria; the returned report is deterministic given the seed."""
    scale = 0.05 if fast else 1.0
    outcomes = [fn(seed, scale) for fn in CRITERIA]
    return {
        "seed": seed,
        "fast": fast,
        "criteria": [o.to_json() for o in outcomes],
        "all_passed": all(o.passed for o in outcomes),
    }
