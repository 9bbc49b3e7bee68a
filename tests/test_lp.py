import hashlib

import numpy as np
import pytest

from l1lattice import jsonio, lp
from l1lattice.acceptance import random_small_lp
from l1lattice.extension import extension_lp
from l1lattice.generate import generate_instance
from l1lattice.oracle import solve_exact


def _objective_for_basis(p: lp.LinearProgram, basis) -> float:
    """Objective value of the basic solution of ``basis`` in lp's standard
    form, recomputed from the original rows."""
    sf = lp._standard_form(p)
    cols = np.array(basis, dtype=np.int64)
    bmat = sf.rows[:, cols]
    if bmat.shape[0] == cols.size:
        x_b = np.linalg.solve(bmat, sf.rhs)
    else:
        # the solve dropped redundant rows; the overdetermined system is
        # consistent, so least squares recovers the exact basic solution
        x_b = np.linalg.lstsq(bmat, sf.rhs, rcond=None)[0]
    x_std = np.zeros(sf.rows.shape[1])
    x_std[cols] = x_b
    return float(p.c @ x_std[:p.n_vars])


class TestTrivialPrograms:
    def test_lower_bounded_minimum(self):
        # minimize x subject to x >= 1
        sol = lp.solve(lp.LinearProgram([1.0], g_ub=[[-1.0]], h_ub=[-1.0]))
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
        assert sol.primal[0] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        sol = lp.solve(lp.LinearProgram([0.0], a_eq=[[1.0]], b_eq=[-1.0]))
        assert sol.status == lp.INFEASIBLE

    def test_unbounded(self):
        assert lp.solve(lp.LinearProgram([-1.0])).status == lp.UNBOUNDED

    def test_free_variable_split(self):
        # minimize u with -u <= x <= u and x = -3: optimum u = 3, with the
        # free x written as x+ - x- in adjacent columns (x+, x-, u)
        p = lp.LinearProgram([0.0, 0.0, 1.0], [[1.0, -1.0, 0.0]], [-3.0],
                             [[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0]], [0.0, 0.0])
        sol = lp.solve(p)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-12)

    def test_upper_bounds(self):
        # maximize x (min -x) with 0 <= x and the row x <= 4
        p = lp.LinearProgram([-1.0], None, None, [[1.0]], [4.0])
        sol = lp.solve(p)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(-4.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lp.LinearProgram([1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])


class TestSolutionInvariants:
    def sweep(self, count, seed):
        rng = np.random.default_rng(seed)
        sols = []
        for _ in range(count):
            p = random_small_lp(rng)
            sols.append((p, lp.solve(p)))
        return sols

    def test_residuals_within_contract(self):
        for p, sol in self.sweep(200, 1):
            if sol.status != lp.OPTIMAL:
                continue
            assert sol.feasibility_residual <= 1e-8
            assert sol.cs_residual <= 1e-7
            assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective_value))

    def test_weak_duality(self):
        for p, sol in self.sweep(200, 2):
            if sol.status != lp.OPTIMAL:
                continue
            dual_obj = float(p.b_eq @ sol.dual[:p.n_eq]
                             + p.h_ub @ sol.dual[p.n_eq:])
            assert dual_obj <= sol.objective_value + 1e-7

    def test_inequality_multipliers_nonpositive(self):
        for p, sol in self.sweep(100, 3):
            if sol.status != lp.OPTIMAL or p.n_ub == 0:
                continue
            assert np.all(sol.dual[p.n_eq:] <= 1e-9)

    def test_resolve_with_optimal_basis(self):
        for p, sol in self.sweep(150, 4):
            if sol.status != lp.OPTIMAL:
                continue
            again = _objective_for_basis(p, sol.basis)
            assert abs(again - sol.objective_value) <= 1e-10 * (
                1.0 + abs(sol.objective_value))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        programs = [random_small_lp(rng) for _ in range(30)]
        first = [lp.solve(p) for p in programs]
        second = [lp.solve(p) for p in programs]
        for a, b in zip(first, second):
            assert a.status == b.status
            if a.status == lp.OPTIMAL:
                assert np.array_equal(a.primal, b.primal)
                assert a.objective_value == b.objective_value
                assert a.basis == b.basis


class TestOracleAgreement:
    def test_against_exact_enumeration(self):
        # oracle: exact two-phase simplex in integers; see l1lattice.oracle
        rng = np.random.default_rng(6)
        for _ in range(600):
            p = random_small_lp(rng)
            sol = lp.solve(p)
            status, value = solve_exact(p)
            assert sol.status == status
            if status == lp.OPTIMAL:
                exact = float(value)
                assert abs(sol.objective_value - exact) <= 1e-7 * (1.0 + abs(exact))


def _solution_digest(h, sol) -> None:
    h.update(sol.status.encode())
    for arr in (sol.primal, sol.dual):
        h.update(b"none" if arr is None else arr.tobytes())
    h.update(repr(sol.basis).encode())
    h.update(repr(sol.objective_value).encode())


class TestGoldenBytes:
    """Status, primal, dual, basis and objective are pinned byte for byte
    on seeded small programs of every random_small_lp shape and on seeded
    extension LPs."""

    SMALL = (
        "c8ad9ce7de0857bb976b0c38d22db562ded8ce73b099c1046b5bea801ca463cf")
    EXTENSION = (
        "019f9ab02e68c800b2561b36eaf8f844a37f9f85c6c047031b532b71159c1fbd")

    def test_small_programs(self):
        rng = np.random.default_rng(2024)
        h = hashlib.sha256()
        for _ in range(500):
            _solution_digest(h, lp.solve(random_small_lp(rng)))
        assert h.hexdigest() == self.SMALL

    def test_extension_programs(self):
        h = hashlib.sha256()
        for atoms, nu_atoms, dim, seed in [(4, 5, 1, 1), (6, 5, 2, 2),
                                           (8, 7, 3, 3), (12, 11, 3, 352541269)]:
            docs = generate_instance("extension", {"atoms": atoms,
                                                   "nu_atoms": nu_atoms,
                                                   "dim": dim}, seed)
            x = jsonio.subspace_from_json(docs["subspace"])
            t = jsonio.images_from_json(docs["images"], x)
            _solution_digest(h, lp.solve(extension_lp(x, t)))
        assert h.hexdigest() == self.EXTENSION
