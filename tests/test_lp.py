import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from test_oracle import HAND_SOLVED, integer_programs

from l1lattice import jsonio, lp
from l1lattice.acceptance import random_small_lp
from l1lattice.extension import extension_lp, start_basis
from l1lattice.generate import (generate_instance, random_restricted,
                                random_space, random_subspace, rng_for)
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
        with pytest.raises(ValueError, match="a_eq has 1 columns, expected 2"):
            lp.LinearProgram([1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])

    @pytest.mark.parametrize("kwargs, message", [
        (dict(c=[]), "c is empty"),
        (dict(c=[1.0, 2.0], g_ub=[[1.0, 2.0, 3.0]], h_ub=[1.0]),
         "g_ub has 3 columns, expected 2"),
        (dict(c=[1.0], a_eq=[[1.0], [2.0]], b_eq=[1.0]),
         "a_eq and b_eq sizes disagree"),
        (dict(c=[1.0], a_eq=[[1.0]]), "a_eq and b_eq sizes disagree"),
        (dict(c=[1.0], b_eq=[1.0]), "a_eq and b_eq sizes disagree"),
        (dict(c=[1.0], g_ub=[[1.0]], h_ub=[1.0, 2.0]),
         "g_ub and h_ub sizes disagree"),
        (dict(c=[1.0], g_ub=[[1.0]]), "g_ub and h_ub sizes disagree"),
        (dict(c=[np.nan]), "c contains non-finite entries"),
        (dict(c=[1.0], a_eq=[[np.inf]], b_eq=[1.0]),
         "a_eq contains non-finite entries"),
        (dict(c=[1.0], a_eq=[[1.0]], b_eq=[np.nan]),
         "b_eq contains non-finite entries"),
        (dict(c=[1.0], g_ub=[[-np.inf]], h_ub=[1.0]),
         "g_ub contains non-finite entries"),
        (dict(c=[1.0], g_ub=[[1.0]], h_ub=[np.inf]),
         "h_ub contains non-finite entries"),
    ])
    def test_refusal_names_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            lp.LinearProgram(**kwargs)


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


class TestExactAnswers:
    """Degenerate programs reach phase 1's drive-out and its dropped rows;
    the status and the objective must match the exact answer."""

    @pytest.mark.parametrize("program, expected", HAND_SOLVED)
    def test_hand_solved(self, program, expected):
        status, value = expected
        sol = lp.solve(program)
        assert sol.status == status
        if status == lp.OPTIMAL:
            assert abs(sol.objective_value - value) <= 1e-12 * (1 + abs(value))

    @given(integer_programs())
    @settings(deadline=None, max_examples=300)
    def test_integer_programs(self, program):
        status, value = solve_exact(program)
        sol = lp.solve(program)
        assert sol.status == status
        if status == lp.OPTIMAL:
            assert abs(sol.objective_value - value) <= 1e-9 * (1 + abs(value))


def generated_extension(seed):
    """The extension instance drawn from rng_for(seed): 4..12 atoms per side
    and dim 1..3."""
    rng = rng_for(seed)
    mu = random_space(rng, int(rng.integers(4, 13)))
    nu = random_space(rng, int(rng.integers(4, 13)), prefix="s")
    x = random_subspace(rng, mu, int(rng.integers(1, 1 + min(3, mu.size))))
    return x, random_restricted(rng, x, nu)


class TestPricing:
    # Beale's example (1955), on which Dantzig's rule with lowest-index ties
    # cycles through six degenerate bases; the optimum is -5/4
    BEALE = lp.LinearProgram([-0.75, 20.0, -0.5, 6.0],
                             g_ub=[[0.25, -8.0, -1.0, 9.0],
                                   [0.5, -12.0, -0.5, 3.0],
                                   [0.0, 0.0, 1.0, 0.0]],
                             h_ub=[0.0, 0.0, 1.0])

    def test_dantzig_alone_cycles(self, monkeypatch):
        monkeypatch.setattr(lp, "DEGENERATE_RUN", 10 ** 9)
        with pytest.raises(lp.LPError, match="iteration limit exceeded"):
            lp.solve(self.BEALE)

    def test_bland_fallback_ends_the_cycle(self):
        sol = lp.solve(self.BEALE)
        assert sol.status == lp.OPTIMAL
        assert solve_exact(self.BEALE) == (lp.OPTIMAL, -1.25)
        assert sol.objective_value == pytest.approx(-1.25, rel=1e-15)


class TestStartBasis:
    # minimize x0 + x1 + x2 subject to x0 + x1 + x2 = 1 and x0 + x2 <= cap;
    # standard-form columns x0, x1, x2 and the slack s0, where x2's column
    # repeats x0's
    @staticmethod
    def program(cap=2.0):
        return lp.LinearProgram([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [1.0],
                                [[1.0, 0.0, 1.0]], [cap])

    def test_extension_start_matches_phase_1(self):
        for i in range(40):
            x, t = generated_extension(10_000 + i)
            p = extension_lp(x, t)
            start = lp.solve(p, start=start_basis(x, t))
            cold = lp.solve(p)
            assert start.status == cold.status == lp.OPTIMAL
            assert start.objective_value == pytest.approx(
                cold.objective_value, rel=1e-12, abs=0.0)
            assert _objective_for_basis(p, start.basis) == pytest.approx(
                start.objective_value, rel=1e-12, abs=0.0)

    def test_phase_1_never_runs(self, monkeypatch):
        def no_phase_1(*args):
            raise AssertionError("phase 1 ran")

        monkeypatch.setattr(lp, "_phase_1", no_phase_1)
        x, t = generated_extension(10_000)
        assert lp.solve(extension_lp(x, t),
                        start=start_basis(x, t)).status == lp.OPTIMAL
        sol = lp.solve(self.program(), start=[0, 3])
        assert sol.objective_value == 1.0
        assert sol.basis == (0, 3)

    @pytest.mark.parametrize("start, message", [
        ([0], "a start basis names 2 distinct columns in 0..3"),
        ([0, 0], "a start basis names 2 distinct columns in 0..3"),
        ([0, 4], "a start basis names 2 distinct columns in 0..3"),
        ([0, 2], "start basis is singular"),
    ])
    def test_bad_basis_raises(self, start, message):
        with pytest.raises(lp.LPError, match=message):
            lp.solve(self.program(), start=start)

    def test_infeasible_basis_raises(self):
        # x0 = 1 leaves the slack of x0 <= 0.5 at -0.5
        with pytest.raises(lp.LPError,
                           match="start basis is not primal feasible"):
            lp.solve(self.program(cap=0.5), start=[0, 3])


class TestExitCheck:
    """The extension LP of rng_for(12336) (12 x 6 atoms, dim 3) with every
    K+ column ahead of every K- column: Bland's rule alone ends there at a
    vertex of objective 0.7207 whose residuals are far from zero, where the
    optimum is 0.8400."""

    @staticmethod
    def block_order():
        x, t = generated_extension(10_000 + 2336)
        p = extension_lp(x, t)
        perm = np.r_[0, np.arange(1, p.n_vars, 2), np.arange(2, p.n_vars, 2)]
        return p, lp.LinearProgram(p.c[perm], p.a_eq[:, perm], p.b_eq,
                                   p.g_ub[:, perm], p.h_ub)

    def test_block_order_reaches_the_optimum(self):
        pair, block = self.block_order()
        optimum = lp.solve(pair).objective_value
        assert optimum == pytest.approx(0.8400, abs=1e-4)
        sol = lp.solve(block)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(optimum, rel=1e-12)

    def test_wrong_vertex_raises(self, monkeypatch):
        # with no Dantzig pivots at all, the pivots are Bland's alone
        monkeypatch.setattr(lp, "DEGENERATE_RUN", 0)
        with pytest.raises(lp.LPError, match="residual .* at the final basis"):
            lp.solve(self.block_order()[1])


def _solution_digest(h, sol) -> None:
    h.update(sol.status.encode())
    for arr in (sol.primal, sol.dual):
        h.update(b"none" if arr is None else arr.tobytes())
    h.update(repr(sol.basis).encode())
    h.update(repr(sol.objective_value).encode())


class TestGoldenBytes:
    """Status, primal, dual, basis and objective are pinned byte for byte
    on seeded small programs of every random_small_lp shape and on seeded
    extension LPs solved from their start basis.  Both pins last moved when
    Dantzig's rule replaced Bland's as the pricing rule; every status and
    objective stayed the same up to rounding."""

    SMALL = (
        "f64cafe4330d77f51320997852a73013c28f4442dea008cfd868b22bb88b9a44")
    EXTENSION = (
        "135a67d43c3794f96c95d80f3d38b02e739241b2b5a8905f518f4ca33a294a38")

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
            _solution_digest(h, lp.solve(extension_lp(x, t),
                                         start=start_basis(x, t)))
        assert h.hexdigest() == self.EXTENSION
