import tracemalloc
import warnings

import numpy as np
import pytest

from l1lattice import (COMPLEX, REAL, FnFamily, KernelOperator, MeasureSpace,
                       SimpleFn, apply, check_grothendieck, d_norm, dominate,
                       eps_net_coeffs,
                       identity_operator, l1_norm, modulus, op_norm,
                       point_mass, preprune_count, proof_trace_complex,
                       proof_trace_real, zero_fn, zero_operator)
from l1lattice.decompose import _net_round
from l1lattice.operators import (INEQ_TOL, ProofTrace, _eq_step, _le_step,
                                 _pointwise_le, _triangle_steps, apply_matrix)
from l1lattice.generate import (random_family, random_fn, random_operator,
                                random_space, rng_for)
from test_decompose import _dense_decomposition


def unit_space(n, prefix="a"):
    return MeasureSpace(tuple(f"{prefix}{i}" for i in range(n)), (1.0,) * n)


class TestApply:
    def test_identity(self):
        rng = rng_for(1)
        sp = random_space(rng, 4)
        f = random_fn(rng, sp)
        assert np.allclose(apply(identity_operator(sp), f).values, f.values,
                           rtol=0, atol=1e-14)

    def test_zero_kernel(self):
        sp = unit_space(3)
        image = apply(zero_operator(sp, sp), SimpleFn(sp, REAL, [1.0, 2.0, 3.0]))
        assert np.all(image.values == 0.0)

    def test_hand_matrix_vector(self):
        # hand: rows (1+2, 3-4) = (3, -1) with unit weights
        sp = unit_space(2)
        t = KernelOperator(sp, sp, [[1.0, 2.0], [3.0, -4.0]], REAL)
        out = apply(t, SimpleFn(sp, REAL, [1.0, 1.0]))
        assert np.array_equal(out.values, [3.0, -1.0])

    def test_space_mismatch_rejected(self):
        t = identity_operator(unit_space(2))
        with pytest.raises(ValueError):
            apply(t, SimpleFn(unit_space(3), REAL, [1.0, 2.0, 3.0]))

    def test_real_operator_rejects_complex_argument(self):
        sp = unit_space(2)
        t = identity_operator(sp)
        with pytest.raises(ValueError):
            apply(t, SimpleFn(sp, COMPLEX, [1.0j, 0.0]))

    def test_linear(self):
        rng = rng_for(2)
        dom = random_space(rng, 4)
        cod = random_space(rng, 3, prefix="s")
        t = random_operator(rng, dom, cod)
        f, g = random_fn(rng, dom), random_fn(rng, dom)
        both = apply(t, SimpleFn(dom, REAL, 2.0 * f.values - 0.5 * g.values))
        assert np.allclose(both.values,
                           2.0 * apply(t, f).values - 0.5 * apply(t, g).values,
                           rtol=1e-12, atol=1e-9)


class TestOpNorm:
    def test_identity_is_one(self):
        rng = rng_for(3)
        assert op_norm(identity_operator(random_space(rng, 5))) == pytest.approx(1.0)

    def test_hand_column_sums(self):
        # hand: weighted column sums are 4 and 6
        sp = unit_space(2)
        t = KernelOperator(sp, sp, [[1.0, 2.0], [3.0, -4.0]], REAL)
        assert op_norm(t) == 6.0

    def test_zero(self):
        sp = unit_space(2)
        assert op_norm(zero_operator(sp, sp)) == 0.0

    @pytest.mark.parametrize("mode", [REAL, COMPLEX])
    def test_overflowing_column_sum_refused(self, mode):
        # finite entries whose weighted column sum overflows: refused with
        # no RuntimeWarning, while the largest finite sum is kept
        sp = unit_space(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^kernel column 1 \(atom a1\) "
                               r"has nu-weighted \|K\| sum inf; the norm must be "
                               r"finite$"):
                KernelOperator(sp, sp, [[1.0, 1.7e308], [1.0, 1.7e308]], mode)
            t = KernelOperator(sp, sp, [[1.0, 8.5e307], [1.0, 8.5e307]], mode)
        assert op_norm(t) == 1.7e308

    def test_supremum_attained_at_point_masses(self):
        # oracle: brute force over the extreme points +-delta_j / mu_j
        rng = rng_for(4)
        for _ in range(20):
            dom = random_space(rng, int(rng.integers(1, 6)))
            cod = random_space(rng, int(rng.integers(1, 6)), prefix="s")
            t = random_operator(rng, dom, cod)
            brute = max(l1_norm(apply(t, point_mass(dom, j)))
                        for j in range(dom.size))
            assert op_norm(t) == pytest.approx(brute, rel=1e-13)
            for _ in range(200):
                f = random_fn(rng, dom)
                assert l1_norm(apply(t, f)) <= op_norm(t) * l1_norm(f) + 1e-9

    def test_never_beaten_by_random_functions_bulk(self):
        rng = rng_for(44)
        dom = random_space(rng, 6)
        cod = random_space(rng, 5, prefix="s")
        t = random_operator(rng, dom, cod)
        funcs = rng.uniform(-10.0, 10.0, size=(100_000, dom.size))
        images = apply_matrix(t, funcs)
        image_norms = np.abs(images) @ cod.weight_array
        func_norms = np.abs(funcs) @ dom.weight_array
        assert np.all(image_norms <= op_norm(t) * func_norms + 1e-9)


class TestModulus:
    def test_entrywise_absolute(self):
        sp = unit_space(2)
        t = KernelOperator(sp, sp, [[-1.0, 0.0], [0.0, 1.0]], REAL)
        assert np.array_equal(modulus(t).kernel, [[1.0, 0.0], [0.0, 1.0]])

    def test_complex_entry(self):
        sp = unit_space(1)
        t = KernelOperator(sp, sp, [[1.0j]], COMPLEX)
        assert np.array_equal(modulus(t).kernel, [[1.0]])

    def test_norm_preserved_bit_exactly(self):
        rng = rng_for(5)
        for i in range(200):
            mode = REAL if i % 2 == 0 else COMPLEX
            dom = random_space(rng, int(rng.integers(1, 7)))
            cod = random_space(rng, int(rng.integers(1, 7)), prefix="s")
            t = random_operator(rng, dom, cod, mode)
            assert op_norm(modulus(t)) == op_norm(t)

    def test_pointwise_domination(self):
        # oracle for |Tf| <= |T||f| on random functions
        rng = rng_for(6)
        for i in range(100):
            mode = REAL if i % 2 == 0 else COMPLEX
            dom = random_space(rng, int(rng.integers(1, 7)))
            cod = random_space(rng, int(rng.integers(1, 7)), prefix="s")
            t = random_operator(rng, dom, cod, mode)
            abs_t = modulus(t)
            for _ in range(10):
                f = random_fn(rng, dom, mode)
                lhs = np.abs(apply(t, f).values)
                rhs = apply(abs_t, SimpleFn(dom, REAL, np.abs(f.values))).values
                assert np.all(lhs <= rhs + 1e-10)


class TestCheckGrothendieck:
    def test_identity_equality(self):
        rng = rng_for(7)
        sp = random_space(rng, 5)
        fs = random_family(rng, sp, 3)
        report = check_grothendieck(identity_operator(sp), fs)
        assert report.holds and report.tight
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12)

    def test_zero_operator(self):
        sp = unit_space(3)
        fs = FnFamily(sp, REAL, [[1.0, -2.0, 3.0]])
        report = check_grothendieck(zero_operator(sp, sp), fs)
        assert report.lhs == 0.0 and report.holds
        assert report.ratio is None

    def test_random_instances_hold(self):
        rng = rng_for(8)
        for mode in (REAL, COMPLEX):
            for _ in range(150):
                dom = random_space(rng, int(rng.integers(1, 8)))
                cod = random_space(rng, int(rng.integers(1, 8)), prefix="s")
                t = random_operator(rng, dom, cod, mode)
                fs = random_family(rng, dom, int(rng.integers(1, 6)), mode)
                assert check_grothendieck(t, fs).holds


class TestDominate:
    def test_hand_example(self):
        # hand: |T|(1,1) = (1, 2), mass 3 <= ||T|| * mass(phi) = 2 * 2
        sp = unit_space(2)
        t = KernelOperator(sp, sp, [[1.0, 0.0], [0.0, -2.0]], REAL)
        phi = SimpleFn(sp, REAL, [1.0, 1.0])
        psi = dominate(t, phi)
        assert np.array_equal(psi.values, [1.0, 2.0])
        assert l1_norm(psi) == 3.0 <= op_norm(t) * l1_norm(phi)

    def test_zero_phi(self):
        sp = unit_space(2)
        t = KernelOperator(sp, sp, [[1.0, 2.0], [3.0, 4.0]], REAL)
        assert np.all(dominate(t, zero_fn(sp)).values == 0.0)

    def test_identity_returns_phi(self):
        rng = rng_for(9)
        sp = random_space(rng, 4)
        phi = SimpleFn(sp, REAL, np.abs(random_fn(rng, sp).values))
        assert np.allclose(dominate(identity_operator(sp), phi).values,
                           phi.values, rtol=0, atol=1e-14)

    def test_negative_phi_rejected(self):
        sp = unit_space(2)
        t = identity_operator(sp)
        with pytest.raises(ValueError):
            dominate(t, SimpleFn(sp, REAL, [1.0, -0.1]))

    def test_dominates_whole_order_interval(self):
        rng = rng_for(10)
        for _ in range(50):
            dom = random_space(rng, int(rng.integers(1, 7)))
            cod = random_space(rng, int(rng.integers(1, 7)), prefix="s")
            t = random_operator(rng, dom, cod)
            phi = SimpleFn(dom, REAL, np.abs(random_fn(rng, dom).values))
            psi = dominate(t, phi)
            assert l1_norm(psi) <= op_norm(t) * l1_norm(phi) * (1.0 + 1e-12)
            for _ in range(20):
                f = SimpleFn(dom, REAL,
                             phi.values * rng.uniform(-1.0, 1.0, dom.size))
                assert np.all(np.abs(apply(t, f).values) <= psi.values + 1e-10)


class TestProofTraceReal:
    def test_identity_all_steps_pass(self):
        rng = rng_for(11)
        sp = random_space(rng, 4)
        fs = random_family(rng, sp, 2)
        trace = proof_trace_real(identity_operator(sp), fs)
        assert trace.all_passed

    def test_zero_operator_all_zero(self):
        sp = unit_space(3)
        fs = FnFamily(sp, REAL, [[1.0, -2.0, 0.5]])
        trace = proof_trace_real(zero_operator(sp, sp), fs)
        assert trace.all_passed
        assert trace.final_lhs == 0.0

    def test_random_instances(self):
        rng = rng_for(12)
        for _ in range(60):
            dom = random_space(rng, int(rng.integers(1, 7)))
            cod = random_space(rng, int(rng.integers(1, 7)), prefix="s")
            t = random_operator(rng, dom, cod)
            fs = random_family(rng, dom, 3)
            trace = proof_trace_real(t, fs)
            assert trace.all_passed, [s.to_json() for s in trace.steps
                                      if not s.passed]

    def test_complex_rejected(self):
        sp = unit_space(2)
        fs = FnFamily(sp, COMPLEX, [[1.0j, 0.0]])
        with pytest.raises(ValueError):
            proof_trace_real(KernelOperator(sp, sp, np.eye(2), COMPLEX), fs)

    def test_reproducible(self):
        rng = rng_for(45)
        dom = random_space(rng, 4)
        cod = random_space(rng, 3, prefix="s")
        t = random_operator(rng, dom, cod)
        fs = random_family(rng, dom, 2)
        assert (proof_trace_real(t, fs).to_json()
                == proof_trace_real(t, fs).to_json())


class TestProofTraceComplex:
    def test_real_family_reduces_to_exact_case(self):
        rng = rng_for(13)
        dom = random_space(rng, 5)
        cod = random_space(rng, 4, prefix="s")
        t = random_operator(rng, dom, cod)
        fs = random_family(rng, dom, 2)
        trace = proof_trace_complex(t, fs, 0.2)
        assert trace.all_passed
        residual_steps = [s for s in trace.steps if s.name.startswith("residual")]
        assert all(s.lhs == 0.0 for s in residual_steps)

    def test_random_complex_instances(self):
        rng = rng_for(14)
        for _ in range(40):
            dom = random_space(rng, int(rng.integers(1, 6)))
            cod = random_space(rng, int(rng.integers(1, 6)), prefix="s")
            t = random_operator(rng, dom, cod, COMPLEX)
            fs = random_family(rng, dom, 2, COMPLEX)
            for eps in (0.1, 0.01):
                trace = proof_trace_complex(t, fs, eps)
                assert trace.all_passed
                assert trace.final_rhs == pytest.approx(
                    (1.0 + 2 * eps) * op_norm(t) * d_norm(fs), rel=1e-12)

    def test_final_bound_decreases_with_eps(self):
        rng = rng_for(15)
        dom = random_space(rng, 5)
        cod = random_space(rng, 5, prefix="s")
        t = random_operator(rng, dom, cod, COMPLEX)
        fs = random_family(rng, dom, 3, COMPLEX)
        bounds = [proof_trace_complex(t, fs, eps).final_rhs
                  for eps in (0.1, 0.01, 0.001)]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[2] == pytest.approx(check_grothendieck(t, fs).rhs, rel=1e-2)

    def test_nonpositive_eps_rejected(self):
        sp = unit_space(2)
        fs = FnFamily(sp, COMPLEX, [[1.0j, 0.0]])
        with pytest.raises(ValueError):
            proof_trace_complex(KernelOperator(sp, sp, np.eye(2), COMPLEX), fs, 0.0)


# ---------------------------------------------------------------------------
# the dense traces, over every part and every (cell, part) row: the reference
# of the traces over the nonzero rows
# ---------------------------------------------------------------------------

def _dense_trace_real(t, fs, tol=INEQ_TOL):
    d = _dense_decomposition(fs, REAL)
    nu_w = t.codomain.weight_array
    mu_w = t.domain.weight_array
    t_parts = np.abs(apply_matrix(t, d.parts_matrix))
    bound = t_parts.sum(axis=0)
    t_family = np.abs(apply_matrix(t, fs.value_matrix))
    steps, int_max, int_bound = _triangle_steps(
        t, t_family, bound, "recombine then triangle inequality", tol)
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


def _dense_refinement(fs, eps):
    """Every (cell, part) row of the refinement, zero or not, by cell, then
    by part, and the (n, rows) coefficient columns of all of them."""
    d = _dense_decomposition(fs, COMPLEX)
    cells = eps_net_coeffs(fs, COMPLEX, eps).cells
    mask = np.zeros((len(cells), d.space.size))
    for c, g in enumerate(cells):
        mask[c, list(g)] = 1.0
    parts = (mask[:, None, :] * d.parts_matrix[None]).reshape(-1, d.space.size)
    rounded = _net_round(d.coeffs, eps)
    alphas = rounded[:, :, [g[0] for g in cells]].transpose(0, 2, 1)
    return parts, alphas.reshape(d.n, -1)


def _dense_trace_complex(t, fs, eps, tol=INEQ_TOL):
    parts, alphas = _dense_refinement(fs, eps)
    n = fs.size
    mu_w = t.domain.weight_array
    latmax = np.max(np.abs(fs.value_matrix), axis=0)
    values = fs.value_matrix.astype(np.complex128)
    residual = values - alphas @ parts.astype(np.complex128)
    t_parts = np.abs(apply_matrix(t, parts))
    t_resid = np.abs(apply_matrix(t, residual))
    t_family = np.abs(apply_matrix(t, values))
    bound = t_parts.sum(axis=0) + t_resid.sum(axis=0)
    steps = [_pointwise_le(
        f"residual bound p_{i + 1}",
        "rounded coefficients leave at most eps of the lattice max",
        np.abs(residual[i]), eps * latmax, t.domain.atoms, tol)
        for i in range(n)]
    chain, int_max, int_bound = _triangle_steps(
        t, t_family, bound,
        "recombine, then triangle inequality over parts and residuals", tol)
    steps += chain
    opn = op_norm(t)
    mass = float((parts @ mu_w).sum())
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


def assert_same_trace(got, want):
    """Same steps and verdicts; slacks within each step's own band; final
    sides to 1e-12 relative; a witness atom moves only on a step whose
    slack lies within its band."""
    assert len(got.steps) == len(want.steps)
    for g, w in zip(got.steps, want.steps):
        assert (g.name, g.rule, g.kind, g.passed) == (w.name, w.rule, w.kind,
                                                      w.passed)
        band = want.tolerance * (1.0 + abs(w.rhs))
        assert abs(g.slack - w.slack) <= band, (g, w)
        if g.witness_atom != w.witness_atom:
            assert abs(w.slack) <= band, (g, w)
    assert abs(got.final_lhs - want.final_lhs) <= 1e-12 * abs(want.final_lhs)
    assert abs(got.final_rhs - want.final_rhs) <= 1e-12 * abs(want.final_rhs)


def _trace_cases(seed, family_modes, operator_modes):
    """Seeded (operator, family) pairs: n = 1..5 on 1..30 atoms, each family
    mode with each operator kind that acts on it ("zero" is the zero
    operator of the family's mode)."""
    rng = rng_for(seed)
    for n in range(1, 6):
        for _ in range(10):
            dom = random_space(rng, int(rng.integers(1, 31)))
            cod = random_space(rng, int(rng.integers(1, 8)), prefix="s")
            for fam_mode in family_modes:
                fs = random_family(rng, dom, n, fam_mode)
                for op_mode in operator_modes:
                    if op_mode == "zero":
                        yield zero_operator(dom, cod, fam_mode), fs
                    elif (op_mode, fam_mode) != (REAL, COMPLEX):
                        yield random_operator(rng, dom, cod, op_mode), fs


class TestTracesMatchDense:
    def test_real(self):
        for t, fs in _trace_cases(46, (REAL,), (REAL, "zero")):
            assert_same_trace(proof_trace_real(t, fs), _dense_trace_real(t, fs))

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_complex(self, eps):
        for t, fs in _trace_cases(47, (REAL, COMPLEX), (REAL, COMPLEX, "zero")):
            assert_same_trace(proof_trace_complex(t, fs, eps),
                              _dense_trace_complex(t, fs, eps))

    def test_complex_never_builds_the_dense_refinement(self):
        rng = rng_for(48)
        dom = random_space(rng, 50)
        t = random_operator(rng, dom, random_space(rng, 50, prefix="s"), COMPLEX)
        fs = random_family(rng, dom, 5, COMPLEX)
        cd = eps_net_coeffs(fs, COMPLEX, 0.1)
        # the float64 (cell, part) rows of the dense refinement
        dense_bytes = len(cd.cells) * preprune_count(5, COMPLEX) * dom.size * 8
        tracemalloc.start()
        try:
            proof_trace_complex(t, fs, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes
