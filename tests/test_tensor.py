import numpy as np
import pytest

from l1lattice import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn,
                       attain_max_functional, canonical_rep,
                       check_grothendieck, d_norm, identity_operator, l1_norm,
                       pair_operator_tensor, proof_trace_tensor, tensor_norm,
                       verify_min_representation, zero_operator)
from l1lattice.acceptance import _recombined_reps
from l1lattice.generate import (random_family, random_operator, random_space,
                                random_tensor, rng_for)
from l1lattice.tensor import TensorElement, rebuild_from_canonical


def unit_space(n, prefix="a"):
    return MeasureSpace(tuple(f"{prefix}{i}" for i in range(n)), (1.0,) * n)


def tensor_norm_oracle(g):
    """Independent evaluation: plain loops over atom pairs."""
    total = 0.0
    for wi, w in enumerate(g.mu_space.weights):
        best = 0.0
        for s in range(g.nu_space.size):
            val = sum(f[wi] * p[s] for f, p in zip(g.f_matrix, g.phi_matrix))
            best = max(best, abs(val))
        total += w * best
    return total


class TestTensorNorm:
    def test_rank_one_with_constant(self):
        mu, nu = unit_space(2), unit_space(3, "s")
        g = TensorElement(mu, nu, REAL, [[1.0, -1.0]], [[1.0, 1.0, 1.0]])
        assert tensor_norm(g) == 2.0

    def test_cancellation(self):
        mu, nu = unit_space(2), unit_space(2, "s")
        f = SimpleFn(mu, REAL, [1.0, 2.0])
        minus_f = SimpleFn(mu, REAL, [-1.0, -2.0])
        phi = SimpleFn(nu, REAL, [3.0, -1.0])
        g = TensorElement(mu, nu, REAL, [f.values, minus_f.values],
                          [phi.values, phi.values])
        assert tensor_norm(g) == 0.0

    def test_disjoint_cells_hand_value(self):
        # hand: integral of max(|x1|, |x2|) over unit weights
        mu, nu = unit_space(2), unit_space(2, "s")
        x1 = SimpleFn(mu, REAL, [1.0, -4.0])
        x2 = SimpleFn(mu, REAL, [3.0, 2.0])
        g = TensorElement(mu, nu, REAL, [x1.values, x2.values],
                          [[1.0, 0.0], [0.0, 1.0]])
        assert tensor_norm(g) == 3.0 + 4.0

    def test_matches_direct_evaluation_oracle(self):
        rng = rng_for(1)
        for i in range(60):
            mode = REAL if i % 2 == 0 else COMPLEX
            mu = random_space(rng, int(rng.integers(1, 6)))
            nu = random_space(rng, int(rng.integers(1, 6)), prefix="s")
            g = random_tensor(rng, mu, nu, int(rng.integers(1, 5)), mode)
            assert tensor_norm(g) == pytest.approx(tensor_norm_oracle(g),
                                                   rel=1e-12, abs=1e-12)


class TestCanonicalRep:
    def test_constant_phi_single_cell(self):
        mu, nu = unit_space(2), unit_space(3, "s")
        f = SimpleFn(mu, REAL, [1.0, -2.0])
        g = TensorElement(mu, nu, REAL, [f.values], [[1.0, 1.0, 1.0]])
        rep = canonical_rep(g)
        assert rep.n_cells == 1
        assert np.array_equal(rep.z[0], f.values)

    def test_indicator_phis_refine(self):
        mu, nu = unit_space(1), unit_space(3, "s")
        g = TensorElement(mu, nu, REAL, [[1.0], [2.0]],
                          [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        rep = canonical_rep(g)
        assert rep.cells == ((0,), (1,), (2,))

    def test_round_trip_evaluation(self):
        rng = rng_for(2)
        for i in range(40):
            mode = REAL if i % 2 == 0 else COMPLEX
            mu = random_space(rng, int(rng.integers(1, 6)))
            nu = random_space(rng, int(rng.integers(1, 6)), prefix="s")
            g = random_tensor(rng, mu, nu, int(rng.integers(1, 4)), mode)
            rebuilt = rebuild_from_canonical(g, canonical_rep(g))
            dev = np.max(np.abs(rebuilt.evaluation - g.evaluation))
            assert dev <= 1e-12 * (1.0 + np.max(np.abs(g.evaluation)))

    def test_z_in_span_of_left_factors(self):
        rng = rng_for(3)
        mu = random_space(rng, 4)
        nu = random_space(rng, 5, prefix="s")
        g = random_tensor(rng, mu, nu, 2, REAL)
        rep = canonical_rep(g)
        for cell, z in zip(rep.cells, rep.z):
            coeffs = g.phi_matrix[:, cell[0]]
            assert np.allclose(z, coeffs @ g.f_matrix, rtol=0, atol=1e-12)


class TestVerifyMinRepresentation:
    def test_canonical_attains_exactly(self):
        rng = rng_for(4)
        for _ in range(30):
            mu = random_space(rng, int(rng.integers(1, 6)))
            nu = random_space(rng, int(rng.integers(1, 6)), prefix="s")
            g = random_tensor(rng, mu, nu, int(rng.integers(1, 4)), REAL)
            report = verify_min_representation(g, [])
            assert report.passed
            assert report.canonical_product == pytest.approx(report.norm,
                                                             rel=1e-12)

    def test_redundant_split_gives_upper_bound(self):
        mu, nu = unit_space(2), unit_space(2, "s")
        f = SimpleFn(mu, REAL, [1.0, -2.0])
        phi = SimpleFn(nu, REAL, [1.0, 0.5])
        g = TensorElement(mu, nu, REAL, [f.values], [phi.values])
        half = SimpleFn(nu, REAL, [0.5, 0.25])
        split = TensorElement(mu, nu, REAL, [f.values, f.values],
                              [half.values, half.values])
        report = verify_min_representation(g, [split])
        assert report.passed
        assert report.products[0] >= report.norm - 1e-9

    def test_random_recombinations_never_beat_norm(self):
        rng = rng_for(5)
        for i in range(20):
            mode = REAL if i % 2 == 0 else COMPLEX
            mu = random_space(rng, int(rng.integers(1, 5)))
            nu = random_space(rng, int(rng.integers(1, 5)), prefix="s")
            g = random_tensor(rng, mu, nu, int(rng.integers(1, 4)), mode)
            reps = _recombined_reps(rng, g, 50)
            assert verify_min_representation(g, reps).passed

    def test_mismatched_representation_rejected(self):
        mu, nu = unit_space(2), unit_space(2, "s")
        f = SimpleFn(mu, REAL, [1.0, 2.0])
        phi = SimpleFn(nu, REAL, [1.0, 0.0])
        g = TensorElement(mu, nu, REAL, [f.values], [phi.values])
        other = TensorElement(mu, nu, REAL, [[1.0, 2.5]], [phi.values])
        with pytest.raises(ValueError, match="deviation"):
            verify_min_representation(g, [other])


class TestPairing:
    def test_identity_hand_value(self):
        mu = unit_space(2)
        g = TensorElement(mu, mu, REAL, [[1.0, 1.0]], [[1.0, 1.0]])
        assert pair_operator_tensor(identity_operator(mu), g) == 2.0

    def test_identity_integral_of_product(self):
        rng = rng_for(6)
        sp = random_space(rng, 4)
        f = SimpleFn(sp, REAL, rng.uniform(-2, 2, 4))
        phi = SimpleFn(sp, REAL, rng.uniform(-2, 2, 4))
        g = TensorElement(sp, sp, REAL, [f.values], [phi.values])
        expected = float(np.sum(f.values * phi.values * sp.weight_array))
        assert pair_operator_tensor(identity_operator(sp), g) == pytest.approx(
            expected, rel=1e-12)

    def test_bilinear(self):
        rng = rng_for(7)
        mu = random_space(rng, 3)
        nu = random_space(rng, 4, prefix="s")
        t = random_operator(rng, mu, nu)
        g1 = random_tensor(rng, mu, nu, 2, REAL)
        g2 = random_tensor(rng, mu, nu, 2, REAL)
        combined = TensorElement(mu, nu, REAL,
                                 np.vstack([g1.f_matrix, g2.f_matrix]),
                                 np.vstack([g1.phi_matrix, g2.phi_matrix]))
        assert pair_operator_tensor(t, combined) == pytest.approx(
            pair_operator_tensor(t, g1) + pair_operator_tensor(t, g2), rel=1e-10)

    def test_space_mismatch_rejected(self):
        mu, nu = unit_space(2), unit_space(3, "s")
        g = TensorElement(mu, nu, REAL, [[1.0, 0.0]], [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            pair_operator_tensor(identity_operator(mu), g)


class TestAttainMaxFunctional:
    def test_single_function_signs(self):
        nu = unit_space(2)
        hs = FnFamily(nu, REAL, [[2.0, -3.0]])
        phis = attain_max_functional(hs)
        assert np.array_equal(phis[0], [1.0, -1.0])
        pairing = float(np.sum(hs.value_matrix[0] * phis[0]))
        assert pairing == 5.0 == l1_norm(SimpleFn(nu, REAL, [2.0, 3.0]))

    def test_per_atom_argmax(self):
        nu = unit_space(2)
        hs = FnFamily(nu, REAL, [[1.0, 0.0], [0.0, 2.0]])
        phis = attain_max_functional(hs)
        assert np.array_equal(phis[0], [1.0, 0.0])
        assert np.array_equal(phis[1], [0.0, 1.0])

    def test_all_zero_family_keeps_unit_sup(self):
        nu = unit_space(3)
        hs = FnFamily(nu, REAL, np.zeros((2, 3)))
        phis = attain_max_functional(hs)
        sup = np.max(np.sum(np.abs(phis), axis=0))
        assert sup == 1.0

    def test_attainment_identity_random(self):
        rng = rng_for(8)
        for mode in (REAL, COMPLEX):
            for _ in range(30):
                nu = random_space(rng, int(rng.integers(1, 7)))
                hs = random_family(rng, nu, int(rng.integers(1, 4)), mode)
                phis = attain_max_functional(hs)
                pairing = sum(
                    np.sum(h * p * nu.weight_array)
                    for h, p in zip(hs.value_matrix, phis))
                assert abs(pairing) == pytest.approx(d_norm(hs), rel=1e-12)
                sup = np.max(np.sum(np.abs(phis), axis=0))
                assert sup == pytest.approx(1.0, abs=1e-12)


class TestProofTraceTensor:
    def test_identity_collapses_with_equality(self):
        rng = rng_for(9)
        sp = random_space(rng, 4)
        fs = random_family(rng, sp, 3)
        trace = proof_trace_tensor(identity_operator(sp), fs)
        assert trace.all_passed
        assert trace.final_lhs == pytest.approx(trace.final_rhs, rel=1e-9)

    def test_zero_operator(self):
        sp = unit_space(3)
        fs = FnFamily(sp, REAL, [[1.0, -1.0, 2.0]])
        trace = proof_trace_tensor(zero_operator(sp, sp), fs)
        assert trace.all_passed
        assert trace.final_lhs == 0.0

    def test_final_bound_matches_inequality_report(self):
        rng = rng_for(10)
        for i in range(40):
            mode = REAL if i % 2 == 0 else COMPLEX
            dom = random_space(rng, int(rng.integers(1, 6)))
            cod = random_space(rng, int(rng.integers(1, 6)), prefix="s")
            t = random_operator(rng, dom, cod, mode)
            fs = random_family(rng, dom, 3, mode)
            trace = proof_trace_tensor(t, fs)
            assert trace.all_passed
            rhs = check_grothendieck(t, fs).rhs
            assert abs(trace.final_rhs - rhs) <= 1e-9 * (1.0 + abs(rhs))
