import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1lattice import (REAL, MeasureSpace, RestrictedOperator, SimpleFn,
                       Subspace, alpha_via_lp, apply, check_condition_b,
                       l1_norm, op_norm,
                       pair_operator_tensor, point_mass, tensor_norm,
                       verify_extension_theorem)
from l1lattice import cli, extension, jsonio, lp
from l1lattice.extension import (CERTIFICATE_TOL, CONDITION_B_CHUNK,
                                  CONDITION_B_MAX_FAMILY, CONDITION_D_TRIALS,
                                  ConditionBReport, certificate_failure,
                                  certificate_family_coeffs, extension_lp)
from l1lattice.generate import (generate_instance, random_restricted,
                                random_space, random_subspace, rng_for)
from l1lattice.operators import INEQ_TOL
from l1lattice.oracle import solve_exact


def unit_space(n, prefix="a"):
    return MeasureSpace(tuple(f"{prefix}{i}" for i in range(n)), (1.0,) * n)


class TestSubspace:
    def test_dependent_basis_rejected(self):
        sp = unit_space(3)
        with pytest.raises(ValueError):
            Subspace(sp, [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])

    def test_all_zero_basis_rejected_without_warning(self):
        sp = MeasureSpace(("a", "b"), (1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="basis elements are all zero"):
                Subspace(sp, [[0.0, 0.0]])

    def test_more_vectors_than_atoms_rejected(self):
        sp = unit_space(2)
        with pytest.raises(ValueError):
            Subspace(sp, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_image_count_checked(self):
        sp = unit_space(2)
        x = Subspace(sp, [[1.0, 0.0]])
        with pytest.raises(ValueError):
            RestrictedOperator(x, sp, [[1.0, 0.0], [0.0, 1.0]])


class TestAlphaViaLP:
    def test_diagonal_span_identity_image(self):
        # alpha = 1: the ratio ||Tx||/||x|| = 1 forces it, the identity attains it
        mu = unit_space(2)
        x = Subspace(mu, [[1.0, 1.0]])
        t = RestrictedOperator(x, mu, [[1.0, 1.0]])
        res = alpha_via_lp(x, t)
        assert res.alpha == pytest.approx(1.0, abs=1e-10)
        assert res.certificate_ratio >= res.alpha * (1.0 - 1e-6)

    def test_zero_operator(self):
        mu = unit_space(3)
        nu = unit_space(2, "s")
        x = Subspace(mu, [[1.0, 2.0, 3.0]])
        t = RestrictedOperator(x, nu, np.zeros((1, nu.size)))
        res = alpha_via_lp(x, t)
        assert res.alpha == 0.0
        assert np.all(res.extension.kernel == 0.0)
        assert res.certificate is None

    def test_rank_one_closed_form(self):
        # dim X = 1: every family ratio is ||Tb|| / ||b||, so alpha equals it
        rng = rng_for(1)
        for _ in range(15):
            mu = random_space(rng, int(rng.integers(2, 7)))
            nu = random_space(rng, int(rng.integers(2, 7)), prefix="s")
            x = random_subspace(rng, mu, 1)
            t = random_restricted(rng, x, nu)
            res = alpha_via_lp(x, t)
            expect = (l1_norm(SimpleFn(nu, REAL, t.image_matrix[0]))
                      / l1_norm(SimpleFn(mu, REAL, x.basis_matrix[0])))
            assert res.alpha == pytest.approx(expect, rel=1e-9)

    def test_indicator_span_rank_one_map(self):
        mu = unit_space(4)
        nu = unit_space(3, "s")
        indicator = SimpleFn(mu, REAL, [1.0, 1.0, 0.0, 0.0])
        image = SimpleFn(nu, REAL, [2.0, -1.0, 0.5])
        x = Subspace(mu, [indicator.values])
        t = RestrictedOperator(x, nu, [image.values])
        res = alpha_via_lp(x, t)
        assert res.alpha == pytest.approx(l1_norm(image) / l1_norm(indicator),
                                          rel=1e-9)

    def test_whole_space_unique_extension(self):
        rng = rng_for(2)
        mu = random_space(rng, 4)
        nu = random_space(rng, 3, prefix="s")
        x = Subspace(mu, [point_mass(mu, j).values for j in range(4)])
        t = random_restricted(rng, x, nu)
        res = alpha_via_lp(x, t)
        # the kernel is pinned: column j equals the j-th image
        expected = t.image_matrix.T
        assert np.allclose(res.extension.kernel, expected, rtol=0, atol=1e-9)
        assert res.alpha == op_norm(res.extension)

    def test_extension_restricts_to_t(self):
        rng = rng_for(3)
        for _ in range(10):
            mu = random_space(rng, int(rng.integers(2, 7)))
            nu = random_space(rng, int(rng.integers(2, 7)), prefix="s")
            x = random_subspace(rng, mu, int(rng.integers(1, 1 + min(3, mu.size))))
            t = random_restricted(rng, x, nu)
            res = alpha_via_lp(x, t)
            assert res.lp_objective == pytest.approx(res.alpha, rel=1e-9, abs=1e-9)
            for b, y in zip(x.basis_matrix, t.image_matrix):
                image = apply(res.extension, SimpleFn(mu, REAL, b)).values
                residual = l1_norm(SimpleFn(nu, REAL, image - y))
                assert residual <= 1e-8 * (1.0 + l1_norm(SimpleFn(nu, REAL, y)))

    @pytest.mark.parametrize("seed", [82, 229])
    def test_zero_operator_on_twelve_atoms(self, seed):
        # phase 1 once raised "phase-1 objective unbounded" on these
        rng = rng_for(seed)
        mu = random_space(rng, 12)
        x = random_subspace(rng, mu, 3)
        nu = random_space(rng, 12, prefix="s")
        res = alpha_via_lp(x, RestrictedOperator(x, nu, np.zeros((3, 12))))
        assert res.alpha == 0.0
        assert not np.any(res.extension.kernel)
        assert res.certificate is None

    def test_ambient_cap_enforced(self):
        sp = unit_space(33)
        x = Subspace(sp, np.ones((1, 33)))
        t = RestrictedOperator(x, sp, np.ones((1, 33)))
        with pytest.raises(ValueError):
            alpha_via_lp(x, t)


def scaled_weights(x, t, mu_scale=1.0, nu_scale=1.0, image_scale=1.0):
    """The instance with its mu weights, nu weights and images scaled."""
    mu = MeasureSpace(x.ambient.atoms,
                      tuple(w * mu_scale for w in x.ambient.weights))
    nu = MeasureSpace(t.codomain.atoms,
                      tuple(w * nu_scale for w in t.codomain.weights))
    xs = Subspace(mu, x.basis_matrix)
    return xs, RestrictedOperator(xs, nu, t.image_matrix * image_scale)


class TestScaledInstances:
    """The 40 instances of rng_for(1000 + s): 6 mu atoms, 5 nu atoms, dim 2.
    Scaling the nu weights by c scales alpha by c, scaling the mu weights
    by c scales it by 1/c, and scaling the images scales it by c.  Phase 1
    once failed on every one of them at nu * 2^40 and mu * 2^-40, and an
    absolute tie tolerance in the ratio test gave a wrong alpha on every one
    at images * 2^-60."""

    @staticmethod
    def instances():
        for s in range(40):
            rng = rng_for(1000 + s)
            mu = random_space(rng, 6)
            nu = random_space(rng, 5, prefix="s")
            x = random_subspace(rng, mu, 2)
            yield x, random_restricted(rng, x, nu)

    @pytest.mark.parametrize("scales, factor", [
        (dict(nu_scale=2.0 ** 40), 2.0 ** 40),
        (dict(mu_scale=2.0 ** -40), 2.0 ** 40),
        (dict(image_scale=2.0 ** 60), 2.0 ** 60),
        (dict(image_scale=2.0 ** -60), 2.0 ** -60),
    ])
    def test_alpha_scales(self, scales, factor):
        for x, t in self.instances():
            base = alpha_via_lp(x, t).alpha
            res = alpha_via_lp(*scaled_weights(x, t, **scales))
            assert res.alpha == pytest.approx(base * factor, rel=1e-14, abs=0.0)
            assert certificate_failure(res) is None
            if "image_scale" in scales:
                assert res.alpha == base * factor

    def test_tiny_nu_weights_never_pass_a_wrong_alpha(self):
        # the mass-row entries of about 1e-12 sit below the absolute pivot
        # tolerance, so the LP may stop short; the certificate must say so
        for x, t in self.instances():
            base = alpha_via_lp(x, t).alpha
            res = alpha_via_lp(*scaled_weights(x, t, nu_scale=2.0 ** -40))
            right = res.alpha == pytest.approx(base * 2.0 ** -40, rel=1e-12)
            assert right or certificate_failure(res) is not None


class TestDualCertificate:
    def test_ratio_reaches_alpha(self):
        rng = rng_for(4)
        for _ in range(15):
            mu = random_space(rng, 5)
            nu = random_space(rng, int(rng.integers(2, 6)), prefix="s")
            x = random_subspace(rng, mu, 2)
            t = random_restricted(rng, x, nu)
            res = alpha_via_lp(x, t)
            g = res.certificate
            ratio = abs(pair_operator_tensor(res.extension, g)) / tensor_norm(g)
            assert ratio >= res.alpha * (1.0 - 1e-6)

    def test_whole_space_ratio_equals_op_norm(self):
        rng = rng_for(5)
        mu = random_space(rng, 3)
        nu = random_space(rng, 3, prefix="s")
        x = Subspace(mu, [point_mass(mu, j).values for j in range(3)])
        t = random_restricted(rng, x, nu)
        res = alpha_via_lp(x, t)
        assert res.certificate_ratio == pytest.approx(op_norm(res.extension),
                                                      rel=1e-6)

    def test_zero_alpha_rejected(self):
        mu = unit_space(2)
        nu = unit_space(2, "s")
        x = Subspace(mu, [[1.0, 0.0]])
        t = RestrictedOperator(x, nu, np.zeros((1, nu.size)))
        res = alpha_via_lp(x, t)
        assert res.certificate is None

    def test_certificate_left_factors_span_x(self):
        rng = rng_for(6)
        mu = random_space(rng, 4)
        nu = random_space(rng, 4, prefix="s")
        x = random_subspace(rng, mu, 2)
        t = random_restricted(rng, x, nu)
        res = alpha_via_lp(x, t)
        assert np.array_equal(res.certificate.f_matrix, x.basis_matrix)


def reference_condition_b(x, t, alpha, trials, seed, extra_coeffs=()):
    """check_condition_b with each side evaluated by its own stacked product
    and the family maximum taken by np.max over the member axis."""
    mu_w, nu_w = x.ambient.weight_array, t.codomain.weight_array

    def ratios_of(coeffs):
        num = np.atleast_1d(
            np.max(np.abs(coeffs @ t.image_matrix), axis=-2) @ nu_w)
        den = np.atleast_1d(
            np.max(np.abs(coeffs @ x.basis_matrix), axis=-2) @ mu_w)
        out = np.zeros(num.shape)
        nz = den > 0.0
        out[nz] = num[nz] / den[nz]
        return out

    rng = np.random.default_rng(np.uint64(seed))
    sizes = rng.integers(1, CONDITION_B_MAX_FAMILY + 1, size=trials)
    ratios = []
    for n in range(1, CONDITION_B_MAX_FAMILY + 1):
        count = int(np.sum(sizes == n))
        for start in range(0, count, CONDITION_B_CHUNK):
            ratios.append(ratios_of(rng.standard_normal(
                (min(CONDITION_B_CHUNK, count - start), n, x.dim))))
    ratios += [ratios_of(coeffs) for coeffs in extra_coeffs]
    all_ratios = np.concatenate([np.zeros(0), *ratios])
    violations = int(np.sum(all_ratios > alpha * (1.0 + INEQ_TOL)))
    return ConditionBReport(float(np.max(all_ratios, initial=0.0)),
                            int(all_ratios.size), violations, violations == 0,
                            INEQ_TOL)


def scaled_instance(x, t, basis_scale, image_scale):
    xs = Subspace(x.ambient, x.basis_matrix * basis_scale)
    return xs, RestrictedOperator(xs, t.codomain, t.image_matrix * image_scale)


class TestConditionB:
    def test_sampled_ratios_below_alpha(self):
        rng = rng_for(7)
        mu = random_space(rng, 4)
        nu = random_space(rng, 4, prefix="s")
        x = random_subspace(rng, mu, 2)
        t = random_restricted(rng, x, nu)
        res = alpha_via_lp(x, t)
        report = check_condition_b(x, t, res.alpha, trials=2000, seed=11)
        assert report.passed
        assert report.max_ratio <= res.alpha * (1.0 + 1e-9)

    def test_certificate_family_attains_alpha(self):
        rng = rng_for(8)
        for _ in range(10):
            mu = random_space(rng, int(rng.integers(2, 7)))
            nu = random_space(rng, int(rng.integers(2, 7)), prefix="s")
            x = random_subspace(rng, mu, int(rng.integers(1, 1 + min(3, mu.size))))
            t = random_restricted(rng, x, nu)
            res = alpha_via_lp(x, t)
            coeffs = certificate_family_coeffs(res.certificate)
            report = check_condition_b(x, t, res.alpha, trials=100, seed=12,
                                       extra_coeffs=(coeffs,))
            assert report.passed
            assert report.max_ratio == pytest.approx(res.alpha, rel=1e-9)

    def test_single_member_families_are_norm_ratios(self):
        rng = rng_for(9)
        mu = random_space(rng, 4)
        nu = random_space(rng, 3, prefix="s")
        x = random_subspace(rng, mu, 2)
        t = random_restricted(rng, x, nu)
        res = alpha_via_lp(x, t)
        for _ in range(200):
            c = rng.standard_normal(2)
            f = SimpleFn(mu, REAL, c @ x.basis_matrix)
            tf = SimpleFn(nu, REAL, c @ t.image_matrix)
            if l1_norm(f) == 0.0:
                continue
            assert l1_norm(tf) / l1_norm(f) <= res.alpha * (1.0 + 1e-9)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunked_draws_give_the_unchunked_report(self, chunk, monkeypatch):
        rng = rng_for(15)
        x = random_subspace(rng, random_space(rng, 6), 3)
        t = random_restricted(rng, x, random_space(rng, 5, prefix="s"))
        res = alpha_via_lp(x, t)
        extra = (certificate_family_coeffs(res.certificate),)
        for trials in (0, 1, 300, 501):
            monkeypatch.setattr(extension, "CONDITION_B_CHUNK",
                                extension.MAX_TRIALS)
            whole = check_condition_b(x, t, res.alpha, trials, 3, extra)
            monkeypatch.setattr(extension, "CONDITION_B_CHUNK", chunk)
            chunked = check_condition_b(x, t, res.alpha, trials, 3, extra)
            assert chunked == whole
            assert chunked.trials == trials + 1

    @pytest.mark.parametrize("above_cap", [False, True])
    def test_trials_out_of_range_rejected_before_drawing(self, above_cap,
                                                         monkeypatch):
        trials = extension.MAX_TRIALS + 1 if above_cap else -1
        rng = rng_for(14)
        x = random_subspace(rng, random_space(rng, 4), 2)
        t = random_restricted(rng, x, random_space(rng, 3, prefix="s"))

        def no_draws(seed):
            raise AssertionError("a generator was made before the check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=f"trials must be in "
                                             f"0..{extension.MAX_TRIALS}, "
                                             f"got {trials}"):
            check_condition_b(x, t, 1.0, trials)
        assert cli.MAX_TRIALS is extension.MAX_TRIALS

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_two_product_reference(self, dim):
        # one product against [basis | images] tiles the BLAS product
        # differently, so at dim >= 2 a sampled value can differ from the
        # per-family products in its last bits; the counts and the verdict
        # must agree exactly
        rng = rng_for(40 + dim)
        zero = np.zeros((2, dim))
        for mu_atoms in range(dim, 13):
            nu_atoms = 1 + (5 * mu_atoms + dim) % 12
            x = random_subspace(rng, random_space(rng, mu_atoms), dim)
            t = random_restricted(rng, x,
                                  random_space(rng, nu_atoms, prefix="s"))
            res = alpha_via_lp(x, t)
            cert = certificate_family_coeffs(res.certificate)
            for trials in (0, 1, 501, 10_000):
                for extra in ((), (cert,), (zero,), (cert, zero)):
                    report = check_condition_b(x, t, res.alpha, trials,
                                               mu_atoms, extra)
                    ref = reference_condition_b(x, t, res.alpha, trials,
                                                mu_atoms, extra)
                    assert report.max_ratio == pytest.approx(
                        ref.max_ratio, rel=64 * np.finfo(float).eps, abs=0.0)
                    assert report == dataclasses.replace(
                        ref, max_ratio=report.max_ratio)
            only_zero = check_condition_b(x, t, res.alpha, 0, 0, (zero,))
            assert (only_zero.max_ratio, only_zero.trials) == (0.0, 1)
            # no family at all: nothing checked, nothing violated
            assert check_condition_b(x, t, res.alpha, 0, 0) == ConditionBReport(
                0.0, 0, 0, True, INEQ_TOL)

    @given(k=st.integers(-60, 60), seed=st.integers(0, 29))
    @settings(deadline=None, max_examples=40)
    def test_power_of_two_scaling_is_exact(self, k, seed):
        rng = rng_for(500 + seed)
        dim = 1 + seed % 3
        x = random_subspace(rng, random_space(rng, 3 + seed % 5), dim)
        t = random_restricted(rng, x, random_space(rng, 2 + seed % 6,
                                                   prefix="s"))
        res = alpha_via_lp(x, t)
        extra = (certificate_family_coeffs(res.certificate),)
        # below the extension constant, so that the certificate family at
        # least violates it
        alpha = 0.95 * res.alpha
        factor = 2.0 ** k
        base = check_condition_b(x, t, alpha, 300, seed, extra)
        assert base.violations > 0

        xs, ts = scaled_instance(x, t, 1.0, factor)
        images = check_condition_b(xs, ts, alpha * factor, 300, seed, extra)
        assert images.max_ratio == base.max_ratio * factor
        xs, ts = scaled_instance(x, t, factor, 1.0)
        basis = check_condition_b(xs, ts, alpha / factor, 300, seed, extra)
        assert basis.max_ratio == base.max_ratio / factor
        for report in (images, basis):
            assert ((report.trials, report.violations, report.passed)
                    == (base.trials, base.violations, base.passed))


class TestVerifyExtensionTheorem:
    @pytest.mark.parametrize("above_cap", [False, True])
    def test_trials_out_of_range_rejected_before_the_lp(self, above_cap,
                                                        monkeypatch):
        trials = extension.MAX_TRIALS + 1 if above_cap else -1
        rng = rng_for(14)
        x = random_subspace(rng, random_space(rng, 4), 2)
        t = random_restricted(rng, x, random_space(rng, 3, prefix="s"))

        def no_solve(program):
            raise AssertionError("the extension LP was solved before the check")

        monkeypatch.setattr(lp, "solve", no_solve)
        with pytest.raises(ValueError, match=f"trials must be in "
                                             f"0..{extension.MAX_TRIALS}, "
                                             f"got {trials}"):
            verify_extension_theorem(x, t, trials=trials)

    def test_random_instances_pass(self):
        rng = rng_for(10)
        for i in range(15):
            mu = random_space(rng, int(rng.integers(2, 7)))
            nu = random_space(rng, int(rng.integers(2, 7)), prefix="s")
            x = random_subspace(rng, mu, int(rng.integers(1, 1 + min(3, mu.size))))
            t = random_restricted(rng, x, nu)
            report = verify_extension_theorem(x, t, trials=3000, seed=100 + i)
            assert report.passed, report.failures
            assert report.chain.all_passed
            assert report.bracket_width <= 1e-3 * report.alpha

    def test_sandwich_inequalities(self):
        rng = rng_for(11)
        mu = random_space(rng, 5)
        nu = random_space(rng, 5, prefix="s")
        x = random_subspace(rng, mu, 3)
        t = random_restricted(rng, x, nu)
        report = verify_extension_theorem(x, t, trials=5000, seed=21)
        assert report.condition_b.max_ratio <= report.alpha * (1.0 + 1e-9)
        assert report.alpha <= report.certificate_ratio / (1.0 - 1e-6)

    def test_monotone_when_subspace_grows(self):
        # adding a basis vector with its image taken from the optimal
        # extension leaves alpha unchanged: fewer extensions remain, but the
        # old optimum is still one of them
        rng = rng_for(12)
        for _ in range(10):
            mu = random_space(rng, 5)
            nu = random_space(rng, 4, prefix="s")
            x = random_subspace(rng, mu, 2)
            t = random_restricted(rng, x, nu)
            res = alpha_via_lp(x, t)
            new_vec = SimpleFn(mu, REAL, rng.uniform(-10, 10, 5))
            try:
                bigger = Subspace(mu, np.vstack([x.basis_matrix, new_vec.values]))
            except ValueError:
                continue
            t_big = RestrictedOperator(bigger, nu, np.vstack(
                [t.image_matrix, apply(res.extension, new_vec).values]))
            res_big = alpha_via_lp(bigger, t_big)
            assert res_big.alpha >= res.alpha - 1e-8
            assert res_big.alpha <= res.alpha * (1.0 + 1e-7) + 1e-9

    def test_whole_space_reduces_to_norm_identities(self):
        rng = rng_for(13)
        mu = random_space(rng, 3)
        nu = random_space(rng, 3, prefix="s")
        x = Subspace(mu, [point_mass(mu, j).values for j in range(3)])
        t = random_restricted(rng, x, nu)
        report = verify_extension_theorem(x, t, trials=2000, seed=31)
        assert report.passed
        assert report.alpha == pytest.approx(
            op_norm(alpha_via_lp(x, t).extension), rel=1e-12)


def condition_d_loop(x, t, alphas, seed):
    """Condition (d) checked one random tensor at a time, as the verifier did
    before it evaluated all tensors in one batch, against each of ``alphas``
    in one pass; the check of an alpha stops at its first violation.  The
    draws come in the order of condition_d_tensors: every term count, then
    every normal, then every uniform.

    Returns the tensors drawn, as (coeffs, phis) per trial, and per alpha
    the largest ratio up to its first violation and that violation's
    message (or None)."""
    rng = np.random.default_rng(np.uint64(seed) + np.uint64(0x9E3779B9))
    terms = rng.integers(1, 4, size=CONDITION_D_TRIALS)
    normals = rng.standard_normal((CONDITION_D_TRIALS, 3, x.dim))
    uniforms = rng.uniform(-1.0, 1.0, size=(CONDITION_D_TRIALS, 3,
                                            t.codomain.size))
    mu_w, nu_w = x.ambient.weight_array, t.codomain.weight_array
    d_max = [0.0] * len(alphas)
    failure = [None] * len(alphas)
    draws = []
    for k in range(CONDITION_D_TRIALS):
        if all(failure):
            break
        n = int(terms[k])
        coeffs = normals[k, :n]
        phis = uniforms[k, :n]
        draws.append((coeffs, phis))
        # f stacked from per-row products; integral_of_sup and pair_rows as
        # they were then, inlined
        f = np.array([coeffs[i] @ x.basis_matrix for i in range(n)])
        norm = float(mu_w @ np.abs(f.T @ phis).max(axis=1))
        if norm == 0.0:
            continue
        pairing = abs(float((((coeffs @ t.image_matrix) * phis) @ nu_w).sum()))
        for a, alpha in enumerate(alphas):
            if failure[a] is not None:
                continue
            d_max[a] = max(d_max[a], pairing / norm)
            if pairing > alpha * norm * (1.0 + INEQ_TOL) + 1e-15:
                failure[a] = f"condition (d) violated: ratio {pairing / norm:.12g}"
    return draws, list(zip(d_max, failure))


class TestConditionD:
    def test_batch_matches_per_trial_loop(self):
        # on generated instances at the true alpha and at 0.6 alpha, the
        # batch checks the tensors the loop drew, reaches the same verdict
        # with the same message, and its largest ratio differs only in the
        # last bits of the products
        rng = rng_for(40)
        violations = 0
        for i in range(200):
            mu = random_space(rng, int(rng.integers(1, 9)))
            nu = random_space(rng, int(rng.integers(1, 9)), prefix="s")
            x = random_subspace(rng, mu, int(rng.integers(1, 1 + min(3, mu.size))))
            t = random_restricted(rng, x, nu)
            alpha = alpha_via_lp(x, t).alpha
            coeffs, phis = extension.condition_d_tensors(x, t, i)
            draws, loop = condition_d_loop(x, t, (alpha, 0.6 * alpha), i)
            assert len(draws) == CONDITION_D_TRIALS or all(m for _, m in loop)
            padded = np.zeros_like(coeffs), np.zeros_like(phis)
            for k, (c, p) in enumerate(draws):
                padded[0][k, :len(c)], padded[1][k, :len(p)] = c, p
            # byte equality: the unused rows hold +0.0, never -0.0
            assert (coeffs[:len(draws)].tobytes()
                    == padded[0][:len(draws)].tobytes())
            assert phis[:len(draws)].tobytes() == padded[1][:len(draws)].tobytes()
            for scale, (d_max, message) in zip((1.0, 0.6), loop):
                batch_max, batch_message = extension.check_condition_d(
                    x, t, scale * alpha, coeffs, phis)
                assert batch_message == message
                assert batch_max == pytest.approx(d_max, rel=1e-14, abs=0.0)
                violations += message is not None
        assert violations > 100

    def test_deflated_alpha_fails_conditions_b_and_d(self):
        docs = generate_instance("extension", {"atoms": 6, "nu_atoms": 5,
                                               "dim": 3}, 4)
        x = jsonio.subspace_from_json(docs["subspace"])
        t = jsonio.images_from_json(docs["images"], x)
        result = alpha_via_lp(x, t)
        deflated = dataclasses.replace(result, alpha=0.6 * result.alpha)
        report = verify_extension_theorem(x, t, trials=2000, seed=1,
                                          result=deflated)
        assert not report.passed
        assert not report.condition_b.passed
        assert (f"{report.condition_b.violations} sampled families exceed "
                "alpha") in report.failures
        [message] = [f for f in report.failures
                     if f.startswith("condition (d) violated: ratio ")]
        assert float(message.rsplit(" ", 1)[1]) > deflated.alpha
        assert report.condition_d_max_ratio > deflated.alpha


def reference_u_lp(x, t):
    """The extension LP with an auxiliary bound u_ij >= |K_ij| and a free K:
    minimize t subject to sum_i nu_i u_ij <= t, -u_ij <= K_ij <= u_ij and the
    interpolation rows.  Variables: t, u (row-major), then K (row-major) as
    adjacent K+, K- column pairs, K = K+ - K-."""
    n_mu, n_nu = x.ambient.size, t.codomain.size
    nn = n_mu * n_nu
    n_cols = 1 + 3 * nn
    nu_w = t.codomain.weight_array
    pair = np.array([1.0, -1.0])
    g_rows, a_rows = [], []
    for j in range(n_mu):
        row = np.zeros(n_cols)
        row[0] = -1.0
        row[1 + j:1 + nn:n_mu] = nu_w
        g_rows.append(row)
    for e in range(nn):
        for sign in (1.0, -1.0):
            row = np.zeros(n_cols)
            row[1 + nn + 2 * e:1 + nn + 2 * e + 2] = sign * pair
            row[1 + e] = -1.0
            g_rows.append(row)
    weighted = x.basis_matrix * x.ambient.weight_array
    for r in range(x.dim):
        for i in range(n_nu):
            row = np.zeros(n_cols)
            row[1 + nn + 2 * i * n_mu:1 + nn + 2 * (i + 1) * n_mu] = np.kron(
                weighted[r], pair)
            a_rows.append(row)
    c = np.zeros(n_cols)
    c[0] = 1.0
    return lp.LinearProgram(c, np.array(a_rows), t.image_matrix.ravel(),
                            np.array(g_rows), np.zeros(len(g_rows)))


class TestExtensionLP:
    def test_split_variable_shape(self):
        rng = rng_for(20)
        for n_mu, n_nu, dim in [(2, 5, 1), (5, 3, 2), (7, 7, 3)]:
            mu = random_space(rng, n_mu)
            nu = random_space(rng, n_nu, prefix="s")
            x = random_subspace(rng, mu, min(dim, n_mu))
            t = random_restricted(rng, x, nu)
            program = extension_lp(x, t)
            assert program.n_ub == n_mu
            assert program.n_eq == x.dim * n_nu
            assert program.n_vars == 1 + 2 * n_mu * n_nu

    # generated instances on which the K+ columns all placed ahead of the K-
    # columns broke Bland's rule: a spurious unbounded phase 1, or for
    # (12, 11) an "optimal" vertex 26% above alpha
    BLOCK_ORDER_BREAKERS = [(6, 5, 3, 1575570991), (10, 7, 3, 1575570991),
                            (12, 11, 3, 352541269), (9, 10, 2, 1245724921)]

    def instances(self):
        rng = rng_for(21)
        for _ in range(12):
            mu = random_space(rng, int(rng.integers(2, 9)))
            nu = random_space(rng, int(rng.integers(2, 9)), prefix="s")
            x = random_subspace(rng, mu, int(rng.integers(1, 1 + min(3, mu.size))))
            yield x, random_restricted(rng, x, nu)
        for atoms, nu_atoms, dim, seed in self.BLOCK_ORDER_BREAKERS:
            docs = generate_instance("extension", {"atoms": atoms,
                                                   "nu_atoms": nu_atoms,
                                                   "dim": dim}, seed)
            x = jsonio.subspace_from_json(docs["subspace"])
            yield x, jsonio.images_from_json(docs["images"], x)

    def test_matches_u_formulation(self):
        for x, t in self.instances():
            res = alpha_via_lp(x, t)
            ref = lp.solve(reference_u_lp(x, t))
            assert ref.status == lp.OPTIMAL
            assert res.alpha == pytest.approx(ref.objective_value, rel=1e-9)
            assert res.certificate_ratio >= res.alpha * (1.0 - 1e-6)

    @given(n_mu=st.integers(2, 5), n_nu=st.integers(2, 5),
           dim=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(-40, 40))
    @settings(deadline=None, max_examples=300)
    def test_matches_the_exact_oracle(self, n_mu, n_nu, dim, seed, k):
        rng = rng_for(seed)
        x = random_subspace(rng, random_space(rng, n_mu), min(dim, n_mu))
        t = random_restricted(rng, x, random_space(rng, n_nu, prefix="s"))
        t = RestrictedOperator(x, t.codomain, t.image_matrix * 2.0 ** k)
        res = alpha_via_lp(x, t)
        status, value = solve_exact(extension_lp(x, t))
        assert status == lp.OPTIMAL
        assert res.lp_objective == pytest.approx(float(value),
                                                 rel=CERTIFICATE_TOL, abs=0.0)

    def test_extend_verify_solves_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return alpha_via_lp(*args, **kwargs)

        monkeypatch.setattr(cli, "alpha_via_lp", counted)
        monkeypatch.setattr(extension, "alpha_via_lp", counted)
        assert cli.main(["generate", "--kind", "extension", "--atoms", "5",
                         "--nu-atoms", "4", "--dim", "2", "--seed", "3",
                         "--out", str(tmp_path / "i.json"), "--quiet"]) == 0
        assert cli.main(["extend", "--subspace", str(tmp_path / "i_subspace.json"),
                         "--images", str(tmp_path / "i_images.json"),
                         "--verify", "--trials", "1000", "--quiet"]) == 0
        assert len(calls) == 1

    def test_twenty_atoms_verified(self):
        rng = rng_for(22)
        mu = random_space(rng, 20)
        nu = random_space(rng, 20, prefix="s")
        x = random_subspace(rng, mu, 3)
        t = random_restricted(rng, x, nu)
        report = verify_extension_theorem(x, t, trials=2000, seed=23)
        assert report.passed, report.failures
        assert report.alpha <= report.certificate_ratio / (1.0 - 1e-6)
