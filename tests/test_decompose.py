import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1lattice import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn,
                       argmax_partition, decompose_complex, decompose_real, eps_net_coeffs,
                       optimal_k_search, pos_neg_split, preprune_count,
                       prune, refine_to_constant_coeffs,
                       verify_cell_decomposition, verify_decomposition,
                       verify_trace_counts, zero_fn)
from l1lattice import jsonio
from l1lattice.cli import main
from l1lattice.core import unit_phases
from l1lattice.decompose import (COMPLEX_PREPRUNE, REAL_PREPRUNE,
                                 Decomposition, circle_net)
from l1lattice.generate import random_family, random_space, rng_for


def unit_space(n):
    return MeasureSpace(tuple(f"a{i}" for i in range(n)), (1.0,) * n)


class TestPrepruneCounts:
    def test_iterates_match_recursion(self):
        # oracle: iterate k(1)=2, k(n)=2n(k+1) and k(1)=1, k(n)=n(k+1) by hand
        assert tuple(preprune_count(n, REAL) for n in range(1, 6)) == REAL_PREPRUNE
        assert tuple(preprune_count(n, COMPLEX) for n in range(1, 6)) == COMPLEX_PREPRUNE
        assert REAL_PREPRUNE == (2, 12, 78, 632, 6330)
        assert COMPLEX_PREPRUNE == (1, 4, 15, 64, 325)

    def test_factorial_growth_bounds(self):
        for n in range(1, 6):
            assert preprune_count(n, REAL) <= math.exp(0.5) * 2 ** n * math.factorial(n)
            assert preprune_count(n, COMPLEX) <= math.e * math.factorial(n)


class TestDecomposeReal:
    def test_n1_is_pos_neg_split(self):
        fs = FnFamily(unit_space(2), REAL, [[2.0, -3.0]])
        d = decompose_real(fs)
        assert np.array_equal(d.parts_matrix, [[2.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(d.signs, [[1, -1]])

    def test_n2_preprune_count_is_12(self):
        sp = unit_space(2)
        fs = FnFamily(sp, REAL, [[1.0, 0.0], [0.0, 1.0]])
        d = decompose_real(fs)
        assert d.k == 12
        report = verify_decomposition(d, fs)
        assert report.passed
        assert np.array_equal(d.parts_matrix.sum(axis=0), [1.0, 1.0])

    def test_zero_family(self):
        fs = FnFamily(unit_space(3), REAL, np.zeros((2, 3)))
        d = decompose_real(fs)
        assert np.all(d.parts_matrix == 0.0)
        assert verify_decomposition(d, fs).passed

    def test_complex_rejected(self):
        fs = FnFamily(unit_space(1), COMPLEX, [[1.0 + 0.0j]])
        with pytest.raises(ValueError):
            decompose_real(fs)

    @given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 2 ** 31))
    @settings(deadline=None, max_examples=40)
    def test_random_families_verify(self, n, atoms, seed):
        rng = rng_for(seed)
        fs = random_family(rng, random_space(rng, atoms), n, REAL)
        d = decompose_real(fs)
        assert d.k == REAL_PREPRUNE[n - 1]
        assert verify_trace_counts(d.level_counts, REAL)
        report = verify_decomposition(d, fs)
        assert report.passed, report


class TestDecomposeComplex:
    def test_n1_is_modulus_and_phase(self):
        fs = FnFamily(unit_space(2), COMPLEX, [[3.0 + 4.0j, 0.0]])
        d = decompose_complex(fs)
        assert np.array_equal(d.parts_matrix, [[5.0, 0.0]])
        assert d.coeffs[0, 0, 0] == pytest.approx(0.6 + 0.8j, abs=1e-15)
        assert d.coeffs[0, 0, 1] == 0.0

    def test_preprune_counts_small_n(self):
        rng = rng_for(0)
        sp = random_space(rng, 3)
        assert decompose_complex(random_family(rng, sp, 2, COMPLEX)).k == 4
        assert decompose_complex(random_family(rng, sp, 3, COMPLEX)).k == 15

    def test_real_input_allowed(self):
        fs = FnFamily(unit_space(2), REAL, [[1.0, -2.0]])
        d = decompose_complex(fs)
        assert d.mode == COMPLEX
        assert verify_decomposition(d, fs).passed

    @given(st.integers(1, 4), st.integers(1, 10), st.integers(0, 2 ** 31))
    @settings(deadline=None, max_examples=40)
    def test_random_families_verify(self, n, atoms, seed):
        rng = rng_for(seed)
        fs = random_family(rng, random_space(rng, atoms), n, COMPLEX)
        d = decompose_complex(fs)
        assert d.k == COMPLEX_PREPRUNE[n - 1]
        assert verify_trace_counts(d.level_counts, COMPLEX)
        assert verify_decomposition(d, fs).passed


def _reference_real(values):
    """The per-node recursion that the level construction replaced: parts,
    signs, and the part counts per level (every node of a level agrees)."""
    n = values.shape[0]
    if n == 1:
        parts = np.vstack(pos_neg_split(values[0]))
        return parts, np.array([[1, -1]], dtype=np.int8), (2,)

    cells = argmax_partition(values)
    orientation = np.array([1, -1, 1, -1], dtype=np.int8)
    part_blocks, sign_blocks, child_counts = [], [], set()
    for i in range(n):
        in_cell = cells == i
        rest = np.arange(n) != i
        sub = values[rest] * in_cell
        sub_parts, sub_signs, counts = _reference_real(sub)
        child_counts.add(counts)
        tau = np.max(np.abs(sub), axis=0)
        pos = in_cell & (values[i] >= 0.0)
        neg = in_cell & (values[i] < 0.0)
        part_blocks += [sub_parts * pos, sub_parts * neg,
                        ((values[i] - tau) * pos)[None],
                        ((-values[i] - tau) * neg)[None]]
        k_sub = sub_parts.shape[0]
        block = np.zeros((n, 2 * k_sub + 2), dtype=np.int8)
        block[i] = np.repeat(orientation, [k_sub, k_sub, 1, 1])
        block[rest, :2 * k_sub] = np.hstack([sub_signs, sub_signs])
        sign_blocks.append(block)

    assert len(child_counts) == 1
    parts = np.vstack(part_blocks)
    return parts, np.hstack(sign_blocks), (parts.shape[0],) + child_counts.pop()


def _reference_complex(values):
    """The complex counterpart of ``_reference_real``: parts, coefficient
    fields and the part counts per level."""
    n = values.shape[0]
    if n == 1:
        v = values[0]
        return np.abs(v)[None, :], unit_phases(v)[None, None, :], (1,)

    moduli = np.abs(values)
    cells = argmax_partition(values)
    part_blocks, coeff_blocks, child_counts = [], [], set()
    for i in range(n):
        in_cell = cells == i
        rest = np.arange(n) != i
        sub = values[rest] * in_cell
        sub_parts, sub_coeffs, counts = _reference_complex(sub)
        child_counts.add(counts)
        tau = np.max(np.abs(sub), axis=0)
        part_blocks += [sub_parts, ((moduli[i] - tau) * in_cell)[None]]
        k_sub = sub_parts.shape[0]
        block = np.zeros((n, k_sub + 1, values.shape[1]), dtype=np.complex128)
        block[i] = unit_phases(values[i])
        block[rest, :k_sub] = sub_coeffs
        coeff_blocks.append(block)

    assert len(child_counts) == 1
    parts = np.vstack(part_blocks)
    return (parts, np.concatenate(coeff_blocks, axis=1),
            (parts.shape[0],) + child_counts.pop())


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: integers with ties, signed zeros and subnormals
TIE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 5e-324, -5e-324,
              -2.0 ** -1060]


class TestLevelsMatchRecursion:
    """The level construction reproduces the per-node recursion byte for
    byte: parts (with the sign of every zero), signs or coefficient fields,
    and the per-level counts."""

    @given(st.integers(1, 5), st.integers(1, 12), st.data())
    @settings(deadline=None, max_examples=150)
    def test_byte_identical(self, n, atoms, data):
        def draw_matrix():
            cells = st.lists(st.sampled_from(TIE_VALUES), min_size=n * atoms,
                             max_size=n * atoms)
            return np.array(data.draw(cells)).reshape(n, atoms)

        re = draw_matrix()
        values = np.zeros((n, atoms), dtype=np.complex128)
        values.real = re
        values.imag = draw_matrix()
        sp = unit_space(atoms)

        d = decompose_real(FnFamily(sp, REAL, re))
        parts, signs, counts = _reference_real(re)
        assert_same_bytes(d.parts_matrix, parts)
        assert_same_bytes(d.signs, signs)
        assert d.level_counts == counts

        for fs, ref_values in ((FnFamily(sp, COMPLEX, values), values),
                               (FnFamily(sp, REAL, re), re.astype(np.complex128))):
            d = decompose_complex(fs)
            parts, coeffs, counts = _reference_complex(ref_values)
            assert_same_bytes(d.parts_matrix, parts)
            assert_same_bytes(d.coeffs, coeffs)
            assert d.level_counts == counts


class TestVerifyDecomposition:
    def make(self):
        rng = rng_for(3)
        fs = random_family(rng, random_space(rng, 5), 2, REAL)
        return fs, decompose_real(fs)

    def test_flipped_sign_detected(self):
        fs, d = self.make()
        signs = d.signs.copy()
        col = int(np.argmax(np.abs(signs).sum(axis=0)))
        row = int(np.argmax(np.abs(signs[:, col])))
        signs[row, col] = -signs[row, col]
        bad = Decomposition(d.space, d.mode, d.parts_matrix, signs, None, d.level_counts)
        report = verify_decomposition(bad, fs)
        assert not report.passed
        assert report.recombination_residuals[row] > 1e-10
        assert report.worst_atoms[row + 1] in fs.space.atoms

    def test_negative_part_detected(self):
        fs, d = self.make()
        parts = d.parts_matrix.copy()
        parts[0, 0] = -1.0
        bad = Decomposition(d.space, d.mode, parts, d.signs, None, d.level_counts)
        report = verify_decomposition(bad, fs)
        assert not report.passed
        assert report.negativity < 0.0

    def test_bad_sign_value_detected(self):
        fs, d = self.make()
        signs = d.signs.astype(np.int8).copy()
        signs[0, 0] = 2
        bad = Decomposition(d.space, d.mode, d.parts_matrix, signs, None, d.level_counts)
        assert verify_decomposition(bad, fs).coefficient_violations


class TestPrune:
    def test_removes_zero_parts_only(self):
        rng = rng_for(9)
        fs = random_family(rng, random_space(rng, 6), 3, REAL)
        d = decompose_real(fs)
        p = prune(d)
        assert p.k <= d.k
        assert np.all(np.any(p.parts_matrix != 0.0, axis=1))
        assert verify_decomposition(p, fs).passed
        # kept parts are bitwise untouched
        keep = np.any(d.parts_matrix != 0.0, axis=1)
        assert np.array_equal(p.parts_matrix, d.parts_matrix[keep])

    def test_idempotent_when_nothing_to_prune(self):
        fs = FnFamily(unit_space(1), REAL, [[1.0]])
        d = prune(decompose_real(fs))
        assert prune(d) is d


class TestConstantCoefficients:
    def test_real_mode_single_cell_with_sign_entries(self):
        rng = rng_for(4)
        fs = random_family(rng, random_space(rng, 5), 2, REAL)
        d = decompose_real(fs)
        cd = refine_to_constant_coeffs(d)
        assert cd.epsilon == 0.0
        assert len(cd.cells) == 1
        assert np.array_equal(cd.alphas.real, d.signs.astype(float))
        assert verify_cell_decomposition(cd, fs).passed

    def test_complex_n1_two_cells(self):
        fs = FnFamily(unit_space(2), COMPLEX, [[1.0j, -1.0 + 0.0j]])
        cd = refine_to_constant_coeffs(decompose_complex(fs))
        assert cd.cells == ((0,), (1,))
        assert cd.alphas[0, 0] == 1.0j and cd.alphas[0, 1] == -1.0
        assert verify_cell_decomposition(cd, fs).passed

    def test_zero_function_single_cell(self):
        fs = FnFamily(unit_space(3), COMPLEX, np.zeros((1, 3)))
        cd = refine_to_constant_coeffs(decompose_complex(fs))
        assert len(cd.cells) == 1
        assert np.all(cd.alphas == 0.0)

    def test_exact_residual_on_random_families(self):
        rng = rng_for(5)
        for _ in range(50):
            fs = random_family(rng, random_space(rng, int(rng.integers(1, 9))),
                               int(rng.integers(1, 4)), COMPLEX)
            cd = refine_to_constant_coeffs(decompose_complex(fs))
            resid = np.abs(cd.recombined() - fs.value_matrix)
            assert np.max(resid) <= 1e-10 * (1.0 + np.max(np.abs(fs.value_matrix)))


class TestEpsNet:
    def test_net_always_contains_plus_minus_one(self):
        for eps in (0.1, 0.01, 0.5, 2.0, 7.0):
            net = circle_net(eps)
            assert 1.0 + 0.0j in net
            assert -1.0 + 0.0j in net

    def test_real_data_has_zero_residual(self):
        rng = rng_for(6)
        fs = random_family(rng, random_space(rng, 6), 3, REAL)
        cd = eps_net_coeffs(decompose_complex(fs), 0.3)
        assert np.max(np.abs(cd.recombined() - fs.value_matrix)) == 0.0

    def test_single_atom_rounding_bound(self):
        # |f - alpha h| = |phase - alpha| |f| <= eps |f|
        sp = unit_space(1)
        theta = 0.7
        f = SimpleFn(sp, COMPLEX, [5.0 * np.exp(1j * theta)])
        cd = eps_net_coeffs(decompose_complex(FnFamily(sp, COMPLEX, [f.values])),
                            0.1)
        assert abs(cd.alphas[0, 0] - np.exp(1j * theta)) <= 0.1
        resid = abs(f.values[0] - cd.recombined()[0, 0])
        assert resid <= 0.5

    def test_huge_eps_still_bounded(self):
        rng = rng_for(7)
        fs = random_family(rng, random_space(rng, 4), 2, COMPLEX)
        cd = eps_net_coeffs(decompose_complex(fs), 2.5)
        assert verify_cell_decomposition(cd, fs).passed

    def test_nonpositive_eps_rejected(self):
        fs = FnFamily(unit_space(1), COMPLEX, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            eps_net_coeffs(decompose_complex(fs), 0.0)

    @given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 2 ** 31),
           st.sampled_from([0.25, 0.1, 0.03]))
    @settings(deadline=None, max_examples=40)
    def test_pointwise_bound_random(self, n, atoms, seed, eps):
        rng = rng_for(seed)
        fs = random_family(rng, random_space(rng, atoms), n, COMPLEX)
        cd = eps_net_coeffs(decompose_complex(fs), eps)
        latmax = np.max(np.abs(fs.value_matrix), axis=0)
        resid = np.abs(cd.recombined() - fs.value_matrix)
        assert np.all(resid <= eps * latmax[None, :]
                      + 1e-10 * (1.0 + latmax[None, :]))
        assert np.all((np.abs(np.abs(cd.alphas) - 1.0) <= 1e-12)
                      | (cd.alphas == 0.0))

    def test_pointwise_bound_large_sweep(self):
        rng = rng_for(77)
        for _ in range(1000):
            fs = random_family(rng, random_space(rng, int(rng.integers(1, 9))),
                               int(rng.integers(1, 4)), COMPLEX)
            eps = float(rng.uniform(0.02, 0.5))
            cd = eps_net_coeffs(decompose_complex(fs), eps)
            latmax = np.max(np.abs(fs.value_matrix), axis=0)
            resid = np.abs(cd.recombined() - fs.value_matrix)
            assert np.all(resid <= eps * latmax[None, :]
                          + 1e-10 * (1.0 + latmax[None, :]))


class TestOptimalKSearch:
    def test_sign_change_needs_two_parts(self):
        sp = unit_space(2)
        res = optimal_k_search(FnFamily(sp, REAL, [[1.0, -1.0]]), 4)
        assert res.feasible and res.k == 2
        assert res.infeasible_k == (1,)

    def test_nonnegative_single_function_needs_one(self):
        sp = unit_space(2)
        res = optimal_k_search(FnFamily(sp, REAL, [[2.0, 0.5]]), 4)
        assert res.k == 1
        assert np.array_equal(res.signs, [[1]])
        assert np.array_equal(res.parts[0].values, [2.0, 0.5])

    def test_result_is_a_valid_decomposition(self):
        rng = rng_for(8)
        fs = random_family(rng, random_space(rng, 5), 2, REAL)
        res = optimal_k_search(fs, 4)
        assert res.feasible
        parts = np.vstack([p.values for p in res.parts])
        latmax = np.max(np.abs(fs.value_matrix), axis=0)
        assert np.max(np.abs(parts.sum(axis=0) - latmax)) <= 1e-8
        recon = res.signs.astype(float) @ parts
        assert np.max(np.abs(recon - fs.value_matrix)) <= 1e-8
        assert parts.min() >= -1e-9

    def test_infeasible_reports_largest_k_tried(self):
        # four full-sign atoms force four distinct columns, so k_max=3 fails
        sp = unit_space(4)
        fs = FnFamily(sp, REAL, [[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
        res = optimal_k_search(fs, 3)
        assert not res.feasible
        assert res.k_max_tried == 3
        assert res.infeasible_k == (1, 2, 3)

    def test_guards(self):
        sp = unit_space(5)
        big = FnFamily(sp, REAL, np.eye(5))
        with pytest.raises(ValueError):
            optimal_k_search(big, 4)
        small = FnFamily(sp, REAL, np.ones((1, 5)))
        with pytest.raises(ValueError):
            optimal_k_search(small, 9)


    def test_candidate_budget(self):
        # n = 3: 27 + 351 + 2925 = 3303 candidates up to k_max = 3, and
        # 17550 more at k_max = 4
        fs = FnFamily(unit_space(2), REAL, [[1.0, 0.0], [0.0, 1.0],
                                            [1.0, 1.0]])
        assert optimal_k_search(fs, 3).candidates_tried <= 3303
        with pytest.raises(ValueError, match=r"n = 3 and k_max = 4 tries up "
                                             r"to 20,853 sign matrices"):
            optimal_k_search(fs, 4)
        # n = 5 at k_max = 1 is 243 candidates
        assert optimal_k_search(FnFamily(unit_space(1), REAL, np.ones((5, 1))),
                                1).k == 1

def _pruned_n1(f):
    """The pruned complex decomposition of the one-function family (f)."""
    return prune(decompose_complex(FnFamily(f.space, f.mode, [f.values])))


class TestOptimalKComplexN1:
    def test_nonvanishing_complex(self):
        res = _pruned_n1(SimpleFn(unit_space(2), COMPLEX, [1.0j, 2.0]))
        assert res.k == 1
        assert np.array_equal(res.parts_matrix[0], [1.0, 2.0])
        assert res.coeffs[0, 0, 0] == pytest.approx(1.0j, abs=1e-15)

    def test_zero_function(self):
        assert _pruned_n1(zero_fn(unit_space(2), COMPLEX)).k == 0

    def test_real_nonvanishing(self):
        res = _pruned_n1(SimpleFn(unit_space(2), REAL, [-1.0, -1.0]))
        assert res.k == 1
        recon = res.coeffs[0, 0] * res.parts_matrix[0]
        assert np.array_equal(recon.real, [-1.0, -1.0])


def _sha(*items) -> str:
    """sha256 over the dtype, shape and raw bytes of each array, or the JSON
    text of each plain value."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            a = np.ascontiguousarray(item)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(json.dumps(item).encode())
    return h.hexdigest()


def _decomposition_digest(d) -> str:
    coeffs = d.signs if d.signs is not None else d.coeffs
    return _sha(d.parts_matrix, coeffs, d.level_counts)


def _cells_digest(cd) -> str:
    return _sha(cd.parts_matrix, cd.alphas, [list(c) for c in cd.cells],
                cd.epsilon)


def _ties_family(mode):
    """Integer values with argmax ties, exact +-0.0 and all-zero atoms."""
    values = np.array([[1.0, -2.0, 0.0, -0.0, 3.0, -3.0, 2.0, -0.0],
                       [-1.0, 2.0, -0.0, 0.0, -3.0, 3.0, -2.0, 0.0],
                       [2.0, 2.0, 1.0, -1.0, 0.0, -0.0, -2.0, -0.0]])
    sp = unit_space(values.shape[1])
    return FnFamily(sp, mode, values)


def _golden_family(n, atoms, mode):
    rng = rng_for(1000 * n + atoms)
    return random_family(rng, random_space(rng, atoms), n, mode)


class TestGoldenBytes:
    """Outputs are pinned byte for byte: parts (including the sign of each
    zero, which reaches the --out files), sign matrices, coefficient
    fields, pre-prune counts, cell refinements and one CLI report."""

    SEEDED = {
        (REAL, 1): "0d85a339ed0b05dcedb0619b624b750773fb35e72fac4c7ad8a7fef4348ad5c3",
        (REAL, 7): "5e69d329fe59d63c516b288af4ab5f97a52590939e78bca78fa0b363e057e318",
        (REAL, 50): "1aedd81f2ca03fd026c4cf6c3e0ae480e030e1802711ef4df8a82ef4e0a14b9f",
        (COMPLEX, 1): "b13b4c48f5aa4d3ba1a9ec7f71ac1307fe7751d288fcfcd4b7e1dcaaa8b6e7e3",
        (COMPLEX, 7): "8436a04617cc9f91b19cd218f03e946091121b09c15422199e5d37b4389fa2b2",
        (COMPLEX, 50): "c43242f2166ebb57ccff22744b01a4fcc9696610f16c1f2bd97166d84b5cc688",
    }
    TIES = {
        "real": "e0f29a4eec9f4e92494b83e081afc5887c9b24067d1546245b023cf3d9f73fa7",
        "complex": "d4f927c3b78dd76a4870972521a8e7a87f015d102afaa502c5cc4ab690c885f8",
        "real-as-complex":
            "766af2f20e4cfee7f1a4156fba7b2f7b5eff8c9a9227088f18908c4029ad1763",
    }
    CELLS = {
        "real": "d49ff62b9f660d24a882d117ae8aca663ac1132565c7b7c3447237647f1ae25a",
        "complex": "a5e2802778a35bd788d50ab20e5af6f341c33efc7a1d9d55597a6963e9c12689",
        "ties-real": "5d94ef01ca7b606274fb1063f537fa0fa039118dac891920ae638043cd4e9afb",
        "ties-complex":
            "fd8938e69f93a79fda44d3e4a0a96808099fb362f6e91bec1ed42983f5bd4a36",
    }
    CLI_OUT = "434984d614286c805cab683c331043ac70faf52b19f5aca86b95d655df52f812"

    @pytest.mark.parametrize("mode,atoms", sorted(SEEDED))
    def test_seeded_families(self, mode, atoms):
        split = decompose_real if mode == REAL else decompose_complex
        digests = [_decomposition_digest(split(_golden_family(n, atoms, mode)))
                   for n in range(1, 6)]
        assert _sha(digests) == self.SEEDED[mode, atoms]

    def test_ties_and_signed_zeros(self):
        got = {"real": _decomposition_digest(decompose_real(_ties_family(REAL))),
               "complex": _decomposition_digest(
                   decompose_complex(_ties_family(COMPLEX))),
               "real-as-complex": _decomposition_digest(
                   decompose_complex(_golden_family(3, 7, REAL)))}
        assert got == self.TIES

    def test_cell_refinements(self):
        cases = {"real": decompose_real(_golden_family(3, 7, REAL)),
                 "complex": decompose_complex(_golden_family(3, 7, COMPLEX)),
                 "ties-real": decompose_real(_ties_family(REAL)),
                 "ties-complex": decompose_complex(_ties_family(COMPLEX))}
        got = {name: _sha(_cells_digest(refine_to_constant_coeffs(prune(d))),
                          _cells_digest(eps_net_coeffs(d, 0.1)))
               for name, d in cases.items()}
        assert got == self.CELLS

    def test_decompose_out_bytes(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(jsonio.dumps(jsonio.family_to_json(
            _golden_family(3, 6, REAL))))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(fam), "--out", str(out),
                     "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CLI_OUT
