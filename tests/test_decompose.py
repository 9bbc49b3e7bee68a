import hashlib
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1lattice import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn,
                       argmax_partition, decompose_complex, decompose_real, eps_net_coeffs,
                       optimal_k_search, pos_neg_split, preprune_count,
                       prune, refine_to_constant_coeffs,
                       verify_cell_decomposition, verify_decomposition,
                       zero_fn)
from l1lattice import cli, jsonio, oracle
from l1lattice.acceptance import chain_family, pattern_family_n2
from l1lattice.cli import main
from l1lattice.core import MAX_ENTRIES, group_columns, unit_phases
from l1lattice.decompose import (MIN_NET_EPS, CellDecomposition, Decomposition,
                                 OptimalKResult, _face_masks, _net_points,
                                 _net_round)
from l1lattice.generate import random_family, random_space, rng_for
from l1lattice.lp import LinearProgram


def circle_net(eps):
    """The whole net that ``_net_round`` rounds to, the reference for the
    points it computes: m = 2 ceil(pi / eps) points exp(2 pi i t / m) with
    the cardinal points snapped."""
    m = 2 * math.ceil(math.pi / eps)
    angles = 2.0 * math.pi * np.arange(m) / m
    pts = np.exp(1j * angles)
    pts[0] = 1.0
    pts[m // 2] = -1.0
    if m % 4 == 0:
        pts[m // 4] = 1j
        pts[3 * m // 4] = -1j
    return pts


def unit_space(n):
    return MeasureSpace(tuple(f"a{i}" for i in range(n)), (1.0,) * n)


class TestPrepruneCounts:
    def test_iterates_match_recursion(self):
        # oracle: iterate k(1)=2, k(n)=2n(k+1) and k(1)=1, k(n)=n(k+1) by hand
        assert ([preprune_count(n, REAL) for n in range(1, 6)]
                == [2, 12, 78, 632, 6330])
        assert ([preprune_count(n, COMPLEX) for n in range(1, 6)]
                == [1, 4, 15, 64, 325])

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
        # of the recursion's 12 rows, one is nonzero on each atom
        assert preprune_count(2, REAL) == 12 and d.k == 2
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
        assert np.all(np.count_nonzero(d.parts_matrix, axis=0) <= n)
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
        for n, k in ((2, 4), (3, 15)):
            d = decompose_complex(random_family(rng, sp, n, COMPLEX))
            assert preprune_count(n, COMPLEX) == k and d.k <= n * sp.size

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
        assert np.all(np.count_nonzero(d.parts_matrix, axis=0) <= n)
        assert verify_decomposition(d, fs).passed


class TestNoDenseRows:
    """A decomposition and its check build no array of the recursion's k(n)
    rows: at n = 5 on 50 atoms those are 6330 x 50 real parts (2.5 MB) or
    325 x 50 complex parts with 5 x 325 x 50 coefficients (1.4 MB)."""

    @pytest.mark.parametrize("mode,limit", [(REAL, 1_000_000),
                                            (COMPLEX, 2_000_000)])
    def test_peak_memory(self, mode, limit):
        rng = rng_for(35)
        fs = random_family(rng, random_space(rng, 50), 5, mode)
        split = decompose_real if mode == REAL else decompose_complex
        tracemalloc.start()
        try:
            d = split(fs)
            report = verify_decomposition(d, fs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < limit, peak
        assert d.k <= fs.size * fs.space.size


def _reference_real(values):
    """The per-node recursion, the reference of the chain walk: parts and
    signs."""
    n = values.shape[0]
    if n == 1:
        parts = np.vstack(pos_neg_split(values[0]))
        return parts, np.array([[1, -1]], dtype=np.int8)

    cells = argmax_partition(values)
    orientation = np.array([1, -1, 1, -1], dtype=np.int8)
    part_blocks, sign_blocks = [], []
    for i in range(n):
        in_cell = cells == i
        rest = np.arange(n) != i
        sub = values[rest] * in_cell
        sub_parts, sub_signs = _reference_real(sub)
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

    return np.vstack(part_blocks), np.hstack(sign_blocks)


def _reference_complex(values):
    """The complex counterpart of ``_reference_real``: parts and
    coefficient fields."""
    n = values.shape[0]
    if n == 1:
        v = values[0]
        return np.abs(v)[None, :], unit_phases(v)[None, None, :]

    moduli = np.abs(values)
    cells = argmax_partition(values)
    part_blocks, coeff_blocks = [], []
    for i in range(n):
        in_cell = cells == i
        rest = np.arange(n) != i
        sub = np.where(in_cell, values[rest], 0.0)
        sub_parts, sub_coeffs = _reference_complex(sub)
        tau = np.max(np.abs(sub), axis=0)
        part_blocks += [sub_parts, ((moduli[i] - tau) * in_cell)[None]]
        k_sub = sub_parts.shape[0]
        block = np.zeros((n, k_sub + 1, values.shape[1]), dtype=np.complex128)
        block[i] = unit_phases(values[i])
        block[rest, :k_sub] = sub_coeffs
        coeff_blocks.append(block)

    return np.vstack(part_blocks), np.concatenate(coeff_blocks, axis=1)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: integers with ties, signed zeros and subnormals
TIE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 5e-324, -5e-324,
              -2.0 ** -1060]


def _dense_decomposition(fs, mode):
    """The per-node recursion's decomposition of ``fs`` in ``mode``, every
    one of its k(n) rows kept and every real zero made +0.0: the dense
    reference of the chain paths."""
    if mode == REAL:
        parts, signs = _reference_real(fs.value_matrix)
        return Decomposition(fs.space, REAL, parts + 0.0, signs, None)
    values = fs.value_matrix.astype(np.complex128)
    parts, coeffs = _reference_complex(values)
    return Decomposition(fs.space, COMPLEX, parts, None, coeffs)


def assert_matches_recursion(re, values):
    """The chain walk on the real ``re`` and the complex ``values`` against
    the per-node recursion, which emits k(n) rows, with its zero rows
    dropped, in real mode and in both complex modes; complex fields are
    compared where their part is nonzero and are 0 elsewhere."""
    sp = unit_space(re.shape[1])
    d = decompose_real(FnFamily(sp, REAL, re))
    parts, signs = _reference_real(re)
    assert parts.shape[0] == preprune_count(re.shape[0], REAL)
    keep = np.any(parts != 0.0, axis=1)
    assert_same_bytes(d.parts_matrix, parts[keep] + 0.0)
    assert not np.signbit(d.parts_matrix).any()
    assert_same_bytes(d.signs, signs[:, keep])

    for fs, ref_values in ((FnFamily(sp, COMPLEX, values), values),
                           (FnFamily(sp, REAL, re), re.astype(np.complex128))):
        d = decompose_complex(fs)
        parts, coeffs = _reference_complex(ref_values)
        assert parts.shape[0] == preprune_count(re.shape[0], COMPLEX)
        keep = np.any(parts != 0.0, axis=1)
        assert_same_bytes(d.parts_matrix, parts[keep])
        assert not np.signbit(d.parts_matrix).any()
        assert_same_bytes(d.coeffs, np.where(parts[keep] != 0.0,
                                             coeffs[:, keep], 0.0))


class TestChainMatchesRecursion:
    """The chain walk reproduces the per-node recursion's nonzero rows byte
    for byte: signs, coefficient fields on each part's support and complex
    parts (with the sign of every zero).  Real parts match once every zero
    is read as +0.0: the recursion writes -0.0 off the cells, the chain
    never does."""

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
        assert_matches_recursion(re, values)

    def test_generated_families(self):
        rng = rng_for(1600)
        for _ in range(100):
            n, atoms = int(rng.integers(1, 6)), int(rng.integers(1, 51))
            sp = random_space(rng, atoms)
            assert_matches_recursion(random_family(rng, sp, n, REAL).value_matrix,
                                     random_family(rng, sp, n, COMPLEX).value_matrix)

    def test_no_overflow_near_the_float_limit(self, tmp_path, capsys):
        # the recursion's -v - tau off a cell overflows here, to a NaN part
        fs = FnFamily(unit_space(2), REAL, [[1e308, -1e308], [1e308, 1.0]])
        fam = tmp_path / "fam.json"
        fam.write_text(jsonio.dumps(jsonio.family_to_json(fs)))
        with np.errstate(over="raise", invalid="raise"):
            assert main(["decompose", "--input", str(fam), "--out",
                         str(tmp_path / "dec.json")]) == 0
            report = verify_decomposition(decompose_real(fs), fs)
        assert "max residual 0.00e+00" in capsys.readouterr().out
        assert report.sum_residual == 0.0
        assert report.recombination_residuals == (0.0, 0.0)


class TestChainFamilies:
    """On the chain families of criterion 2 none of the per-node
    recursion's k(n) rows is zero, and the chain walk keeps them all, byte
    for byte: the chains reach every part row and drop none."""

    @pytest.mark.parametrize("mode,n", [(REAL, n) for n in range(1, 5)]
                             + [(COMPLEX, n) for n in range(1, 6)])
    def test_every_row_of_the_recursion_is_kept(self, mode, n):
        fs = chain_family(n, mode)
        want = _dense_decomposition(fs, mode)
        assert want.k == preprune_count(n, mode)
        assert np.all(np.any(want.parts_matrix != 0.0, axis=1))
        if mode == REAL:
            d = decompose_real(fs)
            assert_same_bytes(d.signs, want.signs)
        else:
            d = decompose_complex(fs)
            assert_same_bytes(d.coeffs, np.where(want.parts_matrix != 0.0,
                                                 want.coeffs, 0.0))
        # the dense real parts are read with every zero +0.0
        assert_same_bytes(d.parts_matrix, want.parts_matrix)


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
        bad = Decomposition(d.space, d.mode, d.parts_matrix, signs, None)
        report = verify_decomposition(bad, fs)
        assert not report.passed
        assert report.recombination_residuals[row] > 1e-10
        assert report.worst_atoms[row + 1] in fs.space.atoms

    def test_negative_part_detected(self):
        fs, d = self.make()
        parts = d.parts_matrix.copy()
        parts[0, 0] = -1.0
        bad = Decomposition(d.space, d.mode, parts, d.signs, None)
        report = verify_decomposition(bad, fs)
        assert not report.passed
        assert report.negativity < 0.0

    def test_bad_sign_value_detected(self):
        fs, d = self.make()
        signs = d.signs.astype(np.int8).copy()
        signs[0, 0] = 2
        bad = Decomposition(d.space, d.mode, d.parts_matrix, signs, None)
        assert verify_decomposition(bad, fs).coefficient_violations


class TestPrune:
    def test_removes_zero_parts_only(self):
        rng = rng_for(9)
        fs = random_family(rng, random_space(rng, 6), 3, REAL)
        d = _dense_decomposition(fs, REAL)
        p = prune(d)
        assert p.k < d.k
        assert np.all(np.any(p.parts_matrix != 0.0, axis=1))
        assert verify_decomposition(p, fs).passed
        # kept parts are bitwise untouched: those the chain builds
        keep = np.any(d.parts_matrix != 0.0, axis=1)
        assert np.array_equal(p.parts_matrix, d.parts_matrix[keep])
        assert _decomposition_digest(p) == _decomposition_digest(
            decompose_real(fs))

    def test_idempotent_when_nothing_to_prune(self):
        fs = FnFamily(unit_space(1), REAL, [[1.0]])
        d = prune(decompose_real(fs))
        assert prune(d) is d


class TestConstantCoefficients:
    def test_real_mode_single_cell_with_sign_entries(self):
        rng = rng_for(4)
        fs = random_family(rng, random_space(rng, 5), 2, REAL)
        d = decompose_real(fs)
        cd = refine_to_constant_coeffs(fs, REAL)
        assert cd.epsilon == 0.0
        assert len(cd.cells) == 1
        # one cell: the kept rows are the nonzero parts, with their signs
        kept = np.any(d.parts_matrix != 0.0, axis=1)
        assert np.array_equal(cd.parts_matrix, d.parts_matrix[kept])
        assert np.array_equal(cd.alphas, d.signs[:, kept].astype(np.complex128))
        assert verify_cell_decomposition(cd, fs).passed

    def test_complex_n1_two_cells(self):
        fs = FnFamily(unit_space(2), COMPLEX, [[1.0j, -1.0 + 0.0j]])
        cd = refine_to_constant_coeffs(fs, COMPLEX)
        assert cd.cells == ((0,), (1,))
        assert cd.alphas[0, 0] == 1.0j and cd.alphas[0, 1] == -1.0
        assert verify_cell_decomposition(cd, fs).passed

    def test_zero_function_single_cell(self):
        fs = FnFamily(unit_space(3), COMPLEX, np.zeros((1, 3)))
        cd = refine_to_constant_coeffs(fs, COMPLEX)
        assert len(cd.cells) == 1
        assert np.all(cd.alphas == 0.0)

    @pytest.mark.parametrize("flags", [["--cells"], ["--eps", "0.1"]])
    @pytest.mark.parametrize("mode", [REAL, COMPLEX])
    def test_zero_family_writes_no_rows(self, tmp_path, mode, flags):
        fs = FnFamily(unit_space(3), mode, np.zeros((2, 3)))
        cd = (eps_net_coeffs(fs, mode, 0.1) if "--eps" in flags
              else refine_to_constant_coeffs(fs, mode))
        assert cd.parts_matrix.shape == (0, 3) and cd.alphas.shape == (2, 0)
        assert verify_cell_decomposition(cd, fs).passed
        fam, out = tmp_path / "fam.json", tmp_path / "cells.json"
        fam.write_text(jsonio.dumps(jsonio.family_to_json(fs)))
        assert main(["decompose", "--input", str(fam), *flags,
                     "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["cells"] == [[0, 1, 2]]
        assert doc["parts"] == [] and doc["coeffs"] == [[], []]

    # each refinement passes both identities and fails one domain check
    BROKEN = {
        "partition": (((0,),), [[1.0, 0.0], [0.0, 2.0]], [[1.0, -1.0]],
                      "cells do not partition the atoms"),
        "negative part": (((0, 1),), [[1.0, 0.0], [0.0, 2.0], [0.5, 0.0],
                                      [-0.5, 0.0]], [[1.0, -1.0, 0.0, 0.0]],
                          "part[3] at atom a0 is -0.5"),
        "alpha modulus": (((0, 1),), [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
                          [[1.0, -1.0, 2.0]], "alpha[0][2] has modulus 2.0"),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_verify_names_each_broken_domain(self, case):
        cells, parts, alphas, message = self.BROKEN[case]
        fs = FnFamily(unit_space(2), REAL, [[1.0, -2.0]])
        good = refine_to_constant_coeffs(fs, REAL)
        assert good.parts_matrix.tolist() == [[1.0, 0.0], [0.0, 2.0]]
        assert verify_cell_decomposition(good, fs).violations == ()
        cd = CellDecomposition(fs.space, REAL, cells, np.array(parts),
                               np.array(alphas, dtype=np.complex128), 0.0)
        report = verify_cell_decomposition(cd, fs)
        assert report.sum_residual == 0.0 and report.bound_excess <= 0.0
        assert not report.passed and report.violations == (message,)

    def test_exact_residual_on_random_families(self):
        rng = rng_for(5)
        for _ in range(50):
            fs = random_family(rng, random_space(rng, int(rng.integers(1, 9))),
                               int(rng.integers(1, 4)), COMPLEX)
            cd = refine_to_constant_coeffs(fs, COMPLEX)
            resid = np.abs(cd.recombined() - fs.value_matrix)
            assert np.max(resid) <= 1e-10 * (1.0 + np.max(np.abs(fs.value_matrix)))


def _mask_product(d, cells):
    """The dense cell refinement as the (cell, part) products of a 0/1 cell
    mask with every part: the reference of the scattered nonzero rows."""
    mask = np.zeros((len(cells), d.space.size))
    for c, g in enumerate(cells):
        mask[c, list(g)] = 1.0
    return (mask[:, None, :] * d.parts_matrix[None]).reshape(-1, d.space.size)


def _dense_coeffs(d, eps=None):
    """The (n, k, atoms) coefficients of the dense ``d``, rounded by
    ``_net_round`` unless eps is None; in real mode its signs, the same on
    every atom, broadcast."""
    coeff = (d.coeffs if d.coeffs is not None
             else d.signs.astype(np.complex128)[:, :, None])
    if eps is not None:
        coeff = _net_round(coeff, eps)
    return np.broadcast_to(coeff, (d.n, d.k, d.space.size))


def _dense_refinement(d, eps=None):
    """The cell refinement of a dense decomposition, pruned or not: atoms
    grouped by their whole coefficient columns with every zero made +0.0,
    the nonzero (cell, part) rows by cell, then by part, and each row's
    coefficients those of its part on the cell's first atom.  The reference
    of the chain refinement."""
    coeff = _dense_coeffs(d, eps)
    groups = group_columns(coeff + 0.0)
    cell_of = np.empty(d.space.size, dtype=np.intp)
    for c, g in enumerate(groups):
        cell_of[g] = c
    j, w = np.nonzero(d.parts_matrix)
    index, row = np.unique(cell_of[w] * d.k + j, return_inverse=True)
    parts = np.zeros((index.size, d.space.size))
    parts[row, w] = d.parts_matrix[j, w]
    reps = np.array([g[0] for g in groups], dtype=np.intp)
    alphas = coeff[:, index % d.k, reps[index // d.k]]
    return CellDecomposition(d.space, d.mode, tuple(tuple(g) for g in groups),
                             parts, alphas, 0.0 if eps is None else eps)


def _refinements(seed, count, mode):
    """(dense decomposition, coefficients, refinement) triples of the exact
    and the eps-net refinement of random families, every other dense
    decomposition pruned."""
    rng = rng_for(seed)
    for i in range(count):
        n = int(rng.integers(1, 6))
        fs = random_family(rng, random_space(rng, int(rng.integers(1, 13))),
                           n, mode)
        d = _dense_decomposition(fs, mode)
        if i % 2:
            d = prune(d)
        yield d, _dense_coeffs(d), refine_to_constant_coeffs(fs, mode)
        yield d, _dense_coeffs(d, 0.1), eps_net_coeffs(fs, mode, 0.1)


class TestCellRows:
    """The refinement keeps only the nonzero (cell, part) rows of the dense
    block layout, in its order, with their coefficient columns."""

    @pytest.mark.parametrize("mode", [REAL, COMPLEX])
    def test_scatter_matches_mask_product(self, mode):
        for d, _, cd in _refinements(88, 60, mode):
            dense = _mask_product(d, cd.cells)
            keep = np.any(dense != 0.0, axis=1)
            assert cd.parts_matrix.dtype == dense.dtype
            assert cd.parts_matrix.tobytes() == dense[keep].tobytes()

    @pytest.mark.parametrize("mode", [REAL, COMPLEX])
    def test_rows_are_the_nonzero_dense_rows(self, mode):
        for d, rounded, cd in _refinements(89, 40, mode):
            keep = np.any(_mask_product(d, cd.cells) != 0.0, axis=1)
            # dense column c k + j: part j's coefficients on cell c
            reps = [g[0] for g in cd.cells]
            dense_alphas = rounded[:, :, reps].transpose(0, 2, 1).reshape(d.n, -1)
            assert cd.alphas.dtype == np.complex128
            assert cd.alphas.tobytes() == dense_alphas[:, keep].tobytes()
            assert np.all(np.count_nonzero(cd.parts_matrix, axis=0) <= d.n)
            cell_of = np.empty(d.space.size, dtype=np.intp)
            for c, g in enumerate(cd.cells):
                cell_of[list(g)] = c
            for row in cd.parts_matrix:
                assert np.unique(cell_of[row != 0.0]).size == 1


#: values with ties, zero members and signed zeros for the chain paths
CHAIN_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1j, -1j, 1 + 1j, -1 - 1j,
                2j, complex(0, -0.0), complex(-1, -0.0), complex(1, -0.0),
                complex(-0.0, 2), complex(-0.0, -1), complex(-0.0, -0.0)]


def _random_zero_signs(rng, v):
    """``v`` with the sign of each zero real or imaginary part drawn at
    random."""
    def signed(x):
        return np.where(x == 0.0, np.where(rng.random(x.shape) < 0.5, 0.0, -0.0),
                        x)
    if np.iscomplexobj(v):
        # a complex sum would make -0.0 + 0.0 = +0.0
        out = np.empty(v.shape, dtype=np.complex128)
        out.real, out.imag = signed(v.real), signed(v.imag)
        return out
    return signed(v)


def _chain_family(data, mode, kinds=("uniform", "values", "signed zeros",
                                     "zeros", "scaled")):
    """A family of 1..5 members on 1..30 atoms: uniform values, values from
    CHAIN_VALUES (real ones only in real mode), 40% zeros, or each member
    scaled by 2^k down to subnormals; maybe a zero member, maybe atoms that
    repeat a few columns so that cells hold several atoms.  The "signed
    zeros" kind takes CHAIN_VALUES on repeated columns, then draws the sign
    of every zero component, so that atoms may differ in it alone.  The
    kind is drawn from ``kinds``."""
    n = data.draw(st.integers(1, 5), label="n")
    atoms = data.draw(st.integers(1, 30), label="atoms")
    kind = data.draw(st.sampled_from(kinds), label="kind")
    rng = rng_for(data.draw(st.integers(0, 2 ** 31), label="seed"))
    v = rng.uniform(-10.0, 10.0, (n, atoms))
    if mode == COMPLEX:
        v = v + 1j * rng.uniform(-10.0, 10.0, (n, atoms))
    if kind in ("values", "signed zeros"):
        choices = [c for c in CHAIN_VALUES if mode == COMPLEX or not
                   isinstance(c, complex)]
        v = np.array(choices)[rng.integers(len(choices), size=(n, atoms))]
    elif kind == "zeros":
        v = np.where(rng.random((n, atoms)) < 0.4, 0.0, v)
    elif kind == "scaled":
        v = v * 2.0 ** rng.integers(-1070, 1001, size=(n, 1)).astype(float)
    if data.draw(st.booleans(), label="zero member"):
        v[rng.integers(n)] = 0.0
    if kind == "signed zeros" or data.draw(st.booleans(),
                                           label="repeated columns"):
        v = v[:, rng.integers(min(atoms, 4), size=atoms)]
    if kind == "signed zeros":
        v = _random_zero_signs(rng, v)
    return FnFamily(unit_space(atoms), mode, v)


class TestChainPaths:
    """The cell refinements, read from each atom's chain, equal those of
    the dense decomposition, pruned or not, byte for byte."""

    @given(st.sampled_from(((REAL, REAL), (REAL, COMPLEX), (COMPLEX, COMPLEX))),
           st.one_of(st.none(), st.sampled_from((1e-6, 0.01, 0.1, 1.0))),
           st.booleans(), st.data())
    @settings(deadline=None, max_examples=600)
    def test_refinement_matches_dense_refinement(self, modes, eps, pruned,
                                                 data):
        family_mode, mode = modes
        fs = _chain_family(data, family_mode)
        d = _dense_decomposition(fs, mode)
        want = _dense_refinement(prune(d) if pruned else d, eps)
        got = (refine_to_constant_coeffs(fs, mode) if eps is None
               else eps_net_coeffs(fs, mode, eps))
        assert got.cells == want.cells
        assert_same_bytes(got.parts_matrix, want.parts_matrix)
        assert_same_bytes(got.alphas, want.alphas)
        assert got.epsilon == want.epsilon and got.mode == want.mode

    @pytest.mark.parametrize("n", range(1, 7))
    def test_template_matches_cell_by_cell_recursion(self, n):
        # random member orders and signs on as many atoms as the real budget
        # admits: each kept row's sign column and coefficient field are
        # those the recursion builds cell by cell
        rng = rng_for(n)
        atoms = min(50, MAX_ENTRIES // preprune_count(n, REAL))
        moduli = np.array([rng.permutation(n) + 1.0 for _ in range(atoms)]).T
        re = moduli * rng.choice([-1.0, 1.0], size=(n, atoms))
        phases = np.exp(1j * rng.uniform(0.0, 6.0, (n, atoms)))
        assert_matches_recursion(re, re * phases)

    @given(st.sampled_from((REAL, COMPLEX)), st.data())
    @settings(deadline=None, max_examples=300)
    def test_every_coefficient_is_the_members_phase(self, family_mode, data):
        # with the sign of every zero component: the dense coefficients and
        # the exact alphas all read the one phase array of the values
        fs = _chain_family(data, family_mode, kinds=("signed zeros",))
        phases = unit_phases(fs.value_matrix.astype(np.complex128))
        coeffs = decompose_complex(fs).coeffs
        i, _, w = np.nonzero(coeffs)
        assert_same_bytes(coeffs[coeffs != 0.0], phases[i, w])
        cd = refine_to_constant_coeffs(fs, COMPLEX)
        first = np.empty(fs.space.size, dtype=np.intp)
        for g in cd.cells:
            first[list(g)] = g[0]
        # each row is supported in one cell: read it at the first atom there
        rows_first = first[np.argmax(cd.parts_matrix != 0.0, axis=1)]
        i, r = np.nonzero(cd.alphas)
        assert_same_bytes(cd.alphas[i, r], phases[i, rows_first[r]])

    def test_refusals_keep_their_order(self):
        big = FnFamily(unit_space(4), COMPLEX, np.ones((7, 4)))
        with pytest.raises(ValueError, match="above the budget"):
            eps_net_coeffs(big, COMPLEX, 0.0)
        small = FnFamily(unit_space(4), COMPLEX, np.ones((2, 4)))
        with pytest.raises(ValueError, match="eps must be finite"):
            eps_net_coeffs(small, COMPLEX, 0.0)
        big_real = FnFamily(unit_space(5), REAL, np.ones((6, 5)))
        with pytest.raises(ValueError, match="above the budget"):
            refine_to_constant_coeffs(big_real, REAL)
        with pytest.raises(ValueError, match="above the budget"):
            refine_to_constant_coeffs(FnFamily(unit_space(5), COMPLEX,
                                               np.ones((6, 5))), REAL)
        with pytest.raises(ValueError, match="real-mode"):
            eps_net_coeffs(small, REAL, 0.0)


class TestEpsNet:
    def test_net_always_contains_plus_minus_one(self):
        for eps in (0.1, 0.01, 0.5, 2.0, 7.0):
            net = circle_net(eps)
            assert 1.0 + 0.0j in net
            assert -1.0 + 0.0j in net

    # MIN_NET_EPS and 0.3 give m % 4 == 2, 0.1 gives m = 64
    @pytest.mark.parametrize("eps", [MIN_NET_EPS, 0.1, 0.3])
    def test_points_are_the_full_net_bit_for_bit(self, eps):
        net = circle_net(eps)
        m = net.size
        assert (m % 4 == 0) == (eps == 0.1)
        for start in range(0, m, 1 << 20):
            ticks = np.arange(start, min(start + (1 << 20), m))
            assert _net_points(ticks, m).tobytes() == net[ticks].tobytes()
        # any order and repeats
        ticks = rng_for(3).integers(0, m, 5000)
        ticks[:4] = [0, m // 2, m // 4, 3 * m // 4]
        assert _net_points(ticks, m).tobytes() == net[ticks].tobytes()

    @pytest.mark.parametrize("mode", [REAL, COMPLEX])
    @pytest.mark.parametrize("eps", [MIN_NET_EPS, 0.1, 0.3])
    def test_rounding_looks_up_the_full_net(self, mode, eps):
        rng = rng_for(12)
        net = circle_net(eps)
        split = decompose_real if mode == REAL else decompose_complex
        for _ in range(20):
            fs = random_family(rng, random_space(rng, int(rng.integers(1, 9))),
                               int(rng.integers(1, 4)), mode)
            coeff = _dense_coeffs(split(fs))
            nonzero = coeff != 0.0
            ticks = (np.rint(np.angle(coeff[nonzero]) * net.size
                             / (2.0 * math.pi)).astype(np.int64) % net.size)
            want = np.zeros(coeff.shape, dtype=np.complex128)
            want[nonzero] = net[ticks]
            assert _net_round(coeff, eps).tobytes() == want.tobytes()

    def test_finest_net_costs_no_table(self):
        # the whole net at MIN_NET_EPS takes 6,283,186 x 16 bytes = 100 MB
        rng = rng_for(5)
        fs = random_family(rng, random_space(rng, 4), 2, COMPLEX)
        tracemalloc.start()
        try:
            cd = eps_net_coeffs(fs, COMPLEX, MIN_NET_EPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert verify_cell_decomposition(cd, fs).passed

    def test_real_data_has_zero_residual(self):
        rng = rng_for(6)
        fs = random_family(rng, random_space(rng, 6), 3, REAL)
        cd = eps_net_coeffs(fs, COMPLEX, 0.3)
        assert np.max(np.abs(cd.recombined() - fs.value_matrix)) == 0.0

    def test_single_atom_rounding_bound(self):
        # |f - alpha h| = |phase - alpha| |f| <= eps |f|
        sp = unit_space(1)
        theta = 0.7
        f = SimpleFn(sp, COMPLEX, [5.0 * np.exp(1j * theta)])
        cd = eps_net_coeffs(FnFamily(sp, COMPLEX, [f.values]), COMPLEX, 0.1)
        assert abs(cd.alphas[0, 0] - np.exp(1j * theta)) <= 0.1
        resid = abs(f.values[0] - cd.recombined()[0, 0])
        assert resid <= 0.5

    def test_huge_eps_still_bounded(self):
        rng = rng_for(7)
        fs = random_family(rng, random_space(rng, 4), 2, COMPLEX)
        cd = eps_net_coeffs(fs, COMPLEX, 2.5)
        assert verify_cell_decomposition(cd, fs).passed

    def test_nonpositive_eps_rejected(self):
        fs = FnFamily(unit_space(1), COMPLEX, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            eps_net_coeffs(fs, COMPLEX, 0.0)

    @given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 2 ** 31),
           st.sampled_from([0.25, 0.1, 0.03]))
    @settings(deadline=None, max_examples=40)
    def test_pointwise_bound_random(self, n, atoms, seed, eps):
        rng = rng_for(seed)
        fs = random_family(rng, random_space(rng, atoms), n, COMPLEX)
        cd = eps_net_coeffs(fs, COMPLEX, eps)
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
            cd = eps_net_coeffs(fs, COMPLEX, eps)
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

    def test_lp_solve_budget(self):
        # n = 3, k_max = 2 is 27 + 351 = 378 candidates; on 600 active atoms
        # that is 226,800 per-atom solves, above MAX_LP_SOLVES = 200,000
        values = np.tile([[1.0], [1.0], [-1.0]], (1, 600))
        fs = FnFamily(unit_space(600), REAL, values)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"n = 3 and k_max = 2 on 600 "
                                             r"active atoms needs up to "
                                             r"226,800 LP solves, above the "
                                             r"budget of 200,000"):
            optimal_k_search(fs, 2)
        assert time.perf_counter() - start < 1.0
        # atoms where every member vanishes need no solve: 500 active atoms
        # (189,000 solves) pass the check, and one column already works
        values[:, 500:] = 0.0
        res = optimal_k_search(FnFamily(unit_space(600), REAL, values), 2)
        assert res.k == 1 and res.candidates_tried <= 27


def _reference_atom_feasible(matrix, target, total):
    """The vertex h >= 0 of sum h = total, matrix @ h = target, or None, read
    off the oracle's ``LinearProgram`` path, which scales the rows and the
    right-hand sides together: the per-atom decision before the search
    posed integer rows and scaled only the right-hand sides."""
    k = matrix.shape[1]
    start = oracle._feasible_tableau(LinearProgram(
        np.zeros(k), np.vstack([np.ones((1, k)), matrix]),
        np.concatenate([[total], target])))
    if start is None:
        return None
    tab, basis, d, _ = start
    h = [Fraction(0)] * k
    for row, b in zip(tab, basis):
        if b < k:
            h[b] = Fraction(row[-1], d)
    return h


def _atom_feasible(matrix, target, total):
    """``oracle.feasible_point`` on an atom's system as the search poses it:
    the integer rows [1 ... 1; matrix] and the right-hand side [total,
    target]."""
    return oracle.feasible_point([[1] * matrix.shape[1], *matrix.tolist()],
                                 [total, *target.tolist()])


def _reference_optimal_k(fs, k_max):
    """The search before the face bound: every candidate, in order, solves
    the per-atom systems until one fails (the budget checks left out)."""
    values = fs.value_matrix
    latmax = np.max(np.abs(values), axis=0)
    active = np.nonzero(latmax > 0.0)[0]
    all_columns = [np.array(t, dtype=np.int8)
                   for t in itertools.product((-1, 0, 1), repeat=fs.size)]
    tried = solves = 0
    infeasible = []
    for k in range(1, k_max + 1):
        for combo in itertools.combinations(all_columns, k):
            tried += 1
            matrix = np.stack(combo, axis=1).astype(np.float64)
            points = []
            ok = True
            for w in active:
                solves += 1
                h = _reference_atom_feasible(matrix, values[:, w],
                                             float(latmax[w]))
                if h is None:
                    ok = False
                    break
                points.append((w, h))
            if not ok:
                continue
            parts_matrix = np.zeros((k, fs.space.size))
            for w, h in points:
                parts_matrix[:, w] = [float(v) for v in h]
            parts = tuple(SimpleFn(fs.space, REAL, row) for row in parts_matrix)
            return OptimalKResult(True, k, matrix.astype(np.int8), parts,
                                  tuple(infeasible), k_max, tried, solves)
        infeasible.append(k)
    return OptimalKResult(False, None, None, None, tuple(infeasible), k_max,
                          tried, solves)


VALUE_CLASSES = ("generated", "halves", "signs", "near-ties")


def _class_values(rng, kind, n, atoms):
    """(n, atoms) values of one class: as ``generate`` draws them, multiples
    of 1/2, {-1, 0, 1} times a scale, halves with near-ties of +-1e-12 and
    1e-9 (which also makes atoms with a tiny lattice max), or "tiny",
    uniform values of magnitude 1e-12 to 1e-5."""
    if kind == "generated":
        return random_family(rng, unit_space(atoms), n, REAL).value_matrix
    if kind == "halves":
        return rng.integers(-4, 5, size=(n, atoms)) / 2.0
    if kind == "signs":
        return rng.integers(-1, 2, size=(n, atoms)) * 10.0 ** rng.uniform(-3, 3)
    if kind == "tiny":
        return rng.uniform(-1.0, 1.0, size=(n, atoms)) * 10.0 ** rng.uniform(-12, -5)
    return (rng.integers(-2, 3, size=(n, atoms)) / 2.0
            + rng.choice([0.0, 1e-12, -1e-12, 1e-9], size=(n, atoms)))


def _reference_face_rejected(matrices, values):
    """The cube-face bound as a violation: which (candidate, atom) pairs of
    the (N, n, k) sign ``matrices`` and (n, atoms) ``values`` have v > 0,
    where v = max_i max(p_i - M_i, m_i - p_i, 0) over the max M_i and min
    m_i of row i on the columns of the atom's face, and v = 1 when the
    candidate has no column there."""
    n = matrices.shape[1]
    latmax = np.max(np.abs(values), axis=0)
    tight = np.argmax(np.abs(values) == latmax, axis=0)
    faces = 2 * tight + (values[tight, np.arange(values.shape[1])] > 0.0)
    points = (values / latmax).T
    rows = np.repeat(np.arange(n), 2)           # face 2 a + (s > 0)
    signs = np.tile(np.array([-1, 1], dtype=np.int8), n)
    in_face = (matrices[:, rows, :] == signs[:, None])[:, :, None, :]
    cols = matrices[:, None]                    # candidate, face, row, column
    hi = np.where(in_face, cols, -1).max(axis=3)
    lo = np.where(in_face, cols, 1).min(axis=3)
    viol = np.zeros((matrices.shape[0], faces.size))
    for i in range(n):
        np.maximum(viol, points[:, i] - hi[:, faces, i], out=viol)
        np.maximum(viol, lo[:, faces, i] - points[:, i], out=viol)
    viol[~in_face.any(axis=3)[:, faces, 0]] = 1.0
    return viol > 0.0


def _mask_rejected(matrices, values):
    """The (candidate, atom) verdicts of ``_face_masks`` on the (N, n, k)
    sign ``matrices``: rejected unless a candidate's masks OR to all bits."""
    count, n, k = matrices.shape
    masks = _face_masks(matrices.transpose(0, 2, 1).reshape(-1, n), values)
    joined = np.bitwise_or.reduce(masks.reshape(count, k, -1), axis=1)
    return joined != (1 << 2 * n) - 1


def _random_pairs(rng, n_max, kinds, count=100):
    """Random sign matrices and value columns of the ``kinds`` at n in
    1..n_max, with the face masks' (candidate, atom) verdicts on them."""
    for i in range(count):
        n = int(rng.integers(1, n_max + 1))
        k = int(rng.integers(1, 2 ** n + 2))
        matrices = rng.integers(-1, 2, size=(8, n, k)).astype(np.int8)
        values = _class_values(rng, kinds[i % len(kinds)], n, 6)
        values = values[:, np.max(np.abs(values), axis=0) > 0.0]
        yield matrices, values, _mask_rejected(matrices, values)


def assert_same_search(fs, k_max):
    got, want = optimal_k_search(fs, k_max), _reference_optimal_k(fs, k_max)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    if want.signs is not None:
        assert_same_bytes(got.signs, want.signs)
    assert ([p.values.tobytes() for p in got.parts or ()]
            == [p.values.tobytes() for p in want.parts or ()])
    assert got.lp_solves <= want.lp_solves


class TestFaceBound:
    """The cube-face bound in front of the per-atom systems: the same
    results, byte for byte, as trying every candidate with the oracle, and
    no rejected pair that has an exact vertex."""

    # the old loop costs about 20-40 ms per n <= 2 family and 0.3 s per
    # n = 3 family, so each value class is its own test
    @pytest.mark.parametrize("kind", VALUE_CLASSES)
    def test_matches_lp_enumeration_n_le_2(self, kind):
        rng = rng_for(1500 + VALUE_CLASSES.index(kind))
        for i in range(50):
            n = 1 + i % 2
            values = _class_values(rng, kind, n, int(rng.integers(1, 21)))
            assert_same_search(FnFamily(unit_space(values.shape[1]), REAL,
                                        values), 2 ** n + 1)

    @pytest.mark.parametrize("kind", VALUE_CLASSES)
    def test_matches_lp_enumeration_n3(self, kind):
        rng = rng_for(1510 + VALUE_CLASSES.index(kind))
        for _ in range(4):
            values = _class_values(rng, kind, 3, int(rng.integers(1, 6)))
            assert_same_search(FnFamily(unit_space(values.shape[1]), REAL,
                                        values), 3)

    @pytest.mark.parametrize("values", [
        [[2.0, -1e-12]], [[2.0, -1e-9]], [[2.0, -1e-7]],
        [[1.0, 0.5], [-1e-12, 1.0]]])
    def test_matches_lp_enumeration_on_tiny_values(self, values):
        fs = FnFamily(unit_space(2), REAL, values)
        assert_same_search(fs, 2 ** fs.size + 1)

    @pytest.mark.parametrize("n, k_max", [(4, 2), (5, 1), (6, 1), (7, 1)])
    def test_matches_lp_enumeration_n_ge_4(self, n, k_max):
        # masks of up to 2 n = 14 bits; one atom in {-1, 0, 1}^n is its own
        # column, so that family needs one part
        rng = rng_for(1526 + n)
        for kind in VALUE_CLASSES:
            values = _class_values(rng, kind, n, int(rng.integers(1, 4)))
            assert_same_search(FnFamily(unit_space(values.shape[1]), REAL,
                                        values), k_max)
        column = np.array([[1.0], [-1.0], [0.0], [1.0], [0.0], [-1.0], [1.0]])
        fs = FnFamily(unit_space(1), REAL, column[:n])
        assert optimal_k_search(fs, k_max).k == 1
        assert_same_search(fs, k_max)

    def test_masks_match_the_violation_formula(self):
        rng = rng_for(1522)
        sizes = set()
        for matrices, values, mask in _random_pairs(
                rng, 4, (*VALUE_CLASSES, "tiny"), count=400):
            sizes.add(matrices.shape[1])
            assert np.array_equal(mask, _reference_face_rejected(matrices, values))
        assert sizes == {1, 2, 3, 4}

    def test_rejects_only_lp_infeasible_pairs(self):
        rng = rng_for(1520)
        rejected = 0
        for matrices, values, mask in _random_pairs(rng, 3, (*VALUE_CLASSES, "tiny")):
            latmax = np.max(np.abs(values), axis=0)
            for c, w in zip(*np.nonzero(mask)):
                rejected += 1
                assert _atom_feasible(matrices[c], values[:, w],
                                      float(latmax[w])) is None
        assert rejected > 1000

    def test_exact_at_n_le_2(self):
        # the face is a point or a segment, and these values are off its
        # hull by at least 1/2 or the scale: no survivor is infeasible
        rng = rng_for(1521)
        survivors = 0
        for matrices, values, mask in _random_pairs(rng, 2, ("halves", "signs")):
            latmax = np.max(np.abs(values), axis=0)
            for c, w in zip(*np.nonzero(~mask)):
                survivors += 1
                assert _atom_feasible(matrices[c], values[:, w],
                                      float(latmax[w])) is not None
        assert survivors > 100

    def test_lp_count_on_the_pattern_family(self, monkeypatch):
        calls = []
        feasible_point = oracle.feasible_point
        monkeypatch.setattr(oracle, "feasible_point", lambda rows, rhs:
                            calls.append(rhs) or feasible_point(rows, rhs))
        res = optimal_k_search(pattern_family_n2(), 5)
        assert len(calls) == res.lp_solves == 9
        assert res.k == 4 and res.candidates_tried == 164

    @given(kind=st.sampled_from((*VALUE_CLASSES, "tiny")), n=st.integers(1, 2),
           atoms=st.integers(1, 8), seed=st.integers(0, 10_000),
           k=st.integers(-60, 60))
    @settings(deadline=None, max_examples=150)
    def test_power_of_two_scaling_is_exact(self, kind, n, atoms, seed, k):
        # scaling by 2^k is exact away from overflow and subnormals, so the
        # answer must not change and the parts must scale bit for bit
        values = _class_values(rng_for(seed), kind, n, atoms)
        factor = 2.0 ** k
        base = optimal_k_search(FnFamily(unit_space(atoms), REAL, values),
                                2 ** n + 1)
        scaled = optimal_k_search(
            FnFamily(unit_space(atoms), REAL, values * factor), 2 ** n + 1)
        assert json.dumps(scaled.to_json()) == json.dumps(base.to_json())
        assert scaled.lp_solves == base.lp_solves
        assert ([p.values.tobytes() for p in scaled.parts or ()]
                == [(p.values * factor).tobytes() for p in base.parts or ()])


class TestAtomSystems:
    """The per-atom systems as the search poses them, integer sign rows
    under a row of ones with only the right-hand side scaled, give the
    vertex of the path that scales rows and right-hand side together: a
    positive factor on every row, or on the right-hand side alone, moves no
    pivot."""

    @given(kind=st.sampled_from((*VALUE_CLASSES, "tiny")), n=st.integers(1, 3),
           k=st.integers(1, 9), seed=st.integers(0, 10_000),
           e=st.integers(-60, 60))
    @settings(deadline=None, max_examples=300)
    def test_vertex_matches_the_scaled_program_path(self, kind, n, k, seed, e):
        rng = rng_for(seed)
        matrix = rng.integers(-1, 2, size=(n, k)).astype(np.int8)
        target = _class_values(rng, kind, n, 1)[:, 0] * 2.0 ** e
        total = float(np.max(np.abs(target)))
        got = _atom_feasible(matrix, target, total)
        assert got == _reference_atom_feasible(matrix.astype(np.float64),
                                               target, total)
        assert got is None or all(type(v) is Fraction for v in got)


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
    """The digest of the parts and the coefficients, with the recursion's
    k(m) for m = n, ..., 1, which the pins were taken with."""
    coeffs = d.signs if d.signs is not None else d.coeffs
    return _sha(d.parts_matrix, coeffs,
                [preprune_count(m, d.mode) for m in range(d.n, 0, -1)])


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
    fields, cell refinements and the decompose documents."""

    SEEDED = {
        (REAL, 1): "e1a1ab64942f2344ac32b9a4609784988384f60ec23eb7aa5e779f6b518017b6",
        (REAL, 7): "939c6e0bcca5b00a35034feb3651e7c2b48a891efc1d49425cb680fc439c24de",
        (REAL, 50): "006d7e854b200305c69bd96dae60052471e36ee598b01acbce6ba18181fa6e28",
        (COMPLEX, 1): "5e29e0ee8a6fcd76ce1a1afe6ec1ca3f051b620a8be0395072381031f4e5bd90",
        (COMPLEX, 7): "9cf0b19fdd382a167081181a23d4019feeb7690c13445827c4212d8b0ed392cc",
        (COMPLEX, 50): "0cc0d8068626dedbbb319bf8e09f9d2212ac89a71dc47d0262c4d606793617cf",
    }
    TIES = {
        "real": "eaf528d22c5d522cd88224b46f7c36d2f0a9436cdd27a86366c194e677a487d3",
        "complex": "121d961a803df62f6408ddc5a6291dbdda3af5d6d2a3451dfe8cd0785c6b7f30",
        "real-as-complex":
            "458b57af7c393bab649d8051ede785a52aec587a0a90fe76c0d4ed230df0aa2b",
    }
    CELLS = {
        "real": "705df707392a72a1eef672bd56494fc2d0f6b7b31762923fdf9c2336ed7eaf6b",
        "complex": "3aa47966bcc1b9f29bfe78f60cf25f92a9feee4be0aee2d1a78c19b0f0138f37",
        "ties-real": "d4fe78ddc2df2283af17f85381d780c66c70bd9567d18b66d2bed359b55f4fbd",
        "ties-complex":
            "06c1fe28dec4441e850b696aa6a34b28725b49305e824621f141e0010dabf9cf",
    }
    # re-pinned when decompose documents lost their "trace" entry, the
    # recursion's k(m) per level
    CLI_OUT = "d76454a1b2a3d22463db05a661f5cac762448fa9868062b62199fe4dc5d9ec5f"

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
        cases = {"real": (_golden_family(3, 7, REAL), REAL),
                 "complex": (_golden_family(3, 7, COMPLEX), COMPLEX),
                 "ties-real": (_ties_family(REAL), REAL),
                 "ties-complex": (_ties_family(COMPLEX), COMPLEX)}
        got = {name: _sha(_cells_digest(refine_to_constant_coeffs(fs, mode)),
                          _cells_digest(eps_net_coeffs(fs, mode, 0.1)))
               for name, (fs, mode) in cases.items()}
        assert got == self.CELLS

    def test_decompose_out_bytes(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(jsonio.dumps(jsonio.family_to_json(
            _golden_family(3, 6, REAL))))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(fam), "--out", str(out),
                     "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CLI_OUT

    # the same report in the other mode and through each refinement flag
    CLI_OUTS = {
        (COMPLEX, ""): "0997f9d3ac289edab46660779159abace77157fe1a02776b3fc991e84279048c",
        (COMPLEX, "--prune --cells"):
            "da250c319ad82fbe6a017709450899be501b0f3b119c28e3897da989962098dc",
        (COMPLEX, "--eps 0.1"):
            "2944d2e7da3f53d253a49f4d9f976ce904697a2bdd88532e5048ca86ade71161",
        (REAL, "--prune --cells"):
            "acb0b94ee7c01b723272bdd32a2925222478ee46f7cea8e83ae719c55ed8cdcb",
    }

    @pytest.mark.parametrize("mode,flags", sorted(CLI_OUTS))
    def test_decompose_out_bytes_by_flags(self, tmp_path, mode, flags):
        fam = tmp_path / "fam.json"
        fam.write_text(jsonio.dumps(jsonio.family_to_json(
            _golden_family(3, 6, mode))))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(fam), *flags.split(),
                     "--out", str(out), "--quiet"]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.CLI_OUTS[mode, flags]


class TestRefinementBuildsNothingDense:
    """--cells and --eps documents are refined from the family and checked
    by the refinement's own check: no decomposition is built or verified,
    and the documents keep their bytes."""

    #: the pinned documents, and --eps 0.1 on the real family
    OUTS = {**TestGoldenBytes.CLI_OUTS,
            (REAL, "--eps 0.1"):
                "88f33a070194768511cca97c493a8c9df3c7bb59f553c84e928eb3a42284be3c"}

    @pytest.mark.parametrize("mode", [REAL, COMPLEX])
    @pytest.mark.parametrize("flags", ["--cells", "--prune --cells",
                                       "--eps 0.1"])
    def test_refined_documents(self, tmp_path, monkeypatch, mode, flags):
        def dense(*args):
            raise AssertionError("a dense decomposition was built")
        for name in ("decompose_real", "decompose_complex",
                     "verify_decomposition"):
            monkeypatch.setattr(cli, name, dense)
        fam = tmp_path / "fam.json"
        fam.write_text(jsonio.dumps(jsonio.family_to_json(
            _golden_family(3, 6, mode))))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(fam), *flags.split(),
                     "--out", str(out), "--quiet"]) == 0
        # --prune changes no refinement, so --cells has the --prune pin
        pin = self.OUTS[mode, "--prune --cells" if flags == "--cells" else flags]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin
