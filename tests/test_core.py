import ast
import keyword
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l1lattice
from l1lattice import (COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn,
                       argmax_partition, d_norm, l1_norm, lattice_max,
                       pos_neg_split, zero_fn)
from l1lattice.core import group_columns, unit_phases


def space(n, weights=None):
    return MeasureSpace(tuple(f"a{i}" for i in range(n)),
                        tuple(weights or (1.0,) * n))


finite_vals = st.lists(st.floats(min_value=-10, max_value=10,
                                 allow_nan=False), min_size=1, max_size=8)


class TestMeasureSpace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MeasureSpace((), ())

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            MeasureSpace(("a",), (0.0,))

    def test_rejects_negative_and_nonfinite_weight(self):
        with pytest.raises(ValueError):
            MeasureSpace(("a",), (-1.0,))
        with pytest.raises(ValueError):
            MeasureSpace(("a",), (float("inf"),))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            MeasureSpace(("a", "a"), (1.0, 1.0))


class TestSimpleFn:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            SimpleFn(space(2), REAL, [1.0])

    def test_real_mode_rejects_imaginary(self):
        with pytest.raises(ValueError):
            SimpleFn(space(1), REAL, [1.0 + 1e-30j])

    def test_values_immutable(self):
        f = SimpleFn(space(2), REAL, [1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0] = 3.0


class TestL1Norm:
    def test_zero_function(self):
        assert l1_norm(SimpleFn(space(2), REAL, [0.0, 0.0])) == 0.0

    def test_sum_of_absolute_values(self):
        assert l1_norm(SimpleFn(space(2), REAL, [2.0, -3.0])) == 5.0

    def test_complex_hand_sum(self):
        # hand: 2*|1| + 3*|i| = 5
        f = SimpleFn(space(2, (2.0, 3.0)), COMPLEX, [1.0 + 0.0j, 1.0j])
        assert l1_norm(f) == 5.0

    @given(finite_vals)
    @settings(deadline=None)
    def test_nonnegative_and_zero_iff_zero(self, vals):
        f = SimpleFn(space(len(vals)), REAL, vals)
        norm = l1_norm(f)
        assert norm >= 0.0
        assert (norm == 0.0) == all(v == 0.0 for v in vals)


class TestLatticeMax:
    def test_single_function_modulus(self):
        fs = FnFamily(space(2), REAL, [[1.0, -2.0]])
        assert np.array_equal(lattice_max(fs).values, [1.0, 2.0])

    def test_pointwise_max(self):
        fs = FnFamily(space(2), REAL, [[1.0, -2.0], [-3.0, 1.0]])
        assert np.array_equal(lattice_max(fs).values, [3.0, 2.0])

    def test_complex_modulus(self):
        # hand: |3+4i| = 5
        sp = space(2)
        fs = FnFamily(sp, COMPLEX, [[3.0 + 4.0j, 0.0], [0.0, 1.0 + 0.0j]])
        assert np.array_equal(lattice_max(fs).values, [5.0, 1.0])

    @given(finite_vals, finite_vals)
    @settings(deadline=None)
    def test_monotone_in_family_inclusion(self, a, b):
        n = min(len(a), len(b))
        sp = space(n)
        small = FnFamily(sp, REAL, [a[:n]])
        large = FnFamily(sp, REAL, [a[:n], b[:n]])
        assert np.all(lattice_max(large).values >= lattice_max(small).values)


class TestDNorm:
    def test_disjoint_supports(self):
        sp = space(2)
        fs = FnFamily(sp, REAL, [[1.0, 0.0], [0.0, 1.0]])
        assert d_norm(fs) == 2.0

    def test_singleton_equals_l1(self):
        f = SimpleFn(space(3, (1.0, 2.0, 0.5)), REAL, [1.0, -4.0, 2.0])
        assert d_norm(FnFamily(f.space, REAL, [f.values])) == l1_norm(f)

    def test_constant_max_mass(self):
        # hand: max == 1 everywhere, total mass 2 + 3 = 5
        sp = space(2, (2.0, 3.0))
        fs = FnFamily(sp, REAL, [[1.0, 1.0], [1.0, -1.0]])
        assert d_norm(fs) == 5.0


class TestArgmaxPartition:
    def test_unique_argmax(self):
        sp = space(2)
        fs = FnFamily(sp, REAL, [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(argmax_partition(fs.value_matrix), [0, 1])

    def test_tie_goes_to_lowest_index(self):
        sp = space(2)
        fs = FnFamily(sp, REAL, [[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(argmax_partition(fs.value_matrix), [0, 0])

    def test_mixed_tie_and_dominance(self):
        # atom 0 ties |2| = |-2| -> index 0; atom 1 has 5 > 4 -> index 0
        sp = space(2)
        fs = FnFamily(sp, REAL, [[2.0, -5.0], [-2.0, 4.0]])
        assert np.array_equal(argmax_partition(fs.value_matrix), [0, 0])

    @given(finite_vals, finite_vals)
    @settings(deadline=None)
    def test_cell_attains_max_and_no_lower_index_does(self, a, b):
        n = min(len(a), len(b))
        sp = space(n)
        fs = FnFamily(sp, REAL, [a[:n], b[:n]])
        cells = argmax_partition(fs.value_matrix)
        moduli = np.abs(fs.value_matrix)
        for w, i in enumerate(cells):
            assert moduli[i, w] == moduli[:, w].max()
            assert all(moduli[j, w] < moduli[i, w] for j in range(i))


class TestPosNegSplit:
    def test_defining_property(self):
        plus, minus = pos_neg_split(np.array([2.0, -3.0]))
        assert np.array_equal(plus, [2.0, 0.0])
        assert np.array_equal(minus, [0.0, 3.0])

    def test_zero(self):
        plus, minus = pos_neg_split(zero_fn(space(2)).values)
        assert np.all(plus == 0.0) and np.all(minus == 0.0)

    def test_negative_function(self):
        plus, minus = pos_neg_split(np.array([-1.0, -1.0]))
        assert np.all(plus == 0.0)
        assert np.array_equal(minus, [1.0, 1.0])

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            pos_neg_split(np.array([1.0 + 0.0j]))

    @given(finite_vals)
    @settings(deadline=None)
    def test_bit_exact_reconstruction(self, vals):
        f = SimpleFn(space(len(vals)), REAL, vals)
        plus, minus = pos_neg_split(f.values)
        assert np.all(plus >= 0.0) and np.all(minus >= 0.0)
        assert np.array_equal(plus - minus, f.values)
        assert np.array_equal(plus + minus, np.abs(f.values))
        assert np.all(plus * minus == 0.0)


def _dict_group_columns(keys):
    """The reference: one dict entry per distinct column's bytes."""
    groups = {}
    for w in range(keys.shape[-1]):
        groups.setdefault(keys[..., w].tobytes(), []).append(w)
    return list(groups.values())


def _nan(payload):
    return np.array([0x7FF8000000000000 | payload]).view(np.float64)[0]


class TestGroupColumns:
    CASES = {
        "signed zeros": np.array([[0.0, -0.0, 0.0, -0.0], [1.0, 1.0, 1.0, 1.0]]),
        "nan payloads": np.array([[_nan(0), _nan(1), _nan(0), _nan(2)]]),
        "complex zeros": np.array([[0j, complex(0.0, -0.0), complex(-0.0, 0.0),
                                    0j]]),
        "one atom": np.array([[[1.0 + 2.0j], [3.0 - 1.0j]]]),
        "all equal": np.ones((3, 4, 6), dtype=np.complex128),
        # the same bit sums, different columns
        "permuted": np.array([[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]]),
        "swapped parts": np.array([[1.0 + 2.0j, 2.0 + 1.0j, 1.0 + 2.0j]]),
        "broadcast": np.broadcast_to(np.array([[1.0], [-0.0]]), (2, 5)),
        "strided": np.arange(24.0).reshape(2, 3, 4)[:, ::2, ::-1] % 3,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_dict_loop(self, case):
        keys = self.CASES[case]
        assert group_columns(keys) == _dict_group_columns(keys)

    def test_first_occurrence_order(self):
        keys = np.array([[3.0, 1.0, 3.0, 2.0, 1.0, -0.0]])
        assert group_columns(keys) == [[0, 2], [1, 4], [3], [5]]

    @given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 2 ** 31),
           st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_random_columns_from_few_values(self, rows, atoms, seed, cplx):
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 1.0, -1.0, np.nan, _nan(5)])
        keys = values[rng.integers(0, values.size, (rows, atoms))]
        if cplx:
            keys = keys + 1j * values[rng.integers(0, values.size,
                                                   (rows, atoms))]
        assert group_columns(keys) == _dict_group_columns(keys)


#: finite components with both zeros and subnormals
components = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                       st.floats(allow_nan=False, allow_infinity=False))


class TestUnitPhases:
    def test_negative_zero_imaginary_part_kept(self):
        p = unit_phases(np.array([complex(-2.0, -0.0)]))
        assert p[0] == -1.0
        assert np.signbit(p.real[0]) and np.signbit(p.imag[0])

    def test_negative_zero_real_part_kept(self):
        p = unit_phases(np.array([complex(-0.0, 1.0)]))
        assert p[0] == 1j
        assert np.signbit(p.real[0]) and not np.signbit(p.imag[0])

    def test_zero_is_positive_zero(self):
        p = unit_phases(np.array([complex(-0.0, -0.0), 0.0]))
        assert p.tobytes() == np.zeros(2, dtype=np.complex128).tobytes()

    @given(st.lists(st.tuples(components, components), min_size=1,
                    max_size=12))
    @settings(deadline=None)
    def test_components_keep_their_signs(self, pairs):
        v = np.empty(len(pairs), dtype=np.complex128)
        v.real, v.imag = np.array(pairs).T
        p = unit_phases(v)
        nz = np.abs(v) > 0.0
        assert np.array_equal(np.signbit(p.real[nz]), np.signbit(v.real[nz]))
        assert np.array_equal(np.signbit(p.imag[nz]), np.signbit(v.imag[nz]))


def _private_definitions(tree):
    """(name, node) of every module-level private function, class or
    constant of ``tree``; dunder names are not private helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_helper_has_a_caller():
    """Every module-level private function, class or constant in src/ is
    read by name somewhere outside its own definition."""
    src = Path(__file__).resolve().parents[1] / "src" / "l1lattice"
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    uses = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)]
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            own = {id(n) for n in ast.walk(definition)}
            if not any(used == name and id(node) not in own
                       for used, node in uses):
                unused.append(f"{module}: {name}")
    assert unused == []


def test_readme_library_names_exist():
    """Every backticked name in README's Library paragraph is public."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = text.split("\n## Library\n\n", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", paragraph)
    assert "refine_to_constant_coeffs" in names
    missing = [n for n in names if not keyword.iskeyword(n)
               and not hasattr(l1lattice, n) and not hasattr(l1lattice.lp, n)]
    assert missing == []
