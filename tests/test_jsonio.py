"""The JSON boundary, where a container's rows are separate functions: the
round trip keeps every matrix bit for bit, and rows that disagree with the
container's space or mode are refused with the message naming the rule."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l1lattice import (COMPLEX, REAL, FnFamily, MeasureSpace,
                       RestrictedOperator, Subspace, TensorElement, jsonio)

EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, -2.2250738585072014e-308,
        1e300, -1.0]
reals = st.one_of(st.sampled_from(EDGE),
                  st.floats(allow_nan=False, allow_infinity=False))
modes = st.sampled_from([REAL, COMPLEX])


def space(n, prefix="a"):
    return MeasureSpace(tuple(f"{prefix}{i}" for i in range(n)), (1.0,) * n)


@st.composite
def matrices(draw, rows, cols, mode=REAL):
    re = np.array(draw(st.lists(reals, min_size=rows * cols,
                                max_size=rows * cols))).reshape(rows, cols)
    if mode == REAL:
        return re
    im = np.array(draw(st.lists(reals, min_size=rows * cols,
                                max_size=rows * cols))).reshape(rows, cols)
    return re + 1j * im


def round_trip(doc):
    return json.loads(jsonio.dumps(doc))


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestRoundTripProperties:
    @given(st.data(), modes, st.integers(1, 4), st.integers(1, 5))
    @settings(deadline=None, max_examples=60)
    def test_family(self, data, mode, n, atoms):
        fs = FnFamily(space(atoms), mode, data.draw(matrices(n, atoms, mode)))
        back = jsonio.family_from_json(round_trip(jsonio.family_to_json(fs)))
        assert back.space == fs.space and back.mode == mode
        assert_bits_equal(back.value_matrix, fs.value_matrix)

    @given(st.data(), modes, st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4))
    @settings(deadline=None, max_examples=60)
    def test_tensor(self, data, mode, terms, mu_atoms, nu_atoms):
        g = TensorElement(space(mu_atoms), space(nu_atoms, "s"), mode,
                          data.draw(matrices(terms, mu_atoms, mode)),
                          data.draw(matrices(terms, nu_atoms, mode)))
        back = jsonio.tensor_from_json(round_trip(jsonio.tensor_to_json(g)))
        assert back.mu_space == g.mu_space and back.nu_space == g.nu_space
        assert_bits_equal(back.f_matrix, g.f_matrix)
        assert_bits_equal(back.phi_matrix, g.phi_matrix)

    @given(st.data(), st.integers(1, 3), st.integers(0, 2), st.integers(1, 4))
    @settings(deadline=None, max_examples=60)
    def test_subspace_and_images(self, data, dim, extra_atoms, nu_atoms):
        ambient = space(dim + extra_atoms)
        basis = data.draw(matrices(dim, ambient.size))
        try:
            # an all-zero basis makes the reported singular value ratio 0/0
            with np.errstate(invalid="ignore"):
                x = Subspace(ambient, basis)
        except ValueError:
            assume(False)       # a dependent draw is not a subspace
        t = RestrictedOperator(x, space(nu_atoms, "s"),
                               data.draw(matrices(dim, nu_atoms)))
        x_back = jsonio.subspace_from_json(round_trip(jsonio.subspace_to_json(x)))
        t_back = jsonio.images_from_json(round_trip(jsonio.images_to_json(t)),
                                         x_back)
        assert_bits_equal(x_back.basis_matrix, x.basis_matrix)
        assert t_back.codomain == t.codomain
        assert_bits_equal(t_back.image_matrix, t.image_matrix)


SP2 = {"atoms": ["a", "b"], "weights": [1.0, 1.0]}
SP3 = {"atoms": ["a", "b", "c"], "weights": [1.0, 1.0, 1.0]}


def fn(sp, values, mode=REAL):
    return {"space": sp, "mode": mode, "values": values}


# (reader, document, message): rows that do not fit their container
MISFITS = {
    "family-space": (
        jsonio.family_from_json,
        {"members": [fn(SP2, [1.0, 2.0]), fn(SP3, [1.0, 2.0, 3.0])]},
        "family members must live on the same space"),
    "family-mode": (
        jsonio.family_from_json,
        {"members": [fn(SP2, [1.0, 2.0]), fn(SP2, [[1.0, 0.0], [2.0, 0.0]],
                                             COMPLEX)]},
        "family members must share the same mode"),
    "family-empty": (
        jsonio.family_from_json, {"members": []},
        "a family needs at least one member"),
    "tensor-left-space": (
        jsonio.tensor_from_json,
        {"mu": SP2, "nu": SP3,
         "terms": [{"f": fn(SP3, [1.0, 2.0, 3.0]), "phi": fn(SP3, [1.0, 0.0, 0.0])}]},
        "left factors must live on the mu space"),
    "tensor-right-space": (
        jsonio.tensor_from_json,
        {"mu": SP2, "nu": SP3,
         "terms": [{"f": fn(SP2, [1.0, 2.0]), "phi": fn(SP2, [1.0, 0.0])}]},
        "right factors must live on the nu space"),
    "tensor-mode": (
        jsonio.tensor_from_json,
        {"mu": SP2, "nu": SP2, "mode": COMPLEX,
         "terms": [{"f": {"values": [[1.0, 0.0], [0.0, 1.0]], "mode": COMPLEX},
                    "phi": {"values": [1.0, 0.0]}}]},
        "term modes must match the tensor mode"),
    "tensor-empty": (
        jsonio.tensor_from_json, {"mu": SP2, "nu": SP2, "terms": []},
        "a tensor element needs at least one term"),
    "basis-space": (
        jsonio.subspace_from_json,
        {"ambient": SP2, "basis": [fn(SP3, [1.0, 0.0, 0.0])]},
        "basis elements must live on the ambient space"),
    "basis-mode": (
        jsonio.subspace_from_json,
        {"ambient": SP2, "basis": [{"mode": COMPLEX,
                                    "values": [[1.0, 0.0], [0.0, 0.0]]}]},
        "subspaces are real-mode only"),
}


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_misfit_rows_refused(case):
    reader, doc, message = MISFITS[case]
    with pytest.raises(jsonio.SchemaError, match=message):
        reader(doc)


class TestImages:
    X = Subspace(MeasureSpace(("a", "b"), (1.0, 1.0)), [[1.0, 0.0]])

    @pytest.mark.parametrize("images,message", [
        ([fn(SP2, [1.0, 0.0]), fn(SP2, [0.0, 1.0])],
         "need exactly one image per basis element"),
        ([fn(SP2, [[1.0, 0.0], [0.0, 0.0]], COMPLEX)],
         "restricted operators are real-mode only"),
    ])
    def test_misfit_images_refused(self, images, message):
        with pytest.raises(jsonio.SchemaError, match=message):
            jsonio.images_from_json({"images": images}, self.X)

    def test_images_share_one_codomain(self):
        x = Subspace(MeasureSpace(("a", "b"), (1.0, 1.0)), np.eye(2))
        doc = {"images": [fn(SP2, [1.0, 0.0]), fn(SP3, [0.0, 1.0, 0.0])]}
        with pytest.raises(jsonio.SchemaError,
                           match="images must share one codomain space"):
            jsonio.images_from_json(doc, x)

    def test_bare_list_refused(self):
        with pytest.raises(jsonio.SchemaError, match="'images' list"):
            jsonio.images_from_json([fn(SP2, [1.0, 0.0])], self.X)
