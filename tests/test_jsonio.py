"""The JSON boundary, where a container's rows are separate functions: the
round trip keeps every matrix bit for bit, and rows that disagree with the
container's space or mode are refused with the message naming the rule."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from l1lattice import (COMPLEX, REAL, FnFamily, KernelOperator, MeasureSpace,
                       RestrictedOperator, SimpleFn, Subspace, TensorElement,
                       jsonio)
from l1lattice.decompose import (decompose_complex, decompose_real,
                                 eps_net_coeffs, prune,
                                 refine_to_constant_coeffs)
from l1lattice.generate import (KIND_PARAMS, generate_instance, random_family,
                                random_restricted, random_space,
                                random_subspace, random_tensor, rng_for)

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


# JSON trees for the readers: the schema's keys over any JSON values, with
# well-formed fragments (a space, rows of values, a function object) among
# the leaves so that trees reach past the first type check
KEYS = ["spaces", "members", "space", "mode", "values", "atoms", "weights",
        "domain", "codomain", "kernel", "mu", "nu", "terms", "f", "phi",
        "ambient", "basis", "images"]
FRAGMENTS = [SP2, [1.0, 0.0], [[1.0, 0.0]], {"values": [0.0, 1.0]}]
schema_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.sampled_from(KEYS + [REAL, COMPLEX, "a"]), st.sampled_from(FRAGMENTS))
schema_trees = st.recursive(
    schema_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=5)),
    max_leaves=25)
READERS = (jsonio.fn_from_json, jsonio.family_from_json,
           jsonio.operator_from_json, jsonio.tensor_from_json,
           jsonio.subspace_from_json,
           lambda doc: jsonio.images_from_json(doc, TestImages.X))


@given(schema_trees)
@settings(deadline=None, max_examples=600)
def test_readers_return_or_raise_schema_error(doc):
    """Whatever JSON a file holds, a reader returns a value or raises
    SchemaError, which the CLI maps to exit 2 -- never another exception."""
    for reader in READERS:
        try:
            reader(doc)
        except jsonio.SchemaError:
            pass


# JSON trees for the writer: the floats json spells specially or that sit
# on a repr boundary, ints past 2**53, bools among numbers, escapes in
# strings and keys, empty containers, tuples, and [re, im] pairs beside
# other lists
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 2 ** 53 + 1,
           -(2 ** 64), 10 ** 30, math.nan, math.inf, -math.inf]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.integers())
pairs = st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=4)

# lists of records with one key order, the shape that dumps templates once
# per list: the values are strings or lists of numbers or of [re, im] pairs.
# The numbers are floats only, so that one template is shared, or floats
# mixed with np.float64, bools and ints.  Keys and strings hold "%", some
# keys are not strings, and at times one record has another shape: another
# key order, an extra key, another length, or no keys at all
RECORD_KEYS = ["space", "mode", "values", "%", "100%s", "", 0, 1.5, None,
               False]
RECORD_STRINGS = ["mu", "real", "%s", "50%", ""]
RECORD_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                 2.0 ** -1060, -2.2250738585072014e-308, 0.1]
float_numbers = st.one_of(st.sampled_from(RECORD_FLOATS), st.floats())
mixed_numbers = st.one_of(
    float_numbers, st.sampled_from([np.float64(2.5), np.float64(-0.0),
                                    np.float64(math.nan), True, False, 0, -3,
                                    2 ** 64]))


@st.composite
def records(draw):
    keys = draw(st.lists(st.sampled_from(RECORD_KEYS), unique=True,
                         max_size=4))
    lengths = {k: draw(st.one_of(st.none(), st.integers(0, 4))) for k in keys}
    width = draw(st.sampled_from([1, 2]))
    numbers = draw(st.sampled_from([float_numbers, mixed_numbers]))

    def value(length):
        if length is None:
            return draw(st.sampled_from(RECORD_STRINGS))
        row = [draw(numbers) for _ in range(length * width)]
        return row if width == 1 else [row[i:i + 2] for i in range(0, len(row), 2)]

    rows = [{k: value(lengths[k]) for k in keys}
            for _ in range(draw(st.integers(1, 5)))]
    i = draw(st.integers(0, len(rows) - 1))
    other = draw(st.sampled_from(["none", "order", "extra", "length",
                                  "empty"]))
    if other == "order":
        rows[i] = dict(reversed(rows[i].items()))
    elif other == "extra":
        rows[i] = {**rows[i], "extra": value(1)}
    elif other == "length" and keys:
        k = draw(st.sampled_from(keys))
        rows[i] = {**rows[i], k: value(None if lengths[k] else 1)}
    elif other == "empty":
        rows[i] = {}
    return rows


leaves = st.one_of(numbers, st.booleans(), st.none(), st.text(), pairs,
                   st.lists(st.one_of(numbers, st.booleans()), max_size=5),
                   records())
trees = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner), st.tuples(),
        st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


def _old_values_to_json(values, mode):
    """The per-scalar converter the one-call ``_values_to_json`` replaced."""
    if mode == REAL:
        return [float(np.real(v)) for v in values]
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


class TestWriter:
    """``jsonio.dumps`` writes what ``json.dumps(indent=2)`` writes, and the
    array converters give the lists the per-scalar conversion gave."""

    @given(trees)
    @settings(deadline=None, max_examples=400)
    def test_matches_json_dumps(self, doc):
        assert jsonio.dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @given(records(), records())
    @settings(deadline=None, max_examples=300)
    def test_record_lists_match_json_dumps(self, rows, more):
        for doc in (rows, {"parts": rows, "more": more}, [rows, rows + more]):
            assert jsonio.dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        [np.float64(1.5), np.float64(-0.0)], {"x": np.float64(math.nan)},
        [[np.float64(0.1), 2.0]]])
    def test_float_subclasses_as_floats(self, doc):
        assert jsonio.dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        np.int64(3), [1.0, np.int64(3)], [[1.0, np.int64(2)]],
        {"a": np.bool_(True)}, {(1, 2): 0.0}, {1, 2}])
    def test_not_json_raises_as_json_does(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError) as got:
            jsonio.dumps(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [
        np.int64(3), np.bool_(True), {1, 2}, [1.0, np.int64(3)],
        {(1, 2): 0.0}, {"a": 1.0, (1, 2): 0.0}])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_not_json_in_a_record_list_raises_as_json_does(self, bad, where):
        rows = [{"space": "mu", "values": [1.0, 2.0], "x": 0.5}
                for _ in range(3)]
        i = 0 if where == "first" else -1
        rows[i] = ({**rows[i], "values": bad} if not isinstance(bad, dict)
                   else {**rows[i], "values": [1.0, 2.0], **bad})
        for doc in (rows, {"parts": rows}, [rows, rows]):
            with pytest.raises(TypeError) as want:
                json.dumps(doc, indent=2)
            with pytest.raises(TypeError) as got:
                jsonio.dumps(doc)
            assert str(got.value) == str(want.value)

    @given(st.data(), modes, st.integers(0, 3), st.integers(0, 5))
    @settings(deadline=None, max_examples=100)
    def test_values_match_per_scalar_conversion(self, data, mode, rows, atoms):
        values = data.draw(matrices(rows, atoms))
        if mode == COMPLEX:         # every pair of signs, zeros included
            values = values.astype(np.complex128)
            values.imag = data.draw(matrices(rows, atoms))
        want = [_old_values_to_json(row, mode) for row in values]
        # repr tells -0.0 from 0.0 and an int from a float
        assert repr(jsonio._values_to_json(values, mode).tolist()) == repr(want)
        for row, want_row in zip(values, want):
            assert (repr(jsonio._values_to_json(row, mode).tolist())
                    == repr(want_row))

    def test_sign_coefficients_become_complex_pairs(self):
        signs = np.array([[1, -1, 0]], dtype=np.int8)
        assert (repr(jsonio._values_to_json(signs, COMPLEX).tolist())
                == repr([_old_values_to_json(signs[0], COMPLEX)]))


# arrays as leaves, as the builders leave them: float64 and int64 arrays of
# 0-3 dimensions, zero-length axes included, with the floats json spells
# specially; alone, inside lists and dicts, and as the values of same-keyed
# records, at times with another shape or string in one of them
ARRAY_ELEMENTS = {
    np.float64: st.one_of(st.sampled_from(RECORD_FLOATS), st.floats()),
    np.int64: st.integers(-2 ** 63, 2 ** 63 - 1)}
leaf_shapes = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)


@st.composite
def array_docs(draw):
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    shape = draw(leaf_shapes)

    def leaf(shape):
        return draw(arrays(dtype, shape, elements=ARRAY_ELEMENTS[dtype]))

    a = leaf(shape)
    strings = draw(st.sampled_from([["mu"], ["mu", "100%s"]]))
    more = draw(st.one_of(st.none(), leaf_shapes))
    rows = [{"space": draw(st.sampled_from(strings)), "values": leaf(shape),
             **({} if more is None else {"w": leaf(more)})}
            for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        rows[-1] = {**rows[-1], "values": leaf(draw(leaf_shapes))}
    return draw(st.sampled_from([
        a, [a, 1.5, a], {"%": a, "b": [a]}, rows,
        {"parts": rows, "entries": [rows, rows], "kind": "field"}]))


def _tolists(doc):
    """``doc`` with each ndarray as its ``tolist()``."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _tolists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_tolists(v) for v in doc]
    return doc


class TestArrayLeaves:
    """``jsonio.dumps`` writes a float64 or int64 ndarray as json writes
    its ``tolist()``, and refuses any other array as json refuses it."""

    @given(array_docs())
    @settings(deadline=None, max_examples=400)
    def test_matches_json_dumps_of_the_lists(self, doc):
        assert jsonio.dumps(doc) == json.dumps(_tolists(doc), indent=2) + "\n"

    @pytest.mark.parametrize("a", [
        np.array([True, False]), np.array([[1, 2]], dtype=np.int8),
        np.array([1.5], dtype=np.float32), np.array([1 + 2j]),
        np.array([1.0, "a"], dtype=object)], ids=str)
    def test_other_dtypes_raise_as_json_does(self, a):
        rows = [{"space": "mu", "values": np.zeros(1)}, {"space": "mu",
                                                         "values": a}]
        for doc in (a, [1.0, a], {"kernel": a}, rows):
            with pytest.raises(TypeError) as want:
                json.dumps(doc, indent=2)
            with pytest.raises(TypeError) as got:
                jsonio.dumps(doc)
            assert str(got.value) == str(want.value)


def _row_documents(seed, mode):
    """(builder, document) for every builder that writes function rows."""
    rng = rng_for(seed)
    mu, nu = random_space(rng, 5), random_space(rng, 4, prefix="s")
    fs = random_family(rng, mu, 3, mode)
    x = random_subspace(rng, mu, 2)
    d = (decompose_real if mode == REAL else decompose_complex)(fs)
    return [
        ("family", jsonio.family_to_json(fs)),
        ("tensor", jsonio.tensor_to_json(random_tensor(rng, mu, nu, 3, mode))),
        ("subspace", jsonio.subspace_to_json(x)),
        ("images", jsonio.images_to_json(random_restricted(rng, x, nu))),
        ("decomposition", jsonio.decomposition_to_json(d)),
        ("pruned", jsonio.decomposition_to_json(prune(d))),
        ("cells", jsonio.cell_decomposition_to_json(
            refine_to_constant_coeffs(fs, mode))),
        ("net", jsonio.cell_decomposition_to_json(eps_net_coeffs(fs, mode, 0.1)))]


def _edge_matrices(rows, atoms, mode):
    """Row matrices holding -0.0, NaN, +-inf and subnormals."""
    re = arrays(np.float64, (rows, atoms),
                elements=st.sampled_from(RECORD_FLOATS) | st.floats())
    if mode == REAL:
        return re

    def joined(parts):
        c = parts[0].astype(np.complex128)
        c.imag = parts[1]
        return c
    return st.tuples(re, re).map(joined)


class TestRowLists:
    """A row list is written from the matrix it keeps, and that text is the
    text of its dicts: readers see a plain list of dicts."""

    @pytest.mark.parametrize("seed", [1, 2, 5])
    @pytest.mark.parametrize("mode", [REAL, COMPLEX])
    def test_builders_write_their_dicts(self, seed, mode):
        for name, doc in _row_documents(seed, mode):
            text = jsonio.dumps(doc)
            assert json.loads(text) == _tolists(doc), name
            assert text == json.dumps(_tolists(doc), indent=2) + "\n", name

    @given(st.data(), modes, st.integers(0, 5), st.integers(0, 4),
           st.sampled_from(["mu", "100%s"]))
    @settings(deadline=None, max_examples=200)
    def test_edge_values_match_json_dumps(self, data, mode, rows, atoms, name):
        matrix = data.draw(_edge_matrices(rows, atoms, mode))
        doc = jsonio._rows_to_json(name, mode, matrix)
        assert all(type(row) is dict for row in doc) and len(doc) == rows
        for whole in (doc, {"parts": doc, "entries": [doc, doc]}, [1.5, doc]):
            assert (jsonio.dumps(whole)
                    == json.dumps(_tolists(whole), indent=2) + "\n")


class TestInMemoryDocuments:
    """The readers take the documents of the builders before they are
    written, with their arrays, bit for bit."""

    @given(st.data(), modes, st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4))
    @settings(deadline=None, max_examples=60)
    def test_builders_read_back(self, data, mode, n, mu_atoms, nu_atoms):
        mu, nu = space(mu_atoms), space(nu_atoms, "s")
        fs = FnFamily(mu, mode, data.draw(matrices(n, mu_atoms, mode)))
        back = jsonio.family_from_json(jsonio.family_to_json(fs))
        assert back.space == mu and back.mode == mode
        assert_bits_equal(back.value_matrix, fs.value_matrix)
        f = SimpleFn(mu, mode, fs.value_matrix[0])
        assert_bits_equal(jsonio.fn_from_json(jsonio.fn_to_json(f)).values,
                          f.values)
        t = KernelOperator(mu, nu, data.draw(matrices(nu_atoms, mu_atoms, mode)),
                           mode)
        back = jsonio.operator_from_json(jsonio.operator_to_json(t))
        assert back.domain == mu and back.codomain == nu
        assert_bits_equal(back.kernel, t.kernel)
        g = TensorElement(mu, nu, mode, data.draw(matrices(n, mu_atoms, mode)),
                          data.draw(matrices(n, nu_atoms, mode)))
        back = jsonio.tensor_from_json(jsonio.tensor_to_json(g))
        assert_bits_equal(back.f_matrix, g.f_matrix)
        assert_bits_equal(back.phi_matrix, g.phi_matrix)

    @pytest.mark.parametrize("kind,mode", [
        (kind, mode) for kind in sorted(KIND_PARAMS) for mode in (REAL, COMPLEX)
        if mode == REAL or "mode" in KIND_PARAMS[kind]])
    def test_generated_documents_read_as_their_files(self, kind, mode):
        docs = generate_instance(
            kind, {"mode": mode} if "mode" in KIND_PARAMS[kind] else {}, 3)
        for got, want in zip(_matrices(docs), _matrices(round_trip(docs)),
                             strict=True):
            assert_bits_equal(got, want)


MATRIX_FIELDS = ("value_matrix", "kernel", "f_matrix", "phi_matrix",
                 "basis_matrix", "image_matrix")


def _matrices(docs):
    """Every matrix of the objects read from one instance's documents."""
    read = {}
    for name, doc in docs.items():
        read[name] = (jsonio.images_from_json(doc, read["subspace"])
                      if name == "images"
                      else getattr(jsonio, f"{name}_from_json")(doc))
    return [getattr(x, field) for x in read.values() for field in MATRIX_FIELDS
            if hasattr(x, field)]
