"""JSON schemas shared by the CLI and the file formats.

Spaces may appear inline or as names resolved against a top-level "spaces"
table in the same document.  Real scalars serialize as plain numbers,
complex scalars as [re, im] pairs; numbers round-trip exactly (shortest
representation recovering the stored double).

The builders (``*_to_json``) keep every matrix a numpy array until it is
written: function values and kernels as float64 arrays, shaped (..., 2) for
[re, im] pairs, and sign matrices as int64.  ``dumps`` writes an array as
json writes its ``tolist()``, with the nesting read from its shape.  Function
objects that are the rows of one matrix (family members, parts, basis and
image elements, coefficient fields) form a list of dicts that also keeps the
matrix, and ``dumps`` writes them from it: one record text repeated, one
array of floats.  No code changes such a list once it is built.  The readers
take an array where the builders put one (a function's values, an operator's
kernel and its rows), so a document reads the same before it is written as
after; JSON text itself never holds one.

Every reader decodes through one boundary, ``_reader``, which turns a
malformed document into a SchemaError naming the field, and reads the rows of
every container through ``_rows_from_json`` into one matrix.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

import numpy as np

from .core import COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn
from .decompose import CellDecomposition, Decomposition
from .extension import RestrictedOperator, Subspace
from .operators import KernelOperator
from .tensor import TensorElement


class SchemaError(ValueError):
    """Malformed or inconsistent input document."""


_CONSTANTS = {None: "null", True: "true", False: "false"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _string(text: str) -> str:
    """``text`` as json writes it, with "%" doubled for the template."""
    return _escape(text).replace("%", "%%")


def _key(key) -> str:
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):
        return _escape(dumps(key)[:-1])
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _template(obj, indent: str, floats: list) -> str:
    """``json.dumps(obj, indent=2)`` text for ``obj`` at this indent, with
    "%" doubled and each float a "%s" whose value joins ``floats``, in
    document order, as a 1-d array or a list of floats.  A float64 or int64
    ndarray is written as its ``tolist()``, any other as json refuses it, and
    a ``_rows_to_json`` list from its values matrix."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or isinstance(obj, bool):
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        floats.append([obj])
        return "%s"
    if type(obj) is np.ndarray and obj.dtype in (np.float64, np.int64):
        return _array(obj, indent, floats)
    if type(obj) is _Rows:
        return _rows(obj, indent, floats)
    if not isinstance(obj, (list, tuple, dict)):
        raise TypeError(f"Object of type {obj.__class__.__name__} "
                        "is not JSON serializable")
    inner = indent + "  "
    if isinstance(obj, dict):
        return _enclose([f"{_key(k)}: {_template(v, inner, floats)}"
                         for k, v in obj.items()], indent, "{}")
    return _enclose([_template(v, inner, floats) for v in obj], indent, "[]")


def _enclose(items: list, indent: str, brackets: str) -> str:
    """The item texts, each already at ``indent`` plus two spaces, in
    ``brackets`` at ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}")


def _nested(shape: tuple, indent: str) -> str:
    """The text of nested lists of this shape at this indent, each entry a
    "%s"."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        text = _enclose([text] * shape[depth], indent + "  " * depth, "[]")
    return text


def _array(a: np.ndarray, indent: str, floats: list) -> str:
    """The ``_template`` text of ``a.tolist()`` for a float64 array, whose
    entries join ``floats`` raveled, or for an int64 one."""
    if a.dtype == np.float64:
        floats.append(a.ravel())
        return _nested(a.shape, indent)
    return _nested(a.shape, indent) % tuple(a.ravel().tolist())


def _rows(rows: _Rows, indent: str, floats: list) -> str:
    """The ``_template`` text of a ``_rows_to_json`` list at this indent:
    one record text repeated, its floats the values matrix raveled."""
    inner = indent + "  "
    values = _nested(rows.values.shape[1:], inner + "  ")
    record = _enclose([f'"space": {_string(rows.space)}',
                       f'"mode": {_string(rows.mode)}', f'"values": {values}'],
                      inner, "{}")
    floats.append(rows.values.ravel())
    return _enclose([record] * len(rows), indent, "[]")


def _texts(floats: list) -> tuple:
    """json's text of every float in ``floats``, which it empties, with one
    repr per distinct bit pattern (so -0.0 and each NaN payload keep their
    own).  These are np.unique's steps on the int64 view, spelled out to
    sort stably, several times faster than its quicksort on runs of repeated
    values, and to free each temporary early: the largest documents hold
    about 200,000 floats."""
    if not floats:
        return ()
    bits = np.concatenate(floats).view(np.int64)
    floats.clear()
    order = np.argsort(bits, kind="stable")
    bits = bits[order]
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True          # no entry when every float array was empty
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    texts = np.array([_NONFINITE.get(t, t) for t in map(
        float.__repr__, bits[new].view(np.float64).tolist())], dtype=object)
    del bits
    rank = np.cumsum(new)
    rank -= 1
    where = np.empty_like(order)
    where[order] = rank
    del order, rank
    return tuple(texts[where].tolist())


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2)`` plus a newline, byte for byte, where
    ``obj`` may hold float64 and int64 arrays: one template for the
    document, in which an array's text comes from its shape and a
    ``_rows_to_json`` list is one record text repeated over its matrix, then
    every float rendered once per distinct value."""
    floats: list = []
    template = _template(obj, "", floats) + "\n"
    return template % _texts(floats)


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: {exc}") from None


def _reader(kind: str, refusal: str, needs: tuple[str, ...] = ()):
    """The schema boundary of a reader: a document that is not an object, or
    lacks a key of ``needs``, is refused with ``refusal``; any other missing
    key is named after ``kind``; a constructor's ValueError keeps its text."""
    def decorate(read):
        @functools.wraps(read)
        def reader(doc, *args, **kwargs):
            if not isinstance(doc, dict) or not all(k in doc for k in needs):
                raise SchemaError(refusal)
            try:
                return read(doc, *args, **kwargs)
            except KeyError as exc:
                raise SchemaError(f"{kind}: missing key {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        return reader
    return decorate


def _list(obj, field: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{field} must be a list")
    return obj


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

#: longest repr of an offending value that a message echoes in full
_SHOWN_CHARS = 80


def _shown(obj) -> str:
    """repr(obj) for a message, cut after _SHOWN_CHARS characters."""
    text = repr(obj)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text):,} characters)"


def _number(obj, field: str = "value") -> float:
    # JSON true and false decode to bool, a subclass of int
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"{field} must be a number, got {_shown(obj)}")
    try:
        return float(obj)
    except OverflowError:
        raise SchemaError(f"{field} must be finite, got a {len(str(obj))}-digit "
                          "integer") from None


def _scalar_from_json(obj, mode: str):
    if mode == COMPLEX and isinstance(obj, list):
        if len(obj) != 2:
            raise SchemaError(f"expected [re, im], got {_shown(obj)}")
        return complex(_number(obj[0]), _number(obj[1]))
    x = _number(obj)
    return x if mode == REAL else complex(x, 0.0)


def _values_to_json(values: np.ndarray, mode: str) -> np.ndarray:
    """``values`` as a float64 array, shaped (..., 2) for [re, im] pairs."""
    if mode == REAL:
        return np.asarray(np.real(values), dtype=np.float64)
    values = np.asarray(values, dtype=np.complex128)
    return np.stack([values.real, values.imag], -1)


def _listed(obj):
    """``obj``, or its nested lists when it is an ndarray, as the documents
    of the builders hold before they are written."""
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def _values_from_json(obj, mode: str) -> np.ndarray:
    vals = [_scalar_from_json(v, mode) for v in _list(_listed(obj), "values")]
    return np.array(vals, dtype=np.complex128 if mode == COMPLEX else np.float64)


def _mode_from_json(obj) -> str:
    if obj not in (REAL, COMPLEX):
        raise SchemaError(f'mode must be "real" or "complex", got {_shown(obj)}')
    return obj


# ---------------------------------------------------------------------------
# spaces and functions
# ---------------------------------------------------------------------------

def space_to_json(space: MeasureSpace) -> dict:
    return {"atoms": list(space.atoms), "weights": [float(w) for w in space.weights]}


@_reader("space", "a space needs 'atoms' and 'weights'", ("atoms", "weights"))
def space_from_json(obj) -> MeasureSpace:
    weights = tuple(_number(w, "space weight")
                    for w in _list(obj["weights"], "space weights"))
    return MeasureSpace(tuple(_list(obj["atoms"], "space atoms")), weights)


def _resolve_space(obj, registry: dict[str, MeasureSpace] | None) -> MeasureSpace:
    if isinstance(obj, str):
        if registry and obj in registry:
            return registry[obj]
        raise SchemaError(f"unknown space name {_shown(obj)}")
    return space_from_json(obj)


def _registry(doc: dict) -> dict[str, MeasureSpace]:
    table = doc.get("spaces", {})
    if not isinstance(table, dict):
        raise SchemaError("spaces must be an object")
    return {name: space_from_json(s) for name, s in table.items()}


class _Rows(list):
    """The function objects of ``_rows_to_json``, a list of dicts that also
    keeps the space name, the mode and the float64 matrix whose rows are
    their values, so that ``dumps`` writes them from that matrix.  No code
    changes such a list once it is built."""
    __slots__ = ("space", "mode", "values")


def _rows_to_json(space: str, mode: str, matrix: np.ndarray) -> _Rows:
    values = _values_to_json(matrix, mode)
    rows = _Rows({"space": space, "mode": mode, "values": v} for v in values)
    rows.space, rows.mode, rows.values = space, mode, values
    return rows


def fn_to_json(f: SimpleFn) -> dict:
    return {"space": space_to_json(f.space), "mode": f.mode,
            "values": _values_to_json(f.values, f.mode)}


@_reader("simple function", "a simple function must be an object")
def fn_from_json(obj, registry: dict[str, MeasureSpace] | None = None,
                 default_space: MeasureSpace | None = None) -> SimpleFn:
    mode = _mode_from_json(obj.get("mode", REAL))
    if "space" in obj:
        space = _resolve_space(obj["space"], registry)
    elif default_space is not None:
        space = default_space
    else:
        raise SchemaError("a simple function needs a 'space'")
    return SimpleFn(space, mode, _values_from_json(obj["values"], mode))


def _rows_from_json(items: list, registry: dict, space: MeasureSpace | None,
                    mode: str | None, space_error: str, mode_error: str):
    """(space, mode, values): the function objects ``items`` as the rows of
    ``values``, each refused unless on ``space`` (the default of a row naming
    none) in ``mode``; None stands for the first row's (``items`` nonempty)."""
    default, rows = space, []
    for obj in items:
        f = fn_from_json(obj, registry, default_space=default)
        space, mode = space or f.space, mode or f.mode
        if f.space != space:
            raise SchemaError(space_error)
        if f.mode != mode:
            raise SchemaError(mode_error)
        rows.append(f.values)
    return space, mode, np.array(rows).reshape(len(rows), space.size)


def family_to_json(fs: FnFamily) -> dict:
    return {"spaces": {"mu": space_to_json(fs.space)},
            "members": _rows_to_json("mu", fs.mode, fs.value_matrix)}


@_reader("family", "a family needs a 'members' list", ("members",))
def family_from_json(doc) -> FnFamily:
    registry = _registry(doc)
    members = _list(doc["members"], "members")
    if not members:
        raise SchemaError("a family needs at least one member")
    return FnFamily(*_rows_from_json(
        members, registry, None, None,
        "family members must live on the same space",
        "family members must share the same mode"))


# ---------------------------------------------------------------------------
# operators, tensors, subspaces
# ---------------------------------------------------------------------------

def operator_to_json(t: KernelOperator) -> dict:
    return {"domain": space_to_json(t.domain),
            "codomain": space_to_json(t.codomain),
            "mode": t.mode,
            "kernel": _values_to_json(t.kernel, t.mode)}


@_reader("operator", "an operator must be an object")
def operator_from_json(doc) -> KernelOperator:
    registry = _registry(doc)
    domain = _resolve_space(doc["domain"], registry)
    codomain = _resolve_space(doc["codomain"], registry)
    mode = _mode_from_json(doc.get("mode", REAL))
    rows = [_listed(r) for r in _list(_listed(doc["kernel"]), "kernel")]
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"kernel row {i} must be a list")
        if len(row) != len(rows[0]):
            raise SchemaError(f"kernel row {i} has {len(row)} entries, "
                              f"row 0 has {len(rows[0])}")
    kernel = (np.vstack([_values_from_json(r, mode) for r in rows]) if rows
              else np.empty((0, domain.size)))
    return KernelOperator(domain, codomain, kernel, mode)


def tensor_to_json(g: TensorElement) -> dict:
    return {"mu": space_to_json(g.mu_space),
            "nu": space_to_json(g.nu_space),
            "mode": g.mode,
            "terms": [{"f": f, "phi": phi} for f, phi in zip(
                _rows_to_json("mu", g.mode, g.f_matrix),
                _rows_to_json("nu", g.mode, g.phi_matrix))]}


@_reader("tensor element", "a tensor element must be an object")
def tensor_from_json(doc) -> TensorElement:
    registry = _registry(doc)
    mu = _resolve_space(doc["mu"], registry)
    nu = _resolve_space(doc["nu"], registry)
    registry = {**registry, "mu": mu, "nu": nu}
    mode = _mode_from_json(doc.get("mode", REAL))
    terms = _list(doc["terms"], "terms")
    if not all(isinstance(term, dict) for term in terms):
        raise SchemaError("each term must be an object")
    mode_error = "term modes must match the tensor mode"
    _, _, fs = _rows_from_json([term["f"] for term in terms], registry, mu,
                               mode, "left factors must live on the mu space",
                               mode_error)
    _, _, phis = _rows_from_json([term["phi"] for term in terms], registry, nu,
                                 mode, "right factors must live on the nu space",
                                 mode_error)
    return TensorElement(mu, nu, mode, fs, phis)


def subspace_to_json(x: Subspace) -> dict:
    return {"ambient": space_to_json(x.ambient),
            "basis": _rows_to_json("ambient", REAL, x.basis_matrix)}


@_reader("subspace", "a subspace must be an object")
def subspace_from_json(doc) -> Subspace:
    registry = _registry(doc)
    ambient = _resolve_space(doc["ambient"], registry)
    _, _, basis = _rows_from_json(
        _list(doc["basis"], "basis"), {**registry, "ambient": ambient},
        ambient, REAL, "basis elements must live on the ambient space",
        "subspaces are real-mode only")
    return Subspace(ambient, basis)


def images_to_json(t: RestrictedOperator) -> dict:
    return {"space": space_to_json(t.codomain),
            "images": _rows_to_json("space", REAL, t.image_matrix)}


@_reader("images", "images must be an object with an 'images' list",
         ("images",))
def images_from_json(doc, subspace: Subspace) -> RestrictedOperator:
    registry = _registry(doc)
    if "space" in doc:
        registry = {**registry, "space": _resolve_space(doc["space"], registry)}
    images = _list(doc["images"], "images")
    if len(images) != subspace.dim:
        raise SchemaError("need exactly one image per basis element")
    codomain, _, values = _rows_from_json(
        images, registry, registry.get("space"), REAL,
        "images must share one codomain space",
        "restricted operators are real-mode only")
    return RestrictedOperator(subspace, codomain, values)


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def decomposition_to_json(d: Decomposition) -> dict:
    if d.signs is not None:
        coeffs = {"kind": "signs", "matrix": d.signs.astype(np.int64)}
    else:
        coeffs = {"kind": "field",
                  "entries": [_rows_to_json("mu", COMPLEX, fields)
                              for fields in d.coeffs]}
    return {"spaces": {"mu": space_to_json(d.space)},
            "mode": d.mode,
            "parts": _rows_to_json("mu", REAL, d.parts_matrix),
            "coeffs": coeffs}


def cell_decomposition_to_json(cd: CellDecomposition) -> dict:
    return {"spaces": {"mu": space_to_json(cd.space)},
            "mode": cd.mode,
            "cells": [list(c) for c in cd.cells],
            "parts": _rows_to_json("mu", REAL, cd.parts_matrix),
            "coeffs": _values_to_json(cd.alphas, COMPLEX),
            "epsilon": cd.epsilon}
