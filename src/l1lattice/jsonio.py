"""JSON schemas shared by the CLI and the file formats.

Spaces may appear inline or as names resolved against a top-level "spaces"
table in the same document.  Real scalars serialize as plain numbers,
complex scalars as [re, im] pairs; numbers round-trip exactly (shortest
representation recovering the stored double).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import COMPLEX, REAL, FnFamily, MeasureSpace, SimpleFn
from .decompose import CellDecomposition, Decomposition
from .extension import RestrictedOperator, Subspace
from .operators import KernelOperator
from .tensor import TensorElement


class SchemaError(ValueError):
    """Malformed or inconsistent input document."""


def _missing_key(kind: str, exc: KeyError) -> SchemaError:
    return SchemaError(f"{kind}: missing key {exc.args[0]!r}")


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def _scalar_to_json(v, mode: str):
    if mode == REAL:
        return float(np.real(v))
    return [float(np.real(v)), float(np.imag(v))]


def _number(obj, field: str = "value") -> float:
    # JSON true and false decode to bool, a subclass of int
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"{field} must be a number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError:
        raise SchemaError(f"{field} must be finite, got a {len(str(obj))}-digit "
                          "integer") from None


def _scalar_from_json(obj, mode: str):
    if mode == COMPLEX and isinstance(obj, list):
        if len(obj) != 2:
            raise SchemaError(f"expected [re, im], got {obj!r}")
        return complex(_number(obj[0]), _number(obj[1]))
    x = _number(obj)
    return x if mode == REAL else complex(x, 0.0)


def _values_to_json(values: np.ndarray, mode: str) -> list:
    return [_scalar_to_json(v, mode) for v in values]


def _values_from_json(obj, mode: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError("values must be a list")
    vals = [_scalar_from_json(v, mode) for v in obj]
    return np.array(vals, dtype=np.complex128 if mode == COMPLEX else np.float64)


def _mode_from_json(obj) -> str:
    if obj not in (REAL, COMPLEX):
        raise SchemaError(f'mode must be "real" or "complex", got {obj!r}')
    return obj


# ---------------------------------------------------------------------------
# spaces and functions
# ---------------------------------------------------------------------------

def space_to_json(space: MeasureSpace) -> dict:
    return {"atoms": list(space.atoms), "weights": [float(w) for w in space.weights]}


def space_from_json(obj) -> MeasureSpace:
    if not isinstance(obj, dict) or "atoms" not in obj or "weights" not in obj:
        raise SchemaError("a space needs 'atoms' and 'weights'")
    if not isinstance(obj["weights"], list):
        raise SchemaError("space weights must be a list")
    try:
        weights = tuple(_number(w, "space weight") for w in obj["weights"])
        return MeasureSpace(tuple(obj["atoms"]), weights)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def _resolve_space(obj, registry: dict[str, MeasureSpace] | None) -> MeasureSpace:
    if isinstance(obj, str):
        if registry and obj in registry:
            return registry[obj]
        raise SchemaError(f"unknown space name {obj!r}")
    return space_from_json(obj)


def _registry(doc) -> dict[str, MeasureSpace]:
    table = doc.get("spaces", {}) if isinstance(doc, dict) else {}
    return {name: space_from_json(s) for name, s in table.items()}


def _row_to_json(space, mode: str, values: np.ndarray) -> dict:
    return {"space": space, "mode": mode, "values": _values_to_json(values, mode)}


def fn_to_json(f: SimpleFn) -> dict:
    return _row_to_json(space_to_json(f.space), f.mode, f.values)


def fn_from_json(obj, registry: dict[str, MeasureSpace] | None = None,
                 default_space: MeasureSpace | None = None) -> SimpleFn:
    if not isinstance(obj, dict):
        raise SchemaError("a simple function must be an object")
    mode = _mode_from_json(obj.get("mode", REAL))
    if "space" in obj:
        space = _resolve_space(obj["space"], registry)
    elif default_space is not None:
        space = default_space
    else:
        raise SchemaError("a simple function needs a 'space'")
    try:
        return SimpleFn(space, mode, _values_from_json(obj["values"], mode))
    except KeyError as exc:
        raise _missing_key("simple function", exc) from exc
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _stack(rows: list[SimpleFn], space: MeasureSpace, mode: str,
           space_error: str, mode_error: str) -> np.ndarray:
    """The values of functions decoded one per row, as one (rows, atoms)
    matrix, once each is checked to live on ``space`` in ``mode``."""
    for f in rows:
        if f.space != space:
            raise SchemaError(space_error)
        if f.mode != mode:
            raise SchemaError(mode_error)
    return np.array([f.values for f in rows]).reshape(len(rows), space.size)


def family_to_json(fs: FnFamily) -> dict:
    return {"spaces": {"mu": space_to_json(fs.space)},
            "members": [_row_to_json("mu", fs.mode, row)
                        for row in fs.value_matrix]}


def family_from_json(doc) -> FnFamily:
    if not isinstance(doc, dict) or "members" not in doc:
        raise SchemaError("a family needs a 'members' list")
    registry = _registry(doc)
    members = [fn_from_json(m, registry) for m in doc["members"]]
    if not members:
        raise SchemaError("a family needs at least one member")
    space, mode = members[0].space, members[0].mode
    values = _stack(members, space, mode,
                    "family members must live on the same space",
                    "family members must share the same mode")
    return FnFamily(space, mode, values)


# ---------------------------------------------------------------------------
# operators, tensors, subspaces
# ---------------------------------------------------------------------------

def operator_to_json(t: KernelOperator) -> dict:
    return {"domain": space_to_json(t.domain),
            "codomain": space_to_json(t.codomain),
            "mode": t.mode,
            "kernel": [_values_to_json(row, t.mode) for row in t.kernel]}


def operator_from_json(doc) -> KernelOperator:
    if not isinstance(doc, dict):
        raise SchemaError("an operator must be an object")
    registry = _registry(doc)
    try:
        domain = _resolve_space(doc["domain"], registry)
        codomain = _resolve_space(doc["codomain"], registry)
        mode = _mode_from_json(doc.get("mode", REAL))
        rows = [_values_from_json(r, mode) for r in doc["kernel"]]
        return KernelOperator(domain, codomain, np.vstack(rows), mode)
    except KeyError as exc:
        raise _missing_key("operator", exc) from exc
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def tensor_to_json(g: TensorElement) -> dict:
    return {"mu": space_to_json(g.mu_space),
            "nu": space_to_json(g.nu_space),
            "mode": g.mode,
            "terms": [{"f": _row_to_json("mu", g.mode, f),
                       "phi": _row_to_json("nu", g.mode, phi)}
                      for f, phi in zip(g.f_matrix, g.phi_matrix)]}


def tensor_from_json(doc) -> TensorElement:
    if not isinstance(doc, dict):
        raise SchemaError("a tensor element must be an object")
    registry = _registry(doc)
    try:
        mu = _resolve_space(doc["mu"], registry)
        nu = _resolve_space(doc["nu"], registry)
        registry = {**registry, "mu": mu, "nu": nu}
        mode = _mode_from_json(doc.get("mode", REAL))
        fs, phis = [], []
        for item in doc["terms"]:
            fs.append(fn_from_json(item["f"], registry, default_space=mu))
            phis.append(fn_from_json(item["phi"], registry, default_space=nu))
        mode_error = "term modes must match the tensor mode"
        return TensorElement(
            mu, nu, mode,
            _stack(fs, mu, mode, "left factors must live on the mu space",
                   mode_error),
            _stack(phis, nu, mode, "right factors must live on the nu space",
                   mode_error))
    except KeyError as exc:
        raise _missing_key("tensor element", exc) from exc
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def subspace_to_json(x: Subspace) -> dict:
    return {"ambient": space_to_json(x.ambient),
            "basis": [_row_to_json("ambient", REAL, b) for b in x.basis_matrix]}


def subspace_from_json(doc) -> Subspace:
    if not isinstance(doc, dict):
        raise SchemaError("a subspace must be an object")
    registry = _registry(doc)
    try:
        ambient = _resolve_space(doc["ambient"], registry)
        registry = {**registry, "ambient": ambient}
        basis = [fn_from_json(b, registry, default_space=ambient)
                 for b in doc["basis"]]
        return Subspace(ambient, _stack(
            basis, ambient, REAL,
            "basis elements must live on the ambient space",
            "subspaces are real-mode only"))
    except KeyError as exc:
        raise _missing_key("subspace", exc) from exc
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def images_to_json(t: RestrictedOperator) -> dict:
    return {"space": space_to_json(t.codomain),
            "images": [_row_to_json("space", REAL, y) for y in t.image_matrix]}


def images_from_json(doc, subspace: Subspace) -> RestrictedOperator:
    if not isinstance(doc, dict) or "images" not in doc:
        raise SchemaError("images must be an object with an 'images' list")
    registry = _registry(doc)
    if "space" in doc:
        registry = {**registry, "space": _resolve_space(doc["space"], registry)}
    try:
        images = [fn_from_json(y, registry, default_space=registry.get("space"))
                  for y in doc["images"]]
        if len(images) != subspace.dim:
            raise SchemaError("need exactly one image per basis element")
        codomain = images[0].space
        return RestrictedOperator(subspace, codomain, _stack(
            images, codomain, REAL, "images must share one codomain space",
            "restricted operators are real-mode only"))
    except KeyError as exc:
        raise _missing_key("images", exc) from exc
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def decomposition_to_json(d: Decomposition) -> dict:
    if d.signs is not None:
        coeffs = {"kind": "signs",
                  "matrix": [[int(e) for e in row] for row in d.signs]}
    else:
        coeffs = {"kind": "field",
                  "entries": [[_row_to_json("mu", COMPLEX, field) for field in row]
                              for row in d.coeffs]}
    return {"spaces": {"mu": space_to_json(d.space)},
            "mode": d.mode,
            "parts": [_row_to_json("mu", REAL, row) for row in d.parts_matrix],
            "coeffs": coeffs,
            "trace": {"pre_prune_counts": list(d.level_counts)}}


def cell_decomposition_to_json(cd: CellDecomposition) -> dict:
    return {"spaces": {"mu": space_to_json(cd.space)},
            "mode": cd.mode,
            "cells": [list(c) for c in cd.cells],
            "parts": [_row_to_json("mu", REAL, row) for row in cd.parts_matrix],
            "coeffs": [[_scalar_to_json(a, COMPLEX) for a in row]
                       for row in cd.alphas],
            "epsilon": cd.epsilon}
