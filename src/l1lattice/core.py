"""Finite atomic measure spaces, simple functions and their lattice operations.

Every construction downstream (decompositions, kernel operators, tensor
norms, minimal-norm extensions) is phrased over the types here.  Values are
immutable after construction and all operations are pure functions, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: largest array, in entries, that a decomposition (its pre-prune parts, and
#: in complex mode its coefficient fields) or a tensor evaluation may build.
#: It admits every family of at most 5 members on at most 50 atoms (the
#: largest, 5 real members on 50 atoms, needs 6330 x 50 = 316,500).  The
#: costliest family under it, 7 complex members on 3 atoms, decomposes in
#: 0.003 s at 41 MB peak RSS (36 MB after import); ``decompose --out`` on it
#: takes 0.65-0.85 s and 203 MB peak RSS in a fresh process and writes
#: 32.5 MB of JSON (shared 2-core x86-64, Python 3.11, numpy 2.4, one BLAS
#: thread)
MAX_ENTRIES = 320_000


@dataclass(frozen=True)
class MeasureSpace:
    """A finite, purely atomic measure space: labelled atoms with positive mass."""

    atoms: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(str(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if not atoms:
            raise ValueError("a measure space needs at least one atom")
        if len(atoms) != len(weights):
            raise ValueError("atoms and weights must have equal length")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be unique")
        for w in weights:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"weights must be positive and finite, got {w!r}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return len(self.atoms)

    @cached_property
    def weight_array(self) -> np.ndarray:
        w = np.array(self.weights, dtype=np.float64)
        w.flags.writeable = False
        return w


def _as_mode_array(values, mode: str, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a frozen C-ordered copy in the dtype of ``mode``, checked
    for ``shape`` (None stands for any length), a zero imaginary part in
    real mode, and finite entries; errors name ``what``."""
    v = np.asarray(values)
    if v.ndim != len(shape) or any(s is not None and s != d
                                   for s, d in zip(shape, v.shape)):
        expected = ", ".join("n" if s is None else str(s) for s in shape)
        raise ValueError(f"{what} must have shape ({expected}"
                         f"{',' if len(shape) == 1 else ''}), got {v.shape}")
    if mode == REAL:
        if np.iscomplexobj(v):
            if np.any(v.imag != 0.0):
                raise ValueError(f"real-mode {what} must have zero imaginary part")
            v = v.real
        dtype = np.float64
    elif mode == COMPLEX:
        dtype = np.complex128
    else:
        raise ValueError(f"mode must be {REAL!r} or {COMPLEX!r}, got {mode!r}")
    # a copy, so freezing it leaves the caller's array writeable
    v = np.array(v, dtype=dtype, order="C")
    if not np.isfinite(v).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(v))[0])
        where = (f"index {idx[0]}" if v.ndim == 1
                 else "".join(f"[{i}]" for i in idx))
        raise ValueError(f"{what} must be finite, got {v[idx]} at {where}")
    v.flags.writeable = False
    return v


def check_entries(entries: int, what: str) -> None:
    """Reject, before any work starts, an array above MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise ValueError(f"{what} needs {entries:,} array entries or more, "
                         f"above the budget of {MAX_ENTRIES:,}")


@dataclass(frozen=True, eq=False)
class SimpleFn:
    """One scalar value per atom of a measure space."""

    space: MeasureSpace
    mode: str
    values: np.ndarray

    def __post_init__(self):
        v = _as_mode_array(self.values, self.mode, (self.space.size,), "values")
        object.__setattr__(self, "values", v)


def zero_fn(space: MeasureSpace, mode: str = REAL) -> SimpleFn:
    return SimpleFn(space, mode, np.zeros(space.size))


def point_mass(space: MeasureSpace, index: int) -> SimpleFn:
    """The normalized point mass at one atom: value 1/weight there, 0 elsewhere.

    Has L1 norm exactly 1; these are the extreme points of the unit ball.
    """
    v = np.zeros(space.size)
    v[index] = 1.0 / space.weights[index]
    return SimpleFn(space, REAL, v)


@dataclass(frozen=True, eq=False)
class FnFamily:
    """A nonempty family of simple functions on one space and mode, one row
    of ``value_matrix`` (n, atoms) per member."""

    space: MeasureSpace
    mode: str
    value_matrix: np.ndarray

    def __post_init__(self):
        m = _as_mode_array(self.value_matrix, self.mode,
                           (None, self.space.size), "family values")
        if m.shape[0] == 0:
            raise ValueError("a family needs at least one member")
        object.__setattr__(self, "value_matrix", m)

    @property
    def size(self) -> int:
        return self.value_matrix.shape[0]


def group_columns(keys: np.ndarray) -> list[list[int]]:
    """Indices w of the last axis grouped by bit-identical columns
    keys[..., w] (float64 or complex128), groups and members in order of
    first occurrence.

    numpy sums each column's bits as int64 words: a column whose sum no
    other column has is in a group of its own, and only columns that share
    a sum are compared byte for byte.  A broadcast along the last axis is one
    column repeated."""
    if keys.shape[-1] and keys.strides[-1] == 0:
        return [list(range(keys.shape[-1]))]
    axes = tuple(range(keys.ndim - 1))
    parts = (keys.real, keys.imag) if np.iscomplexobj(keys) else (keys,)
    sums = sum(p.view(np.int64).sum(axis=axes) for p in parts).tolist()
    counts = Counter(sums)
    groups: dict = {}
    for w, total in enumerate(sums):
        key = total if counts[total] == 1 else keys[..., w].tobytes()
        groups.setdefault(key, []).append(w)
    return list(groups.values())


def l1_norm(f: SimpleFn) -> float:
    """Integral of |f|: the weighted sum of moduli over the atoms."""
    return float(np.sum(f.space.weight_array * np.abs(f.values)))


def lattice_max(fs: FnFamily) -> SimpleFn:
    """Pointwise maximum of the moduli |f_1| v ... v |f_n|.

    Real-valued and nonnegative in both modes.
    """
    return SimpleFn(fs.space, REAL, np.max(np.abs(fs.value_matrix), axis=0))


def d_norm(fs: FnFamily) -> float:
    """Norm of a dominated family: the integral of the pointwise max of moduli."""
    return l1_norm(lattice_max(fs))


def argmax_partition(values: np.ndarray) -> np.ndarray:
    """For each atom (last axis of the (..., n, atoms) ``values``), the
    lowest row index whose modulus attains the maximum."""
    # np.argmax returns the first occurrence, which is the lowest index
    return np.argmax(np.abs(values), axis=-2)


def pos_neg_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split real values into their positive and negative parts.

    Returns (plus, minus) with v = plus - minus and |v| = plus + minus, both
    nonnegative with disjoint supports, bit-exactly; a -0.0 stays in plus.
    """
    if np.iscomplexobj(v):
        raise ValueError("pos_neg_split is defined for real values only")
    return np.where(v >= 0.0, v, 0.0), np.where(v >= 0.0, 0.0, -v)


def unit_phases(v: np.ndarray) -> np.ndarray:
    """v/|v| with exact 0 where v vanishes.

    Divides componentwise (complex division by a subnormal modulus would
    overflow through the reciprocal) and rescales subnormal inputs by an
    exact power of two first: the subnormal grid is too coarse for hypot
    to keep full relative precision.  Each component is written in place,
    so a zero component keeps the sign it has in v.
    """
    v = np.asarray(v, dtype=np.complex128)
    re = np.array(v.real)
    im = np.array(v.imag)
    tiny = ((np.abs(re) < 2.0 ** -500) & (np.abs(im) < 2.0 ** -500)
            & ((re != 0.0) | (im != 0.0)))
    if np.any(tiny):
        re[tiny] *= 2.0 ** 537
        im[tiny] *= 2.0 ** 537
    a = np.hypot(re, im)
    out = np.zeros(v.shape, dtype=np.complex128)
    nz = a != 0.0
    out.real[nz] = re[nz] / a[nz]
    out.imag[nz] = im[nz] / a[nz]
    return out
