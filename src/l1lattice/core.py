"""Finite atomic measure spaces, simple functions and their lattice operations.

Every construction downstream (decompositions, kernel operators, tensor
norms, minimal-norm extensions) is phrased over the types here.  Values are
immutable after construction and all operations are pure functions, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REAL = "real"
COMPLEX = "complex"


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


def _as_mode_array(values, mode: str, n: int) -> np.ndarray:
    v = np.asarray(values)
    if v.shape != (n,):
        raise ValueError(f"expected {n} values, got shape {v.shape}")
    if mode == REAL:
        if np.iscomplexobj(v):
            if np.any(v.imag != 0.0):
                raise ValueError("real-mode values must have zero imaginary part")
            v = v.real
        v = v.astype(np.float64)
    elif mode == COMPLEX:
        v = v.astype(np.complex128)
    else:
        raise ValueError(f"mode must be {REAL!r} or {COMPLEX!r}, got {mode!r}")
    if not np.isfinite(v).all():
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"values must be finite, got {v[i]} at index {i}")
    # astype copied, so freezing v leaves the caller's array writeable
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class SimpleFn:
    """One scalar value per atom of a measure space."""

    space: MeasureSpace
    mode: str
    values: np.ndarray

    def __post_init__(self):
        v = _as_mode_array(self.values, self.mode, self.space.size)
        object.__setattr__(self, "values", v)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))

    def moduli(self) -> np.ndarray:
        return np.abs(self.values)


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
    """A nonempty tuple of simple functions on a shared space and mode."""

    members: tuple[SimpleFn, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a family needs at least one member")
        first = members[0]
        for f in members[1:]:
            if f.space != first.space:
                raise ValueError("family members must live on the same space")
            if f.mode != first.mode:
                raise ValueError("family members must share the same mode")
        object.__setattr__(self, "members", members)

    @property
    def space(self) -> MeasureSpace:
        return self.members[0].space

    @property
    def mode(self) -> str:
        return self.members[0].mode

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def value_matrix(self) -> np.ndarray:
        """Member values stacked into one (n, atoms) array."""
        m = np.vstack([f.values for f in self.members])
        m.flags.writeable = False
        return m


@dataclass(frozen=True, eq=False)
class ArgmaxPartition:
    """For each atom, the 0-based index of the member whose modulus attains the
    pointwise maximum, ties broken by the lowest index."""

    cell_of_atom: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cell_of_atom, dtype=np.int64)
        c = np.array(c)
        c.flags.writeable = False
        object.__setattr__(self, "cell_of_atom", c)


def group_columns(keys: np.ndarray) -> list[list[int]]:
    """Indices w of the last axis grouped by bit-identical columns
    keys[..., w], groups and members in order of first occurrence."""
    groups: dict[bytes, list[int]] = {}
    for w in range(keys.shape[-1]):
        groups.setdefault(keys[..., w].tobytes(), []).append(w)
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


def argmax_partition(fs: FnFamily) -> ArgmaxPartition:
    """Assign each atom to the lowest member index attaining max_i |f_i|."""
    moduli = np.abs(fs.value_matrix)
    # np.argmax returns the first occurrence, which is the lowest index
    return ArgmaxPartition(np.argmax(moduli, axis=0))


def pos_neg_split(f: SimpleFn) -> tuple[SimpleFn, SimpleFn]:
    """Split a real function into its positive and negative parts.

    Returns (f_plus, f_minus) with f = f_plus - f_minus and
    |f| = f_plus + f_minus, both nonnegative with disjoint supports,
    bit-exactly.
    """
    if f.mode != REAL:
        raise ValueError("pos_neg_split is defined for real-mode functions only")
    v = f.values
    plus = np.where(v >= 0.0, v, 0.0)
    minus = np.where(v >= 0.0, 0.0, -v)
    return SimpleFn(f.space, REAL, plus), SimpleFn(f.space, REAL, minus)


def unit_phases(v: np.ndarray) -> np.ndarray:
    """v/|v| with exact 0 where v vanishes.

    Divides componentwise (complex division by a subnormal modulus would
    overflow through the reciprocal) and rescales subnormal inputs by an
    exact power of two first: the subnormal grid is too coarse for hypot
    to keep full relative precision.
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
    out[nz] = re[nz] / a[nz] + 1j * (im[nz] / a[nz])
    return out


def sgn(f: SimpleFn) -> SimpleFn:
    """Pointwise phase f/|f| where f is nonzero and exactly 0 elsewhere."""
    v = f.values
    if f.mode == REAL:
        return SimpleFn(f.space, REAL, np.sign(v))
    return SimpleFn(f.space, COMPLEX, unit_phases(v))
