"""Deterministic pseudorandom instances for tests, sweeps and the CLI.

Values are uniform in [-10, 10] (independently for real and imaginary
parts in complex mode) and weights uniform in (0.1, 10].  Everything is
driven by numpy's seeded Generator, so identical seeds reproduce identical
instances byte for byte.
"""

from __future__ import annotations

import numpy as np

from . import jsonio
from .core import REAL, FnFamily, MeasureSpace, SimpleFn
from .extension import MAX_AMBIENT_ATOMS, RestrictedOperator, Subspace
from .operators import KernelOperator
from .tensor import TensorElement

MAX_FAMILY = 5
MAX_ATOMS = 50
#: the parameters each instance kind reads; generate_instance refuses others
KIND_PARAMS = {
    "family": ("atoms", "n", "mode"),
    "operator": ("atoms", "nu_atoms", "mode"),
    "inequality": ("atoms", "nu_atoms", "n", "mode"),
    "tensor": ("atoms", "nu_atoms", "n", "mode"),
    "subspace": ("atoms", "dim"),
    "extension": ("atoms", "nu_atoms", "dim"),
}


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.uint64(seed))


def random_space(rng: np.random.Generator, n_atoms: int,
                 prefix: str = "a") -> MeasureSpace:
    weights = rng.uniform(0.1, 10.0, size=n_atoms)
    return MeasureSpace(tuple(f"{prefix}{i}" for i in range(n_atoms)),
                        tuple(float(w) for w in weights))


def random_values(rng: np.random.Generator, n: int, mode: str) -> np.ndarray:
    re = rng.uniform(-10.0, 10.0, size=n)
    if mode == REAL:
        return re
    return re + 1j * rng.uniform(-10.0, 10.0, size=n)


def random_fn(rng: np.random.Generator, space: MeasureSpace,
              mode: str = REAL) -> SimpleFn:
    return SimpleFn(space, mode, random_values(rng, space.size, mode))


def random_family(rng: np.random.Generator, space: MeasureSpace, n: int,
                  mode: str = REAL) -> FnFamily:
    return FnFamily(space, mode, [random_values(rng, space.size, mode)
                                  for _ in range(n)])


def random_operator(rng: np.random.Generator, domain: MeasureSpace,
                    codomain: MeasureSpace, mode: str = REAL) -> KernelOperator:
    kernel = random_values(rng, codomain.size * domain.size, mode)
    return KernelOperator(domain, codomain,
                          kernel.reshape(codomain.size, domain.size), mode)


def random_tensor(rng: np.random.Generator, mu: MeasureSpace,
                  nu: MeasureSpace, n_terms: int, mode: str = REAL) -> TensorElement:
    # drawn term by term: f_1, phi_1, f_2, phi_2, ...
    terms = [(random_values(rng, mu.size, mode), random_values(rng, nu.size, mode))
             for _ in range(n_terms)]
    return TensorElement(mu, nu, mode, [f for f, _ in terms],
                         [phi for _, phi in terms])


def random_subspace(rng: np.random.Generator, space: MeasureSpace,
                    dim: int) -> Subspace:
    # random uniform values are independent almost surely; retry regardless
    for _ in range(100):
        basis = [random_values(rng, space.size, REAL) for _ in range(dim)]
        try:
            return Subspace(space, basis)
        except ValueError:
            continue
    raise RuntimeError("could not draw an independent basis")


def random_restricted(rng: np.random.Generator, x: Subspace,
                      nu: MeasureSpace) -> RestrictedOperator:
    return RestrictedOperator(x, nu, [random_values(rng, nu.size, REAL)
                                      for _ in range(x.dim)])


def generate_instance(kind: str, params: dict, seed: int) -> dict:
    """Build the JSON documents of one pseudorandom instance.

    ``params`` holds only keys that KIND_PARAMS lists for ``kind``; missing
    ones default to atoms 6, n 2, mode real, nu_atoms = atoms and dim 2.
    Returns a mapping from a file stem to the document; the CLI writes each
    as ``<out>/<stem>.json`` (or a single file when there is one document).
    The documents hold their matrices as numpy arrays, as the ``jsonio``
    builders leave them: ``jsonio.dumps`` writes them and the ``jsonio``
    readers take them as they are, but ``json.dumps`` refuses them.
    """
    if kind not in KIND_PARAMS:
        raise ValueError(f"unknown instance kind {kind!r}")
    for key in params:
        if key not in KIND_PARAMS[kind]:
            raise ValueError(f"{kind} instances do not read {key}")
    rng = rng_for(seed)
    mode = params.get("mode", REAL)
    n_atoms = int(params.get("atoms", 6))
    n = int(params.get("n", 2))
    nu_atoms = int(params.get("nu_atoms", n_atoms))
    # subspaces and extensions feed the LP, which caps both sides
    cap = MAX_AMBIENT_ATOMS if kind in ("subspace", "extension") else MAX_ATOMS
    if not 1 <= n_atoms <= cap:
        raise ValueError(f"atoms must be in 1..{cap}, got {n_atoms}")
    if not 1 <= nu_atoms <= cap:
        raise ValueError(f"nu_atoms must be in 1..{cap}, got {nu_atoms}")
    if not 1 <= n <= MAX_FAMILY:
        raise ValueError(f"n must be in 1..{MAX_FAMILY}")

    if kind == "family":
        space = random_space(rng, n_atoms)
        return {"family": jsonio.family_to_json(random_family(rng, space, n, mode))}
    if kind == "operator":
        domain = random_space(rng, n_atoms)
        codomain = random_space(rng, nu_atoms, prefix="s")
        return {"operator": jsonio.operator_to_json(
            random_operator(rng, domain, codomain, mode))}
    if kind == "inequality":
        # an operator plus a family on its domain, ready for check-inequality
        domain = random_space(rng, n_atoms)
        codomain = random_space(rng, nu_atoms, prefix="s")
        t = random_operator(rng, domain, codomain, mode)
        fs = random_family(rng, domain, n, mode)
        return {"operator": jsonio.operator_to_json(t),
                "family": jsonio.family_to_json(fs)}
    if kind == "tensor":
        mu = random_space(rng, n_atoms)
        nu = random_space(rng, nu_atoms, prefix="s")
        return {"tensor": jsonio.tensor_to_json(random_tensor(rng, mu, nu, n, mode))}
    # subspace and extension
    dim = int(params.get("dim", 2))
    if not 1 <= dim <= n_atoms:
        raise ValueError("dim must be in 1..atoms")
    space = random_space(rng, n_atoms)
    if kind == "subspace":
        return {"subspace": jsonio.subspace_to_json(random_subspace(rng, space, dim))}
    nu = random_space(rng, nu_atoms, prefix="s")
    x = random_subspace(rng, space, dim)
    t = random_restricted(rng, x, nu)
    return {"subspace": jsonio.subspace_to_json(x),
            "images": jsonio.images_to_json(t)}
