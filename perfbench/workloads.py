"""The four benchmark workloads: seeded inputs, one request, its check.

Each workload builds a fixed request list during set-up. The list is made
of rounds; a round holds every class of the workload (mode and family size,
CLI command, extension side sizes, LP shape), in an order drawn from the
seed. Instance sizes (atom counts) come from one fixed draw,
``DESIGN_SEED``, and the values from the workload seed: the cost of a
request depends mostly on its size, so runs with different seeds do the
same amount of work and differ only in the numbers they crunch. The package
is reached only through the module namespace ``lib`` handed in, so a
re-import during set-up takes effect everywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

DESIGN_SEED = 20260917


@dataclass
class Request:
    kind: str
    args: tuple
    data: dict = field(default_factory=dict)   # raw inputs for the checks


@dataclass
class Workload:
    requests: list[Request]
    round_len: int
    run: object        # (lib, Request) -> output
    check: object      # (Request, output) -> list[str]
    digest: object     # (Request, output) -> bytes
    settle: object = None   # (Request, output) -> output, off the clock
    tableau: bool = False   # requests are mostly dense array arithmetic
    files: list = field(default_factory=list)   # (path, JSON document)


def _values(fs) -> np.ndarray:
    return np.array(fs.value_matrix)


def _weights(space) -> np.ndarray:
    return np.array(space.weights, dtype=np.float64)


# ---------------------------------------------------------------------------
# decompose: library calls shaped like acceptance criteria 1 and 5
# ---------------------------------------------------------------------------

def setup_decompose(lib, rng, workdir, smoke) -> Workload:
    g = lib.generate
    design = np.random.default_rng(DESIGN_SEED)
    n_max, atoms_max, rounds = (3, 8, 2) if smoke else (5, 50, 16)
    combos = [(mode, n, traced) for n in range(1, n_max + 1)
              for mode in ("real", "complex") for traced in (False, True)]
    requests = []
    for _ in range(rounds):
        sizes = design.integers(1, atoms_max + 1, size=(len(combos), 2))
        for c in rng.permutation(len(combos)):
            mode, n, traced = combos[c]
            space = g.random_space(rng, int(sizes[c, 0]))
            fs = g.random_family(rng, space, n, mode)
            data = {"values": _values(fs), "mu_w": _weights(space)}
            op = None
            if traced:
                cod = g.random_space(rng, int(sizes[c, 1]), "s")
                op = g.random_operator(rng, space, cod, mode)
                data["kernel"] = np.array(op.kernel)
                data["nu_w"] = _weights(cod)
            requests.append(Request(mode, (fs, op), data))
    return Workload(requests, len(combos), _run_decompose, _check_decompose,
                    _digest_decompose)


def _run_decompose(lib, req):
    fs, op = req.args
    dec = lib.decompose
    d = dec.decompose_real(fs) if req.kind == "real" else dec.decompose_complex(fs)
    report = dec.verify_decomposition(d, fs)
    d = dec.prune(d)
    trace = None
    if op is not None:
        ops = lib.operators
        trace = (ops.proof_trace_real(op, fs) if req.kind == "real"
                 else ops.proof_trace_complex(op, fs, 0.1))
        trace = trace.to_json()
    return d, report.passed, trace


def _check_decompose(req, out):
    d, _, trace = out
    v = req.data
    problems = checks.decomposition(v["values"], d.parts_matrix, d.signs, d.coeffs)
    if trace is not None:
        relax = 1.0 if req.kind == "real" else 1.0 + 0.1 * v["values"].shape[0]
        problems += checks.proof_trace(v["kernel"], v["mu_w"], v["nu_w"],
                                       v["values"], trace["steps"], relax)
    return problems


def _digest_decompose(req, out):
    d, passed, trace = out
    coeff = d.signs if d.signs is not None else d.coeffs
    return (d.parts_matrix.tobytes() + coeff.tobytes()
            + json.dumps([passed, trace]).encode())


# ---------------------------------------------------------------------------
# cli-roundtrip: cli.main over instance files, every command writes --out
# ---------------------------------------------------------------------------

CLI_COMMANDS = (("decompose",), ("decompose", "--prune"),
                ("decompose", "--prune", "--cells"),
                ("decompose", "--eps", "0.1"), ("check-inequality",))


def setup_cli(lib, rng, workdir, smoke) -> Workload:
    g, jsonio = lib.generate, lib.jsonio
    design = np.random.default_rng(DESIGN_SEED)
    n_max, atoms_max = (3, 8) if smoke else (5, 25)
    out = os.path.join(workdir, "out.json")
    requests, files = [], []
    # a round holds every (command, mode, n) twice
    order = [(cmd, mode, n) for cmd in range(len(CLI_COMMANDS))
             for mode in ("real", "complex") for n in range(1, n_max + 1)] * 2
    sizes = design.integers(1, atoms_max + 1, size=(len(order), 2))
    for i in rng.permutation(len(order)):
        cmd, mode, n = order[i]
        space = g.random_space(rng, int(sizes[i, 0]))
        fs = g.random_family(rng, space, n, mode)
        stem = os.path.join(workdir, f"req{len(requests)}")
        files.append((stem + "_family.json", jsonio.family_to_json(fs)))
        data = {"values": _values(fs), "mu_w": _weights(space)}
        argv = list(CLI_COMMANDS[cmd])
        if argv[0] == "decompose":
            argv += ["--input", stem + "_family.json"]
        else:
            cod = g.random_space(rng, int(sizes[i, 1]), "s")
            op = g.random_operator(rng, space, cod, mode)
            files.append((stem + "_op.json", jsonio.operator_to_json(op)))
            data["kernel"] = np.array(op.kernel)
            data["nu_w"] = _weights(cod)
            argv += ["--op", stem + "_op.json", "--family", stem + "_family.json",
                     "--trace", mode]
        argv += ["--out", out, "--quiet"]
        requests.append(Request(mode, tuple(argv), data))
    return Workload(requests, len(order), _run_cli, _check_cli, _digest_cli,
                    _settle_cli, files=files)


def _run_cli(lib, req):
    return lib.cli.main(list(req.args))


def _settle_cli(req, code):
    """Read the --out file back and remove it, so that the next request
    writes a new file: overwriting one makes ext4 flush it on close, which
    puts disk waits into the timed request."""
    path = req.args[req.args.index("--out") + 1]
    with open(path, "rb") as fh:
        raw = fh.read()
    os.remove(path)
    return code, raw


def _complex(pairs) -> np.ndarray:
    a = np.array(pairs, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _check_cli(req, out):
    code, raw = out
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(raw)
    v = req.data
    argv = req.args
    if argv[0] == "check-inequality":
        lhs, rhs = checks.inequality_sides(v["kernel"], v["mu_w"], v["nu_w"],
                                           v["values"])
        ineq = doc["inequality"]
        problems = []
        if not (checks.close(ineq["lhs"], lhs) and checks.close(ineq["rhs"], rhs)):
            problems.append("inequality sides disagree with the recomputation")
        if lhs > rhs * (1.0 + checks.TOL):
            problems.append("the L1 inequality fails")
        relax = 1.0 if req.kind == "real" else 1.0 + 0.1 * v["values"].shape[0]
        return problems + checks.proof_trace(v["kernel"], v["mu_w"], v["nu_w"],
                                             v["values"], doc["trace"]["steps"],
                                             relax)
    parts = np.array([p["values"] for p in doc["parts"]], dtype=np.float64)
    parts = parts.reshape(-1, v["values"].shape[1])
    if "cells" in doc:
        return checks.cell_decomposition(v["values"], doc["cells"], parts,
                                         _complex(doc["coeffs"]), doc["epsilon"])
    coeffs = doc["coeffs"]
    if coeffs["kind"] == "signs":
        return checks.decomposition(v["values"], parts,
                                    signs=np.array(coeffs["matrix"]))
    fields = _complex([[e["values"] for e in row] for row in coeffs["entries"]])
    return checks.decomposition(v["values"], parts, coeffs=fields)


def _digest_cli(req, out):
    return out[1]


# ---------------------------------------------------------------------------
# extend-verify: cli.main extend --verify on extension instances
# ---------------------------------------------------------------------------

def setup_extend(lib, rng, workdir, smoke) -> Workload:
    g, jsonio = lib.generate, lib.jsonio
    lo, hi = (3, 5) if smoke else (4, 12)
    out = os.path.join(workdir, "out.json")
    # a round is the full grid of side sizes with dim 1..3 spread evenly over
    # it, then its first cells again up to 100 requests; the values and the
    # order come from the seed
    cells = [(a, b, 1 + (a + b) % 3) for a in range(lo, hi + 1)
             for b in range(lo, hi + 1)]
    grid = [cells[i % len(cells)] for i in range(max(100, len(cells)))]
    requests, files = [], []
    # three rounds of distinct instances: a few large ones dominate the time
    orders = [rng.permutation(len(grid)) for _ in range(1 if smoke else 3)]
    for i in np.concatenate(orders):
        atoms, nu_atoms, dim = grid[i]
        seed = int(rng.integers(0, 2 ** 31))
        docs = g.generate_instance("extension", {"atoms": atoms,
                                                 "nu_atoms": nu_atoms,
                                                 "dim": min(dim, atoms)}, seed)
        stem = os.path.join(workdir, f"req{len(requests)}")
        files += [(stem + "_subspace.json", docs["subspace"]),
                  (stem + "_images.json", docs["images"])]
        sub, img = docs["subspace"], docs["images"]
        data = {"basis": np.array([b["values"] for b in sub["basis"]]),
                "mu_w": np.array(sub["ambient"]["weights"]),
                "images": np.array([y["values"] for y in img["images"]]),
                "nu_w": np.array(img["space"]["weights"])}
        argv = ["extend", "--subspace", stem + "_subspace.json",
                "--images", stem + "_images.json", "--verify",
                "--trials", "10000", "--seed", str(seed), "--out", out,
                "--quiet"]
        requests.append(Request("extend", tuple(argv), data))
    return Workload(requests, len(grid), _run_cli, _check_extend, _digest_cli,
                    _settle_cli, tableau=True, files=files)


def _check_extend(req, out):
    code, raw = out
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(raw)
    if doc["certificate"] is None or not doc["verification"]["passed"]:
        return ["no certificate or a failed verification"]
    v = req.data
    kernel = np.array(doc["extension"]["kernel"], dtype=np.float64)
    phis = np.array([t["phi"]["values"] for t in doc["certificate"]["terms"]])
    return checks.extension(v["basis"], v["mu_w"], v["images"], v["nu_w"],
                            kernel, doc["alpha"], phis, doc["certificate_ratio"])


# ---------------------------------------------------------------------------
# small-lp: criterion-9 oracle cross-checks and optimal_k_search
# ---------------------------------------------------------------------------

def lp_shapes(smoke: bool) -> list[tuple[int, int, int]]:
    """Every (variables, equality rows, inequality rows) that
    ``acceptance.random_small_lp`` draws, each with the same probability."""
    return [(n, m_eq, m_ub) for n in range(1, 3 if smoke else 7)
            for m_eq in range(3) for m_ub in range(0 if m_eq else 1, 9 - m_eq)]


def setup_small_lp(lib, rng, workdir, smoke) -> Workload:
    g = lib.generate
    design = np.random.default_rng(DESIGN_SEED)
    atoms_max, rounds = (4, 1) if smoke else (20, 2)
    shapes = lp_shapes(smoke)
    pool: dict[tuple, list] = {}

    def draw(shape):
        # programs from random_small_lp, kept until their shape is asked for
        while not pool.get(shape):
            p = lib.acceptance.random_small_lp(rng)
            pool.setdefault((p.n_vars, p.n_eq, p.n_ub), []).append(p)
        return pool[shape].pop()

    requests = []
    # a round is every LP shape once, two cross-checks to each search
    for _ in range(rounds):
        order = rng.permutation(len(shapes))
        for j in range(0, len(order) - 1, 2):
            for k in order[j:j + 2]:
                program = draw(shapes[k])
                raw = {key: np.array(getattr(program, key))
                       for key in ("c", "a_eq", "b_eq", "g_ub", "h_ub")}
                requests.append(Request("lp", (program,), raw))
            n = 1 + (j // 2) % 2
            space = g.random_space(rng, int(design.integers(2, atoms_max + 1)))
            fs = g.random_family(rng, space, n, "real")
            requests.append(Request("optimal-k", (fs, 2 ** n + 1),
                                    {"values": _values(fs)}))
    return Workload(requests, len(requests) // rounds, _run_small_lp,
                    _check_small_lp, _digest_small_lp)


def _run_small_lp(lib, req):
    if req.kind == "lp":
        program = req.args[0]
        sol = lib.lp.solve(program)
        return sol, lib.oracle.solve_exact(program)
    return lib.decompose.optimal_k_search(*req.args)


def _check_small_lp(req, out):
    if req.kind == "lp":
        sol, (status, value) = out
        return checks.lp_agreement(req.data, sol.status, sol.objective_value,
                                   sol.primal, status, value)
    if not out.feasible:
        return ["optimal-k search found no decomposition up to 2^n + 1"]
    parts = np.vstack([p.values for p in out.parts])
    return checks.optimal_k(req.data["values"], out.k, out.signs, parts)


def _digest_small_lp(req, out):
    if req.kind == "lp":
        sol, (status, value) = out
        primal = sol.primal.tobytes() if sol.primal is not None else b""
        return f"{sol.status} {sol.objective_value!r} {status} {value}".encode() + primal
    parts = b"".join(p.values.tobytes() for p in out.parts or ())
    return json.dumps(out.to_json()).encode() + parts


WORKLOADS = {
    "decompose": setup_decompose,
    "cli-roundtrip": setup_cli,
    "extend-verify": setup_extend,
    "small-lp": setup_small_lp,
}


def digest_of(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(hashlib.sha256(c).digest())
    return h.hexdigest()
