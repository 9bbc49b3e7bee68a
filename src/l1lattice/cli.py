"""Single entry point dispatching all subcommands over the shared JSON layer.

Exit codes: 0 on success, 1 when a certified mathematical check or the LP
solver fails (which indicates a bug), 2 on input or usage errors.
Identical inputs and seeds produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import acceptance, jsonio, lp
from .core import COMPLEX, REAL, FnFamily
from .decompose import (MIN_NET_EPS, Decomposition, decompose_complex,
                        decompose_real, eps_net_coeffs, optimal_k_search,
                        refine_to_constant_coeffs, verify_cell_decomposition,
                        verify_decomposition)
from .extension import (MAX_TRIALS, alpha_via_lp, certificate_failure,
                        extension_lp, verify_extension_theorem)
from .generate import KIND_PARAMS, generate_instance, rng_for
from .jsonio import SchemaError
from .operators import (INEQ_TOL, check_domination, check_grothendieck,
                        dominate, modulus, op_norm, proof_trace_complex,
                        proof_trace_real)
from .tensor import pair_operator_tensor, verify_min_representation


class CheckFailed(Exception):
    """A certified mathematical check failed; maps to exit code 1."""


def _finite_at_least(text: str, low: float, rule: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= low):
        raise argparse.ArgumentTypeError(f"must be finite and {rule}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    return _finite_at_least(text, 0.0, "nonnegative")


def _net_eps(text: str) -> float:
    # eps_net_coeffs's range, checked before any file is read
    return _finite_at_least(text, MIN_NET_EPS, f"at least {MIN_NET_EPS:g}")


def _int_in(text: str, low: int, top: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not low <= value <= top:
        raise argparse.ArgumentTypeError(f"must be in {low}..{top}, got {text}")
    return value


def _trials(text: str) -> int:
    return _int_in(text, 0, MAX_TRIALS)


def _kmax(text: str) -> int:
    return _int_in(text, 1, 8)          # optimal_k_search's range


#: largest --seed: selftest and extend derive seeds up to 2**32 above it,
#: and every seed must fit numpy's uint64 seeding
MAX_SEED = 2 ** 63 - 1


def _seed(text: str) -> int:
    return _int_in(text, 0, MAX_SEED)


def _seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="path of the JSON report to write")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress the human-readable summary")


def _emit(args, doc, summary: str) -> None:
    if args.out:
        jsonio.write_json(args.out, doc)
    if not args.quiet:
        print(summary)


def _load_family(path: str) -> FnFamily:
    return jsonio.family_from_json(jsonio.read_json(path))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    fs = _load_family(args.input)
    mode = args.mode or fs.mode
    if mode == REAL and fs.mode != REAL:
        raise SchemaError("cannot run a real decomposition on a complex family")
    if args.cells or args.eps is not None:
        # refined from the family's chains: no dense decomposition is built
        cd = (eps_net_coeffs(fs, mode, args.eps) if args.eps is not None
              else refine_to_constant_coeffs(fs, mode))
        cell_report = verify_cell_decomposition(cd, fs)
        if not cell_report.passed:
            raise CheckFailed(
                "constant-coefficient refinement failed its bound: sum residual "
                f"{cell_report.sum_residual:.3e}, bound excess "
                f"{cell_report.bound_excess:.3e}"
                + "".join(f"; {v}" for v in cell_report.violations))
        _emit(args, jsonio.cell_decomposition_to_json(cd),
              f"{cd.n_parts} parts on {len(cd.cells)} cells, "
              f"epsilon {cd.epsilon}")
        return 0

    d = decompose_real(fs) if mode == REAL else decompose_complex(fs)
    report = verify_decomposition(d, fs)
    if not report.passed:
        raise CheckFailed(f"decomposition invariants failed: {report.to_json()}")
    # the residual checks in report order: parts sum, then each member
    residuals = (report.sum_residual, *report.recombination_residuals)
    worst = max(range(len(residuals)), key=residuals.__getitem__)
    _emit(args, jsonio.decomposition_to_json(d),
          f"{d.k} parts, max residual {residuals[worst]:.2e} "
          f"at atom {report.worst_atoms[worst]}")
    return 0


def _cmd_optimal_k(args) -> int:
    fs = _load_family(args.input)
    result = optimal_k_search(fs, args.kmax)
    doc = result.to_json()
    if result.feasible:
        witness = Decomposition(fs.space, REAL,
                                np.array([p.values for p in result.parts]),
                                result.signs, None)
        report = verify_decomposition(witness, fs)
        if not report.passed:
            residuals = (report.sum_residual, *report.recombination_residuals)
            raise CheckFailed(
                f"the k = {result.k} witness fails verify_decomposition: "
                f"residual {max(residuals):.3e} against tolerance "
                f"{report.tolerance:g}, negativity {report.negativity:.3e}")
        doc["parts"] = [jsonio.fn_to_json(p) for p in result.parts]
        summary = f"minimal k = {result.k} (infeasible: {list(result.infeasible_k)})"
    else:
        summary = f"infeasible up to k = {result.k_max_tried}"
    _emit(args, doc, f"{summary}; {result.lp_solves} LP solves")
    return 0


def _cmd_check_inequality(args) -> int:
    t = jsonio.operator_from_json(jsonio.read_json(args.op))
    fs = _load_family(args.family)
    report = check_grothendieck(t, fs, args.tol)
    doc = {"inequality": report.to_json()}
    summary = (f"lhs {report.lhs:.12g} <= rhs {report.rhs:.12g}: "
               f"{'holds' if report.holds else 'VIOLATED'}")
    if args.trace:
        if args.trace == "real":
            trace = proof_trace_real(t, fs, args.tol)
        else:
            eps = 0.1 if args.eps is None else args.eps
            trace = proof_trace_complex(t, fs, eps, args.tol)
        doc["trace"] = trace.to_json()
        summary += f"; trace {'passed' if trace.all_passed else 'FAILED'}"
        if not trace.all_passed:
            _emit(args, doc, summary)
            raise CheckFailed("a proof-trace step has negative slack")
    if not report.holds:
        _emit(args, doc, summary)
        raise CheckFailed("the L1 inequality failed, which indicates a bug")
    _emit(args, doc, summary)
    return 0


def _cmd_modulus(args) -> int:
    t = jsonio.operator_from_json(jsonio.read_json(args.op))
    abs_t = modulus(t)
    if op_norm(abs_t) != op_norm(t):
        raise CheckFailed("modulus changed the operator norm")
    _emit(args, jsonio.operator_to_json(abs_t),
          f"operator norm {op_norm(abs_t):.12g}")
    return 0


def _cmd_dominate(args) -> int:
    t = jsonio.operator_from_json(jsonio.read_json(args.op))
    phi = jsonio.fn_from_json(jsonio.read_json(args.phi))
    psi = dominate(t, phi)
    mass, bound, failure = check_domination(t, phi, psi, rng_for(args.seed))
    if failure is not None:
        raise CheckFailed(failure)
    _emit(args, jsonio.fn_to_json(psi),
          f"dominating mass {mass:.12g} <= {bound:.12g}")
    return 0


def _cmd_tensor_norm(args) -> int:
    g = jsonio.tensor_from_json(jsonio.read_json(args.input))
    report = verify_min_representation(g, [])
    doc = {"tensor_norm": report.norm,
           "canonical_cells": report.canonical_cells,
           "canonical_product": report.canonical_product}
    if not report.passed:
        raise CheckFailed("canonical representation does not attain the norm")
    _emit(args, doc, f"tensor norm {report.norm:.12g} "
                     f"({report.canonical_cells} canonical cells)")
    return 0


def _cmd_pair(args) -> int:
    t = jsonio.operator_from_json(jsonio.read_json(args.op))
    g = jsonio.tensor_from_json(jsonio.read_json(args.tensor))
    value = pair_operator_tensor(t, g)
    if isinstance(value, complex):
        doc = {"pairing": [value.real, value.imag]}
        summary = f"pairing {value.real:.12g} + {value.imag:.12g}i"
    else:
        doc = {"pairing": value}
        summary = f"pairing {value:.12g}"
    _emit(args, doc, summary)
    return 0


def _cmd_extend(args) -> int:
    x = jsonio.subspace_from_json(jsonio.read_json(args.subspace))
    t = jsonio.images_from_json(jsonio.read_json(args.images), x)
    if args.dump_lp:
        # written before solving, so a failed solve still leaves the dump
        program = extension_lp(x, t)
        jsonio.write_json(args.dump_lp, {
            key: getattr(program, key)
            for key in ("c", "a_eq", "b_eq", "g_ub", "h_ub")})
    result = alpha_via_lp(x, t)
    if not args.verify:
        failure = certificate_failure(result)
        if failure is not None:
            raise CheckFailed(failure)
    doc = {
        "alpha": result.alpha,
        "lp_objective": result.lp_objective,
        "extension": jsonio.operator_to_json(result.extension),
        "certificate": (jsonio.tensor_to_json(result.certificate)
                        if result.certificate else None),
        "certificate_ratio": result.certificate_ratio,
    }
    summary = f"alpha = {result.alpha:.12g}"
    if args.verify:
        report = verify_extension_theorem(x, t, trials=args.trials,
                                          seed=args.seed, result=result)
        doc["verification"] = report.to_json()
        summary += f"; verification {'passed' if report.passed else 'FAILED'}"
        if not report.passed:
            _emit(args, doc, summary)
            raise CheckFailed("; ".join(report.failures))
    _emit(args, doc, summary)
    return 0


def _cmd_generate(args) -> int:
    params = {key: getattr(args, key) for key in KIND_PARAMS[args.kind]
              if getattr(args, key) is not None}
    if not args.out:
        raise SchemaError("generate requires --out")
    docs = generate_instance(args.kind, params, args.seed)
    if len(docs) == 1:
        jsonio.write_json(args.out, next(iter(docs.values())))
        written = [args.out]
    else:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        written = []
        for name, doc in docs.items():
            path = f"{stem}_{name}.json"
            jsonio.write_json(path, doc)
            written.append(path)
    if not args.quiet:
        print("wrote " + ", ".join(written))
    return 0


def _cmd_selftest(args) -> int:
    report = acceptance.run_selftest(args.seed, fast=args.fast)
    if args.out:
        jsonio.write_json(args.out, report)
    if not args.quiet:
        for item in report["criteria"]:
            print(acceptance.status_line(item["number"], item["name"],
                                         item["passed"]))
        print("selftest " + ("PASSED" if report["all_passed"] else "FAILED"))
    if not report["all_passed"]:
        raise CheckFailed("selftest criteria failed")
    return 0


# ---------------------------------------------------------------------------

def _decompose_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="family JSON")
    p.add_argument("--mode", choices=[REAL, COMPLEX], default=None)
    p.add_argument("--prune", action="store_true",
                   help="changes nothing: every document lists only the "
                        "nonzero parts")
    p.add_argument("--cells", action="store_true",
                   help="refine to constant coefficients on cells")
    p.add_argument("--eps", type=_net_eps, default=None,
                   help="round coefficients to a finite circle net of this mesh")


def _optimal_k_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="family JSON (real mode)")
    p.add_argument("--kmax", type=_kmax, required=True)


def _check_inequality_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--op", required=True, help="operator JSON")
    p.add_argument("--family", required=True, help="family JSON")
    p.add_argument("--trace", choices=["real", "complex"], default=None,
                   help="also certify a step-by-step proof trace")
    p.add_argument("--eps", type=_net_eps, default=None,
                   help="net mesh for --trace complex (default 0.1)")
    p.add_argument("--tol", type=_tolerance, default=INEQ_TOL,
                   help="inequality and trace tolerance (default %(default)s)")


def _modulus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--op", required=True)


def _dominate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--op", required=True)
    p.add_argument("--phi", required=True, help="nonnegative SimpleFn JSON")
    _seed_flag(p)


def _tensor_norm_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="tensor JSON")


def _pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--op", required=True)
    p.add_argument("--tensor", required=True)


def _extend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--subspace", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--verify", action="store_true",
                   help="run the end-to-end extension verification")
    p.add_argument("--trials", type=_trials, default=10_000,
                   help=f"condition (b) sample size for --verify, "
                        f"0..{MAX_TRIALS} (default %(default)s)")
    p.add_argument("--dump-lp", metavar="PATH",
                   help="write the extension LP as JSON")
    _seed_flag(p)


def _generate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True,
                   choices=["family", "operator", "inequality", "tensor",
                            "subspace", "extension"])
    # every flag but --atoms is refused by the kinds that do not read it
    p.add_argument("--atoms", type=int, default=6)
    p.add_argument("--n", type=int,
                   help="family size / tensor terms (default 2)")
    p.add_argument("--nu-atoms", type=int, dest="nu_atoms",
                   help="codomain atoms (default --atoms)")
    p.add_argument("--dim", type=int, help="subspace dimension (default 2)")
    p.add_argument("--mode", choices=[REAL, COMPLEX],
                   help="scalar field (default real)")
    _seed_flag(p)


def _selftest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fast", action="store_true",
                   help="scaled-down counts for smoke testing")
    _seed_flag(p)


#: name, help, handler and arguments of every subcommand, in usage order
_SUBCOMMANDS = (
    ("decompose", "decompose a family into nonnegative parts",
     _cmd_decompose, _decompose_args),
    ("optimal-k", "exhaustive minimal part-count search",
     _cmd_optimal_k, _optimal_k_args),
    ("check-inequality", "evaluate the L1 inequality",
     _cmd_check_inequality, _check_inequality_args),
    ("modulus", "entrywise absolute value of an operator",
     _cmd_modulus, _modulus_args),
    ("dominate", "dominating function for an order interval",
     _cmd_dominate, _dominate_args),
    ("tensor-norm", "projective norm of a tensor element",
     _cmd_tensor_norm, _tensor_norm_args),
    ("pair", "pairing of an operator with a tensor element",
     _cmd_pair, _pair_args),
    ("extend", "minimal-norm extension of a subspace operator",
     _cmd_extend, _extend_args),
    ("generate", "seeded pseudorandom instance files",
     _cmd_generate, _generate_args),
    ("selftest", "run the acceptance suite", _cmd_selftest, _selftest_args),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  When ``command`` names a subcommand, only its parser
    is registered, under a metavar listing every name so that usage and
    errors read the same; else (None, -h, a typo) every one is."""
    parser = argparse.ArgumentParser(
        prog="l1lattice",
        description="Lattice decompositions, L1 operator inequalities and "
                    "minimal-norm extensions on finite atomic measure spaces")
    chosen = [sub for sub in _SUBCOMMANDS if sub[0] == command]
    # a metavar would also replace "command" in the missing-command error
    names = ",".join(name for name, *_ in _SUBCOMMANDS)
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="{" + names + "}" if chosen else None)
    for name, help_text, func, add_args in chosen or _SUBCOMMANDS:
        p = subs.add_parser(name, help=help_text)
        add_args(p)
        _common_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if (args.command == "check-inequality" and args.eps is not None
            and args.trace != "complex"):
        parser.error("argument --eps: only honoured with --trace complex")
    if args.command == "generate":
        for key in ("n", "nu_atoms", "dim", "mode"):
            if (getattr(args, key) is not None
                    and key not in KIND_PARAMS[args.kind]):
                parser.error(f"argument --{key.replace('_', '-')}: "
                             f"not read by --kind {args.kind}")
    try:
        return args.func(args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except lp.LPError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, FileNotFoundError, IsADirectoryError,
            PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
