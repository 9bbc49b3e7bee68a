"""Single entry point dispatching all subcommands over the shared JSON layer.

Exit codes: 0 on success, 1 when a certified mathematical check or the LP
solver fails (which indicates a bug), 2 on input or usage errors.
Identical inputs and seeds produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import acceptance, jsonio, lp
from .core import COMPLEX, REAL, FnFamily
from .decompose import (decompose_complex, decompose_real, eps_net_coeffs,
                        optimal_k_search, prune, refine_to_constant_coeffs,
                        verify_cell_decomposition, verify_decomposition)
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


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and nonnegative, got {text!r}")
    return value


def _trials(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(
            f"must be in 0..{MAX_TRIALS}, got {value}")
    return value


class _StoreGiven(argparse.Action):
    """Store the value and record on the namespace that the flag was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"{self.dest}_given", True)


def _seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


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
    if mode == REAL:
        if fs.mode != REAL:
            raise SchemaError("cannot run a real decomposition on a complex family")
        d = decompose_real(fs)
    else:
        d = decompose_complex(fs)
    if args.prune:
        d = prune(d)
    report = verify_decomposition(d, fs)
    if not report.passed:
        raise CheckFailed(f"decomposition invariants failed: {report.to_json()}")

    if args.cells or args.eps is not None:
        cd = (eps_net_coeffs(d, args.eps) if args.eps is not None
              else refine_to_constant_coeffs(d))
        cell_report = verify_cell_decomposition(cd, fs)
        if not cell_report.passed:
            raise CheckFailed("constant-coefficient refinement failed its bound")
        doc = jsonio.cell_decomposition_to_json(cd)
        _emit(args, doc, f"{cd.n_parts} parts on {len(cd.cells)} cells, "
                         f"epsilon {cd.epsilon}")
    else:
        doc = jsonio.decomposition_to_json(d)
        _emit(args, doc, f"{d.k} parts, counts per level {list(d.level_counts)}, "
                         f"max residual {max(report.sum_residual, *report.recombination_residuals):.2e}")
    return 0


def _cmd_optimal_k(args) -> int:
    fs = _load_family(args.input)
    result = optimal_k_search(fs, args.kmax)
    doc = result.to_json()
    if result.feasible:
        doc["parts"] = [jsonio.fn_to_json(p) for p in result.parts]
        summary = f"minimal k = {result.k} (infeasible: {list(result.infeasible_k)})"
    else:
        summary = f"infeasible up to k = {result.k_max_tried}"
    _emit(args, doc, summary)
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
            trace = proof_trace_complex(t, fs, args.eps, args.tol)
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
            "c": list(program.c),
            "a_eq": [list(r) for r in program.a_eq],
            "b_eq": list(program.b_eq),
            "g_ub": [list(r) for r in program.g_ub],
            "h_ub": list(program.h_ub),
        })
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
    docs = generate_instance(args.kind, params, args.seed)
    if not args.out:
        raise SchemaError("generate requires --out")
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
            status = "PASS" if item["passed"] else "FAIL"
            print(f"criterion {item['number']:2d} [{status}] {item['name']}")
        print("selftest " + ("PASSED" if report["all_passed"] else "FAILED"))
    if not report["all_passed"]:
        raise CheckFailed("selftest criteria failed")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1lattice",
        description="Lattice decompositions, L1 operator inequalities and "
                    "minimal-norm extensions on finite atomic measure spaces")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="decompose a family into nonnegative parts")
    p.add_argument("--input", required=True, help="family JSON")
    p.add_argument("--mode", choices=[REAL, COMPLEX], default=None)
    p.add_argument("--prune", action="store_true", help="drop identically-zero parts")
    p.add_argument("--cells", action="store_true",
                   help="refine to constant coefficients on cells")
    p.add_argument("--eps", type=float, default=None,
                   help="round coefficients to a finite circle net of this mesh")
    _common_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("optimal-k", help="exhaustive minimal part-count search")
    p.add_argument("--input", required=True, help="family JSON (real mode)")
    p.add_argument("--kmax", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_optimal_k)

    p = subs.add_parser("check-inequality", help="evaluate the L1 inequality")
    p.add_argument("--op", required=True, help="operator JSON")
    p.add_argument("--family", required=True, help="family JSON")
    p.add_argument("--trace", choices=["real", "complex"], default=None,
                   help="also certify a step-by-step proof trace")
    p.add_argument("--eps", type=float, default=0.1, action=_StoreGiven,
                   help="net mesh for --trace complex (default %(default)s)")
    p.add_argument("--tol", type=_tolerance, default=INEQ_TOL,
                   help="inequality and trace tolerance (default %(default)s)")
    _common_flags(p)
    p.set_defaults(func=_cmd_check_inequality, eps_given=False)

    p = subs.add_parser("modulus", help="entrywise absolute value of an operator")
    p.add_argument("--op", required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_modulus)

    p = subs.add_parser("dominate", help="dominating function for an order interval")
    p.add_argument("--op", required=True)
    p.add_argument("--phi", required=True, help="nonnegative SimpleFn JSON")
    _seed_flag(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_dominate)

    p = subs.add_parser("tensor-norm", help="projective norm of a tensor element")
    p.add_argument("--input", required=True, help="tensor JSON")
    _common_flags(p)
    p.set_defaults(func=_cmd_tensor_norm)

    p = subs.add_parser("pair", help="pairing of an operator with a tensor element")
    p.add_argument("--op", required=True)
    p.add_argument("--tensor", required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_pair)

    p = subs.add_parser("extend", help="minimal-norm extension of a subspace operator")
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
    _common_flags(p)
    p.set_defaults(func=_cmd_extend)

    p = subs.add_parser("generate", help="seeded pseudorandom instance files")
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
    _common_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = subs.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--fast", action="store_true",
                   help="scaled-down counts for smoke testing")
    _seed_flag(p)
    _common_flags(p)
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "eps_given", False) and args.trace != "complex":
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
    except (SchemaError, json.JSONDecodeError, FileNotFoundError,
            IsADirectoryError, PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
