import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from l1lattice import cli, jsonio, lp
from l1lattice.acceptance import pattern_family_n2
from l1lattice.cli import main
from l1lattice.core import FnFamily, SimpleFn
from l1lattice.decompose import CellReport, OptimalKResult, eps_net_coeffs
from l1lattice.extension import (RestrictedOperator, Subspace, alpha_via_lp,
                                  certificate_family_coeffs, extension_lp)
from l1lattice.generate import (generate_instance, random_family,
                                random_operator, random_space, random_subspace,
                                random_tensor, random_values, rng_for)
from l1lattice.oracle import solve_exact


def _measured(argv):
    """Exit code, wall seconds and peak traced allocation of main(argv)."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
    finally:
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return code, seconds, peak


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "l1lattice.cli", *args],
                          capture_output=True, text=True)
    return proc


class TestRoundTrips:
    def test_family_bit_exact(self):
        rng = rng_for(1)
        for mode in ("real", "complex"):
            fs = random_family(rng, random_space(rng, 6), 3, mode)
            doc = json.loads(jsonio.dumps(jsonio.family_to_json(fs)))
            back = jsonio.family_from_json(doc)
            assert back.space == fs.space
            assert np.array_equal(back.value_matrix, fs.value_matrix)

    def test_operator_bit_exact(self):
        rng = rng_for(2)
        for mode in ("real", "complex"):
            t = random_operator(rng, random_space(rng, 4),
                                random_space(rng, 3, prefix="s"), mode)
            back = jsonio.operator_from_json(
                json.loads(jsonio.dumps(jsonio.operator_to_json(t))))
            assert np.array_equal(back.kernel, t.kernel)
            assert back.domain == t.domain and back.codomain == t.codomain

    def test_tensor_bit_exact(self):
        rng = rng_for(3)
        g = random_tensor(rng, random_space(rng, 3),
                          random_space(rng, 4, prefix="s"), 2, "complex")
        back = jsonio.tensor_from_json(
            json.loads(jsonio.dumps(jsonio.tensor_to_json(g))))
        assert np.array_equal(back.evaluation, g.evaluation)

    def test_subspace_bit_exact(self):
        rng = rng_for(4)
        x = random_subspace(rng, random_space(rng, 5), 2)
        back = jsonio.subspace_from_json(
            json.loads(jsonio.dumps(jsonio.subspace_to_json(x))))
        assert np.array_equal(back.basis_matrix, x.basis_matrix)

    def test_space_name_resolution(self):
        doc = {"spaces": {"mu": {"atoms": ["a", "b"], "weights": [1.0, 2.0]}},
               "members": [{"space": "mu", "mode": "real", "values": [1.0, -1.0]}]}
        fs = jsonio.family_from_json(doc)
        assert fs.space.atoms == ("a", "b")

    def test_unknown_space_name(self):
        doc = {"members": [{"space": "nu", "mode": "real", "values": [1.0]}]}
        with pytest.raises(jsonio.SchemaError):
            jsonio.family_from_json(doc)


class TestSubcommands:
    def test_decompose_n1_matches_pos_neg_split(self, tmp_path):
        fam = {"spaces": {"mu": {"atoms": ["a", "b"], "weights": [1.0, 1.0]}},
               "members": [{"space": "mu", "mode": "real", "values": [2.0, -3.0]}]}
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(fam))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(fam_path),
                     "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert [p["values"] for p in doc["parts"]] == [[2.0, 0.0], [0.0, 3.0]]
        assert doc["coeffs"] == {"kind": "signs", "matrix": [[1, -1]]}
        assert doc["trace"]["pre_prune_counts"] == [2]

    def test_decompose_names_the_worst_residual_atom(self, tmp_path, capsys):
        # residuals per check at this seed: sum 0, members 7.2e-17, 7.8e-17
        # at a4 and 1.4e-16 at a2
        rng = rng_for(4)
        fam = tmp_path / "fam.json"
        fam.write_text(jsonio.dumps(jsonio.family_to_json(
            random_family(rng, random_space(rng, 6), 3, "complex"))))
        assert main(["decompose", "--input", str(fam)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("15 parts, counts per level [15, 4, 1], ")
        assert out.endswith(" at atom a2\n") and "max residual 1.4" in out

    def test_generate_then_full_pipeline(self, tmp_path):
        pair = tmp_path / "pair.json"
        assert main(["generate", "--kind", "inequality", "--atoms", "4",
                     "--nu-atoms", "3", "--n", "2", "--seed", "5",
                     "--out", str(pair), "--quiet"]) == 0
        op = tmp_path / "pair_operator.json"
        fam = tmp_path / "pair_family.json"
        report = tmp_path / "ineq.json"
        assert main(["check-inequality", "--op", str(op), "--family", str(fam),
                     "--trace", "real", "--out", str(report), "--quiet"]) == 0
        doc = json.loads(report.read_text())
        assert doc["inequality"]["holds"]
        assert doc["trace"]["all_passed"]

    def test_extend_with_verification(self, tmp_path):
        stem = tmp_path / "inst.json"
        assert main(["generate", "--kind", "extension", "--atoms", "4",
                     "--nu-atoms", "3", "--dim", "2", "--seed", "6",
                     "--out", str(stem), "--quiet"]) == 0
        out = tmp_path / "res.json"
        lp_dump = tmp_path / "lp.json"
        assert main(["extend", "--subspace", str(tmp_path / "inst_subspace.json"),
                     "--images", str(tmp_path / "inst_images.json"),
                     "--verify", "--trials", "1000", "--seed", "1",
                     "--dump-lp", str(lp_dump), "--out", str(out),
                     "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["verification"]["passed"]
        assert doc["certificate_ratio"] >= doc["alpha"] * (1 - 1e-6)
        assert sorted(json.loads(lp_dump.read_text())) == [
            "a_eq", "b_eq", "c", "g_ub", "h_ub"]

    def test_optimal_k(self, tmp_path):
        fam = {"spaces": {"mu": {"atoms": ["a", "b"], "weights": [1.0, 1.0]}},
               "members": [{"space": "mu", "mode": "real", "values": [1.0, -1.0]}]}
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(fam))
        out = tmp_path / "k.json"
        assert main(["optimal-k", "--input", str(fam_path), "--kmax", "4",
                     "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["k"] == 2 and doc["infeasible_k"] == [1]

    def test_optimal_k_summary_counts_lp_solves(self, tmp_path, capsys):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(jsonio.family_to_json(
            pattern_family_n2())))
        assert main(["optimal-k", "--input", str(fam_path), "--kmax", "5"]) == 0
        assert capsys.readouterr().out == (
            "minimal k = 4 (infeasible: [1, 2, 3]); 9 LP solves\n")
        # every sign matrix of at most 3 columns misses a corner atom's
        # vertex, so the face bound refutes all 129 without an LP
        assert main(["optimal-k", "--input", str(fam_path), "--kmax", "3"]) == 0
        assert capsys.readouterr().out == "infeasible up to k = 3; 0 LP solves\n"

    def test_optimal_k_witness_must_verify(self, tmp_path, capsys,
                                           monkeypatch):
        # f = [2.0, -1e-9] changes sign, so it needs k = 2; a search that
        # returned the k = 1 witness [2.0, +1e-9] recombines +1e-9 where f
        # is -1e-9, above verify_decomposition's tolerance, so the witness
        # is refused and no report is written
        fam = {"spaces": {"mu": {"atoms": ["a", "b"], "weights": [1.0, 1.0]}},
               "members": [{"space": "mu", "mode": "real",
                            "values": [2.0, -1e-9]}]}
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(fam))
        out = tmp_path / "k.json"
        assert main(["optimal-k", "--input", str(fam_path), "--kmax", "3",
                     "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["k"] == 2
        out.unlink()
        capsys.readouterr()

        def search(fs, k_max):
            bad = SimpleFn(fs.space, "real", [2.0, 1e-9])
            return OptimalKResult(True, 1, np.array([[1]], dtype=np.int8),
                                  (bad,), (), k_max, 1, 2)

        monkeypatch.setattr(cli, "optimal_k_search", search)
        assert main(["optimal-k", "--input", str(fam_path), "--kmax", "3",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "check failed: the k = 1 witness fails verify_decomposition")
        assert not out.exists()

    @pytest.mark.parametrize("k", [0, -30, -40, -60])
    def test_optimal_k_is_the_same_at_every_scale(self, tmp_path, capsys, k):
        # f1 and f2 are not proportional, so no single part gives both; the
        # float LP's absolute tolerance answered k = 1 at 2^-40 and refused
        # its own witness at 2^-30
        scale = 2.0 ** k
        fam = {"spaces": {"mu": {"atoms": ["a", "b"], "weights": [1.0, 1.0]}},
               "members": [{"space": "mu", "mode": "real",
                            "values": [2.0 * scale, -1e-3 * scale]},
                           {"space": "mu", "mode": "real",
                            "values": [1.0 * scale, 3.0 * scale]}]}
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(fam))
        assert main(["optimal-k", "--input", str(fam_path), "--kmax", "4"]) == 0
        assert capsys.readouterr().out.startswith(
            "minimal k = 3 (infeasible: [1, 2]); ")

    def test_optimal_k_over_budget_exits_2(self, tmp_path, capsys):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(jsonio.family_to_json(
            random_family(rng_for(0), random_space(rng_for(0), 50), 4, "real"))))
        code, seconds, _ = _measured(["optimal-k", "--input", str(fam_path),
                                      "--kmax", "3", "--quiet"])
        assert code == 2 and seconds < 1.0
        assert ("n = 4 and k_max = 3 tries up to 88,641 sign matrices"
                in capsys.readouterr().err)

    def test_optimal_k_over_lp_budget_exits_2(self, tmp_path, capsys):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(jsonio.family_to_json(
            random_family(rng_for(0), random_space(rng_for(0), 600), 3,
                          "real"))))
        code, seconds, _ = _measured(["optimal-k", "--input", str(fam_path),
                                      "--kmax", "2", "--quiet"])
        assert code == 2 and seconds < 1.0
        assert ("n = 3 and k_max = 2 on 600 active atoms needs up to 226,800 "
                "LP solves" in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,mode,n,atoms,entries", [
        (["decompose", "--mode", "real"], "real", 6, 5, "379,860"),
        (["decompose", "--mode", "complex"], "complex", 7, 4, "383,572"),
        (["check-inequality", "--trace", "real"], "real", 6, 5, "379,860"),
        (["check-inequality", "--trace", "complex"], "complex", 7, 4,
         "383,572"),
    ])
    def test_decomposition_over_budget_exits_2(self, tmp_path, capsys, argv,
                                               mode, n, atoms, entries):
        """k(6) = 75,972 real parts on 5 atoms and k(7) = 13,699 complex
        parts on 4 atoms times 7 coefficient fields exceed MAX_ENTRIES;
        the refusal comes before any array of that size is built."""
        rng = rng_for(5)
        t = random_operator(rng, random_space(rng, atoms),
                            random_space(rng, 3, prefix="s"), mode)
        fs = random_family(rng, t.domain, n, mode)
        fam_path, op_path = tmp_path / "fam.json", tmp_path / "op.json"
        fam_path.write_text(jsonio.dumps(jsonio.family_to_json(fs)))
        op_path.write_text(jsonio.dumps(jsonio.operator_to_json(t)))
        inputs = (["--input", str(fam_path)] if argv[0] == "decompose" else
                  ["--op", str(op_path), "--family", str(fam_path)])
        code, seconds, peak = _measured([*argv, *inputs, "--quiet"])
        assert code == 2 and seconds < 1.0 and peak < 1_000_000
        assert (f"a {mode} decomposition of {n} members on {atoms} atoms "
                f"needs {entries} array entries or more, above the budget "
                f"of 320,000" in capsys.readouterr().err)

    def test_modulus_dominate_tensor_pair(self, tmp_path):
        op_path = tmp_path / "op.json"
        main(["generate", "--kind", "operator", "--atoms", "3",
              "--nu-atoms", "3", "--seed", "7", "--out", str(op_path), "--quiet"])
        assert main(["modulus", "--op", str(op_path),
                     "--out", str(tmp_path / "abs.json"), "--quiet"]) == 0
        op_doc = json.loads(op_path.read_text())
        phi = {"space": op_doc["domain"], "mode": "real",
               "values": [1.0] * len(op_doc["domain"]["atoms"])}
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(jsonio.dumps(phi))
        assert main(["dominate", "--op", str(op_path), "--phi", str(phi_path),
                     "--out", str(tmp_path / "psi.json"), "--quiet"]) == 0
        g_path = tmp_path / "g.json"
        main(["generate", "--kind", "tensor", "--atoms", "3", "--nu-atoms", "4",
              "--n", "2", "--seed", "8", "--out", str(g_path), "--quiet"])
        assert main(["tensor-norm", "--input", str(g_path),
                     "--out", str(tmp_path / "tn.json"), "--quiet"]) == 0

    @pytest.mark.parametrize("flags", [["--prune"], ["--prune", "--cells"],
                                       ["--prune", "--eps", "0.1"]])
    def test_all_zero_family_with_prune(self, tmp_path, flags):
        fam = {"spaces": {"mu": {"atoms": ["a", "b"], "weights": [1.0, 2.0]}},
               "members": [{"space": "mu", "mode": "real", "values": [0.0, 0.0]},
                           {"space": "mu", "mode": "real", "values": [-0.0, 0.0]}]}
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(fam))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--input", str(fam_path), *flags,
                     "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["parts"] == []

    def test_prune_keeps_cells_of_signed_zeros(self, tmp_path):
        # atoms 0 and 1 differ only in the sign of a zero component, so
        # their coefficients are equal and they share one cell
        fam = {"spaces": {"mu": {"atoms": ["a", "b", "c"],
                                 "weights": [1.0, 1.0, 1.0]}},
               "members": [{"space": "mu", "mode": "complex",
                            "values": [[1.0, 0.0], [1.0, -0.0], [-0.0, 2.0]]},
                           {"space": "mu", "mode": "complex",
                            "values": [[-0.0, -1.0], [0.0, -1.0], [-1.0, 0.0]]}]}
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(fam))
        outs = []
        for flags in (["--cells"], ["--prune", "--cells"]):
            outs.append(tmp_path / f"cells{len(outs)}.json")
            assert main(["decompose", "--input", str(fam_path), *flags,
                         "--out", str(outs[-1]), "--quiet"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["cells"] == [[0, 1], [2]]


SPACE_2 ='{"atoms": ["a", "b"], "weights": [1.0, 2.0]}'
SPACE_1 = '{"atoms": ["a"], "weights": [1.0]}'

# (subcommand, input document, text the error must contain)
BAD_INPUTS = {
    "nan-value": (
        "decompose",
        '{"spaces": {"mu": %s}, "members": [{"space": "mu", "values": [1.0, NaN]}]}'
        % SPACE_2, "values must be finite, got nan at index 1"),
    "nan-kernel": (
        "modulus",
        '{"domain": %s, "codomain": %s, "kernel": [[Infinity]]}' % (SPACE_1, SPACE_1),
        "kernel entries must be finite, got inf at [0][0]"),
    "bool-value": (
        "decompose",
        '{"spaces": {"mu": %s}, "members": [{"space": "mu", "values": [true, 0.0]}]}'
        % SPACE_2, "value must be a number, got True"),
    "bool-weight": (
        "decompose",
        '{"spaces": {"mu": {"atoms": ["a"], "weights": [true]}}, '
        '"members": [{"space": "mu", "values": [1.0]}]}',
        "space weight must be a number, got True"),
    "huge-integer": (
        "decompose",
        '{"spaces": {"mu": %s}, "members": [{"space": "mu", "values": [1%s, 0]}]}'
        % (SPACE_2, "0" * 400), "value must be finite, got a 401-digit integer"),
    "missing-key": (
        "modulus", '{"codomain": %s, "kernel": [[1.0]]}' % SPACE_1,
        "operator: missing key 'domain'"),
}

# (argv, document, message): containers of the wrong JSON type and JSON
# nested past the parser's depth; "doc" is the malformed file, "sub" and
# "img" a well-formed subspace and images on one atom
MALFORMED = {
    "spaces-not-object": (
        "decompose --input doc", '{"spaces": [1], "members": []}',
        "spaces must be an object"),
    "members-not-list": (
        "decompose --input doc", '{"members": 5}', "members must be a list"),
    "atoms-not-list": (
        "decompose --input doc",
        '{"spaces": {"mu": {"atoms": 5, "weights": [1.0]}}, "members": []}',
        "space atoms must be a list"),
    "kernel-not-list": (
        "modulus --op doc",
        '{"domain": %s, "codomain": %s, "kernel": 5}' % (SPACE_1, SPACE_1),
        "kernel must be a list"),
    "kernel-empty": (
        "modulus --op doc",
        '{"domain": %s, "codomain": %s, "kernel": []}' % (SPACE_1, SPACE_1),
        "kernel entries must have shape (1, 1), got (0, 1)"),
    "kernel-ragged": (
        "modulus --op doc",
        '{"domain": %s, "codomain": %s, "kernel": [[1.0, 2.0], [1.0]]}'
        % (SPACE_2, SPACE_2), "kernel row 1 has 1 entries, row 0 has 2"),
    "kernel-row-not-list": (
        "modulus --op doc",
        '{"domain": %s, "codomain": %s, "kernel": [[1.0, 2.0], 5]}'
        % (SPACE_2, SPACE_2), "kernel row 1 must be a list"),
    "terms-not-list": (
        "tensor-norm --input doc",
        '{"mu": %s, "nu": %s, "terms": 5}' % (SPACE_1, SPACE_1),
        "terms must be a list"),
    "term-not-object": (
        "tensor-norm --input doc",
        '{"mu": %s, "nu": %s, "terms": [5]}' % (SPACE_1, SPACE_1),
        "each term must be an object"),
    "basis-not-list": (
        "extend --subspace doc --images img",
        '{"ambient": %s, "basis": 5}' % SPACE_1, "basis must be a list"),
    "images-not-list": (
        "extend --subspace sub --images doc", '{"images": 5}',
        "images must be a list"),
    "nested-too-deeply": (
        "decompose --input doc", "[" * 100_000,
        "doc.json: JSON nested too deeply"),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_names_the_field(self, tmp_path, capsys, case):
        command, text, message = BAD_INPUTS[case]
        path = tmp_path / "doc.json"
        path.write_text(text)
        flag = "--input" if command == "decompose" else "--op"
        assert main([command, flag, str(path), "--quiet"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_container_names_the_field(self, tmp_path, capsys, case):
        argv, text, message = MALFORMED[case]
        (tmp_path / "doc.json").write_text(text)
        (tmp_path / "sub.json").write_text(
            '{"ambient": %s, "basis": [{"values": [1.0]}]}' % SPACE_1)
        (tmp_path / "img.json").write_text(
            '{"space": %s, "images": [{"values": [1.0]}]}' % SPACE_1)
        files = {name: str(tmp_path / f"{name}.json")
                 for name in ("doc", "sub", "img")}
        assert main([files.get(a, a) for a in argv.split()] + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_long_offending_value_is_cut_in_the_message(self, tmp_path,
                                                        capsys):
        # one value of a family replaced by 200,000 zeros: a 1 MB document
        path = tmp_path / "doc.json"
        path.write_text('{"spaces": {"mu": %s}, "members": [{"space": "mu", '
                        '"values": [[%s], 0.0]}]}'
                        % (SPACE_2, ", ".join(["0.0"] * 200_000)))
        assert main(["decompose", "--input", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "value must be a number, got [0.0, 0.0" in err
        assert len(err.encode()) < 300

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        main(["generate", "--kind", "inequality", "--atoms", "3",
              "--out", str(tmp_path / "i.json"), "--quiet"])
        good, bad = tmp_path / "i_family.json", tmp_path / "bad.json"
        for text in (b"{not json", b'{"members": "\xff"}'):
            bad.write_bytes(text)
            assert main(["check-inequality", "--op", str(bad),
                         "--family", str(good), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["decompose", "--input", str(tmp_path / "nope.json"),
                     "--quiet"]) == 2

    def test_mode_conflict_is_usage_error(self, tmp_path):
        fam = {"spaces": {"mu": {"atoms": ["a"], "weights": [1.0]}},
               "members": [{"space": "mu", "mode": "complex", "values": [[0.0, 1.0]]}]}
        p = tmp_path / "fam.json"
        p.write_text(jsonio.dumps(fam))
        assert main(["decompose", "--input", str(p), "--mode", "real",
                     "--quiet"]) == 2

    def test_unknown_flag_rejected(self):
        proc = run_cli("decompose", "--nonsense")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["decompose", "--input", "f.json", "--tol", "1e-3"],
        ["decompose", "--input", "f.json", "--dump-lp", "lp.json"],
        ["extend", "--subspace", "x.json", "--images", "t.json", "--tol", "1e-3"],
        ["check-inequality", "--op", "t.json", "--family", "f.json",
         "--dump-lp", "lp.json"],
        ["decompose", "--input", "f.json", "--seed", "1"],
        ["pair", "--op", "t.json", "--tensor", "g.json", "--seed", "1"],
        ["check-inequality", "--op", "t.json", "--family", "f.json",
         "--tol", "nan"],
        ["check-inequality", "--op", "t.json", "--family", "f.json",
         "--tol", "-1"],
        ["check-inequality", "--op", "t.json", "--family", "f.json",
         "--eps", "0.2"],
        ["check-inequality", "--op", "t.json", "--family", "f.json",
         "--trace", "real", "--eps", "0.1"],
        ["generate", "--kind", "family", "--nu-atoms", "7"],
        ["generate", "--kind", "family", "--dim", "5"],
        ["generate", "--kind", "operator", "--n", "3"],
        ["generate", "--kind", "operator", "--dim", "2"],
        ["generate", "--kind", "inequality", "--dim", "2"],
        ["generate", "--kind", "tensor", "--dim", "2"],
        ["generate", "--kind", "subspace", "--n", "4"],
        ["generate", "--kind", "subspace", "--nu-atoms", "9"],
        ["generate", "--kind", "subspace", "--mode", "real"],
        ["generate", "--kind", "extension", "--n", "2"],
        ["generate", "--kind", "extension", "--mode", "complex"],
    ])
    def test_flags_only_where_honoured(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,flag", [
        (["check-inequality", "--op", "t.json", "--family", "f.json",
          "--tol", "nan"], "--tol"),
        (["check-inequality", "--op", "t.json", "--family", "f.json",
          "--trace", "complex", "--tol", "-1"], "--tol"),
        (["check-inequality", "--op", "t.json", "--family", "f.json",
          "--eps", "0.1"], "--eps"),
        (["extend", "--subspace", "x.json", "--images", "t.json",
          "--trials", "-1"], "--trials"),
        (["extend", "--subspace", "x.json", "--images", "t.json",
          "--trials", "1000001"], "--trials"),
        (["generate", "--kind", "family", "--nu-atoms", "7", "--dim", "5",
          "--out", "f.json"], "--nu-atoms"),
        (["generate", "--kind", "subspace", "--mode", "real",
          "--out", "x.json"], "--mode"),
        *[(argv + ["--seed", seed], "--seed")
          for argv in (["generate", "--kind", "family", "--out", "f.json"],
                       ["dominate", "--op", "t.json", "--phi", "p.json"],
                       ["extend", "--subspace", "x.json", "--images", "t.json"],
                       ["selftest"])
          for seed in ("-1", str(2 ** 64), "1.5")],
        # refused by the parser, before the input file is read
        *[(["optimal-k", "--input", "f.json", "--kmax", kmax], "--kmax")
          for kmax in ("0", "9")],
    ])
    def test_bad_flag_value_names_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err
        if flag == "--seed":
            assert f"must be in 0..{2 ** 63 - 1}, got {argv[-1]}\n" in err
        if flag == "--kmax":
            assert f"must be in 1..8, got {argv[-1]}\n" in err

    @pytest.mark.parametrize("argv,line", [
        (["extend", "--subspace", "x.json", "--images", "t.json",
          "--trials", "abc"],
         "l1lattice extend: error: argument --trials: "
         "must be in 0..1000000, got abc"),
        (["check-inequality", "--op", "t.json", "--family", "f.json",
          "--tol", "abc"],
         "l1lattice check-inequality: error: argument --tol: "
         "must be finite and nonnegative, got 'abc'"),
        (["optimal-k", "--input", "f.json", "--kmax", "abc"],
         "l1lattice optimal-k: error: argument --kmax: "
         "must be in 1..8, got abc"),
        (["decompose", "--input", "f.json", "--eps", "abc"],
         "l1lattice decompose: error: argument --eps: "
         "must be finite and at least 1e-06, got 'abc'"),
    ], ids=["trials", "tol", "kmax", "eps"])
    def test_unparsable_number_states_the_range(self, capsys, argv, line):
        # argparse names the type function when it raises ValueError
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: l1lattice {argv[0]} ")
        assert err.endswith(f"\n{line}\n")

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "1e-300", "1e-7"])
    @pytest.mark.parametrize("command", ["decompose", "check-inequality"])
    def test_bad_eps_is_usage_error(self, tmp_path, capsys, command, eps):
        # argparse rejects it by name before the (missing) input is read
        missing = str(tmp_path / "missing.json")
        argv = (["decompose", "--input", missing] if command == "decompose"
                else ["check-inequality", "--op", missing, "--family", missing,
                      "--trace", "complex"])
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--eps", eps, "--quiet"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"l1lattice {command}: error: argument --eps: must be finite and "
            f"at least 1e-06, got {eps!r}\n")

    @pytest.mark.parametrize("kind,nu_atoms,cap", [
        ("operator", "0", 50), ("inequality", "0", 50), ("tensor", "0", 50),
        ("tensor", "51", 50), ("extension", "0", 32), ("extension", "33", 32),
    ])
    def test_nu_atoms_bounded(self, tmp_path, capsys, kind, nu_atoms, cap):
        assert main(["generate", "--kind", kind, "--nu-atoms", nu_atoms,
                     "--out", str(tmp_path / "i.json"), "--quiet"]) == 2
        assert (f"nu_atoms must be in 1..{cap}, got {nu_atoms}"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_generate_defaults_unchanged(self, tmp_path):
        # omitted flags take the library defaults: n 2, mode real,
        # nu_atoms = atoms, dim 2
        for kind, params in [("inequality", {"atoms": 4, "n": 2, "mode": "real",
                                             "nu_atoms": 4}),
                             ("extension", {"atoms": 4, "nu_atoms": 4, "dim": 2})]:
            out = tmp_path / f"{kind}.json"
            assert main(["generate", "--kind", kind, "--atoms", "4", "--seed", "3",
                         "--out", str(out), "--quiet"]) == 0
            for stem, doc in generate_instance(kind, params, 3).items():
                written = tmp_path / f"{kind}_{stem}.json"
                assert written.read_text() == jsonio.dumps(doc)

    def test_generate_without_out_builds_nothing(self, monkeypatch, capsys):
        def build(*args):
            raise AssertionError("an instance was generated")
        monkeypatch.setattr(cli, "generate_instance", build)
        assert main(["generate", "--kind", "extension", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: generate requires --out\n"

    def test_generate_instance_refuses_unread_params(self):
        with pytest.raises(ValueError, match="family instances do not read dim"):
            generate_instance("family", {"atoms": 3, "dim": 2}, 0)

    @pytest.mark.parametrize("mode,n,atoms", [
        ("real", 7, 2), ("real", 6, 50), ("complex", 8, 1)])
    def test_oversized_decomposition_refused(self, tmp_path, capsys, mode, n,
                                             atoms):
        rng = rng_for(5)
        path = tmp_path / "fam.json"
        jsonio.write_json(str(path), jsonio.family_to_json(
            random_family(rng, random_space(rng, atoms), n, mode)))
        argv = ["decompose", "--input", str(path), "--quiet"]
        code, seconds, peak = _measured(argv)
        err = capsys.readouterr().err
        assert code == 2 and f"{n} members on {atoms} atoms" in err
        assert seconds < 1.0 and peak < 2_000_000

    def test_oversized_trace_refused(self, tmp_path, capsys):
        rng = rng_for(6)
        t = random_operator(rng, random_space(rng, 2), random_space(rng, 2), "real")
        docs = {"op": jsonio.operator_to_json(t),
                "fam": jsonio.family_to_json(random_family(rng, t.domain, 7))}
        for name, doc in docs.items():
            jsonio.write_json(str(tmp_path / f"{name}.json"), doc)
        code, seconds, peak = _measured([
            "check-inequality", "--op", str(tmp_path / "op.json"),
            "--family", str(tmp_path / "fam.json"), "--trace", "real",
            "--quiet"])
        assert code == 2 and "7 members on 2 atoms" in capsys.readouterr().err
        assert seconds < 1.0 and peak < 2_000_000

    def test_oversized_tensor_refused(self, tmp_path, capsys):
        rng = rng_for(7)
        path = tmp_path / "g.json"
        jsonio.write_json(str(path), jsonio.tensor_to_json(random_tensor(
            rng, random_space(rng, 800), random_space(rng, 800, prefix="s"), 1)))
        code, seconds, peak = _measured(["tensor-norm", "--input", str(path),
                                         "--quiet"])
        assert code == 2 and "800 x 800 atoms" in capsys.readouterr().err
        assert seconds < 1.0 and peak < 2_000_000

    def test_bare_list_images_refused(self, tmp_path, capsys):
        main(["generate", "--kind", "extension", "--atoms", "3", "--seed", "4",
              "--out", str(tmp_path / "i.json"), "--quiet"])
        images = json.loads((tmp_path / "i_images.json").read_text())
        bare = tmp_path / "bare.json"
        bare.write_text(jsonio.dumps([{"space": images["space"], **y}
                                      for y in images["images"]]))
        capsys.readouterr()
        assert main(["extend", "--subspace", str(tmp_path / "i_subspace.json"),
                     "--images", str(bare), "--quiet"]) == 2
        assert ("images must be an object with an 'images' list"
                in capsys.readouterr().err)

    def test_solver_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def failing_solve(program, start=None):
            raise lp.LPError("simplex iteration limit exceeded")

        main(["generate", "--kind", "extension", "--atoms", "3",
              "--nu-atoms", "3", "--dim", "1", "--seed", "10",
              "--out", str(tmp_path / "i.json"), "--quiet"])
        capsys.readouterr()
        monkeypatch.setattr(lp, "solve", failing_solve)
        assert main(["extend", "--subspace", str(tmp_path / "i_subspace.json"),
                     "--images", str(tmp_path / "i_images.json"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "solver failed: simplex iteration limit exceeded\n"

    # sha256 of the --dump-lp file for the instance below, pinned when the
    # dump was written from inside alpha_via_lp
    LP_DUMP = "eedd931a1ecf6585998f05a7d6285c9a9333f7e4f49178df4ff3fda4d811bccf"

    def test_failed_solve_still_leaves_the_lp_dump(self, tmp_path,
                                                   monkeypatch, capsys):
        def failing_solve(program, start=None):
            raise lp.LPError("simplex iteration limit exceeded")

        main(["generate", "--kind", "extension", "--atoms", "4",
              "--nu-atoms", "3", "--dim", "2", "--seed", "6",
              "--out", str(tmp_path / "i.json"), "--quiet"])
        monkeypatch.setattr(lp, "solve", failing_solve)
        dump = tmp_path / "lp.json"
        assert main(["extend", "--subspace", str(tmp_path / "i_subspace.json"),
                     "--images", str(tmp_path / "i_images.json"),
                     "--dump-lp", str(dump), "--quiet"]) == 1
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.LP_DUMP

    def test_oversized_extension_refused_before_the_dump(self, tmp_path, capsys):
        sp = random_space(rng_for(0), 33)
        x = Subspace(sp, np.ones((1, 33)))
        t = RestrictedOperator(x, sp, np.ones((1, 33)))
        (tmp_path / "x.json").write_text(jsonio.dumps(jsonio.subspace_to_json(x)))
        (tmp_path / "t.json").write_text(jsonio.dumps(jsonio.images_to_json(t)))
        dump = tmp_path / "lp.json"
        assert main(["extend", "--subspace", str(tmp_path / "x.json"),
                     "--images", str(tmp_path / "t.json"),
                     "--dump-lp", str(dump), "--quiet"]) == 2
        assert "capped at 32 atoms per side" in capsys.readouterr().err
        assert not dump.exists()

    def test_low_certificate_exits_1(self, tmp_path, monkeypatch, capsys):
        # a certificate ratio below alpha means the LP vertex is not optimal
        def lowered(*args, **kwargs):
            result = alpha_via_lp(*args, **kwargs)
            return dataclasses.replace(
                result, certificate_ratio=result.alpha * (1.0 - 1e-3))

        main(["generate", "--kind", "extension", "--atoms", "3",
              "--nu-atoms", "3", "--dim", "1", "--seed", "10",
              "--out", str(tmp_path / "i.json"), "--quiet"])
        capsys.readouterr()
        monkeypatch.setattr(cli, "alpha_via_lp", lowered)
        out = tmp_path / "res.json"
        assert main(["extend", "--subspace", str(tmp_path / "i_subspace.json"),
                     "--images", str(tmp_path / "i_images.json"),
                     "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed: certificate ratio ")
        assert "below alpha" in err
        assert not out.exists()

    @staticmethod
    def _seed_61_instance(tmp_path, s2_weight=None):
        """The files of generate --kind extension --atoms 4 --nu-atoms 3
        --dim 3 --seed 61, the weight of codomain atom s2 optionally
        replaced."""
        main(["generate", "--kind", "extension", "--atoms", "4",
              "--nu-atoms", "3", "--dim", "3", "--seed", "61",
              "--out", str(tmp_path / "i.json"), "--quiet"])
        images = tmp_path / "i_images.json"
        if s2_weight is not None:
            doc = json.loads(images.read_text())
            doc["space"]["weights"][2] = s2_weight
            images.write_text(json.dumps(doc))
        return ["--subspace", str(tmp_path / "i_subspace.json"),
                "--images", str(images)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [[], ["--verify"]])
    def test_zero_norm_certificate_exits_1(self, tmp_path, monkeypatch,
                                           capsys, flags):
        # duals of zero give a certificate of norm 0; its ratio reads 0 and
        # fails the check instead of dividing
        solve = lp.solve

        def zero_duals(program, start=None):
            sol = solve(program, start=start)
            return dataclasses.replace(sol, dual=np.zeros_like(sol.dual))

        files = self._seed_61_instance(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(lp, "solve", zero_duals)
        assert main(["extend", *files, "--quiet", *flags]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("check failed: ")
        assert "certificate ratio 0 below alpha" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s2_weight", [1e20, 1e150])
    def test_huge_codomain_weight_matches_the_oracle(self, tmp_path, capsys,
                                                     s2_weight):
        # phase 1 once failed here: "objective unbounded" at 1e20, and at
        # 1e150 an "optimal" objective 0.0 that violated its rows by 2.45e149
        files = self._seed_61_instance(tmp_path, s2_weight)
        out = tmp_path / "res.json"
        assert main(["extend", *files, "--verify", "--trials", "2000",
                     "--out", str(out), "--quiet"]) == 0
        x = jsonio.subspace_from_json(jsonio.read_json(files[1]))
        t = jsonio.images_from_json(jsonio.read_json(files[3]), x)
        status, value = solve_exact(extension_lp(x, t))
        assert status == lp.OPTIMAL
        alpha = json.loads(out.read_text())["alpha"]
        assert alpha == pytest.approx(float(value), rel=1e-12, abs=0.0)

    def test_zero_operator_exits_0(self, tmp_path, capsys):
        # phase 1 once raised "phase-1 objective unbounded" here
        main(["generate", "--kind", "extension", "--atoms", "12",
              "--nu-atoms", "12", "--dim", "3", "--seed", "1",
              "--out", str(tmp_path / "i.json"), "--quiet"])
        images = tmp_path / "i_images.json"
        doc = json.loads(images.read_text())
        for image in doc["images"]:
            image["values"] = [0.0] * len(image["values"])
        images.write_text(json.dumps(doc))
        out = tmp_path / "res.json"
        assert main(["extend", "--subspace", str(tmp_path / "i_subspace.json"),
                     "--images", str(images), "--verify", "--out", str(out),
                     "--quiet"]) == 0
        result = json.loads(out.read_text())
        assert result["alpha"] == 0.0
        assert result["certificate"] is None

    def test_failed_refinement_reports_its_residuals(self, tmp_path,
                                                     monkeypatch, capsys):
        fam = tmp_path / "fam.json"
        main(["generate", "--kind", "family", "--atoms", "4", "--seed", "3",
              "--out", str(fam), "--quiet"])
        failing = CellReport(passed=False, sum_residual=2.5e-9,
                             bound_excess=0.125, violations=(),
                             tolerance=1e-10)
        monkeypatch.setattr(cli, "verify_cell_decomposition",
                            lambda cd, fs: failing)
        assert main(["decompose", "--input", str(fam), "--cells",
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "check failed: constant-coefficient refinement failed its bound: "
            "sum residual 2.500e-09, bound excess 1.250e-01\n")
        failing = dataclasses.replace(failing, violations=(
            "cells do not partition the atoms", "alpha[0][1] has modulus 2.0"))
        assert main(["decompose", "--input", str(fam), "--cells",
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "check failed: constant-coefficient refinement failed its bound: "
            "sum residual 2.500e-09, bound excess 1.250e-01; cells do not "
            "partition the atoms; alpha[0][1] has modulus 2.0\n")


class TestParserPins:
    """Help text, usage errors and their exit codes, pinned byte for byte
    (sha256 of code, stdout and stderr at 80 columns): a parser that adds
    only the chosen subcommand's arguments must print what one with every
    subcommand's arguments prints."""

    COMMANDS = ["decompose", "optimal-k", "check-inequality", "modulus",
                "dominate", "tensor-norm", "pair", "extend", "generate",
                "selftest"]
    ARGV = {
        "help": ["-h"],
        **{f"help {command}": [command, "-h"] for command in COMMANDS},
        "no arguments": [],
        "unknown subcommand": ["decompos", "--input", "f.json"],
        "missing required flag": ["decompose"],
        "unrecognised argument": ["decompose", "--input", "f.json", "--bogus"],
        "eps without complex trace": [
            "check-inequality", "--op", "t.json", "--family", "f.json",
            "--trace", "real", "--eps", "0.1"],
        "generate flag its kind refuses": [
            "generate", "--kind", "family", "--dim", "5", "--out", "f.json"],
        # every other subcommand, its required flags given: a parser that
        # registers only that subcommand must print the same usage
        **{f"unrecognised argument {argv[0]}": [*argv, "--bogus"] for argv in [
            ["optimal-k", "--input", "f.json", "--kmax", "2"],
            ["check-inequality", "--op", "t.json", "--family", "f.json"],
            ["modulus", "--op", "t.json"],
            ["dominate", "--op", "t.json", "--phi", "p.json"],
            ["tensor-norm", "--input", "g.json"],
            ["pair", "--op", "t.json", "--tensor", "g.json"],
            ["extend", "--subspace", "x.json", "--images", "t.json"],
            ["generate", "--kind", "family", "--out", "f.json"],
            ["selftest"]]},
    }
    PINS = {
        "help":
            "9a41b8f7e46714b5fe3511ebcf021496a3ce9e028f76c95e57529e8dcbe9c9ec",
        "help check-inequality":
            "d5c4ce8051c7713156d67b17da05e549bf265e6169c91c82d8c93928a24c5725",
        "help decompose":
            "699adcf66f413f09549390a68d833fcd26e83d6d1160287130a314cc0ad78fe9",
        "help dominate":
            "1a69612666a6b2ff5acf6ee55ce99ffdbb6c8971c8e5009598a6bc53f0c52e74",
        "help extend":
            "842eb98a625656ca39fa7b8f0cddd340c5b833f8b3585f6e0e77f1a6ee0b6f9a",
        "help generate":
            "a9ce15098f7dd3cab9a36898b376a45ac75501cf7c8b4bc4075614fbb4d505d0",
        "help modulus":
            "f8ec1c9eade02c6dd8821c53114ddc61261df4839cf84425c767155c7df1b144",
        "help optimal-k":
            "a0388319c027e9edaa1fdbc4a103174f5d9bde285adf8b468926410cbe96531d",
        "help pair":
            "d07ea68131d71f0fd0afeed348be2a740002a94b052a20a5d425ab9ba969f63e",
        "help selftest":
            "a792e254556a660412b28cbc788d5faf79b50e78b68f812e3073475eeb2808c7",
        "help tensor-norm":
            "d5afe05fe28e2fbb701c7fcf4e8f3a241865f4f598a2998c28f21e49fa8a0942",
        "no arguments":
            "1a1c277bc51a4743fdac37e89ebf8d29f50eca6432de4bb5c8c8581b827c8251",
        "unknown subcommand":
            "958d6065b5c1e49458e89f5079cc6b20c4845fba23dddb7f67f3b96d5ccbac10",
        "missing required flag":
            "242b4e33d589f97e02e2f1f2f2e5ee760efe152014e73fb412c0efd2ec09ae11",
        "unrecognised argument":
            "4bb6564c722cbee48468ff4ffa9632603655631099d4bccc5642150c17b72aee",
        "eps without complex trace":
            "c9320fd2fbfa54d2520782857a4c91d99e5de3379e9a4fb704f3c27dc0058ec6",
        "generate flag its kind refuses":
            "4db1809b8bffabd1df4a21f572ca611f1b8cadf9c16df2eff8c6243612a8eb32",
        **{f"unrecognised argument {command}":
           "4bb6564c722cbee48468ff4ffa9632603655631099d4bccc5642150c17b72aee"
           for command in COMMANDS if command != "decompose"},
    }
    CODES = {case: 0 if case.startswith("help") else 2 for case in PINS}

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_output_and_exit_code(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV[case])
        out, err = capsys.readouterr()
        assert exc.value.code == self.CODES[case]
        text = f"{exc.value.code}\0{out}\0{err}"
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINS[case]

    def test_named_subcommand_registers_only_its_parser(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = cli.build_parser("decompose")
        [subs] = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert list(subs.choices) == ["decompose"]
        usage = parser.format_usage()
        assert "{" + ",".join(self.COMMANDS) + "}" in usage.replace("\n", "")


class TestDeterminism:
    def test_generate_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["generate", "--kind", "family", "--atoms", "5", "--n", "3",
                  "--mode", "complex", "--seed", "42", "--out", str(path),
                  "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_decompose_byte_identical(self, tmp_path):
        fam_path = tmp_path / "fam.json"
        main(["generate", "--kind", "family", "--atoms", "6", "--n", "3",
              "--seed", "9", "--out", str(fam_path), "--quiet"])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["decompose", "--input", str(fam_path), "--prune",
                  "--out", str(path), "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_extend_byte_identical(self, tmp_path):
        stem = tmp_path / "i.json"
        main(["generate", "--kind", "extension", "--atoms", "3",
              "--nu-atoms", "3", "--dim", "1", "--seed", "10",
              "--out", str(stem), "--quiet"])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["extend", "--subspace", str(tmp_path / "i_subspace.json"),
                  "--images", str(tmp_path / "i_images.json"),
                  "--out", str(path), "--quiet"])
        assert a.read_bytes() == b.read_bytes()


def _write_certification_inputs(tmp_path, mode):
    """Seeded operator, family on its domain, nonnegative phi, tensors on
    its spaces and on fresh spaces, and one extension instance."""
    rng = rng_for(31 if mode == "real" else 32)
    t = random_operator(rng, random_space(rng, 5),
                        random_space(rng, 4, prefix="s"), mode)
    docs = {
        "op": jsonio.operator_to_json(t),
        "family": jsonio.family_to_json(random_family(rng, t.domain, 3, mode)),
        "phi": jsonio.fn_to_json(SimpleFn(
            t.domain, "real", np.abs(random_values(rng, t.domain.size, "real")))),
        "pair_tensor": jsonio.tensor_to_json(
            random_tensor(rng, t.domain, t.codomain, 3, mode)),
        "tensor": jsonio.tensor_to_json(random_tensor(
            rng, random_space(rng, 6), random_space(rng, 5, prefix="s"), 4, mode)),
    }
    docs.update(generate_instance("extension", {"atoms": 6, "nu_atoms": 5,
                                                "dim": 3}, 4))
    for name, doc in docs.items():
        jsonio.write_json(str(tmp_path / f"{name}.json"), doc)


class TestCertificationGoldenBytes:
    """The --out files of the certification commands are pinned byte for
    byte on seeded instances, in both modes where the command has them
    (the selftest, which has no mode, under the real key)."""

    ARGV = {
        "check-inequality-trace-real": [
            "check-inequality", "--op", "op.json", "--family", "family.json",
            "--trace", "real"],
        "check-inequality-trace-complex": [
            "check-inequality", "--op", "op.json", "--family", "family.json",
            "--trace", "complex", "--eps", "0.1"],
        "dominate": ["dominate", "--op", "op.json", "--phi", "phi.json",
                     "--seed", "3"],
        "pair": ["pair", "--op", "op.json", "--tensor", "pair_tensor.json"],
        "tensor-norm": ["tensor-norm", "--input", "tensor.json"],
        "extend-verify": ["extend", "--subspace", "subspace.json",
                          "--images", "images.json", "--verify",
                          "--trials", "2000", "--seed", "1"],
        "selftest-fast": ["selftest", "--fast", "--seed", "7"],
        "modulus": ["modulus", "--op", "op.json"],
    }
    # the proof traces sum part norms and masses over the nonzero parts only
    PINS = {
        ("check-inequality-trace-real", "real"):
            "f78b0c63585ecb39b2aaf3572d20c05eb9c9c8ca4d538caceed76c5672be01f3",
        ("check-inequality-trace-complex", "real"):
            "257077406998a38c02ae4d8603ca2137d3c569e472847693bd2efdc3b7edf335",
        ("check-inequality-trace-complex", "complex"):
            "c9217c58f4334dac5ddc76118b25629a5fee005b79b8b533d54cd73c74b53417",
        ("dominate", "real"):
            "4f91d37f4a0a599801f3d361e71186788fa8ade6a2c791efd1444fe620929173",
        ("dominate", "complex"):
            "ba158c82e6df6cf4ce9b39367255cf2ff34fe95c50375488e8c0ae6392f24c29",
        ("pair", "real"):
            "b3a5e5d5f3ae8d9bea2557638cba58a53d9f2a15c93a2f501835113517cc9dcf",
        ("pair", "complex"):
            "f6d79eda5f5acdad2ad81b380d0d77516c960b93ec091a919cfe437ee0895209",
        ("tensor-norm", "real"):
            "48aa599f9d53f83ed74d58986c3774e5609a2aa43ae20d7028385158e7a64a30",
        ("tensor-norm", "complex"):
            "bd1f899ed10873f8622f933cdb7fde671123c38fd6ee96015b583d0863e12d39",
        # re-pinned when the extension LP began at its structural start basis
        # with Dantzig pricing (alpha moved in its last bits) and condition
        # (d) began drawing its tensors in one batch (a new sample)
        ("extend-verify", "real"):
            "dcd6f81ab5d8d62450cf9f419250542d1ac479fb5ac7c102b1f5f910127aab7c",
        ("selftest-fast", "real"):
            "328de6c4b6de8ccc29bab2814b7f71f252822b258cbee6b9c26ccccb2e0c0e7a",
        ("modulus", "real"):
            "98b16c7a233d6dc8874d020b7d127f542cdee205ea30d53a6985b1ea69d0436f",
        ("modulus", "complex"):
            "4ce83909bfbd90bc6878e7c6b81649037771bfeaddfd98f43069dc936daedaa8",
    }

    @pytest.mark.parametrize("command,mode", sorted(PINS))
    def test_out_bytes(self, tmp_path, command, mode):
        _write_certification_inputs(tmp_path, mode)
        argv = [str(tmp_path / a) if a.endswith(".json") else a
                for a in self.ARGV[command]]
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINS[command, mode]


def _write_n5_trace_inputs(tmp_path, mode):
    """A seeded operator and a 5-member family on its 30 atoms, drawn from a
    few values so that moduli tie, with member 3 identically zero; the
    complex values include complex(-1, -0.0) and complex(0, -0.0).  The
    atoms repeat 12 drawn columns, so that cells hold several atoms."""
    rng = rng_for(33 if mode == "real" else 34)
    t = random_operator(rng, random_space(rng, 30),
                        random_space(rng, 6, prefix="s"), mode)
    choices = ([0.0, 1.0, -1.0, 2.0, -2.0, 0.5] if mode == "real" else
               [0.0, 1.0, -1.0, 1j, -1j, 1 + 1j, -1 - 1j, 2j, 0.5,
                complex(-1, -0.0), complex(0, -0.0)])
    columns = np.array(choices)[rng.integers(len(choices), size=(5, 12))]
    values = columns[:, rng.integers(12, size=30)]
    values[3] = 0.0
    jsonio.write_json(str(tmp_path / "op.json"), jsonio.operator_to_json(t))
    jsonio.write_json(str(tmp_path / "family.json"), jsonio.family_to_json(
        FnFamily(t.domain, mode, values)))


class TestTraceGoldenBytesN5:
    """check-inequality --trace is pinned byte for byte on 5-member families
    of 30 atoms with ties and a zero member, whose complex refinement at
    eps 0.1 has several cells."""

    ARGV = {
        "real": ["--trace", "real"],
        "complex": ["--trace", "complex", "--eps", "0.1"],
    }
    PINS = {
        ("real", "real"):
            "00d9664fa74747fb351c73e48ac350ad0fbb8ca062010ddfead87d80e19cde29",
        ("complex", "real"):
            "8c1f43064633f3b048ea7224a449b023610fffd096f7492f7e103aff3823511a",
        ("complex", "complex"):
            "8275fd6790cf86226a38e20849f2e425cde734f05621e737c9fc4c79241bab48",
    }

    @pytest.mark.parametrize("trace,mode", sorted(PINS))
    def test_out_bytes(self, tmp_path, trace, mode):
        _write_n5_trace_inputs(tmp_path, mode)
        out = tmp_path / "out.json"
        assert main(["check-inequality", "--op", str(tmp_path / "op.json"),
                     "--family", str(tmp_path / "family.json"),
                     *self.ARGV[trace], "--out", str(out), "--quiet"]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINS[trace, mode]

    def test_complex_refinement_has_several_cells(self, tmp_path):
        _write_n5_trace_inputs(tmp_path, "complex")
        fs = jsonio.family_from_json(jsonio.read_json(
            str(tmp_path / "family.json")))
        cd = eps_net_coeffs(fs, fs.mode, 0.1)
        assert len(cd.cells) >= 5 and max(map(len, cd.cells)) >= 2
        assert not fs.value_matrix[3].any()


class TestExtendVerifyGoldenBytes:
    """extend --verify is pinned byte for byte on larger generated instances:
    dim 1 on 12 x 12 atoms and dim 8 on 20 x 20, whose certificate families
    of several canonical cells reach condition (b) as lone families."""

    PINS = {
        (1, 12):
            "24264fb0932dbdc7e94e8a3a526139306e863951a7fd485f4db03482173a9a3f",
        # recorded on one OpenBLAS thread, which tests/conftest.py pins: the
        # 180 x 180 LU solves of this LP round differently on two threads
        (8, 20):
            "d916804b62cc59679cc0d7ad30f5006e19de5ac1698a0570ca24b9acb50446bf",
    }

    @pytest.mark.parametrize("dim,atoms", sorted(PINS))
    def test_out_bytes(self, tmp_path, dim, atoms):
        docs = generate_instance("extension", {"atoms": atoms, "dim": dim}, 1)
        for name, doc in docs.items():
            jsonio.write_json(str(tmp_path / f"{name}.json"), doc)
        out = tmp_path / "out.json"
        assert main(["extend", "--subspace", str(tmp_path / "subspace.json"),
                     "--images", str(tmp_path / "images.json"), "--verify",
                     "--trials", "2000", "--seed", "1", "--out", str(out),
                     "--quiet"]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINS[dim, atoms]
        x = jsonio.subspace_from_json(docs["subspace"])
        t = jsonio.images_from_json(docs["images"], x)
        cert = alpha_via_lp(x, t).certificate
        assert len(certificate_family_coeffs(cert)) >= 2


class TestGenerateGoldenBytes:
    """The files of ``generate`` for every kind, in each mode the kind
    reads, and the ``optimal-k`` report on a generated real n = 2 family,
    pinned byte for byte (a kind that writes several files is pinned over
    their bytes in file-name order)."""

    PINS = {
        ("family", "real"):
            "9d0115c49b7f1591d2a6684f7eadd59cc929a4acaa2bf94b67c2cc24d207bcec",
        ("family", "complex"):
            "6b00aee8af9a1107403c4527a08c64ccc1d5783684411b964e6ed2a56d8a7f1b",
        ("operator", "real"):
            "ba595f89d66dba499afbcbb34c63a9da70623720a27766ddb8fc566ae5e3a583",
        ("operator", "complex"):
            "03a7a44c3eea4729c9fc45f5778821b4c6fffae0d2f3397d7ba9ccb063381e82",
        ("inequality", "real"):
            "6040cb4c8f44f79e44b695206a2250708251d26f978be4644ef0a294273ece47",
        ("inequality", "complex"):
            "d7cf3a841688db1254edb7e3d223840b9da29e6b879d436bb83952579f724cbd",
        ("tensor", "real"):
            "3c41017417b4ff66e33a51114a9f1eb12ef91fdf4e63be636470bdfb277dbc55",
        ("tensor", "complex"):
            "5e4092f96aa130dc5606c5c3407600afa5bf5c58e9bb5f345379d24ee4e4f2a6",
        ("subspace", "real"):
            "4a89ad9e28dc4eb2a066c6edc95f68e7ada6ee7f2f64b9d256ae715a4b931f17",
        ("extension", "real"):
            "27cdaa9c199bbd0fd04e3251a70759ed7e660ddd2139f39e5977ced90833c8e5",
    }
    OPTIMAL_K = "559d95b5ddcb4d589cdad3bcfa3fdd4996d1dc12f5d27f24a68e3545a43dd4ad"

    @pytest.mark.parametrize("kind,mode", sorted(PINS))
    def test_generate_bytes(self, tmp_path, kind, mode):
        mode_flag = ["--mode", mode] if mode == "complex" else []
        assert main(["generate", "--kind", kind, "--atoms", "5", *mode_flag,
                     "--seed", "3", "--out", str(tmp_path / "g.json"),
                     "--quiet"]) == 0
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            h.update(path.read_bytes())
        assert h.hexdigest() == self.PINS[kind, mode]

    def test_optimal_k_bytes(self, tmp_path):
        fam, out = tmp_path / "fam.json", tmp_path / "k.json"
        assert main(["generate", "--kind", "family", "--atoms", "5",
                     "--n", "2", "--seed", "3", "--out", str(fam),
                     "--quiet"]) == 0
        assert main(["optimal-k", "--input", str(fam), "--kmax", "4",
                     "--out", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.OPTIMAL_K


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_every_written_file_is_json_dumps_text(tmp_path, seed):
    """Every file the CLI writes, for each subcommand and flag set on
    generated instances, is the text ``json.dumps(indent=2)`` gives its own
    content, plus a newline."""
    def path(name):
        return str(tmp_path / name)

    def run(*argv):
        assert main([*argv, "--quiet"]) == 0

    for mode in ("real", "complex"):
        for kind in ("family", "operator", "inequality", "tensor"):
            run("generate", "--kind", kind, "--atoms", "4", "--mode", mode,
                "--seed", str(seed), "--out", path(f"{kind}_{mode}.json"))
        fam = path(f"family_{mode}.json")
        for flags in ([], ["--prune"], ["--prune", "--cells"],
                      ["--eps", "0.1"]):
            run("decompose", "--input", fam, *flags,
                "--out", path(f"decompose_{mode}{''.join(flags)}.json"))
        run("check-inequality", "--op", path(f"inequality_{mode}_operator.json"),
            "--family", path(f"inequality_{mode}_family.json"),
            "--trace", mode, "--out", path(f"trace_{mode}.json"))
        op = path(f"operator_{mode}.json")
        run("modulus", "--op", op, "--out", path(f"modulus_{mode}.json"))
        t = jsonio.operator_from_json(jsonio.read_json(op))
        jsonio.write_json(path(f"phi_{mode}.json"), jsonio.fn_to_json(
            SimpleFn(t.domain, "real", np.ones(t.domain.size))))
        run("dominate", "--op", op, "--phi", path(f"phi_{mode}.json"),
            "--seed", str(seed), "--out", path(f"dominate_{mode}.json"))
        run("tensor-norm", "--input", path(f"tensor_{mode}.json"),
            "--out", path(f"norm_{mode}.json"))
        jsonio.write_json(path(f"pair_tensor_{mode}.json"), jsonio.tensor_to_json(
            random_tensor(rng_for(seed), t.domain, t.codomain, 2, mode)))
        run("pair", "--op", op, "--tensor", path(f"pair_tensor_{mode}.json"),
            "--out", path(f"pair_{mode}.json"))
    run("optimal-k", "--input", path("family_real.json"), "--kmax", "4",
        "--out", path("optimal_k.json"))
    run("generate", "--kind", "subspace", "--atoms", "4", "--seed", str(seed),
        "--out", path("subspace.json"))
    run("generate", "--kind", "extension", "--atoms", "4", "--nu-atoms", "3",
        "--seed", str(seed), "--out", path("ext.json"))
    run("extend", "--subspace", path("ext_subspace.json"),
        "--images", path("ext_images.json"), "--verify", "--trials", "500",
        "--seed", str(seed), "--dump-lp", path("lp.json"),
        "--out", path("extend.json"))
    written = sorted(tmp_path.iterdir())
    assert len(written) == 38
    for p in written:
        text = p.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", p.name
