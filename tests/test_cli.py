import json
import subprocess
import sys

import numpy as np
import pytest

from l1lattice import jsonio, lp
from l1lattice.cli import main
from l1lattice.generate import (random_family, random_operator, random_space,
                                random_subspace, random_tensor, rng_for)


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
            for a, b in zip(fs.members, back.members):
                assert np.array_equal(a.values, b.values)

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
            "a_eq", "b_eq", "c", "g_ub", "h_ub", "lower", "upper"]

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


SPACE_2 = '{"atoms": ["a", "b"], "weights": [1.0, 2.0]}'
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


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_names_the_field(self, tmp_path, capsys, case):
        command, text, message = BAD_INPUTS[case]
        path = tmp_path / "doc.json"
        path.write_text(text)
        flag = "--input" if command == "decompose" else "--op"
        assert main([command, flag, str(path), "--quiet"]) == 2
        assert message in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", "--input", str(bad), "--quiet"]) == 2

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
    ])
    def test_flags_only_where_honoured(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_solver_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def failing_solve(program):
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
