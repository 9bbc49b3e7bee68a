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
from l1lattice.cli import main
from l1lattice.core import SimpleFn
from l1lattice.extension import RestrictedOperator, Subspace, alpha_via_lp
from l1lattice.generate import (generate_instance, random_family,
                                random_operator, random_space, random_subspace,
                                random_tensor, random_values, rng_for)


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

    def test_optimal_k_over_budget_exits_2(self, tmp_path, capsys):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(jsonio.dumps(jsonio.family_to_json(
            random_family(rng_for(0), random_space(rng_for(0), 50), 4, "real"))))
        code, seconds, _ = _measured(["optimal-k", "--input", str(fam_path),
                                      "--kmax", "3", "--quiet"])
        assert code == 2 and seconds < 1.0
        assert ("n = 4 and k_max = 3 tries up to 88,641 sign matrices"
                in capsys.readouterr().err)

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
    ])
    def test_bad_flag_value_names_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "1e-300"])
    @pytest.mark.parametrize("command", ["decompose", "check-inequality"])
    def test_bad_eps_is_usage_error(self, tmp_path, capsys, command, eps):
        main(["generate", "--kind", "inequality", "--atoms", "4",
              "--nu-atoms", "3", "--mode", "complex", "--seed", "2",
              "--out", str(tmp_path / "i.json"), "--quiet"])
        op, fam = tmp_path / "i_operator.json", tmp_path / "i_family.json"
        argv = (["decompose", "--input", str(fam)] if command == "decompose"
                else ["check-inequality", "--op", str(op), "--family", str(fam),
                      "--trace", "complex"])
        capsys.readouterr()
        assert main([*argv, "--eps", eps, "--quiet"]) == 2
        assert "eps must be finite and at least 1e-06" in capsys.readouterr().err

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

    # sha256 of the --dump-lp file for the instance below, pinned when the
    # dump was written from inside alpha_via_lp
    LP_DUMP = "eedd931a1ecf6585998f05a7d6285c9a9333f7e4f49178df4ff3fda4d811bccf"

    def test_failed_solve_still_leaves_the_lp_dump(self, tmp_path,
                                                   monkeypatch, capsys):
        def failing_solve(program):
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
    }
    PINS = {
        ("check-inequality-trace-real", "real"):
            "69065ca38dea9a13d85d2c63280d6de43fb4de5347dfa9a0538dd96694b2f0b2",
        ("check-inequality-trace-complex", "real"):
            "f1a2ccc5e00fe7dc528781e574085eba1f360623f3077ca55ea1154165ad923f",
        ("check-inequality-trace-complex", "complex"):
            "f47ebbb2c1a536a590dbe35c52fd12cedfb26c3c2800f3b48a93d8442710584d",
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
        ("extend-verify", "real"):
            "623fc93f8e0b5a584cd0bb3c9ffcc9b6e3a21b63619bea4adf55c2a5cff64ad6",
        ("selftest-fast", "real"):
            "328de6c4b6de8ccc29bab2814b7f71f252822b258cbee6b9c26ccccb2e0c0e7a",
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
