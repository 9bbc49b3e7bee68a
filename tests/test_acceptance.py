"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (visible with ``pytest -s``), plus the byte-determinism
check of two full CLI selftest runs."""

import hashlib
import subprocess
import sys

import pytest

from l1lattice import REAL, acceptance
from l1lattice.decompose import Decomposition, verify_trace_counts
from l1lattice.generate import random_family, random_space, rng_for

SEED = 7
#: sha256 of the `selftest --seed 7` report
SELFTEST_SHA256 = (
    "f18e9fcac4215ec5ca231bbfc987c93c25bf1a2f6cd312b915c2905294e36138")

_caps = {1: 60.0, 3: 300.0, 8: 600.0}


@pytest.fixture(scope="module")
def outcomes():
    results = {}
    for fn in acceptance.CRITERIA[:9]:
        outcome = fn(SEED)
        results[outcome.number] = outcome
        print(outcome.line(), flush=True)
    return results


@pytest.mark.parametrize("number", range(1, 10))
def test_criterion(outcomes, number):
    outcome = outcomes[number]
    assert outcome.passed, outcome.details
    if number in _caps:
        assert outcome.elapsed <= _caps[number], (
            f"criterion {number} took {outcome.elapsed:.1f}s, "
            f"cap {_caps[number]}s")


def test_criterion_1_residual_tolerance(outcomes):
    details = outcomes[1].details
    assert details["max_residual_real"] <= 1e-10
    assert details["max_residual_complex"] <= 1e-10
    assert details["trials_per_mode"] == 1000


def test_criterion_2_exact_iterates(outcomes):
    details = outcomes[2].details
    assert details["observed"]["real"] == [2, 12, 78, 632, 6330]
    assert details["observed"]["complex"] == [1, 4, 15, 64, 325]


def test_criterion_3_minimal_counts(outcomes):
    details = outcomes[3].details
    assert details["n1_k"] == 2 and details["n2_k"] == 4
    assert details["n2_infeasible"] == [1, 2, 3]
    assert details["complex_n1_k"] == 1


def test_criterion_8_bracket(outcomes):
    details = outcomes[8].details
    assert details["instances"] == 100 and details["failures"] == 0
    assert details["tight_brackets"] >= int(0.9 * details["nonzero_alpha"])
    assert details["condition_b_trials"] == 10_000


def test_criterion_9_zero_disagreements(outcomes):
    details = outcomes[9].details
    assert details["trials"] == 500 and details["disagreements"] == 0


def test_criterion_10_selftest_byte_identical(tmp_path):
    """criterion 10: `selftest --seed 7` run twice gives identical reports,
    and the report keeps its pinned bytes.  The two runs are independent
    processes, started together."""
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "l1lattice.cli", "selftest",
         "--seed", str(SEED), "--out", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for path in paths]
    outputs = [proc.communicate() for proc in procs]
    for proc, (stdout, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stdout + stderr
    reports = [(path.read_bytes(), stdout)
               for path, (stdout, _) in zip(paths, outputs)]
    assert reports[0][0] == reports[1][0], "selftest reports differ"
    assert hashlib.sha256(reports[0][0]).hexdigest() == SELFTEST_SHA256
    assert reports[0][1] == reports[1][1], "selftest stdout differs"
    print("criterion 10 [PASS] determinism (byte-identical selftest)",
          flush=True)


def test_criterion_2_reads_the_counts_each_level_emits(monkeypatch):
    # a split that emits one part too few on two-member families only: the
    # top-level count of a three-member family stays right, its levels not
    split = acceptance.decompose_real

    def short_at_two(fs):
        d = split(fs)
        if fs.size != 2:
            return d
        return Decomposition(d.space, d.mode, d.parts_matrix[:-1],
                             d.signs[:, :-1], None)

    monkeypatch.setattr(acceptance, "decompose_real", short_at_two)
    rng = rng_for(3)
    fs = random_family(rng, random_space(rng, 6), 3, REAL)
    assert acceptance.decompose_real(fs).k == 78
    assert not verify_trace_counts(acceptance._emitted_counts(fs, REAL), REAL)
    assert not acceptance.criterion_2(SEED).passed
