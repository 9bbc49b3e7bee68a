"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (visible with ``pytest -s``), plus the byte-determinism
check of two full CLI selftest runs."""

import hashlib
import itertools
import subprocess
import sys

import numpy as np
import pytest

from l1lattice import REAL, FnFamily, MeasureSpace, acceptance
from l1lattice.decompose import Decomposition, verify_decomposition
from l1lattice.generate import random_family, random_space, rng_for

SEED = 7
#: sha256 of the `selftest --seed 7` report, re-pinned when criterion 2
#: began reporting the parts of each chain family's decomposition
SELFTEST_SHA256 = (
    "300a57b0251fc8a436c18ec0e588cacf855bd653174a77cbd02ccb897ee99a7c")

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
    # the parts each chain family's decomposition keeps: real n = 1..4,
    # complex n = 1..5
    details = outcomes[2].details
    assert details["observed"]["real"] == [2, 12, 78, 632]
    assert details["observed"]["complex"] == [1, 4, 15, 64, 325]
    assert details["expected_real"] == [2, 12, 78, 632, 6330]
    assert details["expected_complex"] == [1, 4, 15, 64, 325]


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


def test_criterion_2_counts_the_nonzero_parts_on_each_atom(monkeypatch):
    # a split that cuts its first part in two halves: still a decomposition,
    # but with n + 1 nonzero parts on the atoms where it had n
    split = acceptance.decompose_real

    def halved_first_part(fs):
        d = split(fs)
        parts = np.vstack([d.parts_matrix[:1] / 2, d.parts_matrix])
        parts[1] /= 2
        signs = np.hstack([d.signs[:, :1], d.signs])
        return Decomposition(d.space, d.mode, parts, signs, None)

    monkeypatch.setattr(acceptance, "decompose_real", halved_first_part)
    rng = rng_for(3)
    fs = random_family(rng, random_space(rng, 6), 3, REAL)
    d = acceptance.decompose_real(fs)
    assert verify_decomposition(d, fs).passed
    assert np.max(np.count_nonzero(d.parts_matrix, axis=0)) == 4
    assert not acceptance.criterion_2(SEED).passed


def test_criterion_2_counts_the_parts_the_chains_build(monkeypatch):
    # a split that merges two parts with equal sign columns and disjoint
    # supports: still a decomposition, with at most n nonzero parts on every
    # atom, but with fewer parts than the recursion's k(n)
    split = acceptance.decompose_real

    def merged(fs):
        d = split(fs)
        support = d.parts_matrix != 0.0
        for j, m in itertools.combinations(range(d.k), 2):
            if (np.array_equal(d.signs[:, j], d.signs[:, m])
                    and not np.any(support[j] & support[m])):
                parts = np.delete(d.parts_matrix, m, axis=0)
                parts[j] += d.parts_matrix[m]
                return Decomposition(d.space, d.mode, parts,
                                     np.delete(d.signs, m, axis=1), None)
        return d

    monkeypatch.setattr(acceptance, "decompose_real", merged)
    # rows (+1, +1) of the chains 0+ 1+ and 1+ 0+ merge
    fs = FnFamily(MeasureSpace(("a", "b"), (1.0, 1.0)), REAL,
                  [[2.0, 1.0], [1.0, 2.0]])
    d = acceptance.decompose_real(fs)
    assert d.k == split(fs).k - 1 and verify_decomposition(d, fs).passed
    assert np.max(np.count_nonzero(d.parts_matrix, axis=0)) == 2
    assert not acceptance.criterion_2(SEED).passed
