"""Checks of the benchmark itself; run with `python3 -m pytest perfbench`.

The repository's test suite does not collect this file (its testpaths
name only tests/).
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, invariant_factors, kunneth

HERE = Path(__file__).resolve().parent

EXACT = ("orbmodel.build_calls", "chains.validate_calls",
         "intlin.matmul_calls", "intlin.snf_calls", "intlin.hnf_calls",
         "intlin.matrix_new_calls", "intlin.matmul_mults",
         "intlin.snf_entries", "intlin.snf_max_bits", "orbmodel.cells",
         "orbmodel.nonzeros", "affops.simplices_created")


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def test_invariant_factors_match_smith_form(lib):
    intlin = sys.modules["orbihom.intlin"]
    rng = random.Random(0)
    for _ in range(200):
        orders = [rng.randint(2, 60) for _ in range(rng.randint(0, 5))]
        assert invariant_factors(orders) == intlin.invariant_factors(orders)


def test_kunneth_matches_tensor_model(lib):
    desc = "surface(1,1;2,4) x torus(2)"
    model = lib.orbmodel.t_model(lib.cli.parse_descriptor(desc))
    got = lib.chains.homology(model.chain_complex()).groups()
    base = lib.orbmodel.t_model(lib.cli.parse_descriptor("surface(1,1;2,4)"))
    base_groups = [(h.rank, h.torsion) for h in
                   lib.chains.homology(base.chain_complex()).groups()]
    assert [(h.rank, h.torsion) for h in got] == kunneth(base_groups, 2)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrong_expected_value_counts_as_failure(lib, workload, tmp_path):
    rounds = WORKLOADS[workload](1, lib, tmp_path)
    first = rounds[0][0]
    wrong = dataclasses.replace(first, kind="text",
                                expected=first.expected + "H_9 = Z\n")
    good = run.Loop(lib.cli, [rounds[0]])
    good.run(0, 1, 0)
    bad = run.Loop(lib.cli, [[wrong] + rounds[0][1:]])
    bad.run(0, 1, 0)
    assert good.failed == 0
    assert bad.failed == 1 and bad.failed / bad.ops > 0


def test_probes_bracket_every_op(lib, tmp_path):
    rounds = WORKLOADS["affine-selftest"](1, lib, tmp_path)
    latencies, probes, _, _ = run.Loop(lib.cli, rounds).run(0, 1, 0)
    assert len(probes) == len(latencies) + 1 and min(probes) > 0


def test_normalise_scales_by_mean_of_adjacent_probes():
    ref = run.hostspeed.REFERENCE_S
    got = run.normalise([1.0, 2.0], [ref, 3 * ref, ref])
    assert got == pytest.approx([0.5, 1.0])


def _traced_counts(workload: str, seed: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in EXACT}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_repeat(workload):
    first = _traced_counts(workload, 5)
    assert first == _traced_counts(workload, 5)
    assert any(first.values())
