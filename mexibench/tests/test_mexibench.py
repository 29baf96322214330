"""Self-test of the benchmark.

Fast tests: every correctness check accepts a well-formed output and rejects
corrupted ones, the tail rule, and the refusal to run without the program.
Slow tests: each workload at toy scale (about eight matchers), untraced and
traced, emits exactly the metrics BENCHMARK.json names, with their units.

Run from the root of the repository:

    python3 -m pytest mexibench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

from mexibench.checks import check_fused, check_predictions, check_table2a
from mexibench.run import tail

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METHODS = ["Rand", "Rand_Freq", "Conf", "Qual. Test", "Self-Assess", "LRSM", "BEH",
           "MExI_none", "MExI_50", "MExI_70"]


def _table2a() -> pd.DataFrame:
    rows = [{"method": m, "A_P": 0.7, "A_R": 0.8, "A_Res": 0.75, "A_Cal": 0.6,
             "A_ML": 0.4, "sig_vs_LRSM": False} for m in METHODS]
    return pd.DataFrame(rows)


def _predictions() -> pd.DataFrame:
    return pd.DataFrame({"matcher_id": ["po_000", "po_001"], "E_P": [1, 0],
                         "E_R": [0, 0], "E_Res": [1, 1], "E_Cal": [0, 1]})


def test_check_table2a():
    assert check_table2a(_table2a()) == []
    short = _table2a().iloc[:9]
    high = _table2a().assign(A_ML=1.2)
    nan = _table2a()
    nan.loc[3, "A_P"] = float("nan")
    dup = _table2a()
    dup.loc[1, "method"] = "Rand"
    missing = _table2a().drop(columns="A_Cal")
    for bad in (short, high, nan, dup, missing):
        assert check_table2a(bad)


def test_check_predictions():
    ids = ["po_000", "po_001"]
    assert check_predictions(_predictions(), ids) == []
    dropped = _predictions().iloc[:1]
    doubled = pd.concat([_predictions(), _predictions().iloc[:1]], ignore_index=True)
    other = _predictions().assign(matcher_id=["po_000", "po_009"])
    label = _predictions().assign(E_R=[0, 2])
    missing = _predictions().drop(columns="E_Res")
    for bad in (dropped, doubled, other, label, missing):
        assert check_predictions(bad, ids)


def test_check_fused():
    assert check_fused({"P": 0.8, "R": 0.3, "n_pairs": 20.0}) == []
    for bad in ({"P": float("nan"), "R": 0.3}, {"P": 0.8, "R": 1.5},
                {"P": -0.1, "R": 0.3}, {"R": 0.3}):
        assert check_fused(bad)


def test_tail_has_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    samples = [float(i) for i in range(1, 21)]
    value, pct = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 50.0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "mexibench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cv_train", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "toy")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    for v in result["metrics"].values():
        assert isinstance(v["value"], float)
