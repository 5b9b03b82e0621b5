"""Smoke self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py

It is not part of the library's test suite (``pytest`` alone collects only
``tests/``), because it runs the benchmark end to end.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import vox1e
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _config():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_harness():
    config = _config()
    assert config["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in config["workloads"])
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]} == run.PER_LAYER
    setup_bound = next(m["bound"] for m in config["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in config["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace,
                  "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    config = _config()
    expected = config["per_layer"] if trace == "1" else config["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_exits_nonzero_and_prints_no_result():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "train-toy", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=bare / "bench" / "run.py")
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare)


def _brute_force(scores, is_target, p_target):
    """EER and minDCF straight from the definition, one threshold at a time."""
    values = sorted(set(scores))
    thresholds = [values[0] - 1] + [(a + b) / 2 for a, b in zip(values, values[1:])] + [values[-1] + 1]
    tar = [s for s, t in zip(scores, is_target) if t]
    non = [s for s, t in zip(scores, is_target) if not t]
    frr = [sum(s < t for s in tar) / len(tar) for t in thresholds]
    far = [sum(s >= t for s in non) / len(non) for t in thresholds]
    idx = next(i for i in range(len(thresholds)) if far[i] - frr[i] <= 0)
    d0, d1 = far[idx - 1] - frr[idx - 1], far[idx] - frr[idx]
    eer = frr[idx] if d1 == 0 else frr[idx - 1] + d0 / (d0 - d1) * (frr[idx] - frr[idx - 1])
    dcf = min(p_target * r + (1 - p_target) * a for r, a in zip(frr, far))
    return eer, dcf / min(p_target, 1 - p_target)


def test_reference_metrics_match_definition_with_ties():
    rng = np.random.default_rng(7)
    is_target = rng.random(300) < 0.4
    scores = np.round(np.where(is_target, 0.3, 0.0) + 0.2 * rng.standard_normal(300), 1)
    got = vox1e.reference_metrics(scores, is_target, 0.05)
    want = _brute_force(scores.tolist(), is_target.tolist(), 0.05)
    assert got == pytest.approx(want, abs=1e-12)


def test_generated_trials_have_distinct_pairs_and_balanced_labels():
    ids, enroll, test, is_target, ticks = vox1e.generate(3, n_trials=2001, n_speakers=20,
                                                         n_utts=600)
    assert len({(e, t) for e, t in zip(enroll.tolist(), test.tolist())}) == 2001
    assert abs(int(is_target.sum()) - 1000) <= 1
    assert np.array_equal(vox1e.generate(3, n_trials=2001, n_speakers=20, n_utts=600)[4], ticks)
    assert ids[0].startswith("id10001/") and ids[0].endswith(".wav")


def test_score_check_rejects_a_wrong_eer():
    spec = {"workload": "score-vox1e", "outputs": [],
            "expect": {"eer_pct": 1.85112, "min_dcf": 0.23871}}
    assert workloads.check_op(spec, ["EER% 1.8511\nminDCF 0.2387\n"], first=True) == []
    assert workloads.check_op(spec, ["EER% 1.8513\nminDCF 0.2387\n"], first=True)


def test_self_time_subtracts_direct_children(monkeypatch):
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    leaf = tracer.wrap("leaf", lambda: None)
    root = tracer.wrap("root", lambda: (leaf(), leaf()))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    root()
    monkeypatch.undo()
    spans = tracer.op_summary(0)["spans"]
    assert spans["leaf"] == {"calls": 2, "s": 2.5, "self_s": 2.5, "peak_bytes": 0}
    assert spans["root"]["s"] == 10.0 and spans["root"]["self_s"] == 7.5
