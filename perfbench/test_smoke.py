"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at tiny size with and without tracing, checks the
reported metric names and units against BENCHMARK.json, and checks that the
staged evaluate path of the pipeline matches ``evaluation.eval_report``.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pipeline as pl  # noqa: E402
import workloads  # noqa: E402
from catvrnn import evaluation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    benchmarked = [w["name"] for w in SPEC["workloads"]]
    assert benchmarked == [name for name in workloads.WORKLOADS
                           if name in benchmarked]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_same_seed_same_quality():
    first = run("ablation", 0, seed=5)["metrics"]
    second = run("ablation", 0, seed=5)["metrics"]
    for name in ("train_gen_nll", "steer_accuracy"):
        assert first[name]["value"] == second[name]["value"]


def test_staged_evaluate_matches_eval_report():
    w = workloads.tiny(workloads.WORKLOADS["desk"])
    with tempfile.TemporaryDirectory() as tmp:
        pipe = pl.Pipeline(w, 7, Path(tmp), pl.Ledger())
        state, _ = pipe.setup()
        pipe.train(state)
        path = pipe.checkpoint(state)
        ids, _ = pipe.generate(path)
        samples = pipe.decode(state, ids)
        ppl, _ = pipe.perplexity(state)
        clf, _ = pipe.fit_classifier(state)
        accuracy = pipe.accuracy(samples, clf)
        bleu, _ = pipe.bleu(samples, state)
        assert pipe.ledger.failed == 0

        report = evaluation.eval_report(state.params, state.cfg, state.corpus,
                                        state.vocab, clf, w.samples_per_category,
                                        seed=7)
    assert report.category_accuracy == accuracy
    assert report.perplexity == ppl
    for n in pl.BLEU_ORDERS:
        assert report.bleu_f[n] == bleu[f"f{n}"]
        assert report.bleu_b[n] == bleu[f"b{n}"]


def test_steering_oracle():
    assert workloads.owner("k3v17") == 3
    assert workloads.owner("<unk>") is None
    samples = [(["k1v0", "k1v2", "k0v1"], 1), (["k0v4", "<unk>"], 0)]
    assert workloads.steer_accuracy(samples) == 3 / 5
