"""The benchmark's hooks into the program still hold.

``perfbench/measure.traced`` installs its tracer on the program's modules
and on named methods (``numeric.Tensor.backward`` among them) and reads the
parameter store. This runs it once, in process, on the tiny desk workload;
``perfbench/test_smoke.py`` covers the benchmark's own command line.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import measure  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_a_traced_tiny_desk_run_fails_nothing_and_reports_every_layer_metric(tmp_path):
    ledger = pipeline.Ledger()
    layer, _, _ = measure.traced(workloads.tiny(workloads.WORKLOADS["desk"]), 3,
                                 tmp_path, ledger)
    assert ledger.attempted >= 1 and ledger.failed == 0
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
