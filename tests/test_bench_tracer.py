"""The benchmark's tracer still sees every layer it patches.

bench/tracer.py wraps module attributes (``model.HilbertSpace``,
``cli.run_to_order``, ...) by name; a refactor that calls past them leaves
its layer reading 0 without any error.  The tracer runs in a fresh
interpreter, as the benchmark runs it, and its spans are read with its own
``layer_metrics``.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from dlesim.cli import RunConfig

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def test_traced_sweep_reports_every_layer(tmp_path):
    config = {"t_final_ns": 1.0}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    spans_path = tmp_path / "spans.json"
    args = ["sweep", "--config", str(config_path), "--out", str(tmp_path / "s.csv")]
    args += ["--ratio-min", "10", "--ratio-max", "20", "--points", "2"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr

    # run_path compiles the source without writing a bytecode cache into bench/
    layer_metrics = runpy.run_path(str(TRACER))["layer_metrics"]
    metrics = layer_metrics(json.loads(spans_path.read_text()))
    space = RunConfig(**config).system_params().space()
    assert metrics["hilbert.dim"] == space.dim
    assert metrics["engine.evals"] == 2
    assert metrics["model.segments"] > 0
    assert metrics["engine.build_s"] > 0
