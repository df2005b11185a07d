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
from dataclasses import replace
from pathlib import Path

import pytest

from dlesim.cli import RunConfig
from dlesim.model import sample_times, switching_grid

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
SWEEP_RATIOS = (10.0, 20.0)


def segments(config: RunConfig) -> int:
    return len(switching_grid(config.schedule, config.t_final_ns)) - 1


# Per command: extra arguments, the configs whose grids it walks (each
# once per pipeline that samples it) and its engine evaluations.  perturb
# builds the engine but sums the amplitudes itself, past the traced
# evaluation, so its count is not checked (None).
PIPELINES = {
    "exact": ([], lambda c: [c], 0),
    "perturb": ([], lambda c: [c], None),
    "compare": ([], lambda c: [c, c], 1),
    "sweep": (
        ["--ratio-min", "10", "--ratio-max", "20", "--points", "2"],
        lambda c: [replace(c, switch_ratio=r) for r in SWEEP_RATIOS for _ in range(2)],
        len(SWEEP_RATIOS),
    ),
}


def traced_metrics(tmp_path, command, config, extra=()):
    """Per-layer metrics of one traced run of ``command``, and its CSV's path."""
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    spans_path = tmp_path / "spans.json"
    out_path = tmp_path / "s.csv"
    args = [command, "--config", str(config_path), "--out", str(out_path), *extra]
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
    return layer_metrics(json.loads(spans_path.read_text())), out_path


@pytest.mark.parametrize(
    "command, config",
    [pytest.param(command, {"t_final_ns": 1.0}, id=command) for command in sorted(PIPELINES)]
    # the closed-form column fills the run's own basis, dim 24, at N=3 too
    + [pytest.param("compare", {"t_final_ns": 1.0, "n_qubits": 3}, id="compare-n_qubits=3")],
)
def test_traced_pipeline_reports_every_layer(tmp_path, command, config):
    extra, walked, evals = PIPELINES[command]
    metrics, out_path = traced_metrics(tmp_path, command, config, extra)
    run = RunConfig(**config)
    assert metrics["hilbert.dim"] == run.params.space().dim
    assert metrics["model.segments"] == sum(segments(c) for c in walked(run))
    if command != "perturb":  # the one command that never propagates
        assert metrics["propagator.decompose_s"] > 0
        assert metrics["model.hamiltonian_s"] > 0
        # cli.propagate is the one name behind these, and one exact run per point
        assert metrics["propagator.propagate_s"] > 0
        assert metrics["propagator.observables_s"] > 0
        runs = len(SWEEP_RATIOS) if command == "sweep" else 1
        assert metrics["propagator.samples"] == runs * len(sample_times(run.t_final_ns, run.sample_dt_ns))
    if evals is not None:
        assert metrics["engine.evals"] == evals
    # the hook sees write_csv's positional (path, header, rows) and counts len(rows)
    assert metrics["cli.csv_s"] > 0
    assert metrics["cli.csv_rows"] == len(out_path.read_text().splitlines()) - 1
    if command == "compare":
        assert metrics["closedform2q.evals"] == 1
    if command != "exact":
        assert metrics["engine.build_s"] > 0
        for j in range(run.order + 1):
            assert metrics[f"engine.order{j}_terms"] > 0


@pytest.mark.parametrize("uncoupled", [{"g_eff_ghz": 0}, {"n_max": 0}], ids=["g_eff=0", "n_max=0"])
def test_traced_compare_without_coupling(tmp_path, uncoupled):
    # the tracer reads every order's ExpPoly rows, and past order 0 there are none
    config = {"t_final_ns": 1.0, **uncoupled}
    metrics, _ = traced_metrics(tmp_path, "compare", config)
    assert metrics["engine.order0_terms"] > 0
    for j in range(1, RunConfig(**config).order + 1):
        assert metrics[f"engine.order{j}_terms"] == 0
