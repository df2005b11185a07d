#!/usr/bin/env python3
"""Benchmark of the dlesim CLI on three workloads, end to end and per layer.

    python3 bench/run.py --workload compare-deep --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

One closed-loop client: each CLI invocation is a fresh process, started
only after the previous one has exited, run with the user's environment
plus ``PYTHONPATH=src`` (what installing the package would give).  Every
output CSV is checked (see checks.py) and a failed check counts its
invocation as failed.

--trace 0  rounds of (two set-up probes, CLI invocation) for --seconds, as
           many whole rounds as fit; prints the medians of wall_s, cpu_s,
           peak_rss_mb and setup_s.
--trace 1  rounds of (untraced invocation, traced invocation, see
           tracer.py); prints the medians of the per-layer metrics and the
           tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exits 1 when an invocation
failed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# What the installed `dlesim` console script runs.
CLI = "import sys; from dlesim.cli import main; sys.exit(main())"
# Set-up as a user pays it: interpreter start, `import dlesim.cli`, config load.
SETUP = "import sys; from dlesim.cli import load_config; load_config(sys.argv[1])"
# Set-up is short and noisy: two probes per round give it more samples.
PROBES_PER_ROUND = 2
# Every run ends well inside 180 s: no invocation outlives this budget.
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Usage:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], cwd: Path, log: Path, timeout: float) -> Usage:
    """Run one process to its exit; its own and its reaped children's usage.

    ``os.wait4`` reports user+sys CPU of the process, its threads and the
    workers it waited for, and the largest peak RSS among them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with open(log, "ab") as out:
        start = time.perf_counter()
        # Own process group, so that a kill also reaches the sweep's workers.
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        kill = functools.partial(kill_group, proc.pid)
        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Run:
    """One benchmark run of one workload in a private work directory."""

    def __init__(self, workload: workloads.Workload, work: Path, seconds: float):
        self.workload = workload
        self.work = work
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config, indent=1) + "\n")
        self.out = work / "out.csv"
        self.log = work / "log.txt"
        self.outputs: dict[bytes, int] = {}
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def last_round(self, round_start: float) -> bool:
        """Whether another round as long as the last one would pass the deadline."""
        now = time.perf_counter()
        return now + (now - round_start) > self.deadline

    def cli_argv(self, args: tuple[str, ...]) -> list[str]:
        return [self.workload.command, "--config", str(self.config), "--out", str(self.out), *args]

    def invoke(self, argv: list[str]) -> Usage | None:
        """One invocation that writes out.csv; None when it exited non-zero.

        The CSV is kept, once per distinct content, for ``verify``, so that
        checking costs nothing inside the measured loop.
        """
        self.out.unlink(missing_ok=True)
        usage = spawn(argv, self.work, self.log, self.remaining())
        self.attempted += 1
        if usage.returncode:
            self.failed += 1
            print(f"{self.workload.name}: exit status {usage.returncode}", file=sys.stderr)
            return None
        data = self.out.read_bytes()
        self.outputs[data] = self.outputs.get(data, 0) + 1
        return usage

    def verify(self) -> None:
        """Full checks on every distinct CSV; all must equal the first (A10)."""
        for i, (data, count) in enumerate(self.outputs.items()):
            errors = checks.check_csv(self.workload, data.decode("utf-8", "replace"))
            if i:
                errors.append("determinism: CSV differs from the first of this run")
            if errors:
                self.failed += count
                print(f"{self.workload.name}: {count} invocation(s) failed: {'; '.join(errors)}",
                      file=sys.stderr)

    def setup_probe(self) -> Usage:
        usage = spawn([sys.executable, "-c", SETUP, str(self.config)], self.work, self.log, self.remaining())
        if usage.returncode:
            raise RuntimeError(f"set-up probe exited with {usage.returncode}; see {self.log}")
        return usage

    def measure(self) -> dict[str, list[float]]:
        """Rounds of (set-up probes, invocation), as many as fit before the deadline."""
        samples: dict[str, list[float]] = {k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        self.setup_probe()  # compiles bytecode and warms the file cache
        while True:
            round_start = time.perf_counter()
            samples["setup_s"] += [self.setup_probe().wall_s for _ in range(PROBES_PER_ROUND)]
            usage = self.invoke([sys.executable, "-c", CLI, *self.cli_argv(self.workload.args)])
            if usage is not None:
                samples["wall_s"].append(usage.wall_s)
                samples["cpu_s"].append(usage.cpu_s)
                samples["peak_rss_mb"].append(usage.peak_rss_mb)
            if self.last_round(round_start):
                return samples

    def measure_traced(self) -> dict[str, list[float]]:
        """Rounds of (untraced, traced) invocations with the same arguments."""
        samples: dict[str, list[float]] = {}
        spans = self.work / "spans.json"
        self.setup_probe()
        while True:
            round_start = time.perf_counter()
            args = self.cli_argv(self.workload.trace_args)
            plain = self.invoke([sys.executable, "-c", CLI, *args])
            traced = self.invoke([sys.executable, str(BENCH / "tracer.py"), str(spans), *args])
            if plain is not None and traced is not None:
                layers = layer_metrics(json.loads(spans.read_text()))
                layers["trace.untraced_wall_s"] = plain.wall_s
                layers["trace.traced_wall_s"] = traced.wall_s
                for name, value in layers.items():
                    samples.setdefault(name, []).append(value)
            if self.last_round(round_start):
                return samples


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name == "trace.overhead":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas['name']} {blas['version']}, thread variables {threads or 'none set'}")


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its metrics and return its result object."""
    workload = workloads.make(name, seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    run = Run(workload, work, seconds)
    try:
        samples = run.measure_traced() if trace else run.measure()
        run.verify()
    except RuntimeError:
        print(run.log.read_text(errors="replace")[-4000:], file=sys.stderr)
        raise
    finally:
        if run.failed:
            print(run.log.read_text(errors="replace")[-4000:], file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)

    metrics = {metric: (statistics.median_low if unit(metric) == "count" else statistics.median)(values)
               for metric, values in samples.items() if values}
    if trace and metrics:
        metrics["trace.overhead"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
    print(f"{name} seed {seed}: {run.attempted} invocations attempted, {run.failed} failed")
    for metric, value in metrics.items():
        print(f"  {metric:28s} {value:.6g} {unit(metric)}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": value, "unit": unit(metric)} for metric, value in metrics.items()},
    }


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dlesim" / "cli.py").is_file():
        print(f"dlesim sources not found under {SRC}", file=sys.stderr)
        return 2

    print(environment())
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: bench(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:  # --workload all: one object, metrics named workload/metric
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
