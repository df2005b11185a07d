#!/usr/bin/env python3
"""Self-test of the correctness checks: each must reject a corrupted CSV.

    python3 bench/selftest.py

Runs the CLI once per workload (exact-long and compare-deep on shortened
windows), confirms that the checks pass the real output, then feeds each
check one corrupted copy and confirms that the named check rejects it.  A
check that can never fail shows up here as FAIL.  Exits 0 when every line
reads PASS.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import CLI, ROOT, spawn


def shortened(name: str, t_final_ns: float | None) -> workloads.Workload:
    workload = workloads.make(name, 0)
    if t_final_ns is None:
        return workload
    return dataclasses.replace(workload, config={**workload.config, "t_final_ns": t_final_ns})


def edit_field(text: str, column: int, row_pick, edit) -> str:
    """Apply ``edit`` to one field; ``row_pick`` chooses the row from the table."""
    lines = text.splitlines()
    values = [float(line.split(",")[column]) for line in lines[1:]]
    row = 1 + row_pick(values)
    fields = lines[row].split(",")
    fields[column] = edit(fields[column])
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def flip_third_digit(field: str) -> str:
    """Change the third significant digit, e.g. 0.31453 -> 0.31553."""
    seen = 0
    for i, ch in enumerate(field):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == 3:
                return field[:i] + str((int(ch) + 1) % 10) + field[i + 1:]
    raise ValueError(f"no third significant digit in {field!r}")


def argmax(values: list[float]) -> int:
    return max(range(len(values)), key=values.__getitem__)


def drop_row(text: str, row: int) -> str:
    lines = text.splitlines()
    del lines[1 + row]
    return "\n".join(lines) + "\n"


def swap_sup(text: str, a: float, b: float) -> str:
    """Exchange the sup_abs_diff values of two sweep ratios."""
    lines = text.splitlines()
    rows = {float(line.split(",")[0]): i for i, line in enumerate(lines) if i}
    fa, fb = lines[rows[a]].split(","), lines[rows[b]].split(",")
    fa[1], fb[1] = fb[1], fa[1]
    lines[rows[a]], lines[rows[b]] = ",".join(fa), ",".join(fb)
    return "\n".join(lines) + "\n"


def main() -> int:
    cases = {
        "exact-long": shortened("exact-long", 20.0),
        "compare-deep": shortened("compare-deep", 2.0),
        "sweep-ratio": shortened("sweep-ratio", None),
    }
    corruptions = [
        ("exact-long", "p_excite digit flipped", "reference",
         lambda t: edit_field(t, 1, argmax, flip_third_digit)),
        ("exact-long", "norm off by 1e-6", "unitarity",
         lambda t: edit_field(t, 3, lambda v: len(v) // 2, lambda f: repr(float(f) + 1e-6))),
        ("compare-deep", "p_exact digit flipped", "reference",
         lambda t: edit_field(t, 1, argmax, flip_third_digit)),
        ("compare-deep", "abs_diff_pert digit flipped", "abs_diff",
         lambda t: edit_field(t, 4, argmax, flip_third_digit)),
        ("sweep-ratio", "row of ratio 12 missing", "rows", lambda t: drop_row(t, 8)),
        ("sweep-ratio", "sup of ratios 5 and 20 exchanged", "A3 ordering",
         lambda t: swap_sup(t, 5.0, 20.0)),
    ]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    ok = True
    try:
        clean = {}
        for name, workload in cases.items():
            config, out = work / f"{name}.json", work / f"{name}.csv"
            config.write_text(json.dumps(workload.config) + "\n")
            argv = [sys.executable, "-c", CLI, workload.command, "--config", str(config),
                    "--out", str(out), *workload.args]
            usage = spawn(argv, work, work / "log.txt", 170.0)
            text = out.read_text() if usage.returncode == 0 else ""
            errors = checks.check_csv(workload, text) if text else [f"exit status {usage.returncode}"]
            ok &= not errors
            print(f"{'PASS' if not errors else 'FAIL'} {name}: real output accepted {errors or ''}")
            clean[name] = text
        for name, what, check, corrupt in corruptions:
            errors = checks.check_csv(cases[name], corrupt(clean[name])) if clean[name] else []
            fired = any(e.startswith(check) for e in errors)
            ok &= fired
            print(f"{'PASS' if fired else 'FAIL'} {name}: {what} -> {check} check {errors[:2]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
