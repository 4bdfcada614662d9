"""Harness self-test: every workload at reduced grids, in both modes.

    python3 perfbench/selftest.py

Runs run.py --small for each workload with --trace 0 and --trace 1 and
checks the result line: its keys, the metric names and units against
BENCHMARK.json, that every op was checked and passed, and that no pass
left artifacts behind.  It also checks that the runner refuses to run
in a directory holding only BENCHMARK.json and the benchmark's files.
It never asserts timings.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys

import run
import workloads


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_result(result, expected_units, where):
    assert result is not None, f"{where}: no output"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    assert result["correct"] is True, f"{where}: incorrect output"
    assert result["failed"] == 0, f"{where}: {result['failed']} ops failed at the reduced grid"
    metrics = result["metrics"]
    assert set(metrics) == set(expected_units), (
        f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected_units))}")
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}, f"{where}: {name} keys {sorted(entry)}"
        assert isinstance(entry["value"], numbers.Real), f"{where}: {name} not a number"
        assert entry["unit"] == expected_units[name], f"{where}: {name} unit {entry['unit']}"


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.py"
    assert per_layer == run.per_layer_units(), "BENCHMARK.json per_layer differs from run.py"
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)

    for workload in workloads.NAMES:
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--small"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180,
            )
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"
            result = result_line(proc.stdout)
            check_result(result, per_layer if trace else end_to_end, where)
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), f"{where}: zero metric"
            leftovers = list(run.OUT.glob("pass-*"))
            assert not leftovers, f"{where}: pass directories left behind: {leftovers}"
            print(f"ok {where}: attempted={result['attempted']} metrics={len(result['metrics'])}")

    # Without the program's sources the runner must fail without a result.
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            bench["command"] + ["--workload", "verify_suites", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "runner succeeded without the program's sources"
    assert '"metrics"' not in proc.stdout, "runner printed a result without the program's sources"
    print("ok bare directory: exit", proc.returncode)


if __name__ == "__main__":
    main()
