"""Record perfbench/reference.json from the program at the current commit.

    python3 perfbench/record_reference.py

Runs every op of every workload once (verify_suites once per CLI seed,
to confirm that the set of executed checks does not depend on it) and
stores the values the benchmark compares against.  An op that fails is stored
with its error message as an expected failure.
"""

from __future__ import annotations

import json
import time

import run
import workloads


def _error_kind(message):
    # "error: inversion stagnated at relative residual ..." -> "inversion stagnated"
    text = message.removeprefix("error: ")
    return text.split(" at ", 1)[0]


def main():
    budget_end = time.clock_gettime(time.CLOCK_MONOTONIC) + 3600.0
    reference = {}

    record = run.run_pass(workloads.ops("solve_resolved", 0), False, budget_end)
    art = record["ops"][0]["artifact"]
    reference["solve_resolved"] = {k: art[k] for k in ("converged", "iterations", "residual_ratio")}

    record = run.run_pass(workloads.ops("scaling_sweep", 0), False, budget_end)
    art = record["ops"][0]["artifact"]
    reference["scaling_sweep"] = {
        "rows": art["rows"],
        "footer": {k: art["footer"][k] for k in ("sup_ea_slope", "y_norm_ea_slope")},
    }

    ops = workloads.ops("lambda1_sweep", workloads.LAMBDA1_SEED)
    record = run.run_pass(ops, False, budget_end)
    reference["lambda1_sweep"] = {}
    for op, result in zip(ops, record["ops"]):
        a = op[op.index("--a-list") + 1]
        if result["rc"] == 0:
            reference["lambda1_sweep"][a] = result["artifact"]["values"][0]["lambda1"]
        else:
            reference["lambda1_sweep"][a] = {"error": _error_kind(result["error"]),
                                             "message": result["error"]}

    reference["verify_suites"] = {}
    for seed in workloads.CLI_SEEDS:
        ops = workloads.ops("verify_suites", seed)
        record = run.run_pass(ops, False, budget_end)
        for op, result in zip(ops, record["ops"]):
            names = sorted(c["check"] for c in result["artifact"] if not c.get("skipped"))
            key = " ".join(op[: op.index("--seed")])
            if reference["verify_suites"].setdefault(key, names) != names:
                raise SystemExit(f"{key}: executed checks depend on the seed")

    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
