"""Workload definitions and output checks for the kummerflat benchmark.

A workload is a list of CLI invocations ("ops").  One pass runs every
op of a workload, in order, in one fresh Python process.  Pass k of a
run with benchmark seed s uses the CLI seed (s + k) % len(CLI_SEEDS),
so the same benchmark seed always gives the same inputs.

lambda1_sweep is the exception: its seed picks the Krylov start vector,
and across CLI seeds 0-7 that moves its run time by +-8% and its peak
RSS by 6% (the Krylov dimension differs).  A run has room for one
21-second pass only, so it cannot average over seeds; lambda1 therefore
always runs with the CLI's default seed, and runs differ by the code,
not by the seed.  Its known failure at a=0.08 holds for every seed 0-7.
"""

from __future__ import annotations

import json
import math

ZETA = "0.4444444444444444"
CLI_SEEDS = tuple(range(8))
LAMBDA1_SEED = 0
LAMBDA1_A = ("0.02", "0.05", "0.08")

# Grid sizes per workload; the self-test shrinks them.
GRID_N = {"solve_resolved": 24, "lambda1_sweep": 24, "scaling_sweep": 32}
SMALL_GRID_N = {"solve_resolved": 8, "lambda1_sweep": 8, "scaling_sweep": 8}

NAMES = ("solve_resolved", "lambda1_sweep", "scaling_sweep", "verify_suites")

# Relative tolerances of the reference comparisons.
LAMBDA1_RTOL = 1e-6
SCALING_RTOL = 1e-9
# The Monge-Ampere residual ratio may not exceed the reference by more
# than this share; a lower (better) residual always passes.
RESIDUAL_RATIO_SLACK = 0.1


def grid_n(workload, small=False):
    return (SMALL_GRID_N if small else GRID_N).get(workload)


def ops(workload, cli_seed, small=False):
    """The CLI argument lists of one pass, without --out."""
    n = str(grid_n(workload, small))
    seed = str(cli_seed)
    if workload == "solve_resolved":
        return [["solve", "--a", "0.05", "--zeta", ZETA, "--grid-n", n,
                 "--no-ball-guard", "--seed", seed]]
    if workload == "lambda1_sweep":
        return [["lambda1", "--zeta", ZETA, "--grid-n", n, "--a-list", a,
                 "--seed", str(LAMBDA1_SEED)]
                for a in LAMBDA1_A]
    if workload == "scaling_sweep":
        return [["scaling", "--zeta", ZETA, "--grid-n", n, "--a-list", "0.02,0.04,0.08",
                 "--seed", seed]]
    if workload == "verify_suites":
        return [["verify-eh", "--seed", seed],
                ["verify-gh", "--seed", seed],
                ["verify-gh", "--eps-gh", "1.0", "--seed", seed]]
    raise ValueError(f"unknown workload {workload!r}")


# Artifact each command writes, read back after the op returns.
ARTIFACT = {
    "solve": "solve_summary.json",
    "lambda1": "lambda1.json",
    "scaling": "scaling.csv",
    "verify-eh": "verify_eh.json",
    "verify-gh": "verify_gh.json",
}


def parse_scaling_csv(text):
    """Rows and footer of a scaling.csv artifact."""
    rows, footer = [], {}
    lines = text.splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        if line.startswith("# "):
            footer = json.loads(line[2:])
        elif line:
            rows.append(dict(zip(header, map(float, line.split(",")))))
    return {"rows": rows, "footer": footer}


def _close(value, ref, rtol):
    return isinstance(value, (int, float)) and math.isclose(value, ref, rel_tol=rtol, abs_tol=0.0)


def _executed(checks):
    return [c for c in checks if not c.get("skipped")]


def check_op(workload, op, result, reference, small=False):
    """Return (failed, mismatch, note) for one op.

    failed: the op counts as failed (nonzero exit, raised error, failed
    check or output mismatch).  mismatch: the op's outcome disagrees
    with the reference recorded for it, which makes the run incorrect;
    a failure the reference records as expected is not a mismatch.
    """
    art = result.get("artifact")
    rc = result.get("rc")
    cmd = op[0]
    expected_error = None
    if workload == "lambda1_sweep" and not small:
        a = op[op.index("--a-list") + 1]
        expected = reference["lambda1_sweep"][a]
        if isinstance(expected, dict):
            expected_error = expected["error"]
    if rc != 0 or art is None:
        message = result.get("error") or f"exit status {rc}"
        if expected_error is not None and expected_error in message:
            return True, False, f"known failure: {message}"
        return True, True, f"{' '.join(op)}: {message}"

    problems = []
    if cmd == "solve":
        if art["converged"] is not True:
            problems.append("not converged")
        if not art["min_eigenvalue"] > 0:
            problems.append("corrected form not positive")
        if not small:
            ref = reference["solve_resolved"]
            if art["iterations"] != ref["iterations"]:
                problems.append(f"iterations {art['iterations']} != {ref['iterations']}")
            limit = ref["residual_ratio"] * (1.0 + RESIDUAL_RATIO_SLACK)
            if not 0.0 < art["residual_ratio"] <= limit:
                problems.append(f"residual_ratio {art['residual_ratio']!r} above {limit!r}")
    elif cmd == "lambda1":
        if not all(c["pass"] for c in _executed(art["checks"])):
            problems.append("a lambda1 check failed")
        if not small:
            a = op[op.index("--a-list") + 1]
            ref = reference["lambda1_sweep"][a]
            value = art["values"][0]["lambda1"]
            # A recorded failure that now succeeds has no value to
            # compare; its own Poincare check still applies.
            if not isinstance(ref, dict) and not _close(value, ref, LAMBDA1_RTOL):
                problems.append(f"lambda1 {value!r} != {ref!r}")
    elif cmd == "scaling":
        if not small:
            ref = reference["scaling_sweep"]
            if len(art["rows"]) != len(ref["rows"]):
                problems.append("scaling row count differs")
            for row, ref_row in zip(art["rows"], ref["rows"]):
                for key in ("lambda", "sup_ea", "y_norm_ea"):
                    if not _close(row[key], ref_row[key], SCALING_RTOL):
                        problems.append(f"a={row['a']} {key} {row[key]!r} != {ref_row[key]!r}")
            for key in ("sup_ea_slope", "y_norm_ea_slope"):
                if not _close(art["footer"].get(key), ref["footer"][key], SCALING_RTOL):
                    problems.append(f"{key} {art['footer'].get(key)!r} != {ref['footer'][key]!r}")
    else:
        executed = _executed(art)
        if not executed or not all(c["pass"] for c in executed):
            problems.append("a verification check failed")
        names = sorted(c["check"] for c in executed)
        ref_names = reference["verify_suites"][" ".join(op[: op.index("--seed")])]
        if names != ref_names:
            problems.append(f"executed checks {names} != {ref_names}")
    if problems:
        return True, True, f"{' '.join(op)}: " + "; ".join(problems)
    return False, False, ""


def check_margin(artifacts):
    """Largest max_residual/tolerance over the executed checks."""
    ratios = [c["max_residual"] / c["tolerance"]
              for art in artifacts for c in _executed(art)]
    return max(ratios) if ratios else None
