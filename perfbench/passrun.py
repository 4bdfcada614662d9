"""One benchmark pass, run by run.py in a fresh Python process.

    python3 perfbench/passrun.py SPEC.json

SPEC.json holds "src" (the checkout's source directory), "ops" (CLI
argument lists), "out" (the pass's artifact directory), "t0" (the
runner's CLOCK_MONOTONIC reading just before it started this process),
"trace" (wrap the program's functions in spans) and "result" (where to
write the pass record).  The process imports kummerflat.cli, runs every
op through kummerflat.cli.main, reads each op's artifact back after the
op returns, deletes the op's directory and writes one JSON record.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _error_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    errors = [ln for ln in lines if ln.startswith("error:")]
    return (errors or lines or [""])[-1]


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import kummerflat.cli as cli

    setup_s = _clock() - spec["t0"]
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"kummerflat.cli imported from {cli.__file__}, not from {src}")

    import workloads

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    ops = []
    wall_s = 0.0
    for i, argv in enumerate(spec["ops"]):
        out = os.path.join(spec["out"], f"op{i}")
        os.mkdir(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = trace_text = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv + ["--out", out])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises counts as failed, the pass goes on
            rc, error, trace_text = None, f"{type(exc).__name__}: {exc}", traceback.format_exc()
        seconds = time.perf_counter() - start
        wall_s += seconds
        artifact = None
        path = os.path.join(out, workloads.ARTIFACT[argv[0]])
        if rc == 0 and os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
            artifact = workloads.parse_scaling_csv(text) if argv[0] == "scaling" else json.loads(text)
        ops.append({
            "argv": argv,
            "rc": rc,
            "seconds": seconds,
            "error": error or (_error_line(stderr.getvalue()) if rc != 0 else None),
            "traceback": trace_text,
            "artifact": artifact,
        })
        shutil.rmtree(out)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ops": ops,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        record["span_count"] = len(tracer.spans)
        with open(spec["spans"], "w") as fh:
            tracer.dump_spans(fh)
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
