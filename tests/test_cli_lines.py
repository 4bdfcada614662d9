"""Every command line the project ships still parses and validates.

The lines are those of the CI workflow's console-script step, those of
README's "Command line" section (the shipped experiment lines), extracted
the way CI extracts them, and the benchmark's ops.  Each goes through
build_parser, build_run_config and _validate, and none is run; a flag
that a command stops reading fails here rather than only in CI or in the
benchmark.
"""

import importlib.util
import pathlib
import re
import shlex

import pytest

from kummerflat import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _workflow_lines():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    return [line.strip() for line in text.splitlines() if line.strip().startswith("kummerflat ")]


def _readme_lines():
    # sed -n '/^## Command line/,/^## [A-Z]/p' | grep -E '^([A-Z_]+=[^ ]+ )*kummerflat '
    # | sed -e 's/ *#.*//'
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("## Command line")
    end = next(i for i in range(start + 1, len(lines)) if re.match(r"## [A-Z]", lines[i]))
    shipped = [line for line in lines[start:end + 1] if re.match(r"([A-Z_]+=[^ ]+ )*kummerflat ", line)]
    return [re.sub(r" *#.*", "", line) for line in shipped]


def _benchmark_ops():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(f"{w}-{i}{'-small' if small else ''}", op)
            for w in workloads.NAMES for small in (False, True)
            for i, op in enumerate(workloads.ops(w, 0, small=small))]


WORKFLOW = _workflow_lines()
README = _readme_lines()
BENCHMARK = _benchmark_ops()


def _accepted(argv):
    """The RunConfig of argv; argparse exits on anything it rejects."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    cfg = cli.build_run_config(args, parser)
    cli._validate(cfg, parser)
    return cfg


# shell tokens that end a command's own arguments: a redirection or a
# follow-up command, as in `kummerflat ... 2> err || status=$?`
_SHELL_TOKENS = ("||", "&&", "|", ">", "2>")


def _argv(line, tmp_path):
    words = shlex.split(line.replace("$RUNNER_TEMP", str(tmp_path)))
    while "=" in words[0]:  # leading environment assignments
        words.pop(0)
    assert words[0] == "kummerflat"
    end = next((i for i, w in enumerate(words) if w in _SHELL_TOKENS), len(words))
    return words[1:end]


def test_every_source_has_lines():
    assert WORKFLOW and README and BENCHMARK


@pytest.mark.parametrize("line", WORKFLOW)
def test_workflow_line_parses(line, tmp_path):
    cfg = _accepted(_argv(line, tmp_path))
    assert cfg.out.is_relative_to(tmp_path)


@pytest.mark.parametrize("line", README)
def test_readme_line_parses(line, tmp_path):
    line = line.replace("--out artifacts/", "--out $RUNNER_TEMP/readme/")
    cfg = _accepted(_argv(line, tmp_path))
    assert cfg.out.is_relative_to(tmp_path / "readme")


def test_readme_lines_write_to_distinct_directories(tmp_path):
    # CI diffs two runs of these lines; a line that shares another's --out
    # overwrites its artifacts, and the diff sees only the last writer
    outs = [_accepted(_argv(line, tmp_path)).out for line in README]
    assert len(set(outs)) == len(outs), outs


@pytest.mark.parametrize("op", [op for _, op in BENCHMARK], ids=[name for name, _ in BENCHMARK])
def test_benchmark_op_parses(op):
    assert _accepted(op).command == op[0]
