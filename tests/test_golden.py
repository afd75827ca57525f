"""Replay the benchmark's seed-1 jobs and compare every output with the
sha256 recorded in bench/golden.json.

Jobs come from bench/gen.py. In-process jobs run through the benchmark's
own job runner; CLI jobs run through `cli.main` with the job document on
stdin, so their digest covers the exit status and the bytes printed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import kellermaps
import kellermaps.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SEED = 1
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["digests"]


def _run_cli(job: dict, monkeypatch) -> tuple:
    """(exit status, stdout bytes, stderr bytes) of one CLI job, in process."""
    argv = run.cli_argv(job, [])[1:]  # drop the interpreter
    monkeypatch.setattr(sys, "stdin", io.StringIO(job["doc"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kellermaps.cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_outputs_match_golden_digests(workload, monkeypatch):
    jobs = gen.job_list(workload, SEED)
    golden = GOLDEN[workload][str(SEED)]
    assert len(golden) == len(jobs)
    mismatched = []
    for job, want in zip(jobs, golden):
        if workload == "cli":
            output = _run_cli(job, monkeypatch)
        else:
            output = run.run_inprocess(kellermaps, job)
        if checks.digest(output) != want:
            mismatched.append(job["id"])
    assert mismatched == []
