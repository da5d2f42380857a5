"""The runner leaves no process behind: its process group is empty afterwards."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[3]


def test_smoke_run_leaves_its_process_group_empty():
    process = subprocess.Popen(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke",
         "--workload", "kfailure_sweep"],
        cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    assert out.strip().splitlines()[-1].startswith('{"correct": true')
    # the session leader has been reaped; a survivor would keep the group alive
    with pytest.raises(ProcessLookupError):
        os.killpg(process.pid, 0)


def test_exits_nonzero_without_the_program_sources(tmp_path):
    """In a directory holding only the benchmark, the run must fail fast."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in (ROOT / "benchmarks" / "e2e").glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "base_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
