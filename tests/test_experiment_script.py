"""The experiment script, run as a subprocess on the library under ``src``."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_boost_experiment.py"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# sha256 of the script's stdout: the call CI makes, and the script's own defaults over one seed
PINNED_STDOUT = {
    ("--depth", "2", "--branching", "3", "--docs-per-leaf", "20", "--seeds", "2"):
        "0292912094db4f8e1780f4e19311515cbc42c15de65b94974bb053ac8fa0f89b",
    ("--seeds", "1"): "10c8dc91ebd4a12ba8102f68f0ac7836fa7e859a36cf1aab96d7074a999905fa",
}


def run_script(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, env=ENV)


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT), ids=" ".join)
def test_script_stdout_keeps_its_bytes(argv):
    result = run_script(*argv)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED_STDOUT[argv]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--noise", "1.5"), "argument --noise: fraction must lie in [0, 1): 1.5"),
        (("--depth", "0"), "argument --depth: must be >= 1: 0"),
        (("--seeds", "0"), "argument --seeds: must be >= 1: 0"),
    ],
    ids=["noise", "depth", "seeds"],
)
def test_bad_flag_is_a_usage_error(argv, message):
    result = run_script(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ") and message in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--val-fraction", "0.6", "--test-fraction", "0.6"), "val_fraction + test_fraction must be < 1"),
        (("--depth", "1", "--branching", "2", "--docs-per-leaf", "1", "--seeds", "1"), "empty validation set"),
    ],
    ids=["fractions", "no-validation-document"],
)
def test_refused_run_is_a_one_line_error(argv, message):
    result = run_script(*argv)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr


def test_closed_stdout_pipe_ends_without_traceback():
    # unbuffered, each row is written as it is printed, so the rows after the first line meet the closed pipe
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), "--seeds", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**ENV, "PYTHONUNBUFFERED": "1"},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b"seed ")
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
