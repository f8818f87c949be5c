"""scripts/check_pins.py, run as a subprocess on a pins file of its own shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_pins.py"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
PINS = json.loads((ROOT / "tests" / "pins.json").read_text(encoding="utf-8"))


def check(tmp_path, pins):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins), encoding="utf-8")
    return subprocess.run([sys.executable, str(SCRIPT), "--pins", str(path)], capture_output=True, text=True, env=ENV)


def small_pins():
    """The smallest entry of each kind: the CI spec's binary-exclusive model and the depth-4 corpus."""
    return {
        "ci_artifacts": {"binary-exclusive": PINS["ci_artifacts"]["binary-exclusive"]},
        "generated_bytes": {"depth-4": PINS["generated_bytes"]["depth-4"]},
    }


def test_check_pins_exits_0_when_every_pin_holds(tmp_path):
    result = check(tmp_path, small_pins())
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith(": all 3 pins hold\n")


@pytest.mark.parametrize("table, name, artifact", [
    ("ci_artifacts", "binary-exclusive", "model.json"),
    ("generated_bytes", "depth-4", "corpus.tsv"),
])
def test_check_pins_names_each_mismatch_and_exits_1(tmp_path, table, name, artifact):
    pins = small_pins()
    pinned = pins[table][name]["sha256"][artifact]
    wrong = "0" * 64
    pins[table][name] = {**pins[table][name], "sha256": {**pins[table][name]["sha256"], artifact: wrong}}
    result = check(tmp_path, pins)
    assert result.returncode == 1
    assert f"mismatch: {table}/{name} {artifact}: pinned {wrong}, got {pinned}\n" in result.stdout
    assert result.stdout.endswith(": 1 mismatch\n")


def test_check_pins_reports_a_command_that_fails(tmp_path):
    entry = {**PINS["ci_artifacts"]["binary-exclusive"], "train": ["--mode", "binary"]}  # binary needs a policy
    result = check(tmp_path, {"ci_artifacts": {"binary-exclusive": entry}})
    assert result.returncode == 1
    assert "mismatch: ci_artifacts/binary-exclusive: routecat train" in result.stdout
    assert "binary mode requires a training policy" in result.stdout
