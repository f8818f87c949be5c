"""The pins of tests/pins.json, checked by scripts/check_pins.py in this process; their flags against the benchmark's
workloads; and the script run as a subprocess on a pins file of its own shape."""

import json
import os
import subprocess
import sys

import pytest

from conftest import PERFBENCH, ROOT, SCRIPTS, import_script

SCRIPT = SCRIPTS / "check_pins.py"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
CHECK_PINS = import_script(SCRIPTS, "check_pins")
BENCH = import_script(PERFBENCH, "workloads")
# tests/pins.json holds the sha256 of every pinned artifact and the flags that make it.  scripts/check_pins.py is the
# only code that runs those commands and hashes what they make: the tests call its functions, so a check added to the
# script runs both under pytest and on an interpreter without pytest.  A refactor of the vector layout, the scoring
# kernels or the model format must leave every pin alone.
PINS = json.loads(CHECK_PINS.PINS.read_text(encoding="utf-8"))


# ci_artifacts pins the CI spec at seed 0 under each mode, all of positive-only, binary-siblings and binary-exclusive and
# the model of each other binary policy, each summing its sets directly or as the total minus the labels outside them;
# and the 200 leaves of a depth-1 spec, whose decode and flat baseline score on postings
@pytest.mark.parametrize("table, name", [(table, name) for table, entries in PINS.items() for name in entries])
def test_pinned_commands_reproduce_every_pin(table, name):
    assert CHECK_PINS.entry_mismatches(table, name, PINS[table][name]) == []


def test_every_benchmark_workload_is_pinned():
    # each workload's corpus at seed 0, trained with its flags and split by the benchmark's fractions at --seed 0
    split = ["--val-fraction", str(BENCH.VAL_FRACTION), "--test-fraction", str(BENCH.TEST_FRACTION), "--seed", "0"]
    assert {name: (pin["generate"], pin["split"], pin["train"]) for name, pin in PINS["bench_artifacts"].items()} == {
        name: ([*w.generate_flags(), "--seed", "0"], split, w.train_flags()) for name, w in BENCH.WORKLOADS.items()
    }


# the generated corpora that are not a workload's: the CI spec (--depth 2 --branching 3 --docs-per-leaf 20
# --tokens-per-doc 8 --noise 0.6) at two edges of the splitmix64 stream, the benchmark's traffic seed and the largest
# seed, and a depth-4 spec with odd sizes, whose chains are four topics long
OTHER_GENERATED = ("ci-spec-1000003", "ci-spec-18446744073709551615", "depth-4")


def test_generated_pins_follow_the_benchmark_workloads():
    # each workload's corpus at seeds 0 and 1, at 1,000,003 (the traffic of the benchmark's seed 0) and at the largest
    generated = PINS["generated_bytes"]
    assert {name: pin["generate"] for name, pin in generated.items() if name not in OTHER_GENERATED} == {
        f"{name}-{seed}": [*w.generate_flags(), "--seed", str(seed)]
        for name, w in BENCH.WORKLOADS.items()
        for seed in (0, 1, 1_000_003, 2**64 - 1)
    }


def check(tmp_path, pins):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins), encoding="utf-8")
    return subprocess.run([sys.executable, str(SCRIPT), "--pins", str(path)], capture_output=True, text=True, env=ENV)


def small_pins():
    """The smallest entry of each kind: the CI spec's binary-exclusive run and the depth-4 corpus."""
    return {
        "ci_artifacts": {"binary-exclusive": PINS["ci_artifacts"]["binary-exclusive"]},
        "generated_bytes": {"depth-4": PINS["generated_bytes"]["depth-4"]},
    }


def test_check_pins_exits_0_when_every_pin_holds(tmp_path):
    result = check(tmp_path, small_pins())
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith(": all 7 pins hold\n")


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


def test_check_pins_names_an_artifact_the_commands_do_not_make(tmp_path):
    pinned = PINS["ci_artifacts"]["binary-exclusive"]["sha256"]["model.json"]
    entry = PINS["generated_bytes"]["depth-4"]
    entry = {**entry, "sha256": {**entry["sha256"], "model.json": pinned}}  # generate alone writes no model
    result = check(tmp_path, {"generated_bytes": {"depth-4": entry}})
    assert result.returncode == 1
    missing = f"generated_bytes/depth-4 model.json: pinned {pinned}, but the entry's commands make no model.json"
    assert result.stdout.startswith(f"mismatch: {missing}\n")
    assert result.stdout.endswith(": 1 mismatch\n")


@pytest.mark.parametrize(
    "table, name, command, flags, message",
    [
        ("ci_artifacts", "binary-exclusive", "train", ["--mode", "binary"], "exited 1: error: binary mode requires a"),
        # argparse's exit escaped the script, which printed nothing and exited 2
        ("generated_bytes", "depth-4", "generate", [*PINS["generated_bytes"]["depth-4"]["generate"], "--no-such-flag"],
         "exited 2: routecat: error: unrecognized arguments: --no-such-flag"),
    ],
    ids=["failing-command", "usage-error"],
)
def test_check_pins_reports_a_command_that_fails(tmp_path, table, name, command, flags, message):
    entry = {**PINS[table][name], command: flags}
    result = check(tmp_path, {table: {name: entry}})
    assert result.returncode == 1
    assert result.stdout.startswith(f"mismatch: {table}/{name}: routecat {command} ")
    assert f" {message}" in result.stdout
    assert result.stdout.endswith(": 1 mismatch\n")


def test_check_pins_reports_the_first_ascii_string_a_tokenizer_splits_differently(tmp_path):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps({"generated_bytes": {"depth-4": PINS["generated_bytes"]["depth-4"]}}), encoding="utf-8")
    # the script run with an ASCII branch that drops digits
    code = "\n".join([
        "import re, runpy, sys",
        "from routecat import corpus",
        "corpus._ASCII_TOKEN = re.compile('[a-z]{2,}')",
        f"sys.argv = [{str(SCRIPT)!r}, '--pins', {str(path)!r}]",
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert result.returncode == 1
    assert result.stdout.startswith("mismatch: tokenize('00') gives [], [^\\W_]{2,} gives ['00']\n")
    assert result.stdout.endswith(": 1 mismatch\n")
