import base64
import csv
import json
import os
import subprocess
import struct
import sys
from dataclasses import replace

import pytest

from conftest import ROOT, SCRIPTS, entries, packed_centroid, refuse_json_constant
from routecat.centroid import dumps_model, train, vocabulary_digest
from routecat.cli import main
from routecat.corpus import Document, build_vocabulary
from routecat.router import ACCEPT_ALL, build_calibration, dumps_calibration, loads_calibration
from routecat.taxonomy import parse_taxonomy

# `python -m routecat.cli` in a child process imports the routecat under test, installed or not
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(*argv):
    return main(list(argv))


def generate(tmp_path, **overrides):
    data = tmp_path / "data"
    args = {
        "--depth": "2",
        "--branching": "3",
        "--docs-per-leaf": "20",
        "--noise": "0.3",
        "--seed": "5",
        "--out-dir": str(data),
    }
    args.update(overrides)
    argv = ["generate"]
    for k, v in args.items():
        argv += [k, v]
    assert run_cli(*argv) == 0
    return data


def train_into(tmp_path, data, *extra):
    run = tmp_path / "run"
    code = run_cli(
        "train",
        "--taxonomy", str(data / "taxonomy.tsv"),
        "--corpus", str(data / "corpus.tsv"),
        "--val-fraction", "0.2",
        "--test-fraction", "0.3",
        "--seed", "5",
        "--out-dir", str(run),
        *extra,
    )
    assert code == 0
    return run


def test_generate_counts(tmp_path):
    data = generate(tmp_path)
    tax_lines = [l for l in (data / "taxonomy.tsv").read_text().splitlines() if l]
    corpus_lines = [l for l in (data / "corpus.tsv").read_text().splitlines() if l]
    assert len(tax_lines) == 3 + 9  # edges of a complete depth-2, branching-3 tree
    assert len(corpus_lines) == 9 * 20


def test_full_pipeline(tmp_path, capsys):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    assert (run / "model.json").exists() and (run / "calibration.json").exists()
    err = capsys.readouterr().err
    assert "threshold=" in err and "L1=" in err

    code = run_cli(
        "classify",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--input", str(data / "corpus.tsv"),
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 180
    for line in lines[:10]:
        doc_id, leaf, rel, verdict = line.split("\t")
        float(rel)
        assert len(rel.split(".")[1]) == 6
        assert verdict in ("ACCEPT", "REJECT")

    report = tmp_path / "report"
    code = run_cli(
        "evaluate",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--corpus", str(data / "corpus.tsv"),
        "--val-fraction", "0.2",
        "--test-fraction", "0.3",
        "--seed", "5",
        "--problem", "demo",
        "--out-dir", str(report),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Rejection summary" in out
    summary = (report / "summary.csv").read_text()
    comparison = (report / "comparison.csv").read_text()
    assert summary.startswith("problem,rejected,TR,FR,accuracy_boost\ndemo,")
    assert comparison.startswith("problem,flat,LCN,proposed\ndemo,")


@pytest.mark.parametrize("name", ["positive-only", "binary-siblings"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, name):
    # a term, set or dict order that followed string hashes would change some pinned byte under one of the two seeds
    pins = tmp_path / "pins.json"
    entry = json.loads((ROOT / "tests" / "pins.json").read_text(encoding="utf-8"))["ci_artifacts"][name]
    pins.write_text(json.dumps({"ci_artifacts": {name: entry}}), encoding="utf-8")
    for hash_seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "check_pins.py"), "--pins", str(pins)],
            env={**ENV, "PYTHONHASHSEED": hash_seed, "PYTHONWARNINGS": "error"},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, f"PYTHONHASHSEED={hash_seed}\n{result.stdout}{result.stderr}"
        assert result.stdout.endswith(": all 5 pins hold\n")


def test_train_missing_corpus(tmp_path, capsys):
    data = generate(tmp_path)
    code = run_cli(
        "train",
        "--taxonomy", str(data / "taxonomy.tsv"),
        "--corpus", str(tmp_path / "nope.tsv"),
        "--out-dir", str(tmp_path / "run"),
    )
    assert code == 1
    assert "nope.tsv" in capsys.readouterr().err


def test_classify_rejects_at_exact_threshold(tmp_path, capsys):
    from routecat.centroid import loads_model
    from routecat.corpus import Document, vectorize
    from routecat.router import decode, loads_calibration, reliability

    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    single = tmp_path / "one.tsv"
    first = (data / "corpus.tsv").read_text().splitlines()[0]
    single.write_text(first + "\n")

    # compute the document's exact reliability and use it verbatim as the threshold
    model = loads_model((run / "model.json").read_text())
    calibration, _ = loads_calibration((run / "calibration.json").read_text())
    doc_id, label, body = first.split("\t")
    steps = decode(model, vectorize(Document(doc_id, label, body), model.vocabulary))
    exact = reliability(steps, calibration.level_weights)

    assert run_cli(
        "classify",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--input", str(single),
        "--threshold", repr(exact),
    ) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.endswith("REJECT")


def test_classify_empty_input(tmp_path, capsys):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert run_cli(
        "classify",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--input", str(empty),
    ) == 0
    assert capsys.readouterr().out == ""


def test_classify_accepts_unlabeled_lines(tmp_path, capsys):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    unlabeled = tmp_path / "unlabeled.tsv"
    body = (data / "corpus.tsv").read_text().splitlines()[0].split("\t")[2]
    unlabeled.write_text(f"q1\t{body}\n")
    assert run_cli(
        "classify",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--input", str(unlabeled),
    ) == 0
    assert capsys.readouterr().out.startswith("q1\t")


def test_classify_refuses_an_empty_doc_id(tmp_path, capsys):
    # "\tw0x1 w0x2" printed "\tc0\t1.000000\tACCEPT" with status 0; load_corpus refuses an empty doc_id as well
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    body = (data / "corpus.tsv").read_text().splitlines()[0].split("\t")[2]
    queries = tmp_path / "queries.tsv"
    queries.write_text(f"q1\t{body}\n\t{body}\nq3\t{body}\n")
    capsys.readouterr()
    assert run_cli(
        "classify",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--input", str(queries),
    ) == 1
    out, err = capsys.readouterr()
    assert out.startswith("q1\t") and out.count("\n") == 1
    assert err == f"error: {queries}: line 2: expected doc_id<TAB>[label<TAB>]text\n"


def test_classify_keeps_unicode_line_separators_in_text(tmp_path, capsys):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    doc = tmp_path / "doc.tsv"
    doc.write_text("q1\tfirst part\u2028second part\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(
        "classify",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--input", str(doc),
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("q1\t") and out.count("\n") == 1


def model_and_classify_output(tmp_path, capsys, inputs):
    """``model.json`` trained on ``inputs`` and ``classify``'s output for its corpus."""
    run = train_into(tmp_path / inputs.name, inputs)
    capsys.readouterr()
    assert run_cli(
        "classify",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--input", str(inputs / "corpus.tsv"),
    ) == 0
    return (run / "model.json").read_bytes(), capsys.readouterr().out


def test_crlf_inputs_read_like_lf(tmp_path, capsys):
    data = generate(tmp_path)
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    for name in ("taxonomy.tsv", "corpus.tsv"):
        (crlf / name).write_bytes((data / name).read_bytes().replace(b"\n", b"\r\n"))
    assert model_and_classify_output(tmp_path, capsys, data) == model_and_classify_output(tmp_path, capsys, crlf)


def test_inputs_with_a_byte_order_mark_read_like_plain(tmp_path, capsys):
    data = generate(tmp_path)
    bom = tmp_path / "bom"
    bom.mkdir()
    for name in ("taxonomy.tsv", "corpus.tsv"):
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (data / name).read_bytes())
    assert model_and_classify_output(tmp_path, capsys, data) == model_and_classify_output(tmp_path, capsys, bom)


def test_mismatched_calibration_rejected(tmp_path, capsys):
    data = generate(tmp_path)
    run_a = train_into(tmp_path, data)
    other = generate(tmp_path / "other", **{"--branching": "2"})
    run_b = (tmp_path / "other") / "run"
    assert run_cli(
        "train",
        "--taxonomy", str(other / "taxonomy.tsv"),
        "--corpus", str(other / "corpus.tsv"),
        "--out-dir", str(run_b),
    ) == 0
    code = run_cli(
        "classify",
        "--model", str(run_a / "model.json"),
        "--calibration", str(run_b / "calibration.json"),
        "--input", str(data / "corpus.tsv"),
    )
    assert code == 1
    assert "vocabulary mismatch" in capsys.readouterr().err


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "routecat.cli", *argv], capture_output=True, text=True, env=ENV)


def assert_one_line_error(result, message):
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_calibration_of_another_model_on_the_same_split_is_refused(tmp_path, command):
    # both models share the training split, so the vocabulary digest cannot tell them apart
    data = generate(tmp_path, **NOISY)
    positive = train_into(tmp_path / "positive", data)
    binary = train_into(tmp_path / "binary", data, "--mode", "binary", "--policy", "siblings")
    assert json.loads((positive / "calibration.json").read_text())["vocabulary_digest"] == json.loads(
        (binary / "calibration.json").read_text()
    )["vocabulary_digest"]
    inputs = {
        "classify": ["--input", str(data / "corpus.tsv")],
        "evaluate": ["--corpus", str(data / "corpus.tsv"), "--val-fraction", "0.2", "--test-fraction", "0.3",
                     "--seed", "5", "--out-dir", str(tmp_path / "report")],
    }[command]
    pairing = ["--model", str(binary / "model.json"), "--calibration", str(positive / "calibration.json")]
    assert_one_line_error(run_subprocess(command, *pairing, *inputs), "model mismatch")
    assert not (tmp_path / "report").exists()


def test_calibration_lacking_a_depth_is_refused_before_any_decision(tmp_path):
    # leaf A sits at depth 1, so a document routed there needs no depth-2 weight
    data = tmp_path / "data"
    data.mkdir()
    (data / "taxonomy.tsv").write_text("R\tA\nR\tB\nB\tB1\nB\tB2\n")
    topics = {"A": "alpha apple", "B1": "beta bee", "B2": "beta bird"}
    (data / "corpus.tsv").write_text(
        "".join(f"{label}{i}\t{label}\t{text} w{i}\n" for i in range(10) for label, text in topics.items())
    )
    run = train_into(tmp_path, data)
    payload = json.loads((run / "calibration.json").read_text())
    del payload["level_weights"]["2"]
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(payload))
    result = run_subprocess(
        "classify", "--model", str(run / "model.json"), "--calibration", str(stale), "--input", str(data / "corpus.tsv")
    )
    assert_one_line_error(result, "no weight calibrated for depth 2")


def test_calibration_format_1_is_refused(tmp_path, capsys):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    calibration = run / "calibration.json"
    calibration.write_text(calibration.read_text().replace('"format_version":2', '"format_version":1'))
    capsys.readouterr()
    code = run_cli(
        "classify", "--model", str(run / "model.json"), "--calibration", str(calibration),
        "--input", str(data / "corpus.tsv"),
    )
    assert code == 1
    assert "unsupported calibration format version 1, expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_model_format_2_is_refused(tmp_path, command):
    inputs = command_inputs(tmp_path, command)
    model = tmp_path / "run" / "model.json"
    model.write_text(model.read_text().replace('"format_version":3', '"format_version":2'))
    result = run_subprocess(command, *inputs)
    assert_one_line_error(result, "unsupported model format version 2, expected 3")
    assert str(model) in result.stderr


def test_classify_hashes_the_vocabulary_once(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from routecat import corpus

    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    hashed = []

    def counting_sha256(*args):
        hashed.append(args)
        return corpus_hashlib.sha256(*args)

    corpus_hashlib = corpus.hashlib
    monkeypatch.setattr(corpus, "hashlib", SimpleNamespace(sha256=counting_sha256))
    assert run_cli(
        "classify", "--model", str(run / "model.json"), "--calibration", str(run / "calibration.json"),
        "--input", str(data / "corpus.tsv"),
    ) == 0
    # loads_model checks the stored digest and the calibration pairing reuses it
    assert len(hashed) == 1


def test_generate_bad_noise_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--noise", "1.5", "--out-dir", str(tmp_path / "x"))
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--policy", "siblings"), "policy 'siblings' applies only in binary mode"),
        (("--mode", "binary"), "binary mode requires a training policy"),
    ],
)
def test_train_refuses_policy_and_mode_mismatch(tmp_path, capsys, flags, message):
    data = generate(tmp_path)
    capsys.readouterr()
    code = run_cli(
        "train",
        "--taxonomy", str(data / "taxonomy.tsv"),
        "--corpus", str(data / "corpus.tsv"),
        "--out-dir", str(tmp_path / "run"),
        *flags,
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_classify_refuses_a_model_with_a_negative_weight(tmp_path, capsys):
    taxonomy = parse_taxonomy("R\tA\nR\tB\n")
    texts = [("A", "alpha beta"), ("A", "alpha gamma"), ("B", "delta beta"), ("B", "delta eps")]
    docs = [Document(f"d{k}", label, text) for k, (label, text) in enumerate(texts)]
    model = train(docs, taxonomy, build_vocabulary(docs))
    calibration = replace(build_calibration(model, docs), threshold=ACCEPT_ALL)
    payload = json.loads(dumps_model(model))
    # loaded, B scored -0.274 against A's 0.549 and "alpha beta delta" got a step confidence of 2.0
    payload["centroids"]["B"] = packed_centroid(*((i, -w / 2) for i, w in entries(model.centroid_of["B"])))
    (tmp_path / "model.json").write_text(json.dumps(payload), encoding="utf-8")
    (tmp_path / "calibration.json").write_text(
        dumps_calibration(calibration, vocabulary_digest(model.vocabulary)), encoding="utf-8"
    )
    (tmp_path / "input.tsv").write_text("q1\talpha beta delta\n", encoding="utf-8")
    code = run_cli(
        "classify",
        "--model", str(tmp_path / "model.json"),
        "--calibration", str(tmp_path / "calibration.json"),
        "--input", str(tmp_path / "input.tsv"),
    )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "centroid of 'B'" in captured.err and "negative" in captured.err


NOT_THE_TRAINING_PART = "not trained on this split's training part"


@pytest.mark.parametrize(
    "split, corpus_seed, message",
    [
        (("--val-fraction", "0.3", "--test-fraction", "0.3", "--seed", "5"), "5", NOT_THE_TRAINING_PART),
        (("--val-fraction", "0.2", "--test-fraction", "0.3", "--seed", "6"), "5", NOT_THE_TRAINING_PART),
        (("--val-fraction", "0.2", "--test-fraction", "0.3", "--seed", "5"), "6", NOT_THE_TRAINING_PART),
        # the same training part, but a validation part of another size: the split is not the one train made
        (("--val-fraction", "0.3", "--test-fraction", "0.2", "--seed", "5"), "5",
         "the calibration was computed on 36 validation documents, not on this split's 54"),
    ],
    ids=["other-fractions", "other-seed", "other-corpus", "swapped-fractions"],
)
def test_evaluate_refuses_a_split_the_model_was_not_trained_on(tmp_path, capsys, split, corpus_seed, message):
    run = train_into(tmp_path, generate(tmp_path))
    other = generate(tmp_path / "other", **{"--seed": corpus_seed})
    capsys.readouterr()
    code = run_cli(
        "evaluate",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--corpus", str(other / "corpus.tsv"),
        *split,
        "--out-dir", str(tmp_path / "report"),
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and not (tmp_path / "report").exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_accept_all_evaluate_has_zero_boost(tmp_path):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    report = tmp_path / "report"
    assert run_cli(
        "evaluate",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--corpus", str(data / "corpus.tsv"),
        "--val-fraction", "0.2",
        "--test-fraction", "0.3",
        "--seed", "5",
        "--accept-all",
        "--out-dir", str(report),
    ) == 0
    line = (report / "summary.csv").read_text().splitlines()[1]
    assert line.endswith(",0.0")
    assert line.split(",")[1] == "0"


@pytest.mark.parametrize("problem", ["news, wire", '"wire" news', "news\nwire", "news\rwire"])
def test_report_csvs_quote_the_problem_name(tmp_path, problem):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    report = tmp_path / "report"
    assert run_cli(
        "evaluate",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--corpus", str(data / "corpus.tsv"),
        "--val-fraction", "0.2",
        "--test-fraction", "0.3",
        "--seed", "5",
        "--problem", problem,
        "--out-dir", str(report),
    ) == 0
    headers = {"summary.csv": ["problem", "rejected", "TR", "FR", "accuracy_boost"],
               "comparison.csv": ["problem", "flat", "LCN", "proposed"]}
    for name, header in headers.items():
        with open(report / name, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == header
        assert len(rows) == 2 and len(rows[1]) == len(header) and rows[1][0] == problem


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "routecat.cli", "generate", "--depth", "1", "--branching", "2",
         "--docs-per-leaf", "3", "--out-dir", str(tmp_path / "d")],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert result.returncode == 0
    assert (tmp_path / "d" / "corpus.tsv").exists()


def test_closed_stdout_pipe_ends_without_traceback(tmp_path):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    texts = [line.split("\t")[2] for line in (data / "corpus.tsv").read_text().splitlines()]
    many = tmp_path / "many.tsv"
    # 7,200 decisions of at least 20 bytes: far more than a 64 KiB pipe plus the reader's buffer
    many.write_text("".join(f"q{i}\t{text}\n" for i, text in enumerate(texts * 40)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "routecat.cli", "classify", "--model", str(run / "model.json"),
         "--calibration", str(run / "calibration.json"), "--input", str(many)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b"q0\t")
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_cli_uses_the_shared_pipeline(tmp_path):
    from routecat.centroid import dumps_model, vocabulary_digest
    from routecat.corpus import load_corpus
    from routecat.evaluation import comparison_csv, report_rows, summary_csv, train_and_calibrate
    from routecat.router import dumps_calibration
    from routecat.taxonomy import parse_taxonomy

    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    report = tmp_path / "report"
    assert run_cli(
        "evaluate",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--corpus", str(data / "corpus.tsv"),
        "--val-fraction", "0.2",
        "--test-fraction", "0.3",
        "--seed", "5",
        "--problem", "demo",
        "--out-dir", str(report),
    ) == 0

    taxonomy = parse_taxonomy((data / "taxonomy.tsv").read_text())
    docs = load_corpus((data / "corpus.tsv").read_text(), taxonomy)
    lib = train_and_calibrate(taxonomy, docs, 0.2, 0.3, 5)
    summary_rows, comparison_rows = report_rows("demo", lib.model, lib.calibration, lib.split)
    assert (run / "model.json").read_bytes() == dumps_model(lib.model).encode()
    assert (run / "calibration.json").read_bytes() == dumps_calibration(
        lib.calibration, vocabulary_digest(lib.model.vocabulary)
    ).encode()
    assert (report / "summary.csv").read_bytes() == summary_csv(summary_rows).encode()
    assert (report / "comparison.csv").read_bytes() == comparison_csv(comparison_rows).encode()


def test_jobs_flag_is_a_usage_error(tmp_path):
    data = generate(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "train",
            "--taxonomy", str(data / "taxonomy.tsv"),
            "--corpus", str(data / "corpus.tsv"),
            "--jobs", "2",
            "--out-dir", str(tmp_path / "run"),
        )
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["model", "calibration"])
def test_malformed_artifact_is_a_one_line_error(tmp_path, bad):
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    artifact = tmp_path / f"bad-{bad}.json"
    version = {"model": 3, "calibration": 2}[bad]
    artifact.write_text(f'{{"format":"routecat-{bad}","format_version":{version}}}')
    paths = {"model": run / "model.json", "calibration": run / "calibration.json", bad: artifact}
    result = run_subprocess(
        "classify", "--model", str(paths["model"]), "--calibration", str(paths["calibration"]),
        "--input", str(data / "corpus.tsv"),
    )
    assert_one_line_error(result, "has no field")


@pytest.mark.parametrize("bad", ["model", "calibration"])
def test_json_nested_too_deep_is_a_one_line_error_naming_the_file(tmp_path, bad):
    inputs = command_inputs(tmp_path, "classify")
    artifact = tmp_path / "run" / f"{bad}.json"
    artifact.write_text("[" * 200_000)  # json.loads raised RecursionError
    result = run_subprocess("classify", *inputs)
    assert_one_line_error(result, f"{artifact}: {bad} file is not valid JSON: ")
    assert "Traceback" not in result.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="integers of any length parse")
def test_json_number_of_too_many_digits_is_a_one_line_error_naming_the_file(tmp_path):
    inputs = command_inputs(tmp_path, "classify")
    calibration = tmp_path / "run" / "calibration.json"
    payload = json.loads(calibration.read_text())
    text = calibration.read_text().replace(f'"validation_size":{payload["validation_size"]}', '"validation_size":' + "9" * 5000)
    calibration.write_text(text)
    result = run_subprocess("classify", *inputs)
    # json.loads refuses the 5,000-digit integer with a ValueError, which was printed without the file's path
    assert_one_line_error(result, f"{calibration}: calibration file is not valid JSON: ")


def test_classify_refuses_a_model_weight_above_one(tmp_path):
    inputs = command_inputs(tmp_path, "classify")
    model = tmp_path / "run" / "model.json"
    payload = json.loads(model.read_text())
    indices = payload["centroids"]["c0"][0]
    n = len(base64.b64decode(indices)) // 4
    # identity and digests still pair the model with its calibration; classify overflowed in the exact sums
    payload["centroids"]["c0"] = [indices, base64.b64encode(struct.pack(f"<{n}d", *[1.7e308] * n)).decode("ascii")]
    model.write_text(json.dumps(payload))
    result = run_subprocess("classify", *inputs)
    assert_one_line_error(result, f"{model}: malformed model file: centroid of 'c0': weight 1.7e+308 of term ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "99999999999999999999999"])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, command, seed):
    # seeds equal modulo 2**64 gave the same corpus and split; parsing stops before any file is read
    files = {
        "generate": [],
        "train": ["--taxonomy", "t.tsv", "--corpus", "c.tsv"],
        "evaluate": ["--model", "m.json", "--calibration", "c.json", "--corpus", "c.tsv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *files, "--seed", seed, "--out-dir", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert f"seed must lie in 0..2**64-1: {seed}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_largest_seed_is_accepted(tmp_path):
    data = generate(tmp_path, **{"--seed": str(2**64 - 1)})
    train_into(tmp_path, data, "--seed", str(2**64 - 1))


@pytest.mark.parametrize("command", ["classify", "evaluate"])
@pytest.mark.parametrize("field", ["doc_frequency", "n_docs"])
def test_model_with_an_impossible_document_count_is_a_one_line_error(tmp_path, command, field):
    inputs = command_inputs(tmp_path, command)
    model = tmp_path / "run" / "model.json"
    payload = json.loads(model.read_text())
    vocab = payload["vocabulary"]
    if field == "n_docs":
        vocab["n_docs"] = -1  # idf raised "math domain error", naming no file
        rule = "n_docs must be at least 1, not -1"
    else:
        vocab["terms"][0][2] = -1  # idf divided by df + 1 = 0 and ended in a traceback
        rule = f"document frequency -1 of {vocab['terms'][0][0]!r} lies outside 1.."
    # the stored digests are left as they are: Vocabulary refuses the edit before the loader compares them
    model.write_text(json.dumps(payload))
    result = run_subprocess(command, *inputs)
    assert_one_line_error(result, f"{model}: malformed model file: {rule}")
    assert "Traceback" not in result.stderr


NOISY = {"--noise": "0.6", "--tokens-per-doc": "8"}  # some validation documents misrouted


@pytest.mark.parametrize(
    "override, corpus, source, threshold, flags",
    [
        (None, NOISY, "eer", None, ()),
        (None, {"--noise": "0.0"}, "eer-all-correct", "-inf", ()),
        # a threshold set by hand is not train's to write, but a file an older train wrote with one is read back
        (ACCEPT_ALL, NOISY, "accept-all", "-inf", ()),
        (float("inf"), NOISY, "manual", "inf", ()),
        # or is given to classify, whose flag wins over the file's threshold
        (None, NOISY, "eer", None, ("--threshold", "inf")),
    ],
)
def test_calibration_file_is_standard_json(tmp_path, capsys, override, corpus, source, threshold, flags):
    data = generate(tmp_path, **corpus)
    run = train_into(tmp_path, data)
    if override is not None:
        calibration, digest = loads_calibration((run / "calibration.json").read_text())
        legacy = replace(calibration, threshold=override, source=source)
        (run / "calibration.json").write_text(dumps_calibration(legacy, digest))
    payload = json.loads((run / "calibration.json").read_text(), parse_constant=refuse_json_constant)
    assert payload["source"] == source
    if threshold is None:
        assert isinstance(payload["threshold"], float)
    else:
        assert payload["threshold"] == threshold
    capsys.readouterr()
    assert run_cli(
        "classify",
        "--model", str(run / "model.json"),
        "--calibration", str(run / "calibration.json"),
        "--input", str(data / "corpus.tsv"),
        *flags,
    ) == 0
    verdicts = {line.split("\t")[3] for line in capsys.readouterr().out.splitlines()}
    expected = {"-inf": {"ACCEPT"}, "inf": {"REJECT"}, None: {"ACCEPT", "REJECT"}}[flags[-1] if flags else threshold]
    assert verdicts == expected


def command_inputs(tmp_path, command):
    """Valid input flags for ``command``; train writes to tmp_path/out, evaluate to tmp_path/report."""
    data = generate(tmp_path)
    run = train_into(tmp_path, data)
    return {
        "train": ["--taxonomy", str(data / "taxonomy.tsv"), "--corpus", str(data / "corpus.tsv"),
                  "--out-dir", str(tmp_path / "out")],
        "classify": ["--model", str(run / "model.json"), "--calibration", str(run / "calibration.json"),
                     "--input", str(data / "corpus.tsv")],
        "evaluate": ["--model", str(run / "model.json"), "--calibration", str(run / "calibration.json"),
                     "--corpus", str(data / "corpus.tsv"), "--val-fraction", "0.2", "--test-fraction", "0.3",
                     "--seed", "5", "--out-dir", str(tmp_path / "report")],
    }[command]


@pytest.mark.parametrize(
    "command, first_written", [("generate", "taxonomy.tsv"), ("train", "model.json"), ("evaluate", "summary.csv")]
)
def test_unwritable_out_dir_is_a_one_line_error(tmp_path, command, first_written):
    inputs = ["--depth", "1", "--branching", "2"] if command == "generate" else command_inputs(tmp_path, command)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    out = blocker / "out"
    # the last --out-dir given wins
    result = run_subprocess(command, *inputs, "--out-dir", str(out))
    assert_one_line_error(result, f"cannot write {out / first_written}: ")
    assert "Traceback" not in result.stderr


def test_non_utf8_input_is_a_one_line_error_naming_the_file(tmp_path):
    data = generate(tmp_path)
    corpus = tmp_path / "latin1.tsv"
    corpus.write_bytes(b"d1\tA\tcaf\xe9\n")
    result = run_subprocess(
        "train", "--taxonomy", str(data / "taxonomy.tsv"), "--corpus", str(corpus), "--out-dir", str(tmp_path / "run")
    )
    assert_one_line_error(result, f"cannot read corpus file {corpus}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_nan_threshold_is_a_usage_error(tmp_path, command):
    inputs = command_inputs(tmp_path, command)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *inputs, "--threshold", "nan")
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "report").exists()


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_accept_all_with_threshold_is_a_usage_error(tmp_path, capsys, command):
    inputs = command_inputs(tmp_path, command)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *inputs, "--accept-all", "--threshold", "0.5")
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "report").exists()


def test_evaluate_threshold_is_the_calibration_with_that_threshold(tmp_path, capsys):
    data = generate(tmp_path, **NOISY)
    run = train_into(tmp_path, data)
    model, calibration_file, corpus = run / "model.json", run / "calibration.json", data / "corpus.tsv"
    capsys.readouterr()
    assert run_cli("classify", "--model", str(model), "--calibration", str(calibration_file), "--input", str(corpus)) == 0
    reliabilities = sorted({float(line.split("\t")[2]) for line in capsys.readouterr().out.splitlines()})
    threshold = reliabilities[len(reliabilities) // 2]
    calibration, digest = loads_calibration(calibration_file.read_text())
    assert calibration.threshold != threshold
    rewritten = tmp_path / "rewritten.json"
    rewritten.write_text(dumps_calibration(replace(calibration, threshold=threshold), digest))

    def evaluate(out, calibration_path, *flags):
        """stdout, summary.csv and comparison.csv of one evaluate run on the split train_into used."""
        report = tmp_path / out
        assert run_cli(
            "evaluate", "--model", str(model), "--calibration", str(calibration_path), "--corpus", str(corpus),
            "--val-fraction", "0.2", "--test-fraction", "0.3", "--seed", "5", *flags, "--out-dir", str(report),
        ) == 0
        return [capsys.readouterr().out] + [(report / name).read_text() for name in ("summary.csv", "comparison.csv")]

    def rejected(outputs):
        return int(next(csv.DictReader(outputs[1].splitlines()))["rejected"])

    by_flag = evaluate("flag", calibration_file, "--threshold", repr(threshold))
    assert by_flag == evaluate("file", rewritten)
    # some test documents accepted and some rejected
    assert 0 < rejected(by_flag) < rejected(evaluate("inf", rewritten, "--threshold", "inf"))


def test_accept_all_is_threshold_minus_inf(tmp_path, capsys):
    inputs = command_inputs(tmp_path, "evaluate")
    by_flag, by_value = tmp_path / "flag", tmp_path / "value"
    assert run_cli("evaluate", *inputs, "--accept-all", "--out-dir", str(by_flag)) == 0
    assert run_cli("evaluate", *inputs, "--threshold=-inf", "--out-dir", str(by_value)) == 0
    for name in ("summary.csv", "comparison.csv"):
        assert (by_flag / name).read_bytes() == (by_value / name).read_bytes()


@pytest.mark.parametrize("flags", [("--threshold", "0.5"), ("--accept-all",)])
def test_train_takes_no_threshold(tmp_path, capsys, flags):
    inputs = command_inputs(tmp_path, "train")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("train", *inputs, *flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
