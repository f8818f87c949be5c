import base64
import csv
import json
import os
import subprocess
import struct
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import (
    NOISY,
    ROOT,
    SCRIPTS,
    cli,
    entries,
    generate_corpus,
    packed_centroid,
    refuse_json_constant,
    train_corpus,
)
from routecat.centroid import dumps_model, loads_model, train, vocabulary_digest
from routecat.corpus import Document, build_vocabulary, load_corpus, vectorize
from routecat.evaluation import comparison_csv, report_rows, summary_csv, train_and_calibrate
from routecat.router import ACCEPT_ALL, build_calibration, decode, dumps_calibration, loads_calibration, reliability
from routecat.taxonomy import parse_taxonomy

# `python -m routecat.cli` in a child process imports the routecat under test, installed or not
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_full_pipeline(trained, tmp_path):
    assert trained.model.exists() and trained.calibration.exists()
    assert "threshold=" in trained.train_err and "L1=" in trained.train_err

    status, out, _ = cli(*trained.classify)
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 180
    for line in lines[:10]:
        doc_id, leaf, rel, verdict = line.split("\t")
        float(rel)
        assert len(rel.split(".")[1]) == 6
        assert verdict in ("ACCEPT", "REJECT")

    report = tmp_path / "report"
    status, out, _ = cli(*trained.evaluate, "--problem", "demo", "--out-dir", report)
    assert status == 0
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


def test_train_missing_corpus(trained, tmp_path):
    status, _, err = cli(*trained._replace(corpus=tmp_path / "nope.tsv").train, "--out-dir", tmp_path / "run")
    assert status == 1
    assert "nope.tsv" in err


def test_classify_rejects_at_exact_threshold(trained, tmp_path):
    single = tmp_path / "one.tsv"
    first = trained.corpus.read_text().splitlines()[0]
    single.write_text(first + "\n")

    # compute the document's exact reliability and use it verbatim as the threshold
    model = loads_model(trained.model.read_text())
    calibration, _ = loads_calibration(trained.calibration.read_text())
    doc_id, label, body = first.split("\t")
    steps = decode(model, vectorize(Document(doc_id, label, body), model.vocabulary))
    exact = reliability(steps, calibration.level_weights)

    status, out, _ = cli(*trained._replace(corpus=single).classify, "--threshold", repr(exact))
    assert status == 0
    assert out.strip().splitlines()[-1].endswith("REJECT")


def test_classify_empty_input(trained, tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert cli(*trained._replace(corpus=empty).classify)[:2] == (0, "")


def test_classify_refuses_an_empty_doc_id(trained, tmp_path):
    # "\tw0x1 w0x2" printed "\tc0\t1.000000\tACCEPT" with status 0; load_corpus refuses an empty doc_id as well
    body = trained.corpus.read_text().splitlines()[0].split("\t")[2]
    queries = tmp_path / "queries.tsv"
    queries.write_text(f"q1\t{body}\n\t{body}\nq3\t{body}\n")
    status, out, err = cli(*trained._replace(corpus=queries).classify)
    assert status == 1
    assert out.startswith("q1\t") and out.count("\n") == 1
    assert err == f"error: {queries}: line 2: expected doc_id<TAB>[label<TAB>]text\n"


def test_classify_keeps_unicode_line_separators_in_text(trained, tmp_path):
    doc = tmp_path / "doc.tsv"
    doc.write_text("q1\tfirst part\u2028second part\n", encoding="utf-8")
    status, out, _ = cli(*trained._replace(corpus=doc).classify)
    assert status == 0
    assert out.startswith("q1\t") and out.count("\n") == 1


def test_crlf_inputs_read_like_lf(trained, tmp_path):
    for path in (trained.taxonomy, trained.corpus):
        (tmp_path / path.name).write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    crlf = train_corpus(tmp_path, tmp_path / "run")
    assert crlf.model.read_bytes() == trained.model.read_bytes()
    lf = cli(*trained.classify)
    assert lf[0] == 0 and cli(*crlf.classify) == lf


def test_inputs_with_a_byte_order_mark_read_like_plain(trained, tmp_path):
    for path in (trained.taxonomy, trained.corpus):
        (tmp_path / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    bom = train_corpus(tmp_path, tmp_path / "run")
    assert bom.model.read_bytes() == trained.model.read_bytes()
    plain = cli(*trained.classify)
    assert plain[0] == 0 and cli(*bom.classify) == plain


def test_mismatched_calibration_rejected(trained, tmp_path):
    other = train_corpus(generate_corpus(tmp_path / "data", "--branching", "2"), tmp_path / "run")
    status, _, err = cli(*trained._replace(calibration=other.calibration).classify)
    assert status == 1
    assert "vocabulary mismatch" in err


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_calibration_of_another_model_on_the_same_split_is_refused(noisy, noisy_binary, tmp_path, command):
    # both models share the training split, so the vocabulary digest cannot tell them apart
    assert json.loads(noisy.calibration.read_text())["vocabulary_digest"] == json.loads(
        noisy_binary.calibration.read_text()
    )["vocabulary_digest"]
    paired = noisy_binary._replace(calibration=noisy.calibration)
    argv = paired.classify if command == "classify" else (*paired.evaluate, "--out-dir", tmp_path / "report")
    status, out, err = cli(*argv)
    assert (status, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert "model mismatch" in err
    assert not (tmp_path / "report").exists()


def test_calibration_lacking_a_depth_is_refused_before_any_decision(tmp_path):
    # leaf A sits at depth 1, so a document routed there needs no depth-2 weight
    (tmp_path / "taxonomy.tsv").write_text("R\tA\nR\tB\nB\tB1\nB\tB2\n")
    topics = {"A": "alpha apple", "B1": "beta bee", "B2": "beta bird"}
    (tmp_path / "corpus.tsv").write_text(
        "".join(f"{label}{i}\t{label}\t{text} w{i}\n" for i in range(10) for label, text in topics.items())
    )
    run = train_corpus(tmp_path, tmp_path / "run")
    payload = json.loads(run.calibration.read_text())
    del payload["level_weights"][1]
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(payload))
    status, out, err = cli(*run._replace(calibration=stale).classify)
    assert (status, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert "level weights are calibrated to depth 1, the taxonomy's depth is 2" in err


@pytest.mark.parametrize("old", [1, 2])
def test_calibration_of_an_older_format_is_refused(trained, tmp_path, old):
    calibration = tmp_path / "calibration.json"
    calibration.write_text(trained.calibration.read_text().replace('"format_version":3', f'"format_version":{old}'))
    expected = f"error: {calibration}: unsupported calibration format version {old}, expected 3\n"
    assert cli(*trained._replace(calibration=calibration).classify) == (1, "", expected)


@pytest.mark.parametrize("old", [2, 3])
@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_model_of_an_older_format_is_refused(trained, tmp_path, command, old):
    model = tmp_path / "model.json"
    model.write_text(trained.model.read_text().replace('"format_version":4', f'"format_version":{old}'))
    edited = trained._replace(model=model)
    argv = edited.classify if command == "classify" else (*edited.evaluate, "--out-dir", tmp_path / "report")
    assert cli(*argv) == (1, "", f"error: {model}: unsupported model format version {old}, expected 4\n")


def test_classify_hashes_the_vocabulary_once(trained, monkeypatch):
    from routecat import corpus

    hashed = []

    def counting_sha256(*args):
        hashed.append(args)
        return corpus_hashlib.sha256(*args)

    corpus_hashlib = corpus.hashlib
    monkeypatch.setattr(corpus, "hashlib", SimpleNamespace(sha256=counting_sha256))
    assert cli(*trained.classify)[0] == 0
    # loads_model checks the stored digest and the calibration pairing reuses it
    assert len(hashed) == 1


def test_generate_bad_noise_is_usage_error(tmp_path):
    assert cli("generate", "--noise", "1.5", "--out-dir", tmp_path / "x")[0] == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--policy", "siblings"), "policy 'siblings' applies only in binary mode"),
        (("--mode", "binary"), "binary mode requires a training policy"),
    ],
)
def test_train_refuses_policy_and_mode_mismatch(trained, tmp_path, flags, message):
    status, _, err = cli(*trained.train, "--out-dir", tmp_path / "run", *flags)
    assert status == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_classify_refuses_a_model_with_a_negative_weight(tmp_path):
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
    status, out, err = cli(
        "classify", "--model", tmp_path / "model.json", "--calibration", tmp_path / "calibration.json",
        "--input", tmp_path / "input.tsv",
    )
    assert status == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "centroid of 'B'" in err and "negative" in err


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
def test_evaluate_refuses_a_split_the_model_was_not_trained_on(trained, tmp_path, split, corpus_seed, message):
    # the shared corpus is the one of seed 5
    corpus = trained.corpus
    if corpus_seed != "5":
        corpus = generate_corpus(tmp_path / "data", "--seed", corpus_seed) / "corpus.tsv"
    # the last value given of a flag wins, so ``split`` overrides the split train was given
    status, out, err = cli(*trained._replace(corpus=corpus).evaluate, *split, "--out-dir", tmp_path / "report")
    assert status == 1
    assert out == "" and not (tmp_path / "report").exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_accept_all_evaluate_has_zero_boost(trained, tmp_path):
    report = tmp_path / "report"
    assert cli(*trained.evaluate, "--accept-all", "--out-dir", report)[0] == 0
    line = (report / "summary.csv").read_text().splitlines()[1]
    assert line.endswith(",0.0")
    assert line.split(",")[1] == "0"


@pytest.mark.parametrize("problem", ["news, wire", '"wire" news', "news\nwire", "news\rwire"])
def test_report_csvs_quote_the_problem_name(trained, tmp_path, problem):
    report = tmp_path / "report"
    assert cli(*trained.evaluate, "--problem", problem, "--out-dir", report)[0] == 0
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


def test_closed_stdout_pipe_ends_without_traceback(trained, tmp_path):
    texts = [line.split("\t")[2] for line in trained.corpus.read_text().splitlines()]
    many = tmp_path / "many.tsv"
    # 7,200 decisions of at least 20 bytes: far more than a 64 KiB pipe plus the reader's buffer
    many.write_text("".join(f"q{i}\t{text}\n" for i, text in enumerate(texts * 40)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "routecat.cli", *map(str, trained._replace(corpus=many).classify)],
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


def test_cli_uses_the_shared_pipeline(trained, tmp_path):
    report = tmp_path / "report"
    assert cli(*trained.evaluate, "--problem", "demo", "--out-dir", report)[0] == 0

    taxonomy = parse_taxonomy(trained.taxonomy.read_text())
    docs = load_corpus(trained.corpus.read_text(), taxonomy)
    lib = train_and_calibrate(taxonomy, docs, 0.2, 0.3, 5)
    summary_rows, comparison_rows = report_rows("demo", lib.model, lib.calibration, lib.split)
    assert trained.model.read_bytes() == dumps_model(lib.model).encode()
    assert trained.calibration.read_bytes() == dumps_calibration(
        lib.calibration, vocabulary_digest(lib.model.vocabulary)
    ).encode()
    assert (report / "summary.csv").read_bytes() == summary_csv(summary_rows).encode()
    assert (report / "comparison.csv").read_bytes() == comparison_csv(comparison_rows).encode()


def test_jobs_flag_is_a_usage_error(trained, tmp_path):
    assert cli(*trained.train, "--jobs", "2", "--out-dir", tmp_path / "run")[0] == 2


@pytest.mark.parametrize("bad", ["model", "calibration"])
def test_malformed_artifact_is_a_one_line_error(trained, tmp_path, bad):
    artifact = tmp_path / f"bad-{bad}.json"
    version = {"model": 4, "calibration": 3}[bad]
    artifact.write_text(f'{{"format":"routecat-{bad}","format_version":{version}}}')
    status, out, err = cli(*trained._replace(**{bad: artifact}).classify)
    assert (status, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert "has no field" in err


@pytest.mark.parametrize("bad", ["model", "calibration"])
def test_json_nested_too_deep_is_a_one_line_error_naming_the_file(trained, tmp_path, bad):
    artifact = tmp_path / f"{bad}.json"
    artifact.write_text("[" * 200_000)  # json.loads raised RecursionError
    status, out, err = cli(*trained._replace(**{bad: artifact}).classify)
    assert (status, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert f"{artifact}: {bad} file is not valid JSON: " in err
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="integers of any length parse")
def test_json_number_of_too_many_digits_is_a_one_line_error_naming_the_file(trained, tmp_path):
    calibration = tmp_path / "calibration.json"
    text = trained.calibration.read_text()
    size = json.loads(text)["validation_size"]
    calibration.write_text(text.replace(f'"validation_size":{size}', '"validation_size":' + "9" * 5000))
    status, out, err = cli(*trained._replace(calibration=calibration).classify)
    # json.loads refuses the 5,000-digit integer with a ValueError, which was printed without the file's path
    assert (status, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert f"{calibration}: calibration file is not valid JSON: " in err


def test_classify_refuses_a_model_weight_above_one(trained, tmp_path):
    model = tmp_path / "model.json"
    payload = json.loads(trained.model.read_text())
    indices = payload["centroids"]["c0"][0]
    n = len(base64.b64decode(indices)) // 4
    # identity and digests still pair the model with its calibration; classify overflowed in the exact sums
    payload["centroids"]["c0"] = [indices, base64.b64encode(struct.pack(f"<{n}d", *[1.7e308] * n)).decode("ascii")]
    model.write_text(json.dumps(payload))
    status, out, err = cli(*trained._replace(model=model).classify)
    assert (status, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert f"{model}: malformed model file: centroid of 'c0': weight 1.7e+308 of term " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "99999999999999999999999"])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, command, seed):
    # seeds equal modulo 2**64 gave the same corpus and split; parsing stops before any file is read
    files = {
        "generate": [],
        "train": ["--taxonomy", "t.tsv", "--corpus", "c.tsv"],
        "evaluate": ["--model", "m.json", "--calibration", "c.json", "--corpus", "c.tsv"],
    }[command]
    status, _, err = cli(command, *files, "--seed", seed, "--out-dir", tmp_path / "out")
    assert status == 2
    assert f"seed must lie in 0..2**64-1: {seed}" in err
    assert not (tmp_path / "out").exists()


def test_largest_seed_is_accepted(tmp_path):
    seed = str(2**64 - 1)
    train_corpus(generate_corpus(tmp_path / "data", "--seed", seed), tmp_path / "run", "--seed", seed)


@pytest.mark.parametrize("command", ["classify", "evaluate"])
@pytest.mark.parametrize("field", ["doc_frequency", "n_docs"])
def test_model_with_an_impossible_document_count_is_a_one_line_error(trained, tmp_path, command, field):
    model = tmp_path / "model.json"
    payload = json.loads(trained.model.read_text())
    vocab = payload["vocabulary"]
    if field == "n_docs":
        vocab["n_docs"] = -1  # idf raised "math domain error", naming no file
        rule = "n_docs must be at least 1, not -1"
    else:
        vocab["doc_frequency"][0] = -1  # idf divided by df + 1 = 0 and ended in a traceback
        rule = f"document frequency -1 of {vocab['terms'][0]!r} lies outside 1.."
    # the stored digests are left as they are: Vocabulary refuses the edit before the loader compares them
    model.write_text(json.dumps(payload))
    edited = trained._replace(model=model)
    argv = edited.classify if command == "classify" else (*edited.evaluate, "--out-dir", tmp_path / "report")
    status, out, err = cli(*argv)
    assert (status, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert f"{model}: malformed model file: {rule}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "override, corpus, source, threshold, flags",
    [
        (None, NOISY, "eer", None, ()),
        (None, ("--noise", "0.0"), "eer-all-correct", "-inf", ()),
        # a threshold set by hand is not train's to write, but a calibration file that holds one is read back
        (ACCEPT_ALL, NOISY, "accept-all", "-inf", ()),
        (float("inf"), NOISY, "manual", "inf", ()),
        # or is given to classify, whose flag wins over the file's threshold
        (None, NOISY, "eer", None, ("--threshold", "inf")),
    ],
)
def test_calibration_file_is_standard_json(noisy, tmp_path, override, corpus, source, threshold, flags):
    run = noisy if corpus == NOISY else train_corpus(generate_corpus(tmp_path / "data", *corpus), tmp_path / "run")
    if override is not None:
        calibration, digest = loads_calibration(run.calibration.read_text())
        run = run._replace(calibration=tmp_path / "calibration.json")
        run.calibration.write_text(dumps_calibration(replace(calibration, threshold=override, source=source), digest))
    payload = json.loads(run.calibration.read_text(), parse_constant=refuse_json_constant)
    assert payload["source"] == source
    if threshold is None:
        assert isinstance(payload["threshold"], float)
    else:
        assert payload["threshold"] == threshold
    status, out, _ = cli(*run.classify, *flags)
    assert status == 0
    verdicts = {line.split("\t")[3] for line in out.splitlines()}
    expected = {"-inf": {"ACCEPT"}, "inf": {"REJECT"}, None: {"ACCEPT", "REJECT"}}[flags[-1] if flags else threshold]
    assert verdicts == expected


@pytest.mark.parametrize(
    "command, first_written", [("generate", "taxonomy.tsv"), ("train", "model.json"), ("evaluate", "summary.csv")]
)
def test_unwritable_out_dir_is_a_one_line_error(trained, tmp_path, command, first_written):
    inputs = {
        "generate": ("generate", "--depth", "1", "--branching", "2"),
        "train": (*trained.train, "--out-dir", tmp_path / "run"),
        "evaluate": (*trained.evaluate, "--out-dir", tmp_path / "report"),
    }[command]
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    out = blocker / "out"
    # the last --out-dir given wins
    status, stdout, err = cli(*inputs, "--out-dir", out)
    assert (status, stdout) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert f"cannot write {out / first_written}: " in err
    assert "Traceback" not in err


def test_non_utf8_input_is_a_one_line_error_naming_the_file(trained, tmp_path):
    corpus = tmp_path / "latin1.tsv"
    corpus.write_bytes(b"d1\tA\tcaf\xe9\n")
    status, out, err = cli(*trained._replace(corpus=corpus).train, "--out-dir", tmp_path / "run")
    assert (status, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert f"cannot read corpus file {corpus}: 'utf-8' codec can't decode" in err


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_nan_threshold_is_a_usage_error(trained, tmp_path, command):
    argv = trained.classify if command == "classify" else (*trained.evaluate, "--out-dir", tmp_path / "report")
    assert cli(*argv, "--threshold", "nan")[0] == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "report").exists()


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_accept_all_with_threshold_is_a_usage_error(trained, tmp_path, command):
    argv = trained.classify if command == "classify" else (*trained.evaluate, "--out-dir", tmp_path / "report")
    status, _, err = cli(*argv, "--accept-all", "--threshold", "0.5")
    assert status == 2
    assert "not allowed with argument" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "report").exists()


def test_evaluate_threshold_is_the_calibration_with_that_threshold(noisy, tmp_path):
    status, out, _ = cli(*noisy.classify)
    assert status == 0
    reliabilities = sorted({float(line.split("\t")[2]) for line in out.splitlines()})
    threshold = reliabilities[len(reliabilities) // 2]
    calibration, digest = loads_calibration(noisy.calibration.read_text())
    assert calibration.threshold != threshold
    rewritten = noisy._replace(calibration=tmp_path / "rewritten.json")
    rewritten.calibration.write_text(dumps_calibration(replace(calibration, threshold=threshold), digest))

    def evaluate(out, run, *flags):
        """stdout, summary.csv and comparison.csv of one evaluate run on the split the model was trained on."""
        report = tmp_path / out
        status, stdout, _ = cli(*run.evaluate, *flags, "--out-dir", report)
        assert status == 0
        return [stdout] + [(report / name).read_text() for name in ("summary.csv", "comparison.csv")]

    def rejected(outputs):
        return int(next(csv.DictReader(outputs[1].splitlines()))["rejected"])

    by_flag = evaluate("flag", noisy, "--threshold", repr(threshold))
    assert by_flag == evaluate("file", rewritten)
    # some test documents accepted and some rejected
    assert 0 < rejected(by_flag) < rejected(evaluate("inf", rewritten, "--threshold", "inf"))


def test_accept_all_is_threshold_minus_inf(trained, tmp_path):
    by_flag, by_value = tmp_path / "flag", tmp_path / "value"
    assert cli(*trained.evaluate, "--accept-all", "--out-dir", by_flag)[0] == 0
    assert cli(*trained.evaluate, "--threshold=-inf", "--out-dir", by_value)[0] == 0
    for name in ("summary.csv", "comparison.csv"):
        assert (by_flag / name).read_bytes() == (by_value / name).read_bytes()


@pytest.mark.parametrize("flags", [("--threshold", "0.5"), ("--accept-all",)])
def test_train_takes_no_threshold(trained, tmp_path, flags):
    status, _, err = cli(*trained.train, "--out-dir", tmp_path / "out", *flags)
    assert status == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert not (tmp_path / "out").exists()
