"""Measured passes through the routecat CLI, output checks, and the traced run.

One pass is a sequential closed loop, one command at a time:
``routecat generate`` for the corpus and for the traffic file, ``train``,
``evaluate``, ``classify`` on the unlabeled traffic, each in its own
subprocess, then the model is loaded in-process and one caller classifies
every traffic document ``CLASSIFY_ROUNDS`` times over, timing each.  An
untraced run repeats passes until ``--seconds`` is spent and summarizes
them (see :func:`summarize`).  Passes cycle through ``INPUT_SETS`` corpora
derived from the workload seed, so that a run's figures, ``coverage``
above all, do not hang on one validation split.  Before each command, and
before and after each in-process round, the benchmark times a fixed
reference loop (see :func:`reference_loop_s`), which gives the speed of
the machine during the run.

A traced run makes two such passes on the first input set.  Then it runs
the same commands in-process three times on the same inputs: untraced,
with the tracer's wrappers installed, and untraced again.  It reports
per-module numbers from the traced one.

Every command is one operation.  A non-zero exit, an output that fails a
check, an artifact whose sha256 differs from an earlier repeat, or a failed
workload guard makes it a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pipeline
from tracing import POLICY_STAGES, Tracer
from workloads import TEST_FRACTION, TRAFFIC_SEED_OFFSET, VAL_FRACTION, Workload

INPUT_SETS = 4
# one more pass than input sets, so at least one input set is repeated
MIN_PASSES = INPUT_SETS + 1
STARTUP_REPEATS = 5
# The reference loop: REFERENCE_LOOPS iterations of pure-Python integer
# arithmetic, which take REFERENCE_S seconds on a quiet 2-vCPU cloud VM.
REFERENCE_LOOPS = 400_000
REFERENCE_S = 0.04
# In-process rounds over the traffic per pass: a single round's percentiles
# swing by a factor of two on a busy machine, so each pass adds several.
CLASSIFY_ROUNDS = 3

# artifact -> the command that writes it, for blaming a determinism failure
ARTIFACTS = {
    "data/taxonomy.tsv": "generate-corpus",
    "data/corpus.tsv": "generate-corpus",
    "traffic/corpus.tsv": "generate-traffic",
    "model/model.json": "train",
    "model/calibration.json": "train",
    "report/summary.csv": "evaluate",
    "report/comparison.csv": "evaluate",
    "classify.out": "classify",
}


@dataclass
class Context:
    workload: Workload
    seed: int
    root: Path
    src: Path
    attempted: int = 0
    failed: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    reference_s: list[float] = field(default_factory=list)

    def corpus_seed(self, index: int) -> int:
        """Generator and split seed of pass ``index``."""
        return self.seed * INPUT_SETS + index % INPUT_SETS

    @property
    def work(self) -> Path:
        return self.root / ".perfbench_run" / self.workload.name

    def record(self, op: str, problems: list[str]) -> None:
        """Count one operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {op}: {problem}", file=sys.stderr)

    def check_hashes(self, base: Path, seed: int) -> dict[str, list[str]]:
        """sha256 each artifact; a hash differing from an earlier repeat on the same inputs is a problem."""
        problems: dict[str, list[str]] = {}
        for name in ARTIFACTS:
            digest = hashlib.sha256((base / name).read_bytes()).hexdigest()
            first = self.hashes.setdefault(f"seed{seed}/{name}", digest)
            if digest != first:
                problems.setdefault(ARTIFACTS[name], []).append(
                    f"{name} sha256 {digest[:12]} differs from the first repeat's {first[:12]}"
                )
        return problems


def reference_loop_s() -> float:
    """Seconds taken by a fixed loop of Python arithmetic that no routecat change can alter."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class Child:
    returncode: int
    wall_s: float
    peak_rss_mb: float


def run_child(ctx: Context, args: list[str], stdout: Path | None = None) -> Child:
    """Run ``python -<args>`` with the checkout's sources and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(ctx.src))
    out = open(stdout, "wb") if stdout is not None else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=subprocess.PIPE, env=env)
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        proc.stderr.close()
    finally:
        if stdout is not None:
            out.close()
    if proc.returncode != 0:
        print(stderr.decode("utf-8", "replace"), file=sys.stderr, end="")
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def routecat(ctx: Context, *args: str, stdout: Path | None = None) -> Child:
    ctx.reference_s.append(reference_loop_s())
    return run_child(ctx, ["-m", "routecat.cli", *args], stdout=stdout)


# -- output checks and workload guards ------------------------------------------


def exit_problems(child: Child) -> list[str]:
    return [] if child.returncode == 0 else [f"exit status {child.returncode}"]


def shape_guard(workload: Workload, data: Path) -> list[str]:
    """GUARD: the generated corpus has the workload's stated doc, node and leaf counts."""
    edges = [line.split("\t") for line in (data / "taxonomy.tsv").read_text(encoding="utf-8").splitlines()]
    parents = {parent for parent, _ in edges}
    nodes = len(edges)
    leaves = sum(1 for _, child in edges if child not in parents)
    docs = len((data / "corpus.tsv").read_text(encoding="utf-8").splitlines())
    got, want = (docs, nodes, leaves), (workload.docs, workload.nodes, workload.leaves)
    if got != want:
        return [f"GUARD: (docs, nodes, leaves) = {got}, the workload states {want}"]
    return []


def load_model(workload: Workload, model_dir: Path) -> tuple[list[str], float, tuple | None]:
    """model.json/calibration.json load back, digests agree, and the model is the workload's kind.

    Returns the problems, the seconds taken by loads_model/loads_calibration,
    and the loaded (model, calibration), or None if they do not load.
    """
    start = time.perf_counter()
    try:
        loaded = pipeline.load(model_dir)
    except Exception as exc:  # any load failure is a failed train, not a crash
        return [f"model/calibration do not load back: {type(exc).__name__}: {exc}"], 0.0, None
    load_s = time.perf_counter() - start
    model, calibration = loaded
    problems = []
    stored = json.loads((model_dir / "model.json").read_text(encoding="utf-8"))["vocabulary_digest"]
    calibration_digest = json.loads((model_dir / "calibration.json").read_text(encoding="utf-8"))[
        "vocabulary_digest"
    ]
    if stored != calibration_digest:
        problems.append("model.json and calibration.json carry different vocabulary digests")
    if calibration.source != "eer":
        problems.append(f"GUARD: calibration source is {calibration.source!r}, not 'eer'")
    if (model.negative_centroid_of is not None) != workload.binary:
        problems.append(f"GUARD: negative centroids present={model.negative_centroid_of is not None}")
    return problems, load_s, loaded


def report_problems(report: Path, n_test: int) -> list[str]:
    """summary.csv and comparison.csv parse, TR+FR = rejected, and every rate is in [0, 100]."""
    try:
        summary = list(csv.DictReader(io.StringIO((report / "summary.csv").read_text(encoding="utf-8"))))
        comparison = list(csv.DictReader(io.StringIO((report / "comparison.csv").read_text(encoding="utf-8"))))
        rejected, tr, fr = (int(summary[0][k]) for k in ("rejected", "TR", "FR"))
        boost = float(summary[0]["accuracy_boost"])
        rates = [float(comparison[0][k]) for k in ("flat", "LCN", "proposed")]
    except (OSError, LookupError, ValueError) as exc:
        return [f"report CSVs do not parse: {type(exc).__name__}: {exc}"]
    problems = []
    if len(summary) != 1 or len(comparison) != 1:
        problems.append("expected one row in each report CSV")
    if tr + fr != rejected or not 0 <= rejected <= n_test:
        problems.append(f"TR {tr} + FR {fr} != rejected {rejected} (of {n_test})")
    if not all(0.0 <= r <= 100.0 for r in rates) or not -100.0 <= boost <= 100.0:
        problems.append(f"rate out of [0, 100]: comparison {rates}, boost {boost}")
    return problems


def classify_problems(printed: list[str], expected: list[str]) -> list[str]:
    """Each printed line matches the in-process decision: id, order, leaf, verdict, reliability."""
    if len(printed) != len(expected):
        return [f"classify printed {len(printed)} lines for {len(expected)} documents"]
    for lineno, (got, want) in enumerate(zip(printed, expected), start=1):
        if got != want:
            return [f"line {lineno}: printed {got.rstrip()!r}, in-process {want.rstrip()!r}"]
    return []


# -- one measured pass ----------------------------------------------------------


def strip_labels(traffic_dir: Path, out: Path) -> tuple[list[tuple[str, str]], list[str]]:
    """Write ``doc_id<TAB>text`` lines; return the (doc_id, text) pairs and the held labels."""
    pairs, labels = [], []
    for line in (traffic_dir / "corpus.tsv").read_text(encoding="utf-8").splitlines():
        doc_id, label, text = line.split("\t")
        pairs.append((doc_id, text))
        labels.append(label)
    out.write_text("".join(f"{d}\t{t}\n" for d, t in pairs), encoding="utf-8", newline="\n")
    return pairs, labels


def run_pass(ctx: Context, index: int) -> tuple[dict[str, float], Path]:
    """One closed-loop pass; returns its end-to-end samples and its directory."""
    w, seed = ctx.workload, str(ctx.corpus_seed(index))
    d = ctx.work / f"pass{index}"
    shutil.rmtree(d, ignore_errors=True)
    split_flags = ["--val-fraction", str(VAL_FRACTION), "--test-fraction", str(TEST_FRACTION), "--seed", seed]
    model_flags = ["--model", str(d / "model/model.json"), "--calibration", str(d / "model/calibration.json")]

    traffic_seed = str(int(seed) + TRAFFIC_SEED_OFFSET)
    gen = routecat(ctx, "generate", *w.generate_flags(), "--seed", seed, "--out-dir", str(d / "data"))
    gen_traffic = routecat(
        ctx, "generate", *w.generate_flags(), "--seed", traffic_seed, "--out-dir", str(d / "traffic")
    )
    problems = {"generate-corpus": exit_problems(gen), "generate-traffic": exit_problems(gen_traffic)}
    if gen.returncode == 0:
        problems["generate-corpus"] += shape_guard(w, d / "data")
    if gen_traffic.returncode == 0:
        problems["generate-traffic"] += shape_guard(w, d / "traffic")
        traffic, labels = strip_labels(d / "traffic", d / "traffic.tsv")

    train = routecat(
        ctx, "train", "--taxonomy", str(d / "data/taxonomy.tsv"), "--corpus", str(d / "data/corpus.tsv"),
        *split_flags, *w.train_flags(), "--out-dir", str(d / "model"),
    )
    problems["train"] = exit_problems(train)
    load_s, loaded = 0.0, None
    if train.returncode == 0:
        found, load_s, loaded = load_model(w, d / "model")
        problems["train"] += found

    evaluate = routecat(
        ctx, "evaluate", *model_flags, "--corpus", str(d / "data/corpus.tsv"), *split_flags,
        "--out-dir", str(d / "report"),
    )
    problems["evaluate"] = exit_problems(evaluate)
    if evaluate.returncode == 0:
        problems["evaluate"] += report_problems(d / "report", int(TEST_FRACTION * w.docs))

    classify = routecat(
        ctx, "classify", *model_flags, "--input", str(d / "traffic.tsv"), stdout=d / "classify.out"
    )
    problems["classify"] = exit_problems(classify)

    samples = {
        "setup_s": gen.wall_s + gen_traffic.wall_s + load_s,
        "train_s": train.wall_s,
        "evaluate_s": evaluate.wall_s,
        "classify_s": classify.wall_s,
        "train_peak_rss_mb": train.peak_rss_mb,
        "classify_peak_rss_mb": classify.peak_rss_mb,
    }
    if not any(problems.values()):
        model, calibration = loaded
        printed = (d / "classify.out").read_text(encoding="utf-8").splitlines(keepends=True)
        p50s, p99s = [], []
        for _ in range(CLASSIFY_ROUNDS):
            before = reference_loop_s()
            expected, decisions, latencies = pipeline.classify_docs(model, calibration, traffic)
            after = reference_loop_s()
            ctx.reference_s += [before, after]
            problems["classify"] += classify_problems(printed, expected)
            latencies.sort()
            # p50 is scaled by the reference loop timed around its own round; see summarize
            p50s.append(2 * REFERENCE_S / (before + after) * 1000.0 * statistics.median(latencies))
            p99s.append(1000.0 * latencies[math.ceil(0.99 * len(latencies)) - 1])
        accepted = [(dec, label) for dec, label in zip(decisions, labels) if dec.accepted]
        if not 0 < len(accepted) < len(decisions):
            problems["classify"].append(
                f"GUARD: coverage {len(accepted)}/{len(decisions)} is not strictly between 0 and 1"
            )
        samples.update(
            classify_p50_ms=p50s,
            classify_p99_ms=p99s,
            traffic_docs=len(decisions),
            accepted=len(accepted),
            accepted_correct=sum(label in model.taxonomy.path(dec.leaf) for dec, label in accepted),
        )
        for op, found in ctx.check_hashes(d, int(seed)).items():
            problems[op] += found
    for op, found in problems.items():
        ctx.record(op, found)
    return samples, d


# -- traced run ------------------------------------------------------------------


def in_process(ctx: Context, tracer: Tracer, out: Path, inputs: Path) -> None:
    """The first pass's commands in-process, one top-level span each, on that pass's inputs."""
    w, seed = ctx.workload, ctx.corpus_seed(0)
    shutil.rmtree(out, ignore_errors=True)
    with tracer.span("cmd.generate"):
        pipeline.generate(w, seed, out / "data")
        pipeline.generate(w, seed + TRAFFIC_SEED_OFFSET, out / "traffic")
    with tracer.span("cmd.train"):
        pipeline.train(w, seed, inputs / "data", out / "model")
    with tracer.span("cmd.evaluate"):
        pipeline.evaluate(seed, inputs / "data", out / "model", out / "report")
    with tracer.span("cmd.classify"):
        pipeline.classify(out / "model", inputs / "traffic.tsv", out / "classify.out")


def check_in_process(ctx: Context, out: Path) -> None:
    """Each in-process command is an operation; its artifacts must hash as the CLI's did."""
    found = ctx.check_hashes(out, ctx.corpus_seed(0))
    for op in ("generate-corpus", "generate-traffic", "train", "evaluate", "classify"):
        ctx.record(f"in-process {op}", found.get(op, []))


def layer_metrics(
    ctx: Context, traced: Tracer, untraced: list[Tracer], cli: dict[str, float], startup: float, model_bytes: int
) -> dict[str, float]:
    """Per-module metrics; each untraced command time is the fastest of the untraced runs."""
    t = traced
    w = ctx.workload
    vectorize_calls, vectorize_s = t.hot("corpus.vectorize")
    fit_calls = sum(t.hot("corpus.vectorize", under=cmd)[0] for cmd in ("cmd.train", "cmd.evaluate"))
    dot_calls, dot_s = t.hot("corpus.dot")
    score_calls = t.hot("centroid.node_score")[0]
    decode_calls, decode_s = t.hot("router.decode")
    selects = t.outermost(POLICY_STAGES)
    n_test = int(TEST_FRACTION * w.docs)

    def untraced_s(cmd: str) -> float:
        return min(u.total(cmd) for u in untraced)

    def overhead(cmd: str) -> float:
        return cli[cmd] - untraced_s(f"cmd.{cmd}")

    commands = ("cmd.generate", "cmd.train", "cmd.evaluate", "cmd.classify")
    return {
        "corpus.load_s": t.total("corpus.load_corpus"),
        "corpus.vocab_s": t.total("corpus.build_vocabulary"),
        "corpus.vectorize_s": vectorize_s,
        "corpus.vectorize_calls": vectorize_calls,
        "corpus.vectorize_per_doc": fit_calls / w.docs,
        "corpus.dot_calls": dot_calls,
        "corpus.dot_s": dot_s,
        "taxonomy.relation_s": t.hot("taxonomy.relation")[1],
        "policies.select_s": t.self_total(POLICY_STAGES),
        "policies.select_calls": len(selects),
        "policies.docs_scanned": sum(s.docs for s in selects),
        "centroid.train_s": t.total("centroid.train"),
        "centroid.train_self_s": t.self_total({"centroid.train"}),
        "centroid.mean_vector_s": t.total("centroid.mean_vector"),
        "centroid.node_score_calls": score_calls,
        "centroid.dumps_s": t.total("centroid.dumps_model"),
        "centroid.loads_s": t.total("centroid.loads_model"),
        "centroid.model_bytes": model_bytes,
        "router.decode_s": decode_s,
        "router.decode_calls": decode_calls,
        "router.scores_per_decode": score_calls / decode_calls,
        "router.calibrate_s": t.total("router.build_calibration"),
        "router.eer_s": t.total("router.eer_threshold"),
        "evaluation.evaluate_s": t.total("evaluation.evaluate"),
        "evaluation.flat_s": t.total("evaluation.flat_baseline"),
        "evaluation.flat_dots_per_doc": t.hot("corpus.dot", under="evaluation.flat_baseline")[0] / n_test,
        "evaluation.generate_s": t.total("evaluation.generate_synthetic"),
        "cli.startup_s": startup,
        "cli.train_overhead_s": overhead("train"),
        "cli.evaluate_overhead_s": overhead("evaluate"),
        "cli.classify_overhead_s": overhead("classify"),
        "trace.overhead_s": sum(t.total(c) - untraced_s(c) for c in commands),
    }


def run_traced(ctx: Context) -> dict[str, float] | None:
    """Per-module metrics, or None when the CLI passes failed."""
    # Two CLI passes on the first input set; each command's faster one is
    # set against the faster of two untraced in-process runs.
    first, pass_dir = run_pass(ctx, 0)
    repeat, _ = run_pass(ctx, INPUT_SETS)
    if ctx.failed:
        return None
    cli = {cmd: min(first[f"{cmd}_s"], repeat[f"{cmd}_s"]) for cmd in ("train", "evaluate", "classify")}

    startups = []
    for _ in range(STARTUP_REPEATS):
        child = run_child(ctx, ["-c", "import routecat.cli"])
        ctx.record("cli-startup", exit_problems(child))
        startups.append(child.wall_s)

    # Untraced runs on both sides of the traced one, so that a first-run cost
    # or a burst of interference does not land in the overheads.
    untraced = [Tracer(), Tracer()]
    traced = Tracer()
    for tracer in (untraced[0], traced, untraced[1]):
        out = ctx.work / ("traced" if tracer is traced else "in-process")
        with traced.installed() if tracer is traced else contextlib.nullcontext():
            in_process(ctx, tracer, out, pass_dir)
        check_in_process(ctx, out)

    builds = traced.count("policies.build_training_set")
    ctx.record("traced train", [] if (builds > 0) == ctx.workload.binary else [
        f"GUARD: {builds} build_training_set calls; binary mode must make them and no other workload may"
    ])
    model_bytes = (pass_dir / "model/model.json").stat().st_size
    return layer_metrics(ctx, traced, untraced, cli, statistics.median(startups), model_bytes)


# -- driver ------------------------------------------------------------------------


def summarize(runs: list[dict[str, float]], reference_s: list[float]) -> dict[str, float]:
    """End-to-end metrics from the passes of an untraced run.

    Other tenants of a shared machine slow its CPUs by up to a factor of
    two, for seconds or minutes at a time, so a run's raw times depend on
    when it ran.  The reference loop runs between the commands and is
    slowed alike; no routecat change can alter it.  Each time metric is
    therefore the mean over the run of that time, multiplied by
    ``REFERENCE_S / mean(reference_s)``: the time the work would take on a
    machine that runs the reference loop in ``REFERENCE_S``.  Means, not
    medians, so that the work and the reference loop are averaged over the
    same slow and fast spells.

    The latency metrics come from the in-process rounds.  A round's p50 is
    set by its bulk, which runs as fast as the reference loop timed just
    before and after that round, so ``classify_p50_ms`` is the mean of the
    rounds' p50s, each scaled by its own reference loops.  A round's p99
    rests on its 15 to 36 slowest documents, and one burst of preemption
    can multiply it, so ``classify_p99_ms`` is the median of the rounds'
    p99s, scaled like the command times.  Memory is a median.
    Accuracy and coverage are pooled over the first pass on each input
    set, which makes them exact for a commit and seed.
    """
    scale = REFERENCE_S / statistics.mean(reference_s)

    def mean(name: str) -> float:
        return statistics.mean(r[name] for r in runs)

    def median(name: str) -> float:
        return statistics.median(r[name] for r in runs)

    def rounds(name: str) -> list[float]:
        return [x for r in runs for x in r[name]]

    first = runs[:INPUT_SETS]
    accepted = sum(r["accepted"] for r in first)
    traffic = runs[0]["traffic_docs"]
    print(f"reference loop mean {statistics.mean(reference_s):.5f} s over {len(reference_s)} samples "
          f"(scale {scale:.3f}); {len(runs)} x {CLASSIFY_ROUNDS} rounds of {traffic} "
          f"latency samples, {traffic - math.ceil(0.99 * traffic)} above each round's p99", file=sys.stderr)
    return {
        "setup_s": scale * mean("setup_s"),
        "train_s": scale * mean("train_s"),
        "evaluate_s": scale * mean("evaluate_s"),
        "classify_docs_per_s": traffic / (scale * mean("classify_s")),
        "classify_p50_ms": statistics.mean(rounds("classify_p50_ms")),
        "classify_p99_ms": scale * statistics.median(rounds("classify_p99_ms")),
        "train_peak_rss_mb": median("train_peak_rss_mb"),
        "classify_peak_rss_mb": median("classify_peak_rss_mb"),
        "accepted_accuracy": sum(r["accepted_correct"] for r in first) / accepted,
        "coverage": accepted / sum(r["traffic_docs"] for r in first),
    }


def run(ctx: Context, seconds: float, traced: bool) -> int:
    """Measure, print the report and the result line; the exit status is 0 iff correct."""
    section = "per_layer" if traced else "end_to_end"
    spec = json.loads((ctx.root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    shutil.rmtree(ctx.work, ignore_errors=True)
    started = time.perf_counter()
    passes: list[dict[str, float]] = []
    if traced:
        metrics = run_traced(ctx)
    else:
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(ctx, len(passes))[0])
            last = time.perf_counter() - pass_start
            if len(passes) >= MIN_PASSES and time.perf_counter() - started + last > seconds:
                break
        metrics = None if ctx.failed else summarize(passes, ctx.reference_s)
    if metrics is None:
        metrics = dict.fromkeys(units)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"the benchmark computes {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")

    correct = ctx.failed == 0 and all(v is not None and math.isfinite(v) for v in metrics.values())
    wall = time.perf_counter() - started
    print(f"{ctx.workload.name} seed={ctx.seed} trace={int(traced)} wall={wall:.1f}s passes={len(passes)} "
          f"operations attempted={ctx.attempted} failed={ctx.failed}", file=sys.stderr)
    for name, value in metrics.items():
        shown = "-" if value is None else format(value, ".6g")
        print(f"  {name:<30} {shown:>14} {units[name]}", file=sys.stderr)
    record = {
        "workload": ctx.workload.name, "seed": ctx.seed, "trace": int(traced), "passes": passes,
        "attempted": ctx.attempted, "failed": ctx.failed, "metrics": metrics, "sha256": ctx.hashes,
        "reference_s": ctx.reference_s,
    }
    results = ctx.root / ".perfbench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{ctx.workload.name}-seed{ctx.seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1
