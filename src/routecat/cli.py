"""Command-line pipeline: generate, train, classify, evaluate.

All randomness flows from explicit ``--seed`` flags, artifacts are plain
JSON/CSV files, and repeated runs with identical inputs produce
byte-identical outputs.  Diagnostics go to stderr; data goes to files and
stdout.

Each command imports only the modules it runs, so that start-up costs no
more than the command needs: ``generate`` loads the generator and
:mod:`routecat.prng` alone, ``classify`` no evaluation code.  A command's
flags are added to its parser only once the command is chosen, and the
library's error classes are imported only to match an error raised.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:
    from routecat.centroid import CentroidModel
    from routecat.router import Calibration
    from routecat.synthetic import SyntheticSpec


T = TypeVar("T")


class CliError(Exception):
    """User-facing command failure; the message is printed to stderr."""


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc


def _write_text(path: Path, content: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _reader(convert: Callable[[str], T], kind: str, rule: str, holds: Callable[[T], bool]) -> Callable[[str], T]:
    """An argparse ``type`` that converts a flag's value and checks it: ``not <kind>`` or ``<rule>`` on failure."""

    def read(value: str) -> T:
        try:
            x = convert(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not {kind}: {value!r}") from exc
        if not holds(x):
            raise argparse.ArgumentTypeError(f"{rule}: {value}")
        return x

    return read


fraction = _reader(float, "a number", "fraction must lie in [0, 1)", lambda f: 0.0 <= f < 1.0)
_threshold = _reader(float, "a number", "threshold must not be NaN", lambda f: not math.isnan(f))
positive_int = _reader(int, "an integer", "must be >= 1", lambda n: n >= 1)
_seed = _reader(int, "an integer", "seed must lie in 0..2**64-1", lambda n: 0 <= n < 2**64)


def _format_errors() -> tuple[type[Exception], ...]:
    """The library's errors for malformed input, imported only when an ``except`` clause tests a raised error."""
    from routecat.centroid import ModelFormatError
    from routecat.corpus import CorpusError
    from routecat.router import CalibrationError
    from routecat.taxonomy import TaxonomyError

    return TaxonomyError, CorpusError, ModelFormatError, CalibrationError


def _load(path: Path, what: str, parse: Callable[[str], T]) -> T:
    """Parse a file, prefixing any format error with the file's path."""
    try:
        return parse(_read_text(path, what))
    except _format_errors() as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_model_and_calibration(args: argparse.Namespace) -> tuple[CentroidModel, Calibration]:
    """Load ``--model`` and its paired ``--calibration``, then apply ``--threshold``/``--accept-all`` if given."""
    from routecat.centroid import loads_model
    from routecat.router import check_pairing, loads_calibration

    model = _load(Path(args.model), "model", loads_model)

    def paired(text: str) -> Calibration:
        calibration, digest = loads_calibration(text)
        check_pairing(model, calibration, digest)
        return calibration

    calibration = _load(Path(args.calibration), "calibration", paired)
    return model, calibration if args.threshold is None else replace(calibration, threshold=args.threshold)


def _add_threshold_flags(p: argparse.ArgumentParser) -> None:
    """``--threshold`` and its short spelling ``--accept-all`` (``--threshold=-inf``); at most one of them."""
    from routecat.router import ACCEPT_ALL

    group = p.add_mutually_exclusive_group()
    group.add_argument("--threshold", type=_threshold, default=None, help="use this threshold, not the calibrated one")
    group.add_argument(
        "--accept-all", dest="threshold", action="store_const", const=ACCEPT_ALL,
        help="same as --threshold=-inf: accept everything",
    )


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    """The flags that fix the corpus split; ``evaluate`` must be given the values ``train`` was given."""
    p.add_argument("--val-fraction", type=fraction, default=0.2)
    p.add_argument("--test-fraction", type=fraction, default=0.2)
    p.add_argument("--seed", type=_seed, default=0)


def add_corpus_flags(p: argparse.ArgumentParser) -> None:
    """``generate``'s flags for the shape of a synthetic corpus, with its defaults; :func:`corpus_spec` reads them."""
    p.add_argument("--depth", type=positive_int, default=2)
    p.add_argument("--branching", type=positive_int, default=3)
    p.add_argument("--docs-per-leaf", type=positive_int, default=40)
    p.add_argument("--vocab-per-topic", type=positive_int, default=30)
    p.add_argument("--noise-vocab", type=positive_int, default=150)
    p.add_argument("--tokens-per-doc", type=positive_int, default=40)
    p.add_argument("--noise", type=fraction, default=0.0)


def corpus_spec(args: argparse.Namespace, seed: int) -> SyntheticSpec:
    """The synthetic corpus of the flags :func:`add_corpus_flags` added, generated under ``seed``."""
    from routecat.synthetic import SyntheticSpec

    return SyntheticSpec(
        depth=args.depth,
        branching=args.branching,
        docs_per_leaf=args.docs_per_leaf,
        vocab_per_topic=args.vocab_per_topic,
        noise_vocab_size=args.noise_vocab,
        noise_fraction=args.noise,
        tokens_per_doc=args.tokens_per_doc,
        seed=seed,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    from routecat.synthetic import generate_synthetic

    taxonomy_text, corpus_text = generate_synthetic(corpus_spec(args, args.seed))
    out = Path(args.out_dir)
    _write_text(out / "taxonomy.tsv", taxonomy_text)
    _write_text(out / "corpus.tsv", corpus_text)
    n_docs = corpus_text.count("\n")
    print(f"wrote {out / 'taxonomy.tsv'} and {out / 'corpus.tsv'} ({n_docs} documents)", file=sys.stderr)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from routecat.centroid import dumps_model, vocabulary_digest
    from routecat.corpus import load_corpus
    from routecat.evaluation import train_and_calibrate
    from routecat.policies import Mode, PolicyKind
    from routecat.router import dumps_calibration
    from routecat.taxonomy import parse_taxonomy

    taxonomy = _load(Path(args.taxonomy), "taxonomy", parse_taxonomy)
    docs = _load(Path(args.corpus), "corpus", lambda text: load_corpus(text, taxonomy))
    run = train_and_calibrate(
        taxonomy,
        docs,
        args.val_fraction,
        args.test_fraction,
        args.seed,
        mode=Mode(args.mode),
        policy=PolicyKind(args.policy) if args.policy else None,
    )
    calibration, out = run.calibration, Path(args.out_dir)
    _write_text(out / "model.json", dumps_model(run.model))
    _write_text(
        out / "calibration.json",
        dumps_calibration(calibration, vocabulary_digest(run.model.vocabulary)),
    )
    weights = " ".join(f"L{d}={w:.4f}" for d, w in sorted(calibration.level_weights.items()))
    print(
        f"trained on {len(run.split.train)} docs, calibrated on {len(run.split.validation)}: "
        f"{weights} threshold={calibration.threshold:.6f} gap={calibration.eer_gap:.6f} "
        f"source={calibration.source}",
        file=sys.stderr,
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from routecat.corpus import Document, vectorize
    from routecat.router import classify_with_reject
    from routecat.taxonomy import tsv_lines

    model, calibration = _load_model_and_calibration(args)
    text = _read_text(Path(args.input), "input")
    for lineno, _, parts in tsv_lines(text):
        if len(parts) not in (2, 3) or not parts[0]:
            raise CliError(f"{args.input}: line {lineno}: expected doc_id<TAB>[label<TAB>]text")
        doc_id, body = parts[0], parts[-1]
        vec = vectorize(Document(doc_id=doc_id, label="", text=body), model.vocabulary)
        decision = classify_with_reject(model, calibration, vec)
        verdict = "ACCEPT" if decision.accepted else "REJECT"
        # one write per line: under PYTHONUNBUFFERED, print's separate newline is a second write(2)
        sys.stdout.write(f"{doc_id}\t{decision.leaf}\t{decision.reliability:.6f}\t{verdict}\n")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from routecat import evaluation
    from routecat.centroid import documents_digest
    from routecat.corpus import load_corpus, split_corpus

    model, calibration = _load_model_and_calibration(args)
    docs = _load(Path(args.corpus), "corpus", lambda text: load_corpus(text, model.taxonomy))
    split = split_corpus(docs, args.val_fraction, args.test_fraction, args.seed)
    if documents_digest(split.train) != model.training_digest:
        raise CliError(
            f"{args.corpus}: the model was not trained on this split's training part; "
            "give evaluate the corpus, --val-fraction, --test-fraction and --seed that train was given"
        )
    # the training parts agree, so a validation part of another size moves documents between validation and test
    if len(split.validation) != calibration.validation_size:
        raise CliError(
            f"{args.corpus}: the calibration was computed on {calibration.validation_size} validation documents, "
            f"not on this split's {len(split.validation)}; give evaluate the --val-fraction, --test-fraction "
            "and --seed that train was given"
        )
    summary_rows, comparison_rows = evaluation.report_rows(args.problem, model, calibration, split)
    out = Path(args.out_dir)
    _write_text(out / "summary.csv", evaluation.summary_csv(summary_rows))
    _write_text(out / "comparison.csv", evaluation.comparison_csv(comparison_rows))
    print(evaluation.render_report(summary_rows, comparison_rows), end="")
    return 0


def _generate_flags(p: argparse.ArgumentParser) -> None:
    add_corpus_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", required=True)


def _train_flags(p: argparse.ArgumentParser) -> None:
    from routecat.policies import Mode, PolicyKind

    p.add_argument("--taxonomy", required=True)
    p.add_argument("--corpus", required=True)
    _add_split_flags(p)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.POSITIVE_ONLY.value)
    p.add_argument("--policy", choices=[k.value for k in PolicyKind], default=None)
    p.add_argument("--out-dir", required=True)


def _classify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--input", required=True, help="doc_id<TAB>[label<TAB>]text lines")
    _add_threshold_flags(p)


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--corpus", required=True)
    _add_split_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--problem", default="synthetic", help="problem name for report rows")
    p.add_argument("--out-dir", required=True)


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which adds the command's flags the first time it parses.

    argparse hands the arguments after a command's name to that command's
    parser alone, so only the chosen command's flags are built.
    """

    def __init__(self, *args, add_flags: Callable[[argparse.ArgumentParser], None], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_flags: Callable[[argparse.ArgumentParser], None] | None = add_flags

    def parse_known_args(self, args=None, namespace=None):
        if self._add_flags is not None:
            add_flags, self._add_flags = self._add_flags, None
            add_flags(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routecat",
        description="Hierarchical text categorization with route-confidence accept/reject decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command, add_flags, summary in (
        ("generate", cmd_generate, _generate_flags, "write a seeded synthetic taxonomy and corpus"),
        ("train", cmd_train, _train_flags, "train centroids and calibrate the acceptance threshold"),
        ("classify", cmd_classify, _classify_flags, "label documents from a file, one decision per line"),
        ("evaluate", cmd_evaluate, _evaluate_flags, "score the held-out test split and write report CSVs"),
    ):
        sub.add_parser(name, help=summary, add_flags=add_flags).set_defaults(func=command)
    return parser


def run(command: Callable[[argparse.Namespace], int], args: argparse.Namespace) -> int:
    """``command(args)`` under the CLI's error policy; returns its exit status.

    A library error prints one ``error:`` line to stderr and gives status 1;
    a closed stdout (``routecat classify ... | head``) gives status 1 quietly.
    """
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe must fail here, not in the flush at exit
        return code
    except (CliError, *_format_errors(), ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout is gone; send what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.func, args)


if __name__ == "__main__":
    raise SystemExit(main())
