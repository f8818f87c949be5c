"""Top-down route decoding, confidence scoring, calibration, and accept/reject.

Decoding walks the taxonomy from the root's children to a leaf, always
taking the highest-scoring node of the current sibling group (ties go to
the earlier child).  Each step's confidence is the chosen score divided by
the whole group's score mass.  A validation pass measures per-level
recognition rates, which weight the step confidences into a single
reliability value; documents are accepted only when reliability exceeds
the calibrated threshold.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from routecat.centroid import (
    CentroidModel,
    checked_int,
    dumps_artifact,
    group_scores,
    loads_artifact,
    model_identity,
    vocabulary_digest,
)
from routecat.corpus import Document, SparseVector, vectorize
from routecat.taxonomy import NodeId

CALIBRATION_FORMAT_VERSION = 2

#: Threshold sentinel that accepts every document (reliability > -inf always).
ACCEPT_ALL = float("-inf")


class CalibrationError(Exception):
    """Calibration data missing, malformed, or inconsistent with the model."""


class EerUndefinedError(CalibrationError):
    """Equal error rate needs at least one correct and one incorrect sample."""


@dataclass(frozen=True)
class LevelStep:
    """One routing decision: the chosen node, its sibling group's scores, and its confidence."""

    chosen: NodeId
    group_scores: Mapping[NodeId, float]
    confidence: float


@dataclass(frozen=True)
class RouteTrace:
    """Decoded route with per-level steps."""

    route: tuple[NodeId, ...]
    steps: tuple[LevelStep, ...]


@dataclass(frozen=True)
class Calibration:
    """Per-depth weight factors plus the acceptance threshold.

    ``source`` records how the threshold was chosen: "eer" for a regular
    equal-error-rate sweep, "eer-all-correct"/"eer-all-incorrect" for the
    degenerate validation cases (accept everything / reject everything),
    "manual" for an explicit override, and "accept-all" for the -inf
    sentinel.  ``model_identity`` is the :func:`~routecat.centroid.model_identity`
    of the model the weights and threshold were computed for.
    """

    level_weights: Mapping[int, float]
    threshold: float
    eer_gap: float
    validation_size: int
    source: str = "eer"
    model_identity: str = ""

    def __post_init__(self) -> None:
        # NaN compares false with everything, so it would silently reject every document
        if math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")


@dataclass(frozen=True)
class Decision:
    """Accept/reject outcome for one document; the decoded leaf is kept either way."""

    accepted: bool
    leaf: NodeId
    reliability: float


def confidence_score(group_scores: Mapping[NodeId, float], chosen: NodeId) -> float:
    """Share of the sibling group's score mass held by ``chosen``.

    A zero-mass group falls back to the uniform value 1/|group| so the
    result is always in (0, 1].
    """
    if chosen not in group_scores:
        raise ValueError(f"chosen node {chosen!r} is not in its sibling group")
    total = math.fsum(group_scores.values())
    if total <= 0.0:
        return 1.0 / len(group_scores)
    return group_scores[chosen] / total


def decode(model: CentroidModel, d: SparseVector) -> RouteTrace:
    """Route a document vector from the root's children down to a leaf.

    Every step records the full sibling group's scores, which
    :func:`~routecat.centroid.group_scores` computes in one pass over the
    document's terms; prediction never stops early, so the route always
    ends at a leaf, and :class:`~routecat.centroid.CentroidModel` refuses a
    root without children, so it has at least one step.
    """
    t = model.taxonomy
    parent = t.root
    group = t.children(parent)
    route: list[NodeId] = []
    steps: list[LevelStep] = []
    while group:
        values = group_scores(model, d, parent)
        chosen = group[values.index(max(values))]  # the first of tied children
        scores = dict(zip(group, values))
        route.append(chosen)
        steps.append(LevelStep(chosen=chosen, group_scores=scores, confidence=confidence_score(scores, chosen)))
        parent = chosen
        group = t.children(parent)
    return RouteTrace(route=tuple(route), steps=tuple(steps))


def reliability(steps: Sequence[LevelStep], level_weights: Mapping[int, float]) -> float:
    """Weighted sum of step confidences along a decoded route."""
    total = 0.0
    for depth, step in enumerate(steps, start=1):
        if depth not in level_weights:
            raise CalibrationError(f"no weight calibrated for depth {depth}")
        total += level_weights[depth] * step.confidence
    return total


def _by_outcome(samples: Iterable[tuple[float, bool]]) -> tuple[list[float], list[float]]:
    """Sorted reliabilities of the correct and of the incorrect samples."""
    correct, incorrect = [], []
    for r, ok in samples:
        (correct if ok else incorrect).append(r)
    return sorted(correct), sorted(incorrect)


def _fa_fr_gap(correct: Sequence[float], incorrect: Sequence[float], tau: float) -> float:
    """|FA - FR| at ``tau`` under the accept rule of :func:`classify_with_reject`.

    FA is the fraction of incorrect samples with reliability > tau (accepted),
    FR the fraction of correct samples with reliability <= tau (rejected).
    Both lists are sorted; an empty one counts its rate as 0.
    """
    fa = (len(incorrect) - bisect_right(incorrect, tau)) / len(incorrect) if incorrect else 0.0
    fr = bisect_right(correct, tau) / len(correct) if correct else 0.0
    return abs(fa - fr)


def eer_threshold(scores: Iterable[tuple[float, bool]]) -> tuple[float, float]:
    """Threshold equalizing false acceptances and false rejections.

    A sample is accepted iff its reliability is strictly above the
    threshold, as in :func:`classify_with_reject`.  The candidates are -inf
    (accept everything) and each distinct reliability (accept what lies
    above it); every achievable (FA, FR) operating point occurs at one of
    them, and each is an exact sample value.  Returns the candidate
    minimizing |FA - FR| (ties go to the larger threshold) together with
    the achieved gap.
    """
    correct, incorrect = _by_outcome(scores)
    if not correct or not incorrect:
        raise EerUndefinedError("EER needs both correct and incorrect validation samples")
    best_tau = float("-inf")
    best_gap = _fa_fr_gap(correct, incorrect, best_tau)
    for tau in sorted(set(correct) | set(incorrect)):
        gap = _fa_fr_gap(correct, incorrect, tau)
        if gap <= best_gap:
            best_tau, best_gap = tau, gap
    return best_tau, best_gap


def classify_with_reject(model: CentroidModel, calibration: Calibration, d: SparseVector) -> Decision:
    """Decode, score reliability, and accept only when strictly above the threshold."""
    trace = decode(model, d)
    rel = reliability(trace.steps, calibration.level_weights)
    return Decision(accepted=rel > calibration.threshold, leaf=trace.route[-1], reliability=rel)


def _override_source(threshold: float) -> str:
    """The ``source`` of a threshold given by hand: the -inf sentinel is "accept-all"."""
    return "accept-all" if threshold == ACCEPT_ALL else "manual"


def build_calibration(
    model: CentroidModel, validation: Sequence[Document], threshold: float | None = None
) -> Calibration:
    """Run the full validation pass: level weights, then the threshold.

    weight(L) is the fraction of validation documents routed to the correct
    node at depth L, among documents whose true label sits at depth >= L;
    depths nobody reaches get weight 0.

    ``threshold=None`` takes the threshold from the EER sweep.  When the
    validation set is entirely correct (or entirely incorrect) the EER is
    undefined and the calibration degrades gracefully to accept-everything
    (or reject-everything).  A number is used as given, and only its
    validation gap is measured.
    """
    if not validation:
        raise ValueError("empty validation set")
    t = model.taxonomy
    eligible = [0] * (t.max_depth + 1)
    correct = [0] * (t.max_depth + 1)
    decoded = []
    for doc in validation:
        true_path = t.path(doc.label)
        trace = decode(model, vectorize(doc, model.vocabulary))
        for depth, node in enumerate(true_path, start=1):
            eligible[depth] += 1
            if depth <= len(trace.route) and trace.route[depth - 1] == node:
                correct[depth] += 1
        decoded.append((trace.steps, true_path[-1] in trace.route))
    weights = {
        depth: (correct[depth] / eligible[depth] if eligible[depth] else 0.0)
        for depth in range(1, t.max_depth + 1)
    }
    samples = [(reliability(steps, weights), ok) for steps, ok in decoded]

    if threshold is not None:
        source = _override_source(threshold)
        gap = _fa_fr_gap(*_by_outcome(samples), threshold)
    else:
        try:
            threshold, gap = eer_threshold(samples)
            source = "eer"
        except EerUndefinedError:
            if all(ok for _, ok in samples):
                threshold, source = ACCEPT_ALL, "eer-all-correct"
            else:
                threshold, source = float("inf"), "eer-all-incorrect"
            gap = 0.0
    return Calibration(
        level_weights=weights,
        threshold=threshold,
        eer_gap=gap,
        validation_size=len(validation),
        source=source,
        model_identity=model_identity(model),
    )


def _threshold_to_json(threshold: float) -> float | str:
    """RFC 8259 JSON has no infinities, so the sentinels are written as "inf" and "-inf"."""
    if math.isinf(threshold):
        return "inf" if threshold > 0 else "-inf"
    return threshold


def _threshold_from_json(value: object) -> float:
    """Inverse of :func:`_threshold_to_json`: "inf", "-inf" or a finite number."""
    if value in ("inf", "-inf"):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"threshold must be a finite number, 'inf' or '-inf', not {value!r}")
    return float(value)


def dumps_calibration(calibration: Calibration, vocab_digest: str) -> str:
    """Serialize calibration to canonical standard JSON, tagged with the model's vocabulary digest."""
    fields = {
        "level_weights": {str(depth): w for depth, w in calibration.level_weights.items()},
        "threshold": _threshold_to_json(calibration.threshold),
        "eer_gap": calibration.eer_gap,
        "validation_size": calibration.validation_size,
        "source": calibration.source,
        "model_identity": calibration.model_identity,
        "vocabulary_digest": vocab_digest,
    }
    return dumps_artifact("calibration", CALIBRATION_FORMAT_VERSION, fields)


def loads_calibration(text: str) -> tuple[Calibration, str]:
    """Inverse of :func:`dumps_calibration`; returns the calibration and its digest.

    Unknown formats and versions, missing or wrongly typed fields (weights
    and the gap must be floats in [0, 1], the size an integer of at least 1,
    each weight key a depth written as a plain integer), and a NaN threshold
    raise :class:`CalibrationError`.
    """
    return loads_artifact(
        text, "calibration", CALIBRATION_FORMAT_VERSION, CalibrationError, _calibration_from_payload
    )


def _calibration_from_payload(payload: dict) -> tuple[Calibration, str]:
    level_weights = {}
    for key, weight in payload["level_weights"].items():
        depth = int(key)
        if str(depth) != key:
            raise ValueError(f"level weight key {key!r} is not a depth")
        level_weights[depth] = _checked_rate(weight, f"level weight {key}")
    validation_size = checked_int(payload["validation_size"], "validation_size")
    if validation_size < 1:
        raise ValueError(f"validation_size must be at least 1, not {validation_size!r}")
    calibration = Calibration(
        level_weights=level_weights,
        threshold=_threshold_from_json(payload["threshold"]),
        eer_gap=_checked_rate(payload["eer_gap"], "eer_gap"),
        validation_size=validation_size,
        source=payload["source"],
        model_identity=payload["model_identity"],
    )
    digest = payload["vocabulary_digest"]
    if not all(isinstance(value, str) for value in (calibration.source, calibration.model_identity, digest)):
        raise TypeError("source, model_identity and vocabulary_digest must be strings")
    return calibration, digest


def _checked_rate(value: object, what: str) -> float:
    """``value`` if JSON read it as a float in [0, 1], as every level weight and EER gap is written."""
    if type(value) is not float or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite float, not {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1], not {value!r}")
    return value


def check_matching_vocabulary(model: CentroidModel, calibration_digest: str) -> None:
    """Refuse a calibration whose vocabulary digest is not the model's."""
    if vocabulary_digest(model.vocabulary) != calibration_digest:
        raise CalibrationError(
            "vocabulary mismatch: the calibration was computed for a different model"
        )


def check_pairing(model: CentroidModel, calibration: Calibration, calibration_digest: str) -> None:
    """Refuse a calibration that was not computed for ``model`` or cannot weigh every step of its routes.

    Checks the vocabulary digest, the model identity, and a level weight for
    each depth 1..``taxonomy.max_depth``, so a mismatch stops a command
    before its first decision.
    """
    check_matching_vocabulary(model, calibration_digest)
    if calibration.model_identity != model_identity(model):
        raise CalibrationError(
            "model mismatch: the calibration was computed for a model with other training documents, "
            "taxonomy, mode or policy"
        )
    for depth in range(1, model.taxonomy.max_depth + 1):
        if depth not in calibration.level_weights:
            raise CalibrationError(f"no weight calibrated for depth {depth}")


def with_threshold(calibration: Calibration, threshold: float) -> Calibration:
    """Copy of a calibration with a threshold given by hand ("manual", or "accept-all" for -inf)."""
    return replace(calibration, threshold=threshold, source=_override_source(threshold))
