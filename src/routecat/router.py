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
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Collection, Iterable, NamedTuple, Sequence

from routecat.centroid import (
    CentroidModel,
    dumps_artifact,
    group_scores,
    loads_artifact,
    model_identity,
    vocabulary_digest,
)
from routecat.corpus import Document, SparseVector, vectorize
from routecat.prng import checked_int
from routecat.taxonomy import NodeId, Taxonomy

CALIBRATION_FORMAT_VERSION = 3

#: Threshold sentinel that accepts every document (reliability > -inf always).
ACCEPT_ALL = float("-inf")


class CalibrationError(ValueError):
    """Calibration data missing, malformed, or inconsistent with the model."""


class LevelStep(NamedTuple):
    """One routing decision: the chosen node, its sibling group and their scores, and its confidence.

    ``scores`` is the list :func:`~routecat.centroid.group_scores` returned,
    in ``group`` order.  A tuple is cheaper to build than a dataclass, and
    every document builds one per level.
    """

    chosen: NodeId
    group: tuple[NodeId, ...]
    scores: list[float]
    confidence: float


@dataclass(frozen=True)
class Calibration:
    """Per-depth weight factors plus the acceptance threshold.

    ``level_weights[k]`` is the weight of depth k + 1.  It is kept as a
    tuple, so editing a list passed in changes nothing.
    ``source`` records how the validation sweep chose the threshold: "eer",
    or "eer-all-correct"/"eer-all-incorrect" when every validation document
    was routed right (accept everything) or wrong (reject everything).
    ``model_identity`` is the :func:`~routecat.centroid.model_identity`
    of the model the weights and threshold were computed for.
    """

    level_weights: tuple[float, ...]
    threshold: float
    eer_gap: float
    validation_size: int
    source: str = "eer"
    model_identity: str = ""

    def __post_init__(self) -> None:
        """Refuse what :func:`build_calibration` never makes.

        That is level weights that are not a list or a tuple, no level weight,
        a level weight that is not a float in [0, 1], a threshold that is not a
        float or is NaN, an EER gap that is not a float in [0, 1], a
        validation size that is not an integer of at least 1, and a ``source``
        or ``model_identity`` that is not a string.
        """
        # tuple() would read a mapping's keys or a string's characters as weights
        if not isinstance(self.level_weights, (list, tuple)):
            raise ValueError(f"level_weights must be a list of floats, not {type(self.level_weights).__name__}")
        # tuple() of a tuple is the same object, so build_calibration's weights are not copied
        object.__setattr__(self, "level_weights", tuple(self.level_weights))
        if not self.level_weights:
            raise ValueError("level_weights must hold a weight for depth 1 at least")
        for depth, weight in enumerate(self.level_weights, start=1):
            _checked_rate(weight, f"level weight {depth}")
        # the int 1 would load back as the float 1.0, and a string would fail in the NaN check below
        if type(self.threshold) is not float:
            raise ValueError(f"threshold must be a float, not {type(self.threshold).__name__}")
        # NaN compares false with everything, so it would silently reject every document
        if math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")
        _checked_rate(self.eer_gap, "eer_gap")
        if checked_int(self.validation_size, "validation_size") < 1:
            raise ValueError(f"validation_size must be at least 1, not {self.validation_size!r}")
        for name in ("source", "model_identity"):  # dumps_calibration writes both as JSON strings
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a string, not {getattr(self, name)!r}")


class Decision(NamedTuple):
    """Accept/reject outcome for one document; the decoded leaf is kept either way.

    A tuple, as :class:`LevelStep` is, because every classified document builds one.
    """

    accepted: bool
    leaf: NodeId
    reliability: float


def confidence(scores: Collection[float], score: float) -> float:
    """The confidence of a step: the share of its sibling group's score mass held by ``score``, one of ``scores``.

    That is ``score`` over the ``fsum`` of ``scores``; a zero-mass group falls
    back to the uniform value 1/|scores|, so the result is always in (0, 1].
    """
    total = math.fsum(scores)
    if total <= 0.0:
        return 1.0 / len(scores)
    return score / total


def first_max(scores: Sequence[float]) -> int:
    """Position of the largest score; ties go to the earliest position."""
    return scores.index(max(scores))


def decode(model: CentroidModel, d: SparseVector) -> tuple[LevelStep, ...]:
    """Route a document vector from the root's children down to a leaf, one step per level.

    Every step records the full sibling group's scores, which
    :func:`~routecat.centroid.group_scores` computes in one pass over the
    document's terms; prediction never stops early, so the last step
    chooses a leaf, and :class:`~routecat.centroid.CentroidModel` refuses a
    root without children, so there is at least one step.  The chosen
    nodes are the leaf's :meth:`~routecat.taxonomy.Taxonomy.path`.
    """
    children_of = model.taxonomy.children_of  # every chosen node is a taxonomy node: no membership check
    parent = model.taxonomy.root
    group = children_of[parent]
    steps: list[LevelStep] = []
    while group:
        scores = group_scores(model, d, parent)
        position = first_max(scores)
        chosen = group[position]
        steps.append(LevelStep(chosen, group, scores, confidence(scores, scores[position])))
        parent = chosen
        group = children_of[parent]
    return tuple(steps)


def routed_correctly(taxonomy: Taxonomy, label: NodeId, leaf: NodeId) -> bool:
    """Whether a document labeled ``label`` and decoded to ``leaf`` was routed right: the label lies on the leaf's path."""
    return label in taxonomy.path(leaf)


def reliability(steps: Sequence[LevelStep], level_weights: Sequence[float]) -> float:
    """Weighted sum of step confidences along a decoded route; ``level_weights[k]`` weighs the step at depth k + 1."""
    if len(steps) > len(level_weights):
        raise CalibrationError(f"no weight calibrated for depth {len(level_weights) + 1}")
    total = 0.0
    for weight, step in zip(level_weights, steps):
        total += weight * step.confidence
    return total


def eer_threshold(scores: Iterable[tuple[float, bool]]) -> tuple[float, float]:
    """Threshold equalizing false acceptances and false rejections.

    A sample is accepted iff its reliability is strictly above the
    threshold, as in :func:`classify_with_reject`.  The candidates are -inf
    (accept everything) and each distinct reliability (accept what lies
    above it); every achievable (FA, FR) operating point occurs at one of
    them, and each is an exact sample value.  One pass over the sorted
    samples counts, at each candidate, the correct and incorrect samples it
    rejects.  Returns the candidate minimizing |FA - FR| (ties go to the
    larger threshold) together with the achieved gap.
    """
    ordered = sorted(scores)
    n_correct = sum(1 for _, ok in ordered if ok)
    n_incorrect = len(ordered) - n_correct
    if not n_correct or not n_incorrect:
        raise ValueError("EER needs both correct and incorrect validation samples")
    best_tau, best_gap = float("-inf"), 1.0  # -inf accepts everything: FA = 1, FR = 0
    rejected_correct = rejected_incorrect = 0
    for tau, group in groupby(ordered, key=itemgetter(0)):
        for _, ok in group:
            if ok:
                rejected_correct += 1
            else:
                rejected_incorrect += 1
        gap = abs((n_incorrect - rejected_incorrect) / n_incorrect - rejected_correct / n_correct)
        if gap <= best_gap:
            best_tau, best_gap = tau, gap
    return best_tau, best_gap


def classify_with_reject(model: CentroidModel, calibration: Calibration, d: SparseVector) -> Decision:
    """Decode, score reliability, and accept only when strictly above the threshold."""
    steps = decode(model, d)
    rel = reliability(steps, calibration.level_weights)
    return Decision(accepted=rel > calibration.threshold, leaf=steps[-1].chosen, reliability=rel)


def build_calibration(model: CentroidModel, validation: Sequence[Document]) -> Calibration:
    """Run the full validation pass: level weights, then the EER threshold.

    weight(L) is the fraction of validation documents routed to the correct
    node at depth L, among documents whose true label sits at depth >= L;
    depths nobody reaches get weight 0.

    The threshold is the EER point of :func:`eer_threshold`, or -inf when
    every validation document was routed right and +inf when none was, as
    the EER is undefined there.
    """
    if not validation:
        raise ValueError("empty validation set")
    t = model.taxonomy
    eligible = [0] * (t.max_depth + 1)
    correct = [0] * (t.max_depth + 1)
    decoded = []
    for doc in validation:
        steps = decode(model, vectorize(doc, model.vocabulary))
        leaf = steps[-1].chosen
        route = t.path(leaf)
        for depth, node in enumerate(t.path(doc.label), start=1):
            eligible[depth] += 1
            # a label can lie deeper than the decoded leaf in an uneven tree
            if depth <= len(route) and route[depth - 1] == node:
                correct[depth] += 1
        decoded.append((steps, routed_correctly(t, doc.label, leaf)))
    weights = tuple(
        correct[depth] / eligible[depth] if eligible[depth] else 0.0 for depth in range(1, t.max_depth + 1)
    )
    n_correct = sum(ok for _, ok in decoded)
    if n_correct == len(decoded):
        threshold, gap, source = ACCEPT_ALL, 0.0, "eer-all-correct"
    elif n_correct == 0:
        threshold, gap, source = float("inf"), 0.0, "eer-all-incorrect"
    else:
        threshold, gap = eer_threshold((reliability(steps, weights), ok) for steps, ok in decoded)
        source = "eer"
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
    """Inverse of :func:`_threshold_to_json`: "inf", "-inf" or a finite JSON float, as it writes every threshold."""
    if value in ("inf", "-inf"):
        return float(value)
    if type(value) is not float or not math.isfinite(value):
        raise ValueError(f"threshold must be a finite float, 'inf' or '-inf', not {value!r}")
    return value


def dumps_calibration(calibration: Calibration, vocab_digest: str) -> str:
    """Serialize calibration to canonical standard JSON, tagged with the model's vocabulary digest."""
    fields = {
        "level_weights": calibration.level_weights,
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

    Unknown formats and versions, missing or wrongly typed fields, and any
    calibration :class:`Calibration` refuses (it holds the rules for the
    weights, the gap, the size and the two strings) raise
    :class:`CalibrationError`.
    """
    return loads_artifact(
        text, "calibration", CALIBRATION_FORMAT_VERSION, CalibrationError, _calibration_from_payload
    )


def _calibration_from_payload(payload: dict) -> tuple[Calibration, str]:
    calibration = Calibration(
        level_weights=payload["level_weights"],
        threshold=_threshold_from_json(payload["threshold"]),
        eer_gap=payload["eer_gap"],
        validation_size=payload["validation_size"],
        source=payload["source"],
        model_identity=payload["model_identity"],
    )
    digest = payload["vocabulary_digest"]
    if not isinstance(digest, str):
        raise TypeError(f"vocabulary_digest must be a string, not {digest!r}")
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

    Checks the vocabulary digest, the model identity, and one level weight
    for each depth 1..``taxonomy.max_depth``, so a mismatch stops a command
    before its first decision.
    """
    check_matching_vocabulary(model, calibration_digest)
    if calibration.model_identity != model_identity(model):
        raise CalibrationError(
            "model mismatch: the calibration was computed for a model with other training documents, "
            "taxonomy, mode or policy"
        )
    n, depth = len(calibration.level_weights), model.taxonomy.max_depth
    if n != depth:
        raise CalibrationError(f"level weights are calibrated to depth {n}, the taxonomy's depth is {depth}")
