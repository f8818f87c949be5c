"""Hierarchical text categorization with one centroid classifier per taxonomy node.

Documents are routed top-down through a category tree by inner-product
similarity against per-node centroids.  Each routing step yields a
confidence score relative to the competing siblings; a validation set
calibrates per-level weights and an equal-error-rate threshold, and test
documents whose weighted route confidence falls at or below the threshold
are rejected instead of labeled.
"""

from routecat.taxonomy import NodeId, Taxonomy, TaxonomyError, UnknownNodeError, parse_taxonomy
from routecat.corpus import (
    CorpusError,
    CorpusSplit,
    Document,
    SparseVector,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    split_corpus,
    tokenize,
    vectorize,
)
from routecat.policies import (
    NodeTrainingSet,
    PolicyKind,
    build_training_set,
    most_specific_examples,
    positives_for_centroid,
)
from routecat.centroid import CentroidModel, Mode, ModelFormatError, node_score, train
from routecat.router import (
    ACCEPT_ALL,
    Calibration,
    CalibrationError,
    Decision,
    EerUndefinedError,
    LevelStep,
    RouteTrace,
    build_calibration,
    classify_with_reject,
    confidence_score,
    decode,
    eer_threshold,
    reliability,
)
from routecat.evaluation import (
    ComparisonRow,
    EvalSummary,
    SummaryRow,
    SyntheticSpec,
    TrainedRun,
    evaluate,
    flat_baseline,
    generate_synthetic,
    render_report,
    report_rows,
    train_and_calibrate,
)

__version__ = "0.1.0"
