"""The benchmark's workloads: generator flags, training flags, and the shape each must have.

Each workload stresses a different layer.  The expected counts are guards:
if a generator change alters the shape of a workload, the benchmark fails
instead of quietly measuring something else.
"""

from __future__ import annotations

from dataclasses import dataclass

VAL_FRACTION = 0.15
TEST_FRACTION = 0.15
# Traffic uses the workload's spec under a seed no corpus seed collides with
# for small workload seeds.
TRAFFIC_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    depth: int
    branching: int
    docs_per_leaf: int
    tokens_per_doc: int
    noise: float
    binary: bool
    docs: int
    nodes: int  # non-root nodes, one centroid each
    leaves: int

    def generate_flags(self) -> list[str]:
        return [
            "--depth", str(self.depth),
            "--branching", str(self.branching),
            "--docs-per-leaf", str(self.docs_per_leaf),
            "--tokens-per-doc", str(self.tokens_per_doc),
            "--noise", str(self.noise),
        ]

    def train_flags(self) -> list[str]:
        return ["--mode", "binary", "--policy", "siblings"] if self.binary else []


WORKLOADS = {
    w.name: w
    for w in (
        # Long documents over a small tree: tokenize, vocabulary and vectorize
        # dominate; per-node work (20 policy scans, 16-leaf flat baseline) is small.
        Workload("docs-heavy", 2, 4, 225, 40, 0.9, False, docs=3_600, nodes=20, leaves=16),
        # A big tree with few documents per leaf: per-node and per-leaf work
        # dominates (a flat baseline over 512 leaves, 584 training-set rescans).
        Workload("node-heavy", 3, 8, 3, 30, 0.5, False, docs=1_536, nodes=584, leaves=512),
        # Binary mode with the siblings policy: build_training_set negatives,
        # two dot products per node score, positive and negative centroids.
        Workload("binary-siblings", 2, 12, 12, 20, 0.75, True, docs=1_728, nodes=156, leaves=144),
    )
}

# A seconds-long spec for the smoke test; not one of the measured workloads.
SMOKE = Workload("smoke", 2, 3, 30, 15, 0.6, False, docs=270, nodes=12, leaves=9)
