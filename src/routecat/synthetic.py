"""Seeded synthetic taxonomies and corpora, for the benchmark, the tests and ``routecat generate``.

The generator needs nothing of the model or scoring modules, only the
fixed-scheme stream of :mod:`routecat.prng`, so ``routecat generate``
starts without loading them.
"""

from __future__ import annotations

from typing import NamedTuple

from routecat.prng import SplitMix64, checked_int, checked_seed


# typing.NamedTuple refuses a __new__ in the class body, so SyntheticSpec's checks live in a subclass
class _SpecFields(NamedTuple):
    depth: int
    branching: int
    docs_per_leaf: int
    vocab_per_topic: int = 30
    noise_vocab_size: int = 150
    noise_fraction: float = 0.0
    tokens_per_doc: int = 40
    seed: int = 0


class SyntheticSpec(_SpecFields):
    """Parameters of the seeded synthetic benchmark generator.

    Every non-root node owns ``vocab_per_topic`` private terms, disjoint
    from every other node's.  A document of a leaf draws each signal token
    from one topic on the leaf's ancestor chain, picking the level with
    weight 2**(level - 1) so specific terms dominate the way they do in
    topical text; a ``noise_fraction`` share of tokens comes instead from a
    vocabulary shared by all classes.  Because ancestor terms are spread
    over whole subtrees, decisions near the root stay easier than decisions
    near the leaves.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> SyntheticSpec:
        """Refuse every spec :func:`generate_synthetic` cannot build.

        That is a size that is not an integer of at least 1, a noise fraction
        that is not an int or float in [0, 1), and a seed
        :class:`~routecat.prng.SplitMix64` refuses.
        """
        spec = super().__new__(cls, *args, **kwargs)
        for name in ("depth", "branching", "docs_per_leaf", "vocab_per_topic", "noise_vocab_size", "tokens_per_doc"):
            if checked_int(getattr(spec, name), name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # a Fraction or Decimal would be rounded when generate_synthetic scales it, and a bool is no fraction
        if type(spec.noise_fraction) not in (int, float):
            raise ValueError(f"noise_fraction must be a number, not {spec.noise_fraction!r}")
        if not 0.0 <= spec.noise_fraction < 1.0:
            raise ValueError("noise_fraction must lie in [0, 1)")
        checked_seed(spec.seed)
        return spec


def generate_synthetic(spec: SyntheticSpec) -> tuple[str, str]:
    """Build (taxonomy text, corpus text) fully determined by the spec's seed."""
    root = "root"
    taxonomy_lines: list[str] = []
    # each node with the private term lists of the nodes on its path, the root's being empty
    level: list[tuple[str, list[list[str]]]] = [(root, [])]
    for _ in range(spec.depth):
        next_level = []
        for parent, chain in level:
            for j in range(spec.branching):
                child = f"c{j}" if parent == root else f"{parent}.{j}"
                # terms are numbered by the order the nodes are made in: one edge line per node made before
                terms = [f"w{len(taxonomy_lines)}x{k}" for k in range(spec.vocab_per_topic)]
                taxonomy_lines.append(f"{parent}\t{child}")
                next_level.append((child, [*chain, terms]))
        level = next_level

    noise_terms = [f"z{j}" for j in range(spec.noise_vocab_size)]
    n_noise, vocab = spec.noise_vocab_size, spec.vocab_per_topic
    draw = SplitMix64(spec.seed).next_u64
    # a draw u stands for the float (u >> 11) * 2**-53, and scaling both sides by 2**53 is exact
    noise_cut = spec.noise_fraction * 2.0**53
    corpus_lines: list[str] = []
    # every leaf lies at the last level, which lists them in the taxonomy's depth-first order
    for leaf, chain in level:
        # chain level k has weight 2**k, so a pick p below 2**len(chain) - 1 lands on level (p + 1).bit_length() - 1
        picks = (1 << len(chain)) - 1
        for _ in range(spec.docs_per_leaf):
            # per token one draw against the noise cut, then one noise term, or one level and one of its terms
            tokens = [
                noise_terms[draw() % n_noise] if draw() >> 11 < noise_cut
                else chain[(draw() % picks + 1).bit_length() - 1][draw() % vocab]
                for _ in range(spec.tokens_per_doc)
            ]
            corpus_lines.append(f"d{len(corpus_lines):06d}\t{leaf}\t{' '.join(tokens)}")
    return "\n".join(taxonomy_lines) + "\n", "\n".join(corpus_lines) + "\n"
