"""Category tree plus the ancestor/descendant/sibling relations used everywhere else.

The file format is one ``parent<TAB>child`` edge per line, read by
:func:`tsv_lines` like every other tab-separated input.  The root is the
unique node that never appears as a child.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

NodeId = str


class TaxonomyError(ValueError):
    """Structurally invalid taxonomy."""


class UnknownNodeError(TaxonomyError):
    """Node id not present in the taxonomy."""


@dataclass(frozen=True, eq=True)
class Taxonomy:
    """Rooted tree of category nodes.

    The root is a pure dispatch node: it carries no classifier, no documents,
    and never appears in a route.  Child order is the first-appearance order
    from the source file and is the tie-break order for every downstream
    decision, so two parses of the same bytes behave identically.  Only the
    children are stored; parents, paths and the node order come from one
    depth-first walk from the root, made when the taxonomy is built.
    """

    root: NodeId
    children_of: Mapping[NodeId, tuple[NodeId, ...]]

    def __post_init__(self) -> None:
        self._path_of  # walk now: the walk refuses a malformed tree

    @cached_property
    def _path_of(self) -> dict[NodeId, tuple[NodeId, ...]]:
        """Every node's path (see :meth:`path`), in depth-first pre-order, children in file order.

        One walk from the root: a node reached twice (a second parent, or a
        cycle through the root), never reached (a cycle apart from it) or
        reached without an entry of its own in ``children_of`` is refused.
        """
        path_of: dict[NodeId, tuple[NodeId, ...]] = {}
        stack: list[tuple[NodeId, tuple[NodeId, ...]]] = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            if node in path_of:
                raise TaxonomyError(f"node {node!r} is reached twice from the root")
            path_of[node] = path
            try:
                children = self.children_of[node]
            except KeyError:
                raise TaxonomyError(f"node {node!r} has no entry in children_of") from None
            stack.extend((child, path + (child,)) for child in reversed(children))
        for node in self.children_of:
            if node not in path_of:
                raise TaxonomyError(f"cycle detected at node {node!r}")
        return path_of

    def __contains__(self, node: NodeId) -> bool:
        return node in self.children_of

    def _require(self, node: NodeId) -> None:
        if node not in self.children_of:
            raise UnknownNodeError(f"unknown node {node!r}")

    @cached_property
    def nodes(self) -> tuple[NodeId, ...]:
        """All nodes in depth-first pre-order, children in file order."""
        return tuple(self._path_of)

    @cached_property
    def leaves(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if not self.children_of[n])

    @cached_property
    def max_depth(self) -> int:
        return max(map(len, self._path_of.values()))

    def parent(self, node: NodeId) -> NodeId:
        self._require(node)
        if node == self.root:
            raise TaxonomyError("root has no parent")
        path = self._path_of[node]
        return path[-2] if len(path) > 1 else self.root

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        self._require(node)
        return self.children_of[node]

    def path(self, node: NodeId) -> tuple[NodeId, ...]:
        """Path from a child of the root down to ``node``, root excluded."""
        self._require(node)
        return self._path_of[node]

    def ancestors(self, node: NodeId) -> frozenset[NodeId]:
        """Strict ancestors of ``node``, including the root; never ``node`` itself."""
        self._require(node)
        path = self._path_of[node]
        return frozenset((self.root, *path[:-1])) if path else frozenset()

    def descendants(self, node: NodeId) -> frozenset[NodeId]:
        """Strict descendants of ``node``; never ``node`` itself."""
        self._require(node)
        out: set[NodeId] = set()
        stack = list(self.children_of[node])
        while stack:
            child = stack.pop()
            out.add(child)
            stack.extend(self.children_of[child])
        return frozenset(out)

    def siblings(self, node: NodeId) -> frozenset[NodeId]:
        """Nodes sharing ``node``'s parent, excluding ``node``."""
        self._require(node)
        if node == self.root:
            raise TaxonomyError("root has no siblings")
        return frozenset(n for n in self.children_of[self.parent(node)] if n != node)


def tsv_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, tab-separated fields) of each line that is neither blank nor a ``#`` comment.

    One leading byte-order mark (U+FEFF) is dropped.  Only LF ends a line and a
    trailing CR is dropped, so CRLF text reads like LF text; every other
    separator (VT, FF, NEL, U+2028, ...) belongs to its line.
    """
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.rstrip("\r")
        if line.strip() and not line.startswith("#"):
            yield lineno, line, line.split("\t")


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse ``parent<TAB>child`` edge lines into a validated Taxonomy.

    Rejects duplicate edges, nodes with two distinct parents, cyclic input,
    and input with zero or multiple roots.  Child order is first-appearance
    order, making the parse deterministic byte-for-byte.
    """
    parent_of: dict[NodeId, NodeId] = {}
    children_of: dict[NodeId, list[NodeId]] = {}
    for lineno, line, parts in tsv_lines(text):
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise TaxonomyError(f"line {lineno}: malformed edge line {line!r}")
        parent, child = parts
        if parent_of.get(child) == parent:
            raise TaxonomyError(f"line {lineno}: duplicate edge {parent!r} -> {child!r}")
        if child in parent_of:
            raise TaxonomyError(
                f"line {lineno}: two parents for {child!r}: {parent_of[child]!r} and {parent!r}"
            )
        parent_of[child] = parent
        children_of.setdefault(parent, []).append(child)
        children_of.setdefault(child, [])

    if not children_of:
        raise TaxonomyError("empty taxonomy")
    roots = [n for n in children_of if n not in parent_of]
    if not roots:
        raise TaxonomyError("cycle detected: every node appears as a child")
    if len(roots) > 1:
        raise TaxonomyError(f"multiple roots: {sorted(roots)}")

    frozen = {node: tuple(kids) for node, kids in children_of.items()}
    return Taxonomy(root=roots[0], children_of=frozen)


def format_taxonomy(t: Taxonomy) -> str:
    """Render a taxonomy back to edge lines (breadth-first, child order kept)."""
    lines: list[str] = []
    queue: list[NodeId] = [t.root]
    for node in queue:  # the loop reaches the children appended behind it
        for child in t.children_of[node]:
            lines.append(f"{node}\t{child}")
            queue.append(child)
    return "\n".join(lines) + "\n"
