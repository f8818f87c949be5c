import random

import pytest
from hypothesis import given, strategies as st

from conftest import LINE_SEPARATORS, T0_TEXT, random_edges, random_taxonomy
from routecat.taxonomy import Taxonomy, TaxonomyError, UnknownNodeError, format_taxonomy, parse_taxonomy, tsv_lines


def test_parse_t0(t0):
    assert t0.root == "ROOT"
    assert set(t0.leaves) == {"A1", "A2", "B1"}
    assert t0.children("ROOT") == ("A", "B")
    assert t0.children("A") == ("A1", "A2")
    assert t0.parent("A1") == "A"


def test_parse_ignores_comments_and_blank_lines():
    text = "# taxonomy\n\nROOT\tA\n   \nROOT\tB\n"
    t = parse_taxonomy(text)
    assert t.children("ROOT") == ("A", "B")


def test_tsv_lines_grammar():
    text = "# header\r\na\tb\r\n\r\n  \nx\u2028y\tz\n#\tnot a line\nlast"
    assert list(tsv_lines(text)) == [
        (2, "a\tb", ["a", "b"]),
        (5, "x\u2028y\tz", ["x\u2028y", "z"]),
        (7, "last", ["last"]),
    ]


def test_tsv_lines_drops_one_leading_byte_order_mark():
    assert list(tsv_lines("\ufeff\ufeffa\tb\n\ufeffc\td")) == [
        (1, "\ufeffa\tb", ["\ufeffa", "b"]),
        (2, "\ufeffc\td", ["\ufeffc", "d"]),
    ]


def test_parse_ignores_a_leading_byte_order_mark():
    assert parse_taxonomy("\ufeff" + T0_TEXT) == parse_taxonomy(T0_TEXT)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_parse_keeps_line_separators_in_node_ids(sep, newline):
    t = parse_taxonomy(f"ROOT\tA{sep}x{newline}ROOT\tB{newline}")
    assert t.children("ROOT") == (f"A{sep}x", "B")


def test_parse_cycle():
    with pytest.raises(TaxonomyError, match="cycle"):
        parse_taxonomy("ROOT\tA\nA\tROOT\n")


def test_parse_disconnected_cycle():
    with pytest.raises(TaxonomyError, match="cycle"):
        parse_taxonomy("ROOT\tA\nB\tC\nC\tB\n")


def test_parse_two_parents():
    with pytest.raises(TaxonomyError, match="two parents"):
        parse_taxonomy("ROOT\tA\nROOT\tB\nA\tX\nB\tX\n")


def test_parse_multiple_roots():
    with pytest.raises(TaxonomyError, match="multiple roots"):
        parse_taxonomy("R1\tA\nR2\tB\n")


def test_parse_duplicate_edge():
    with pytest.raises(TaxonomyError, match="duplicate edge"):
        parse_taxonomy("ROOT\tA\nROOT\tA\n")


@pytest.mark.parametrize("bad", ["justonenode", "a\tb\tc", "\tA", "A\t"])
def test_parse_malformed_line(bad):
    with pytest.raises(TaxonomyError, match="malformed"):
        parse_taxonomy(f"ROOT\tA\n{bad}\n")


def test_parse_empty():
    with pytest.raises(TaxonomyError):
        parse_taxonomy("# nothing here\n")


def test_ancestors(t0):
    assert t0.ancestors("A1") == {"A", "ROOT"}
    assert t0.ancestors("A") == {"ROOT"}
    assert t0.ancestors("ROOT") == frozenset()


def test_descendants(t0):
    assert t0.descendants("A") == {"A1", "A2"}
    assert t0.descendants("A1") == frozenset()
    assert t0.descendants("ROOT") == {"A", "B", "A1", "A2", "B1"}


def test_siblings(t0):
    assert t0.siblings("A1") == {"A2"}
    assert t0.siblings("B1") == frozenset()
    assert t0.siblings("A") == {"B"}
    with pytest.raises(TaxonomyError, match="root has no siblings"):
        t0.siblings("ROOT")


def test_path(t0):
    assert t0.path("A1") == ("A", "A1")
    assert t0.path("B1") == ("B", "B1")
    assert t0.path("A") == ("A",)


def test_unknown_node(t0):
    for op in (t0.ancestors, t0.descendants, t0.siblings, t0.path):
        with pytest.raises(UnknownNodeError):
            op("ZZ")


def test_depths(t0):
    assert t0.depth("ROOT") == 0
    assert t0.depth("A") == 1
    assert t0.depth("A1") == 2
    assert t0.max_depth == 2


def test_parse_is_deterministic():
    a = parse_taxonomy(T0_TEXT)
    b = parse_taxonomy(T0_TEXT)
    assert a == b
    assert a.nodes == b.nodes


def test_format_round_trip(t0):
    assert parse_taxonomy(format_taxonomy(t0)) == t0


@given(st.integers(min_value=0, max_value=10_000))
def test_relation_dualities(seed):
    t = random_taxonomy(random.Random(seed))
    for a in t.nodes:
        assert a not in t.descendants(a)
        assert a not in t.ancestors(a)
        for b in t.nodes:
            assert (a in t.ancestors(b)) == (b in t.descendants(a))


@given(st.integers(min_value=0, max_value=10_000))
def test_sibling_group_partition(seed):
    t = random_taxonomy(random.Random(seed))
    for node in t.nodes:
        if node == t.root:
            continue
        assert node not in t.siblings(node)
        group = t.siblings(node) | {node}
        assert group == set(t.children(t.parent(node)))


@given(st.integers(min_value=0, max_value=10_000))
def test_walk_matches_the_edge_list(seed):
    edges = random_edges(random.Random(seed))
    t = random_taxonomy(random.Random(seed))
    parent_of = {child: parent for parent, child in edges}
    children_of = {}
    for parent, child in edges:
        children_of.setdefault(parent, []).append(child)

    def chain(node):
        out = [node]
        while out[-1] in parent_of:
            out.append(parent_of[out[-1]])
        return out[::-1]  # root first

    def preorder(node):
        yield node
        for child in children_of.get(node, []):
            yield from preorder(child)

    assert t.root == "n0"
    assert t.nodes == tuple(preorder("n0"))
    for node in t.nodes:
        assert t.path(node) == tuple(chain(node)[1:])
        assert t.depth(node) == len(chain(node)) - 1
        assert t.ancestors(node) == set(chain(node)[:-1])
        if node != t.root:
            assert t.parent(node) == parent_of[node]


@pytest.mark.parametrize(
    "children_of, message",
    [
        ({"R": ("A", "B"), "A": ("X",), "B": ("X",), "X": ()}, "'X' is reached twice"),
        ({"R": ("A",), "A": ("R",)}, "'R' is reached twice"),
        ({"R": ("A",), "A": (), "B": ("C",), "C": ("B",)}, "cycle detected at node 'B'"),
        ({"R": ("A",)}, "node 'A' has no entry in children_of"),
        ({}, "node 'R' has no entry in children_of"),
    ],
    ids=["two-parents", "root-as-child", "unreachable", "child-without-entry", "root-without-entry"],
)
def test_constructor_refuses_what_one_walk_cannot_reach_once(children_of, message):
    with pytest.raises(TaxonomyError, match=message):
        Taxonomy("R", children_of)
