from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from privtrace.records import MAX_DECIMAL_EXPONENT, InputError, parse_fraction
from privtrace.values import (
    Atom,
    AtomSet,
    ColumnClass,
    IntInterval,
    Number,
    TaxonomyTree,
    Taxon,
    parse_cell,
    render_cell,
    split_top_level,
)


def test_interval_requires_order():
    with pytest.raises(ValueError):
        IntInterval(5, 4)


def test_atom_set_nonempty():
    with pytest.raises(ValueError):
        AtomSet([])


def test_parse_interval():
    assert parse_cell("[40-50]", ColumnClass.NUMERVAL) == IntInterval(40, 50)
    assert parse_cell("[-5--3]", ColumnClass.NUMERVAL) == IntInterval(-5, -3)


def test_numerval_single_value_becomes_point_interval():
    assert parse_cell("24", ColumnClass.NUMERVAL) == IntInterval(24, 24)


def test_parse_set_and_atom():
    assert parse_cell("{a,b}", ColumnClass.NOMINAL) == AtomSet({"a", "b"})
    assert parse_cell("CoVid", ColumnClass.NOMINAL) == Atom("CoVid")


def test_parse_number_exact():
    assert parse_cell("3/2", ColumnClass.NUMERICAL) == Number(Fraction(3, 2))
    assert parse_cell("0.5", ColumnClass.NUMERICAL) == Number(Fraction(1, 2))


def test_parse_fraction_bounds_the_decimal_exponent():
    n = MAX_DECIMAL_EXPONENT
    assert parse_fraction(f"1e{n}") == 10 ** n
    assert parse_fraction(f"2.5E-{n}") == Fraction(5, 2 * 10 ** n)
    assert parse_fraction("3e+0002") == 300
    for text in (f"1e{n + 1}", f"1e-{n + 1}", "1e999999999", "1e" + "9" * 5000):
        with pytest.raises(InputError):
            parse_fraction(text)
    assert parse_fraction(1) == 1 and parse_fraction(0.5) == Fraction(1, 2)
    for bad in ("x", "1/0", float("inf"), None, [1]):
        with pytest.raises(ValueError):
            parse_fraction(bad)


@pytest.mark.parametrize(
    "text,cls",
    [
        ("[40-50]", ColumnClass.NUMERVAL),
        ("24", ColumnClass.NUMERVAL),
        ("{a,b,c}", ColumnClass.NOMINAL),
        ("M", ColumnClass.NOMINAL),
        ("7/3", ColumnClass.NUMERICAL),
    ],
)
def test_cell_round_trip(text, cls):
    v = parse_cell(text, cls)
    assert parse_cell(render_cell(v), cls) == v


def test_taxonomy_depths_and_ancestor():
    tree = TaxonomyTree(
        "ailment",
        "Ailment",
        {
            "Heart-Disease": "Ailment",
            "Cancer": "Ailment",
            "Viral-Infection": "Ailment",
            "Flu": "Viral-Infection",
            "CoVid": "Viral-Infection",
        },
    )
    assert tree.depth("Ailment") == 1
    assert tree.depth("Cancer") == 2
    assert tree.depth("CoVid") == 3
    assert tree.common_ancestor("Flu", "CoVid") == "Viral-Infection"
    assert tree.common_ancestor("Flu", "Cancer") == "Ailment"
    assert tree.is_strict_descendant("CoVid", "Viral-Infection")
    assert not tree.is_strict_descendant("CoVid", "CoVid")


def _walk(tree, node):
    """The root path by walking the parent map."""
    path = [node]
    while path[-1] != tree.root:
        path.append(tree.parent[path[-1]])
    return path


def test_cached_root_paths_match_the_parent_map_walk():
    rng = random.Random(407)
    for _ in range(300):
        n = rng.randint(1, 30)
        tree = TaxonomyTree("t", "n0", {f"n{i}": f"n{rng.randrange(i)}" for i in range(1, n)})
        nodes = sorted(tree.nodes)
        for _ in range(20):
            x, y = rng.choice(nodes), rng.choice(nodes)
            ys = set(_walk(tree, y))
            assert tree.common_ancestor(x, y) == next(a for a in _walk(tree, x) if a in ys)
            assert tree.is_strict_descendant(x, y) == (y in _walk(tree, x)[1:])
        assert not tree.is_strict_descendant(x, "elsewhere")
        with pytest.raises(ValueError, match="^node 'elsewhere' not in taxonomy t$"):
            tree.common_ancestor(x, "elsewhere")


def test_deep_chain_listed_deepest_first_is_linear():
    """A 40k-node chain whose parent map lists the deepest node first: the
    depth pass and the ancestor walks are linear in the chain, so this
    stays far inside a second of process time."""
    n = 40_000
    start = time.process_time()
    tree = TaxonomyTree("t", "n0", {f"n{i}": f"n{i - 1}" for i in range(n - 1, 0, -1)})
    assert tree.depth(f"n{n - 1}") == n
    assert tree.common_ancestor(f"n{n - 1}", f"n{n // 2}") == f"n{n // 2}"
    assert tree.is_strict_descendant(f"n{n - 1}", "n1")
    assert time.process_time() - start < 5


def test_taxonomy_cycle_rejected():
    with pytest.raises(ValueError):
        TaxonomyTree("bad", "r", {"a": "b", "b": "a"})


def test_taxonomy_root_cannot_have_parent():
    with pytest.raises(ValueError):
        TaxonomyTree("bad", "r", {"r": "a", "a": "r"})


def test_taxon_parse_checks_membership():
    tree = TaxonomyTree("t", "root", {"leaf": "root"})
    cell = parse_cell("leaf", ColumnClass.TAXORAL, tree)
    assert cell == Taxon(tree, "leaf") and cell.tree is tree
    with pytest.raises(InputError, match="^node 'nope' not in taxonomy t$"):
        parse_cell("nope", ColumnClass.TAXORAL, tree)


def test_taxon_refuses_a_node_outside_its_tree():
    tree = TaxonomyTree("t", "root", {"leaf": "root"})
    with pytest.raises(InputError, match="^node 'x' not in taxonomy t$"):
        Taxon(tree, "x")
    # the root and a leaf are both nodes of the tree
    assert [Taxon(tree, n).node for n in ("root", "leaf")] == ["root", "leaf"]


def test_taxons_compare_by_tree_name_and_node():
    """Two trees of one name, as two loads of one scenario make: their
    taxons of one node are equal, hash alike and print alike; another name
    or node is another taxon."""
    t1 = TaxonomyTree("t", "root", {"leaf": "root"})
    t2 = TaxonomyTree("t", "root", {"leaf": "root"})
    other = TaxonomyTree("u", "root", {"leaf": "root"})
    assert Taxon(t1, "leaf") == Taxon(t2, "leaf")
    assert hash(Taxon(t1, "leaf")) == hash(Taxon(t2, "leaf"))
    assert repr(Taxon(t1, "leaf")) == "Taxon(tree=<TaxonomyTree 't'>, node='leaf')"
    assert Taxon(t1, "leaf") != Taxon(other, "leaf")
    assert Taxon(t1, "leaf") != Taxon(t2, "root")


def test_numbers_compare_by_value_not_by_their_columns_d():
    """A number holds its column's D, which parse_cell hands it; one value
    read in two columns is one value, and a D that is not positive is
    refused."""
    assert Number(5, Fraction(10)) == Number(5)
    assert hash(Number(5, Fraction(10))) == hash(Number(5))
    assert Number(5, Fraction(10)) != Number(6, Fraction(10))
    cell = parse_cell("5", ColumnClass.NUMERICAL, None, Fraction(10))
    assert cell.bound == 10 and parse_cell("5", ColumnClass.NUMERICAL).bound is None
    for bad in (0, Fraction(-1, 2)):
        with pytest.raises(InputError, match="^normalizer D must be positive$"):
            Number(1, bad)


@pytest.mark.parametrize("text, cls, message", [
    (" ", ColumnClass.NOMINAL, "empty cell"),
    ("{a,}", ColumnClass.NOMINAL, "bad atom set '{a,}'"),
    ("leaf", ColumnClass.TAXORAL, "taxoral cell requires a taxonomy"),
])
def test_parse_cell_refusals(text, cls, message):
    with pytest.raises(ValueError) as err:
        parse_cell(text, cls)
    assert str(err.value) == message


def test_split_top_level_respects_nesting():
    assert split_top_level("a,{b,c},[1-2]") == ["a", "{b,c}", "[1-2]"]
    assert split_top_level("(x,y),z") == ["(x,y)", "z"]
    with pytest.raises(ValueError):
        split_top_level("a,{b")



# Pieces of a random string: text, commas, every bracket alone (stray or
# mismatched), flat pairs, nested pairs and pairs of the wrong kinds.
PIECES = ["a", "bc", " ", ",", ",", "(", ")", "[", "]", "{", "}", "{a,b}", "[1-2]",
          "(x,y)", "()", "[]", "{}", "({a,b})", "[(,)]", "{[}]", "(]", "[)", "((", "))"]


def _bracket_string(rng: random.Random) -> str:
    if rng.random() < 0.4:  # balanced: some pair kind around a shorter string
        inner = ",".join(_bracket_string(rng) for _ in range(rng.randint(0, 2)))
        opener, closer = rng.choice(["()", "[]", "{}", "(}", "[)"])
        return rng.choice(PIECES[:3]) + opener + inner + closer
    return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 6)))


def _split_outcome(split, text: str) -> list[str] | str:
    try:
        return split(text)
    except ValueError as exc:
        return str(exc)


def test_split_top_level_matches_the_character_walk():
    """The one-pass scanner against the character walk it replaced
    (`tests/reference.py`): equal parts, or an equal error text."""
    from reference import split_top_level as walk

    rng = random.Random(20261019)
    counts = {"empty": 0, "error": 0, "whole": 0, "split": 0}
    for _ in range(100_000):
        text = _bracket_string(rng)
        got = _split_outcome(split_top_level, text)
        assert got == _split_outcome(walk, text), text
        counts["empty" if not text else "error" if isinstance(got, str)
               else "split" if len(got) > 1 else "whole"] += 1
    assert min(counts.values()) > 1000, counts
