import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newick_reference as reference
from recontree import sim
from recontree.kernel import Params
from recontree.tree import NewickError, ReconTree, from_newick, to_newick


def cherry(x1=1.0):
    return ReconTree([0.0, 0.0, x1], [2, 2, -1])


def four_leaf():
    # ((t1,t2),(t3,t4)) with splits at 3, 1, 2
    times = [0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 2.0]
    parent = [5, 5, 6, 6, -1, 4, 4]
    return ReconTree(times, parent)


class TestReconTree:
    def test_basic_shape(self):
        t = four_leaf()
        assert t.n == 4
        assert t.root == 4
        assert t.mrca_age == 3.0
        assert t.labels == ["t1", "t2", "t3", "t4"]

    def test_edge_lengths(self):
        t = four_leaf()
        lens = t.edge_lengths()
        assert lens[0] == 1.0 and lens[2] == 2.0
        assert lens[5] == 2.0 and lens[6] == 1.0
        assert lens[4] == 0.0  # root carries no edge

    def test_rejects_two_roots(self):
        with pytest.raises(ValueError, match="one root"):
            ReconTree([0.0, 0.0, 1.0], [2, -1, -1])

    def test_rejects_nonzero_leaf_age(self):
        with pytest.raises(ValueError, match="leaf ages"):
            ReconTree([0.0, 0.1, 1.0], [2, 2, -1])

    def test_rejects_nonpositive_edge(self):
        times = [0.0, 0.0, 0.0, 0.0, 3.0, 3.5, 2.0]  # node 5 older than root
        parent = [5, 5, 6, 6, -1, 4, 4]
        with pytest.raises(ValueError):
            ReconTree(times, parent)

    def test_rejects_node_with_three_children(self):
        # node 3 holds all three leaves, so the root 4 has one child
        with pytest.raises(ValueError, match="inconsistent"):
            ReconTree([0.0, 0.0, 0.0, 1.0, 2.0], [3, 3, 3, 4, -1])

    def test_rejects_even_node_count(self):
        with pytest.raises(ValueError, match="odd"):
            ReconTree([0.0, 0.0, 1.0, 2.0], [2, 2, -1, -1])

    @pytest.mark.parametrize("times, parent, kwargs, message", [
        ([0.0, 0.0, 1.0], [2, 2, -1], {"labels": ["a"]}, "label count must equal leaf count"),
        ([0.0, 0.0, 1.0], [-1, 0, 0], {}, "root must be an internal node"),
        ([0.0, 0.0, 1.0], [2, 2, -1], {"children": [[0, 3]]},
         "every internal node must have exactly 2 children"),
        # a NaN age passed the edge-length check and was refused as "root must
        # carry the maximal age"; an infinite one was accepted and written as
        # "inf", which from_newick refuses
        ([0.0, 0.0, math.nan], [2, 2, -1], {}, "ages must be finite"),
        ([0.0, 0.0, math.inf], [2, 2, -1], {}, "ages must be finite"),
        ([0.0, 0.0, 0.0, math.inf, math.inf], [4, 4, 3, -1, 3], {}, "ages must be finite"),
        # a table that lists node 3 twice and node 2 never was accepted, and
        # to_newick wrote unbalanced text; a parent past the last node raised
        # IndexError
        ([0.0, 0.0, 0.0, 1.0, 2.0], [3, 3, 4, 4, -1], {"children": [[0, 1], [3, 3]]},
         "list every non-root node exactly once"),
        ([0.0, 0.0, 0.0, 1.0, 2.0], [3, 3, 9, 4, -1], {"children": [[0, 1], [3, 3]]},
         r"every parent must be an internal node, in \[3, 5\)"),
        ([0.0, 0.0, 0.0, 1.0, 2.0], [3, 3, 9, 4, -1], {}, "every parent must be an internal node"),
        ([0.0, 0.0, 0.0, 1.0, 2.0], [3, 3, 1, 4, -1], {}, "every parent must be an internal node"),
    ])
    def test_rejects_malformed_table(self, times, parent, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ReconTree(times, parent, **kwargs)

    @pytest.mark.parametrize("label", ["a:b", "a,b", "", "a(", "b)", "a;b", 7])
    def test_rejects_label_newick_cannot_read_back(self, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            ReconTree([0.0, 0.0, 1.0], [2, 2, -1], labels=[label, "c"])


class TestTreeStats:
    def test_diversity_identity(self):
        # diversity = 2 x1 + sum of the non-root speciation times
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = sim.sample_given_n_age(8, 2.0, Params(1.0, 0.5), rng)
            speciation_times = np.sort(t.times[t.n:])[::-1]
            assert t.edge_lengths().sum() == pytest.approx(
                2 * t.mrca_age + speciation_times[1:].sum(), rel=1e-12
            )


def children_by_loop(parent, n):
    """Reference child table: one pass over the nodes in ascending order."""
    children = np.full((n - 1, 2), -1, dtype=np.int64)
    for node, par in enumerate(parent):
        if par >= 0:
            row = children[par - n]
            row[0 if row[0] < 0 else 1] = node
    return children


@st.composite
def binary_trees(draw):
    """(times, parent) of a random binary tree with a random node numbering."""
    n = draw(st.integers(2, 40))
    rand = draw(st.randoms(use_true_random=False))
    internal = list(range(n, 2 * n - 1))
    rand.shuffle(internal)  # merge order, so the root may be any internal node
    parent = [-1] * (2 * n - 1)
    times = [0.0] * (2 * n - 1)
    free = list(range(n))
    for age, v in enumerate(internal, start=1):
        for _ in range(2):
            parent[free.pop(rand.randrange(len(free)))] = v
        times[v] = float(age)
        free.append(v)
    return times, parent


class TestDerivedChildren:
    @settings(max_examples=200, deadline=None)
    @given(binary_trees())
    def test_matches_per_node_loop(self, tree):
        times, parent = tree
        t = ReconTree(times, parent)
        assert t.root == parent.index(-1)
        np.testing.assert_array_equal(t.children, children_by_loop(parent, t.n))
        assert t.children.dtype == np.int64

    @settings(max_examples=50, deadline=None)
    @given(binary_trees())
    def test_given_children_keep_the_root(self, tree):
        times, parent = tree
        t = ReconTree(times, parent)
        u = ReconTree(times, parent, children=t.children)
        assert u.root == t.root


class TestNewick:
    def test_serialize_cherry(self):
        assert to_newick(cherry()) == "(t1:1.0,t2:1.0);"

    def test_round_trip_small(self):
        # internal node numbering may differ; the serialized form must not
        t = four_leaf()
        u = from_newick(to_newick(t))
        assert u.n == t.n
        assert to_newick(u) == to_newick(t)
        assert sorted(u.times) == sorted(t.times)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = sim.sample_yule_given_n(15, 1.0, rng)
            u = from_newick(to_newick(t))
            assert to_newick(u) == to_newick(t)
            assert sorted(u.times) == sorted(t.times)
        # given (n, x1) the text need not round-trip: the parser rebuilds each
        # age bottom-up as a child's age plus its length, which is exact for
        # most nodes and otherwise within an ulp of the age itself
        def topology(s):
            return re.sub(r":[^,)]+", "", s)
        for n in (20,) * 10 + (10_000,):
            t = sim.sample_given_n_age(n, 10.0, Params(1.0, 0.5), rng)
            u = from_newick(to_newick(t))
            assert topology(to_newick(u)) == topology(to_newick(t))
            np.testing.assert_allclose(np.sort(u.times), np.sort(t.times),
                                       rtol=1e-15, atol=0)

    def test_round_trip_large(self):
        t = sim.sample_yule_given_n(10_000, 1.0, np.random.default_rng(5))
        s = to_newick(t)
        u = from_newick(s)
        assert u.n == 10_000
        assert to_newick(u) == s

    def test_labels_preserved(self):
        u = from_newick("(a:1.0,(b:0.5,c:0.5):0.5);")
        assert u.labels == ["a", "b", "c"]
        assert u.mrca_age == 1.0

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("(t1:1,t2:1)", "end with ';'"),
            ("(t1:1.0,t2:1.0,t3:1.0);", "non-binary"),
            ("(t1:1.0,t2:x);", "bad branch length"),
            ("(t1:1.0,t2:-1.0);", "must be finite and > 0"),
            ("(t1:1.0,t2:1.0);;", "trailing"),
            ("(t1,t2);", "expected ':"),
            ("t1;", "root must have 2 children"),
            ("(:1.0,t2:1.0);", "leaf label"),
        ],
    )
    def test_parse_errors(self, text, msg):
        with pytest.raises(NewickError, match=msg):
            from_newick(text)

    def test_error_position(self):
        with pytest.raises(NewickError) as exc:
            from_newick("(t1:1.0,t2:bad);")
        assert exc.value.pos == 14

    def test_rejects_non_ultrametric(self):
        with pytest.raises(NewickError, match="ultrametric"):
            from_newick("(t1:1.0,t2:2.0);")

    @pytest.mark.parametrize("text", ["(" * 3000 + "t1:1.0;", "(" * 3000 + ";"],
                             ids=["unclosed", "no-leaf"])
    def test_failed_parse_restores_recursion_limit(self, text):
        limit = sys.getrecursionlimit()
        with pytest.raises(NewickError):
            from_newick(text)
        assert sys.getrecursionlimit() == limit

    def test_deep_parse_restores_recursion_limit(self):
        limit = sys.getrecursionlimit()
        text = "(t1:1.0,t2:1.0)"  # a caterpillar: nesting depth n - 1
        for i in range(3, 1001):
            text = f"({text}:1.0,t{i}:{i - 1}.0)"
        assert from_newick(text + ";").n == 1000
        assert sys.getrecursionlimit() == limit

    def test_deep_parse_needs_no_recursion(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("from_newick must not touch the recursion limit")
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 20_001  # a caterpillar: nesting depth n - 1
        text = ("(" * (n - 1) + "t1:1.0,t2:1.0)"
                + "".join(f":1.0,t{i}:{i - 1}.0)" for i in range(3, n + 1)) + ";")
        u = from_newick(text)
        assert u.n == n
        assert u.mrca_age == n - 1
        assert to_newick(u) == text

    def test_accepts_tiny_depth_jitter(self):
        u = from_newick("(t1:1.0,t2:1.0000000001);")
        assert u.n == 2


# any label that ReconTree accepts: no delimiter or ':', and not empty
LABELS = st.text(st.characters(exclude_characters="(),:;", exclude_categories=("Cs",)),
                 min_size=1, max_size=6)


@st.composite
def labelled_trees(draw):
    """A random binary tree with random ages and random leaf labels."""
    times, parent = draw(binary_trees())
    n = (len(times) + 1) // 2
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    ages = np.cumsum(gaps).tolist()  # increasing, so each parent stays older
    times = [ages[int(a) - 1] if a else 0.0 for a in times]
    labels = draw(st.lists(LABELS, min_size=n, max_size=n))
    return ReconTree(times, parent, labels=labels)


def parsed(parse, text):
    """What a parser makes of ``text``: the tree's arrays and labels, or its error."""
    try:
        u = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return (u.times.tobytes(), u.parent.tobytes(), u.children.tobytes(),
            u.children.shape, u.labels)


class TestNewickAgainstReference:
    """The linear-time writer and parser against the per-token reference."""

    @settings(max_examples=200, deadline=None)
    @given(labelled_trees())
    def test_same_text_and_same_tree(self, t):
        text = to_newick(t)
        assert text == reference.to_newick(t)
        assert parsed(from_newick, text) == parsed(reference.from_newick, text)
        assert sorted(from_newick(text).labels) == sorted(t.labels)

    @settings(max_examples=200, deadline=None)
    @given(labelled_trees(), st.data())
    def test_same_error_or_same_tree_after_one_edit(self, t, data):
        text = to_newick(t)
        edits = data.draw(st.lists(st.tuples(
            st.integers(0, len(text)), st.sampled_from(["insert", "delete", "replace"]),
            st.sampled_from("(),:;a1.e- ")), min_size=1, max_size=20))
        for i, edit, c in edits:  # each edit on its own, to the valid text
            if edit == "insert":
                edited = text[:i] + c + text[i:]
            elif edit == "delete":
                edited = text[:i] + text[i + 1:]
            else:
                edited = text[:i] + c + text[i + 1:]
            assert parsed(from_newick, edited) == parsed(reference.from_newick, edited)

    @pytest.mark.parametrize("text", [
        # two internal children of equal age: the first one gives the age
        "((a:1,b:1):0.3,(c:1,d:1):0.3000000001);",
        # internal labels, spaces around the parts, and text around the tree
        " ( a:1.0 ,(b:0.5,c:0.5)x:0.5 )root;\n",
    ])
    def test_same_tree_as_reference(self, text):
        assert parsed(from_newick, text) == parsed(reference.from_newick, text)

    def test_caterpillar_writes_back_its_own_text(self):
        n = 2_000
        text = ("(" * (n - 1) + "t1:1.0,t2:1.0)"
                + "".join(f":1.0,t{i}:{i - 1}.0)" for i in range(3, n + 1)) + ";")
        u = from_newick(text)
        assert parsed(from_newick, text) == parsed(reference.from_newick, text)
        assert to_newick(u) == reference.to_newick(u) == text
