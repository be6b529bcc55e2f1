"""Reconstructed-tree data model and Newick I/O.

A :class:`ReconTree` is a rooted binary tree on n sampled extant tips.
Node times (ages before the present) are the source of truth; edge lengths
are derived as parent age minus child age.  Leaves are nodes 0..n-1 (age 0),
internal nodes are n..2n-2, and the root is the internal node of maximal
age, which equals the MRCA age x1.

A :class:`FullTree` is the raw output of forward simulation: a table of
lineage segments that may include the stem above the root, extinct tips,
and unsampled extant tips.  :func:`recontree.sim.reconstruct` prunes it
down to a ReconTree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

__all__ = [
    "ReconTree",
    "FullTree",
    "to_newick",
    "from_newick",
    "NewickError",
]


class ReconTree:
    """Rooted binary ultrametric tree with ages as the source of truth."""

    __slots__ = ("n", "times", "parent", "children", "root", "_labels")

    def __init__(self, times, parent, children=None, labels=None, validate=True):
        self.times = np.asarray(times, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        total = self.times.shape[0]
        if total < 3 or total % 2 == 0:
            raise ValueError(f"node count must be odd and >= 3, got {total}")
        self.n = (total + 1) // 2
        if children is None:
            # a stable sort by parent puts the root (parent -1) first, then
            # the two children of each internal node in ascending node order;
            # _validate rejects the tables that this does not fit
            order = np.argsort(self.parent, kind="stable")
            self.root = int(order[0])
            children = order[1:].reshape(self.n - 1, 2)
        else:
            self.root = int(self.parent.argmin())
        self.children = np.asarray(children, dtype=np.int64)
        self._labels = list(labels) if labels is not None else None
        if validate:
            self._validate()

    @property
    def labels(self):
        if self._labels is None:
            self._labels = [f"t{i + 1}" for i in range(self.n)]
        return self._labels

    def _validate(self):
        n = self.n
        if len(self.labels) != n:
            raise ValueError("label count must equal leaf count")
        if np.count_nonzero(self.parent < 0) != 1:
            raise ValueError("tree must have exactly one root")
        root = self.root
        if root < n:
            raise ValueError("root must be an internal node")
        if np.any(self.times[:n] != 0.0):
            raise ValueError("leaf ages must be 0")
        kids = self.children
        if kids.shape != (n - 1, 2) or np.any((kids < 0) | (kids >= 2 * n - 1)):
            raise ValueError("every internal node must have exactly 2 children")
        if np.any(self.parent[kids] != np.arange(n, 2 * n - 1)[:, None]):
            raise ValueError("children table inconsistent with parents")
        lens = self.edge_lengths()
        mask = np.ones(2 * n - 1, dtype=bool)
        mask[root] = False
        if np.any(lens[mask] <= 0.0):
            raise ValueError("all edge lengths must be > 0")
        if self.times[root] != self.times.max():
            raise ValueError("root must carry the maximal age")

    @property
    def mrca_age(self) -> float:
        return float(self.times[self.root])

    def edge_lengths(self) -> np.ndarray:
        """Length of the edge above each node; the root entry is 0."""
        lens = self.times[np.maximum(self.parent, 0)] - self.times
        lens[self.root] = 0.0
        return lens

    def children_of(self, node: int) -> Sequence[int]:
        return self.children[node - self.n]


# ---------------------------------------------------------------------------
# Newick serialization
# ---------------------------------------------------------------------------

class NewickError(ValueError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


def to_newick(t: ReconTree) -> str:
    """Serialize to Newick, each branch length as the shortest repr of its float.

    :func:`from_newick` gives back the topology and labels exactly, but
    rebuilds each age from summed branch lengths, so ages come back within a
    few ulps of the tree height and the text need not round-trip exactly.
    """
    lens = t.edge_lengths().tolist()
    kids = t.children.tolist()
    n, labels = t.n, t.labels
    # iterative post-order to avoid recursion limits on large trees
    stack = [(t.root, False)]
    pieces = {}
    while stack:
        node, done = stack.pop()
        if node < n:
            pieces[node] = labels[node]
            continue
        c0, c1 = kids[node - n]
        if not done:
            stack += ((node, True), (c1, False), (c0, False))
        else:
            pieces[node] = (f"({pieces.pop(c0)}:{lens[c0]!r},"
                            f"{pieces.pop(c1)}:{lens[c1]!r})")
    return pieces[t.root] + ";"


def from_newick(text: str) -> ReconTree:
    """Parse a binary ultrametric Newick string into a ReconTree.

    Rejects non-binary topologies and trees whose tips are not
    contemporaneous (within 1e-9 relative of the tree height).
    """
    # the parser recurses once per nesting level; the limit is restored
    # whether or not the text parses
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * (text.count("(") + 100)))
    try:
        return _parse_newick(text)
    finally:
        sys.setrecursionlimit(old_limit)


def _parse_newick(text: str) -> ReconTree:
    text = text.strip()
    if not text.endswith(";"):
        raise NewickError("newick must end with ';'", len(text))
    s = text[:-1]
    pos = 0

    leaf_labels: List[str] = []
    # parsed node: (is_leaf, payload) where payload is a label or [children]
    # each child entry is (node, length)

    def error(msg):
        raise NewickError(msg, pos)

    def parse_clade():
        nonlocal pos
        if pos < len(s) and s[pos] == "(":
            pos += 1
            kids = [parse_child()]
            while pos < len(s) and s[pos] == ",":
                pos += 1
                kids.append(parse_child())
            if pos >= len(s) or s[pos] != ")":
                error("expected ')' or ','")
            pos += 1
            if len(kids) != 2:
                error(f"non-binary node with {len(kids)} children")
            # optional internal label, ignored
            while pos < len(s) and s[pos] not in ":,();":
                pos += 1
            return (False, kids)
        start = pos
        while pos < len(s) and s[pos] not in ":,();":
            pos += 1
        label = s[start:pos]
        if not label:
            error("expected a leaf label")
        return (True, label)

    def parse_child():
        nonlocal pos
        node = parse_clade()
        if pos >= len(s) or s[pos] != ":":
            error("expected ':<length>'")
        pos += 1
        start = pos
        while pos < len(s) and s[pos] not in ",();":
            pos += 1
        try:
            length = float(s[start:pos])
        except ValueError:
            error(f"bad branch length {s[start:pos]!r}")
        if not np.isfinite(length) or length <= 0:
            error(f"branch length must be finite and > 0, got {length}")
        return (node, length)

    root = parse_clade()
    if pos != len(s):
        error("trailing characters after tree")
    if root[0]:
        raise NewickError("root must have 2 children")

    # depth-first numbering: leaves first in encounter order
    entries = []  # (is_leaf, payload, depth) flattened with child order kept

    def walk(node, depth):
        is_leaf, payload = node
        if is_leaf:
            leaf_labels.append(payload)
            return ("leaf", len(leaf_labels) - 1, depth, None)
        kids = [(walk(child, depth + length), length) for child, length in payload]
        entries.append(None)  # placeholder to count internals
        return ("internal", len(entries) - 1, depth, kids)

    tree = walk(root, 0.0)
    n = len(leaf_labels)
    total = 2 * n - 1
    if len(entries) != n - 1:
        raise NewickError("tree is not strictly binary")

    times = np.zeros(total)
    parent = np.full(total, -1, dtype=np.int64)
    children = np.full((n - 1, 2), -1, dtype=np.int64)

    # height from leaf depths; require ultrametric tips
    depths = []

    def collect(nd):
        kind, idx, depth, kids = nd
        if kind == "leaf":
            depths.append(depth)
        else:
            for child, _ in kids:
                collect(child)

    collect(tree)
    height = max(depths)
    tol = 1e-9 * max(height, 1.0)
    if max(depths) - min(depths) > tol:
        raise NewickError("tips are not contemporaneous (tree not ultrametric)")

    def assign(nd):
        kind, idx, depth, kids = nd
        if kind == "leaf":
            return idx
        node = n + idx
        times[node] = height - depth
        for slot, (child, _) in enumerate(kids):
            ci = assign(child)
            parent[ci] = node
            children[idx, slot] = ci
        return node

    assign(tree)
    return ReconTree(times, parent, children=children, labels=leaf_labels)


# ---------------------------------------------------------------------------
# Full (unpruned) simulated trees
# ---------------------------------------------------------------------------

INTERNAL, EXTINCT, EXTANT = 0, 1, 2


@dataclass
class FullTree:
    """Lineage-segment table from forward simulation.

    Each row is one lineage: born at ``btime``, ending at ``etime`` by a
    split (INTERNAL), an extinction (EXTINCT), or reaching the present
    (EXTANT).  Lineage 0 is the stem; parents always precede children.
    ``present`` is the forward time at which the process was stopped.
    """

    parent: List[int] = field(default_factory=list)
    btime: List[float] = field(default_factory=list)
    etime: List[float] = field(default_factory=list)
    kind: List[int] = field(default_factory=list)
    sampled: List[bool] = field(default_factory=list)
    present: float = 0.0

    @property
    def n_lineages(self) -> int:
        return len(self.parent)

    def sampled_tip_count(self) -> int:
        return sum(
            1 for k, s in zip(self.kind, self.sampled) if k == EXTANT and s
        )
