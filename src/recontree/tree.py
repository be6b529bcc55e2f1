"""Reconstructed-tree data model and Newick I/O.

A :class:`ReconTree` is a rooted binary tree on n sampled extant tips.
Node times (ages before the present) are the source of truth; edge lengths
are derived as parent age minus child age.  Leaves are nodes 0..n-1 (age 0),
internal nodes are n..2n-2, and the root is the internal node of maximal
age, which equals the MRCA age x1.

:func:`to_newick` and :func:`from_newick` convert to and from Newick text
without recursion, in time linear in n for any shape, caterpillars included:
the writer collects its pieces in one preorder pass and joins them once, and
the parser walks the parts of one ``re.split`` at the delimiters.  The parser
rebuilds each age bottom-up from the lengths.  The writer, :func:`_newick`,
takes one tree's children and lengths as lists, so that
:meth:`recontree.sim.TreeBatch.newick` writes a sampled row with it from the
batch's tables, without building a ReconTree.  The text written, the ages
read back and every ``NewickError`` equal, bit for bit, those of the
per-token reference kept in the tests.

A :class:`FullTree` is the raw output of forward simulation: a table of
lineage segments that may include the stem above the root, extinct tips,
and unsampled extant tips.  :func:`recontree.sim.reconstruct` prunes it
down to a ReconTree.
"""

from __future__ import annotations

import math
import re
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


_RESERVED = re.compile(r"[(),:;]").search


def _check_labels(labels):
    """Refuse a label that :func:`from_newick` could not read back as written."""
    try:
        ok = "" not in labels and not _RESERVED("".join(labels))
    except TypeError:  # a label that is not a string
        ok = False
    if not ok:
        bad = next(x for x in labels if not isinstance(x, str) or not x or _RESERVED(x))
        raise ValueError(f"label {bad!r} cannot be written as Newick: labels must be "
                         "non-empty strings without any of '(),:;'")


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
        self.root = int(self.parent.argmin())
        # _validate rejects the parents that the default table does not fit
        self.children = np.asarray(_children(self.parent) if children is None else children,
                                   dtype=np.int64)
        self._labels = list(labels) if labels is not None else None
        if validate:
            self._validate()

    @property
    def labels(self):
        if self._labels is None:
            self._labels = _tip_labels(self.n)
        return self._labels

    def _validate(self):
        if not np.all(np.isfinite(self.times)):
            raise ValueError("ages must be finite")
        n = self.n
        if len(self.labels) != n:
            raise ValueError("label count must equal leaf count")
        if self._labels is not None:
            _check_labels(self._labels)
        if np.count_nonzero(self.parent < 0) != 1:
            raise ValueError("tree must have exactly one root")
        root = self.root
        if root < n:
            raise ValueError("root must be an internal node")
        if np.any(self.times[:n] != 0.0):
            raise ValueError("leaf ages must be 0")
        others = np.delete(self.parent, root)
        if np.any((others < n) | (others >= 2 * n - 1)):
            raise ValueError(f"every parent must be an internal node, in [{n}, {2 * n - 1})")
        kids = self.children
        if kids.shape != (n - 1, 2) or np.any((kids < 0) | (kids >= 2 * n - 1)):
            raise ValueError("every internal node must have exactly 2 children")
        if np.any(np.bincount(kids.ravel(), minlength=2 * n - 1) != (np.arange(2 * n - 1) != root)):
            raise ValueError("the children table must list every non-root node exactly once")
        if np.any(self.parent[kids] != np.arange(n, 2 * n - 1)[:, None]):
            raise ValueError("children table inconsistent with parents")
        # finite ages and positive edges leave the root the oldest node
        if np.any(np.delete(self.edge_lengths(), root) <= 0.0):
            raise ValueError("all edge lengths must be > 0")

    @property
    def mrca_age(self) -> float:
        return float(self.times[self.root])

    def edge_lengths(self) -> np.ndarray:
        """Length of the edge above each node; the root entry is 0."""
        return _edge_lengths(self.times, self.parent, self.root)

    def children_of(self, node: int) -> Sequence[int]:
        return self.children[node - self.n]


def _tip_labels(n: int) -> List[str]:
    """The default leaf labels t1..tn."""
    return [f"t{i + 1}" for i in range(n)]


def _children(parent: np.ndarray) -> np.ndarray:
    """The children table of one tree's parents, (n-1, 2), or of each row of several,
    (R, n-1, 2): a stable sort by parent puts the root (parent -1) first, then the
    two children of each internal node n+k, at [..., k], in ascending node order."""
    order = np.argsort(parent, axis=-1, kind="stable")
    return order[..., 1:].reshape(*parent.shape[:-1], -1, 2)


def _edge_lengths(times: np.ndarray, parent: np.ndarray, root) -> np.ndarray:
    """Parent age minus node age, for one tree or each row of several; 0 at node
    ``root``."""
    lens = np.take_along_axis(times, np.maximum(parent, 0), axis=-1) - times
    lens[..., root] = 0.0
    return lens


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

    :func:`from_newick` gives back the topology and labels exactly, and each
    age as a child's age plus that child's length: exact for most nodes, and
    within about an ulp of the age otherwise, so the text need not round-trip
    exactly.  One preorder pass collects the pieces and one join writes them,
    so the cost is linear in n whatever the tree's depth.
    """
    return _newick(t.n, t.labels, t.children.tolist(), t.edge_lengths().tolist(), t.root)


def _newick(n: int, labels: List[str], kids: List[list], lens: List[float], root: int) -> str:
    """The Newick text of one tree from Python lists: ``kids[v - n]`` holds the
    two children of internal node v, and ``lens[v]`` the edge above node v."""
    # what follows a node's subtree: its length, then ',' after a first child
    # and ')' after a second; the root is followed by ';'
    close = [";"] * (2 * n - 1)
    for c0, c1 in kids:
        close[c0] = f":{lens[c0]!r},"
        close[c1] = f":{lens[c1]!r})"
    out = []
    stack = [root]  # nodes still to write, and ~v for the close of node v
    emit, push, pop = out.append, stack.append, stack.pop
    while stack:
        v = pop()
        if v < 0:
            emit(close[~v])
            continue
        while v >= n:  # down the first children to a leaf
            emit("(")
            c0, c1 = kids[v - n]
            push(~v)
            push(c1)
            v = c0
        emit(labels[v])
        emit(close[v])
    return "".join(out)


_SPLIT = re.compile(r"([(),;])").split


def _position(parts, k):
    """Character offset of ``parts[k]`` in the text that ``parts`` split."""
    return sum(map(len, parts[:k]))


def from_newick(text: str) -> ReconTree:
    """Parse a binary ultrametric Newick string into a ReconTree.

    One ``re.split`` at the delimiters ``(),;`` and one pass over the parts,
    on an explicit stack: a step per leaf and one per ``)``.  Leaves are
    numbered in text order and internal nodes in post-order.  A tip's age is
    0 and a node's age is a child's age plus that child's length, from a tip
    child if there is one (exact) and else from the older child.  Rejects
    non-binary topologies and trees whose tips are not contemporaneous
    (within 1e-9 relative of the tree height).  The cost is linear in the
    text's length, however deep the tree.
    """
    text = text.strip()
    if not text.endswith(";"):
        raise NewickError("newick must end with ';'", len(text))
    # text parts at even indices, each followed by its delimiter; "" ends it
    parts = _SPLIT(text[:-1])
    parts.append("")
    labels: List[str] = []
    kids: List[tuple] = []  # per internal node: its two child refs
    ages: List[float] = []  # per internal node
    # the last clade read is (ref, age, min tip depth, max tip depth); ref is
    # a leaf index, or ~i for internal node i.  Each open clade on the stack
    # lists its children so far, five numbers each: the four and the length.
    stack: List[list] = []
    isfinite = math.isfinite
    j = 0
    while True:
        part = parts[j]
        while not part and parts[j + 1] == "(":
            stack.append([])
            j += 2
            part = parts[j]
        label, colon, length = part.partition(":")
        if not label:
            raise NewickError("expected a leaf label", _position(parts, j))
        ref, age, lo, hi = len(labels), 0.0, 0.0, 0.0
        labels.append(label)
        while stack:
            if not colon:
                raise NewickError("expected ':<length>'", _position(parts, j + 1))
            try:
                size = float(length)
            except ValueError:
                raise NewickError(f"bad branch length {length!r}",
                                  _position(parts, j + 1)) from None
            if not (size > 0 and isfinite(size)):
                raise NewickError(f"branch length must be finite and > 0, got {size}",
                                  _position(parts, j + 1))
            frame = stack[-1]
            frame += (ref, age, lo, hi, size)
            delim = parts[j + 1]
            j += 2
            if delim == ",":
                break
            if delim != ")":
                raise NewickError("expected ')' or ','", _position(parts, j - 1))
            stack.pop()
            if len(frame) != 10:
                raise NewickError(f"non-binary node with {len(frame) // 5} children",
                                  _position(parts, j - 1) + 1)
            r0, a0, lo0, hi0, l0, r1, a1, lo1, hi1, l1 = frame
            # a tip child gives the age exactly; else the older child, whose
            # length was most likely an exact subtraction
            age = a0 + l0 if r0 >= 0 or (r1 < 0 and a0 >= a1) else a1 + l1
            lo, hi, lo1, hi1 = lo0 + l0, hi0 + l0, lo1 + l1, hi1 + l1
            if lo1 < lo:
                lo = lo1
            if hi1 > hi:
                hi = hi1
            ref = ~len(ages)
            kids.append((r0, r1))
            ages.append(age)
            label, colon, length = parts[j].partition(":")  # an internal label, ignored
        else:
            break
    if colon or parts[j + 1]:  # a length or a delimiter after the root's label
        raise NewickError("trailing characters after tree", _position(parts, j) + len(label))
    if not ages:
        raise NewickError("root must have 2 children")
    if hi - lo > 1e-9 * max(hi, 1.0):
        raise NewickError("tips are not contemporaneous (tree not ultrametric)")
    n = len(labels)
    children = np.array(kids, dtype=np.int64)
    children = np.where(children < 0, n + ~children, children)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    parent[children] = np.arange(n, 2 * n - 1)[:, None]
    times = np.concatenate([np.zeros(n), ages])
    return ReconTree(times, parent, children=children, labels=labels)


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
