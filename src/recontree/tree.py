"""Reconstructed-tree data model and Newick I/O.

A :class:`ReconTree` is a rooted binary tree on n sampled extant tips.
Node times (ages before the present) are the source of truth; edge lengths
are derived as parent age minus child age.  Leaves are nodes 0..n-1 (age 0),
internal nodes are n..2n-2, and the root is the internal node of maximal
age, which equals the MRCA age x1.

:func:`to_newick` and :func:`from_newick` convert to and from Newick text
without recursion; the parser rebuilds each age bottom-up from the lengths.

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

    :func:`from_newick` gives back the topology and labels exactly, and each
    age as a child's age plus that child's length: exact for most nodes, and
    within about an ulp of the age otherwise, so the text need not round-trip
    exactly.
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


_TOKEN = re.compile(r"[(),;]|:[^,();]*|[^:,();]+")


def from_newick(text: str) -> ReconTree:
    """Parse a binary ultrametric Newick string into a ReconTree.

    One pass over the tokens on an explicit stack.  Leaves are numbered in
    text order and internal nodes in post-order.  A tip's age is 0 and a
    node's age is a child's age plus that child's length, from a tip child if
    there is one (exact) and else from the older child.  Rejects non-binary
    topologies and trees whose tips are not contemporaneous (within 1e-9
    relative of the tree height).
    """
    text = text.strip()
    if not text.endswith(";"):
        raise NewickError("newick must end with ';'", len(text))
    s = text[:-1]
    tokens = [(m.start(), m.group()) for m in _TOKEN.finditer(s)]
    tokens.append((len(s), ""))  # end of text
    labels: List[str] = []
    kids: List[tuple] = []  # per internal node: its two child refs
    ages: List[float] = []  # per internal node
    # a clade is (ref, age, min tip depth, max tip depth); ref is a leaf
    # index, or ~i for internal node i.  Each open clade on the stack lists
    # its children so far as (clade, length).
    stack: List[list] = []
    i = 0
    while True:
        pos, tok = tokens[i]
        while tok == "(":
            stack.append([])
            i += 1
            pos, tok = tokens[i]
        if tok[:1] in "(),;:":  # also the end of text
            raise NewickError("expected a leaf label", pos)
        clade = (len(labels), 0.0, 0.0, 0.0)
        labels.append(tok)
        i += 1
        while stack:
            pos, tok = tokens[i]
            if tok[:1] != ":":
                raise NewickError("expected ':<length>'", pos)
            end = pos + len(tok)
            try:
                length = float(tok[1:])
            except ValueError:
                raise NewickError(f"bad branch length {tok[1:]!r}", end) from None
            if not math.isfinite(length) or length <= 0:
                raise NewickError(
                    f"branch length must be finite and > 0, got {length}", end)
            stack[-1].append((clade, length))
            pos, tok = tokens[i + 1]
            i += 2
            if tok == ",":
                break
            if tok != ")":
                raise NewickError("expected ')' or ','", pos)
            frame = stack.pop()
            if len(frame) != 2:
                raise NewickError(f"non-binary node with {len(frame)} children", pos + 1)
            ((r0, a0, lo0, hi0), l0), ((r1, a1, lo1, hi1), l1) = frame
            # a tip child gives the age exactly; else the older child, whose
            # length was most likely an exact subtraction
            age = a0 + l0 if r0 >= 0 or (r1 < 0 and a0 >= a1) else a1 + l1
            clade = (~len(ages), age, min(lo0 + l0, lo1 + l1), max(hi0 + l0, hi1 + l1))
            kids.append((r0, r1))
            ages.append(age)
            if tokens[i][1][:1] not in "(),;:":
                i += 1  # an internal label, ignored
        else:
            break
    pos, tok = tokens[i]
    if tok:
        raise NewickError("trailing characters after tree", pos)
    if not ages:
        raise NewickError("root must have 2 children")
    _, _, lo, hi = clade
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
