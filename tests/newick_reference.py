"""Reference Newick writer and parser: the per-subtree writer and per-token
parser that ``recontree.tree`` replaced, kept verbatim.

``tests/test_tree.py`` requires the library's ``to_newick`` and
``from_newick`` to agree with these bit for bit: the same text, the same
parsed ages, parents, children and labels, and the same ``NewickError``
message and position.  The writer nests each subtree's string in its
parent's, so it is quadratic in the depth of the tree; use it on small trees.
"""

from __future__ import annotations

import math
import re
from typing import List

import numpy as np

from recontree.tree import NewickError, ReconTree


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
