"""Mixed-labelled multifurcating unrooted trees.

Nodes live in an index-addressed arena of two lists, adjacency and
labels.  Once built, a tree changes only through its four growth rules,
their undo and ``requeue_edge``, so the enumeration code can apply a
growth rule, recurse, and undo it without copying the tree.  A node
optionally carries a species label; every leaf must be labelled,
internal nodes may be.  "Internal" always means degree >= 2.

Canonical form and Newick output share one serialization: the tree
rooted at its center (the smaller text of the <= 2 centers), with each
node's child codes sorted, so equal keys <=> label-preserving isomorphism
regardless of node numbering or display rooting.  One pass builds it
while finding the centers: leaves are peeled layer by layer, and each
peeled node's code goes to its one unpeeled neighbour (the classic
tree-isomorphism pass of Aho, Hopcroft and Ullman).  Newick is parsed by
one loop over the text with an explicit stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlreadyLabelledError,
    DuplicateLabelError,
    EmptyTreeError,
    NewickParseError,
    TreeStructureError,
)


@dataclass(frozen=True, order=True)
class CanonicalKey:
    """Value object identifying a tree up to labelled isomorphism.

    Keys sort as their canonical Newick texts do: UTF-8 keeps code-point
    order.
    """

    data: bytes

    def as_text(self) -> str:
        return self.data.decode()

    def __repr__(self):
        return f"CanonicalKey({self.data.decode()!r})"


class MixedTree:
    """Unrooted tree with optional species labels on any node.

    ``adj[u]`` lists node u's neighbours, or is None when slot u is free,
    that is, holds no node; ``label[u]`` is u's species or None, and None
    in a free slot.  These two lists are the whole tree.  The growth rules
    are built from two edits, subdividing an edge and hanging a leaf, and
    a new node takes the lowest free slot, or a new one at the end.
    """

    __slots__ = ("adj", "label")

    def __init__(self):
        self.adj: list[list[int] | None] = []
        self.label: list[str | None] = []

    @classmethod
    def single(cls, name: str) -> "MixedTree":
        t = cls()
        t._require_name(name)
        t._new_node(name, [])
        return t

    # -- checks and edits behind the growth rules ----------------------------

    def _at(self, u: int) -> list[int]:
        """adj[u]; a free slot or an id outside the arena raises TreeStructureError."""
        at = self.adj[u] if 0 <= u < len(self.adj) else None
        if at is None:
            raise TreeStructureError(f"no node {u}")
        return at

    def _require_edge(self, u: int, v: int):
        # Only u needs its bounds checked: adj[v] is read once v is in adj[u].
        at = self.adj[u] if 0 <= u < len(self.adj) else None
        if at is None or v not in at or self.adj[v] is None:
            raise TreeStructureError(f"no edge ({u}, {v})")

    def _require_name(self, name):
        """A new species name: a str (None is no species) on no node yet."""
        if not isinstance(name, str):
            raise TreeStructureError(f"species name {name!r} is not a str")
        if name in self.label:
            raise DuplicateLabelError(f"species {name!r} already labels a node")

    def _new_node(self, name: str | None, at: list[int]) -> int:
        """Id of a new node, in the lowest free slot or a new one at the end."""
        adj = self.adj
        try:
            u = adj.index(None)
        except ValueError:
            adj.append(at)
            self.label.append(name)
            return len(adj) - 1
        adj[u] = at
        self.label[u] = name
        return u

    def _subdivide(self, u: int, v: int, name: str | None) -> int:
        """Id of a new node w on edge (u, v): adj[w] is [u, v], w ends adj[u] and adj[v]."""
        w = self._new_node(name, [u, v])
        at = self.adj[u]
        at.remove(v)
        at.append(w)
        at = self.adj[v]
        at.remove(u)
        at.append(w)
        return w

    def _hang(self, node: int, name: str) -> int:
        """Hang a new leaf with species ``name`` on ``node``; returns its id."""
        leaf = self._new_node(name, [node])
        self.adj[node].append(leaf)
        return leaf

    # -- views ---------------------------------------------------------------

    def iter_nodes(self):
        for u, at in enumerate(self.adj):
            if at is not None:
                yield u

    def iter_edges(self):
        """Every edge once, as (u, v) with u < v, in a new list."""
        return [(u, v) for u, at in enumerate(self.adj) if at is not None for v in at if u < v]

    def species_node(self, name: str) -> int:
        # None would find a free or an unlabelled slot.
        if name is not None:
            try:
                return self.label.index(name)
            except ValueError:
                pass
        raise TreeStructureError(f"species {name!r} not in tree")

    def hang(self, root: int) -> tuple[list[int], list[int], list[list[int] | None]]:
        """Nodes in breadth-first order from ``root``, each one's parent (-1
        if none) and children in adjacency order (None if not reached), in
        one iterative pass.  A non-root node with one neighbour is a leaf.
        A ``root`` that is not a live node raises TreeStructureError."""
        self._at(root)
        adj = self.adj
        parent = [-1] * len(adj)
        kids: list[list[int] | None] = [None] * len(adj)
        order = [root]
        for v in order:
            at = adj[v]
            p = parent[v]
            if p >= 0 and len(at) == 1:
                kids[v] = []
                continue
            below = kids[v] = at.copy()
            if p >= 0:
                below.remove(p)
            for c in below:
                parent[c] = v
            order.extend(below)
        return order, parent, kids

    @property
    def num_nodes(self) -> int:
        return len(self.adj) - self.adj.count(None)

    @property
    def n_labelled(self) -> int:
        return len(self.label) - self.label.count(None)

    @property
    def n_unlabelled(self) -> int:
        return self.label.count(None) - self.adj.count(None)

    def __repr__(self):
        return (
            f"MixedTree(nodes={self.num_nodes}, labelled={self.n_labelled}, "
            f"unlabelled={self.n_unlabelled})"
        )

    @classmethod
    def from_arrays(cls, parent, kids, label) -> "MixedTree":
        """The tree whose node x has parent ``parent[x]`` (-1 if none),
        children ``kids[x]`` (None if x is not in the tree) and species
        ``label[x]``, as a :class:`~parsicompact.parsimony.ScoreResult`
        holds them.

        Arrays that are not one tree raise TreeStructureError: lists of
        unequal length, no live node with parent -1, a child whose parent
        is another node, a node listed twice, a live node the root does not
        reach (so a second root too), or a label in a free slot.  So does a
        label that is neither a str nor None; a repeated label raises
        DuplicateLabelError.  One breadth-first pass from the root checks
        all of this.
        """
        n = len(kids)
        if len(parent) != n or len(label) != n:
            raise TreeStructureError("parent, kids and label differ in length")
        try:
            root = parent.index(-1)
            while kids[root] is None:  # a free slot's parent is -1 too
                root = parent.index(-1, root + 1)
        except ValueError:
            raise TreeStructureError("no live node has parent -1") from None
        adj: list[list[int] | None] = [None] * n
        adj[root] = list(kids[root])
        order = [root]
        names = set()
        for x in order:
            name = label[x]
            if name is not None:
                if not isinstance(name, str):
                    raise TreeStructureError(f"species name {name!r} is not a str")
                if name in names:
                    raise DuplicateLabelError(f"species {name!r} labels two nodes")
                names.add(name)
            for c in kids[x]:
                if not 0 <= c < n or adj[c] is not None or kids[c] is None or parent[c] != x:
                    raise TreeStructureError(f"node {c} is not a child of node {x} alone")
                adj[c] = [x, *kids[c]]
                order.append(c)
        if len(order) != n - kids.count(None):
            raise TreeStructureError("a live node cannot be reached from the root")
        if len(names) != n - label.count(None):
            raise TreeStructureError("a free slot holds a label")
        t = cls()
        t.adj = adj
        t.label = list(label)
        return t

    def copy(self) -> "MixedTree":
        t = MixedTree.__new__(MixedTree)
        t.adj = [None if at is None else at.copy() for at in self.adj]
        t.label = list(self.label)
        return t

    # -- growth rules (with O(1) undo) ----------------------------------------

    def grow_rule_1(self, edge: tuple[int, int], name: str):
        """Subdivide ``edge`` with a new unlabelled node; hang leaf ``name`` on it."""
        u, v = edge
        self._require_edge(u, v)
        self._require_name(name)
        w = self._subdivide(u, v, None)
        return ("r1", u, v, w, self._hang(w, name))

    def grow_rule_2(self, edge: tuple[int, int], name: str):
        """Subdivide ``edge`` with a new degree-2 node labelled ``name``."""
        u, v = edge
        self._require_edge(u, v)
        self._require_name(name)
        return ("r2", u, v, self._subdivide(u, v, name))

    def grow_rule_3(self, node: int, name: str):
        """Attach a new leaf labelled ``name`` to ``node`` (any degree)."""
        self._at(node)
        self._require_name(name)
        return ("r3", node, self._hang(node, name))

    def grow_rule_4(self, node: int, name: str):
        """Put label ``name`` on an existing unlabelled node."""
        self._at(node)
        self._require_name(name)
        label = self.label
        if label[node] is not None:
            raise AlreadyLabelledError(f"node {node} already labelled {label[node]!r}")
        label[node] = name
        return ("r4", node, name)

    def undo_growth(self, token):
        """Undo the growth rule that returned ``token``.

        A rule checks its site and name before it writes; the undo trusts
        its token: each token is undone once, in stack order (the latest
        growth first), so its ids still name the nodes that growth added
        and the edge it subdivided.  That edge goes back to the end of both
        its ends' adjacency lists.
        """
        kind = token[0]
        adj, label = self.adj, self.label
        if kind == "r3":
            _, node, leaf = token
            adj[node].remove(leaf)
            adj[leaf] = label[leaf] = None
        elif kind == "r4":
            label[token[1]] = None
        elif kind == "r1" or kind == "r2":
            u, v, w = token[1:4]
            at = adj[u]
            at.remove(w)
            at.append(v)
            at = adj[v]
            at.remove(w)
            at.append(u)
            adj[w] = label[w] = None
            if kind == "r1":
                leaf = token[4]
                adj[leaf] = label[leaf] = None
        else:
            raise ValueError(f"unknown growth token {token!r}")

    def requeue_edge(self, u: int, v: int):
        """Move v to the end of adj[u] and u to the end of adj[v].

        This is the net effect on the tree of grow_rule_1 or grow_rule_2
        on edge (u, v) followed by :meth:`undo_growth`: the undo re-appends
        the subdivided edge, which decides the order of later move lists.
        Everything else (labels, and which slots are free, so the ids the
        next growth rules give their new nodes) ends up as it was, and
        rules 3 and 4 undo without a trace, so a search may skip building a
        child and call this instead.  The search also calls it alone for a
        child that, built, would have requeued each of its own edges before
        the undo: what the search relies on is that :meth:`iter_edges` and
        the next node ids come out the same either way, since the first
        reads only the order of each node's higher-id neighbours and the
        second only which slots are free, which no requeue changes (the
        proof is in ``enumeration``'s module docstring).
        """
        at_u = self.adj[u]
        at_u.remove(v)
        at_u.append(v)
        at_v = self.adj[v]
        at_v.remove(u)
        at_v.append(u)

    # -- canonical form and Newick I/O -----------------------------------------

    def _code(self, v: int, kids: list[str]) -> str:
        """Code of node v over its children's codes (sorts ``kids``)."""
        name = self.label[v]
        atom = "" if name is None else _quote_name(name)
        if not kids:
            return atom
        kids.sort()
        return "(" + ",".join(kids) + ")" + atom

    def canonical_key(self) -> CanonicalKey:
        """Serialization equal for two trees iff they are label-isomorphic.

        One pass peels the leaves layer by layer.  A peeled node's code is
        built from the codes its peeled neighbours passed it, then passed to
        its one unpeeled neighbour.  The one or two nodes left are the
        centres; two centres are adjacent, and the key is the smaller of the
        two rootings.
        Nodes that are not a tree raise TreeStructureError: with one edge
        fewer than nodes, such a graph has a cycle, which empties a layer.
        """
        adj = self.adj
        nodes = [u for u, at in enumerate(adj) if at is not None]
        if not nodes:
            raise EmptyTreeError("an empty tree has no canonical form")
        deg = [0 if at is None else len(at) for at in adj]  # unpeeled neighbours
        below: list[list[str]] = [[] for _ in adj]  # codes passed to each node
        node_code = self._code
        left = len(nodes)
        if sum(deg) != 2 * left - 2:
            raise TreeStructureError(f"{left} nodes and {sum(deg) / 2:g} edges are not a tree")
        layer = nodes if left <= 2 else [u for u in nodes if deg[u] == 1]
        while left > 2:
            if not layer:
                raise TreeStructureError(f"the {left} nodes left after peeling hold a cycle")
            left -= len(layer)
            nxt = []
            for u in layer:
                deg[u] = 0
                code = node_code(u, below[u])
                for v in adj[u]:  # u's one unpeeled neighbour takes its code
                    if deg[v]:
                        below[v].append(code)
                        deg[v] -= 1
                        if deg[v] == 1:
                            nxt.append(v)
                        break
            layer = nxt
        if len(layer) == 1:
            best = node_code(layer[0], below[layer[0]])
        else:
            a, b = layer
            code_a, code_b = node_code(a, below[a]), node_code(b, below[b])
            best = min(node_code(a, below[a] + [code_b]), node_code(b, below[b] + [code_a]))
        return CanonicalKey((best + ";").encode())

    def write_newick(self) -> str:
        """Newick text (internal labels as node names, no branch lengths).

        This is the canonical serialization, so output is identical for
        isomorphic trees.
        """
        return self.canonical_key().as_text()


# Characters that end an unquoted Newick name; a name holding any of
# them is written quoted.
_DELIMITERS = frozenset("(),:;'[] \t\r\n")


def _quote_name(name: str) -> str:
    if name and _DELIMITERS.isdisjoint(name):
        return name
    return "'" + name.replace("'", "''") + "'"


# parse_newick's states: a node must start, with "(" or a name; in an
# unquoted or a quoted name; after ")", where the group's node may take a
# name; a node is read, to be added at the next non-blank; after ";".
_NODE, _NAME, _QUOTED, _LABEL, _READ, _END = range(6)
_WHITESPACE = frozenset(" \t\r\n")


def parse_newick(text: str) -> MixedTree:
    """Parse Newick into a MixedTree, keeping the structure exactly as written.

    Internal node names become species labels.  Branch lengths are not
    part of this tree model and are rejected.  A rooted display (top-level
    unlabelled degree-2 node) is kept as written.

    One loop reads a character a turn, with one stack frame (position of
    "(", child nodes) per open group, so nesting depth is not bounded by the
    recursion limit.  A node is added once read, after its children.
    """
    tree = MixedTree()
    adj, label = tree.adj, tree.label
    names = set()
    n = len(text)
    i = start = pos = 0  # pos: where an error about the node being read points
    state, name, kids, stack = _NODE, None, [], []
    while True:
        c = text[i] if i < n else ""
        if state == _NAME:
            if c and c not in _DELIMITERS:
                i += 1
                continue
            name, state = text[start:i], _READ
        elif state == _QUOTED:
            if c == "'" and text.startswith("'", i + 1):
                i += 1  # '' stands for '
            elif c == "'":
                name, state = text[start + 1 : i].replace("''", "'"), _READ
            elif not c:
                raise NewickParseError("unterminated quoted name", start)
            i += 1
            continue
        if c in _WHITESPACE:
            i += 1
        elif state == _READ:
            if c == ":":
                raise NewickParseError("branch lengths are not supported", i)
            node = len(adj)
            if name is not None:
                if name in names:
                    raise NewickParseError(f"species {name!r} appears twice", pos)
                names.add(name)
            adj.append(kids)  # its children; its parent is appended later
            label.append(name)
            for k in kids:
                adj[k].append(node)
            if not stack:
                if c != ";":
                    raise NewickParseError("expected ';'", i)
                state = _END
            else:
                stack[-1][1].append(node)
                if c == ",":
                    state = _NODE
                elif c == ")":
                    pos, kids = stack.pop()
                    name, state = None, _LABEL
                else:
                    raise NewickParseError("expected ',' or ')'", i)
            i += 1
        elif state == _END:
            if c:
                raise NewickParseError("trailing characters after ';'", i)
            break
        elif c == "(" and state == _NODE:
            stack.append((i, []))
            i += 1
        elif c == "'" or c and c not in _DELIMITERS:
            if state == _NODE:  # a leaf
                pos, kids = i, []
            start, state = i, _QUOTED if c == "'" else _NAME
            i += 1
        elif state == _LABEL:
            state = _READ
        else:
            raise NewickParseError(
                f"expected a node, found {c!r}" if c else "unexpected end of input", i
            )
    # Every leaf is named and every other node but the last, the root, has
    # a parent and a child, so only the root can be an unlabelled leaf.
    if len(adj) > 1 and len(adj[-1]) == 1 and label[-1] is None:
        raise NewickParseError("tree contains an unlabelled leaf", 0)
    return tree
