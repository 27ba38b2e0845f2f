"""Edge contraction: cubic MP-trees down to the most compact mixed MP-trees.

An edge is contractible exactly when every character's root sets at its
two endpoints intersect (min-cost 0) and it does not join two labelled
nodes.  Contracting such an edge preserves the MP-cost and removes one
node; the merged node's root set is the per-character intersection of
the endpoints' root sets.

Every state of the search is an X-tree: each unlabelled node has degree
3 or more (a cubic tree's leaves are labelled, and contraction only
merges nodes).  An X-tree is fixed, up to label-preserving isomorphism,
by its set of splits, the species bipartitions its edges induce
(Buneman 1971; Semple & Steel, *Phylogenetics*, 2003, Thm 3.5.2), and
contracting an edge removes exactly that edge's split.  So the search
names a state by its split set: each split gets one bit in a registry,
a state's key is the OR of its splits' bits, and a child's key is its
parent's key with the contracted edge's bit cleared.  A node is named
by its signature, the OR of its edges' bits; the two endpoints of an
edge share only that edge's bit, and the merged node's signature is
the XOR of theirs.  A contraction merges an edge's child end into its
parent end, so the other nodes keep their ids and their signatures and
the root never moves.

One memo, keyed by split set, holds each state's signature and VV
lists, by node id, as the state built them.  The work splits two ways:

* once per distinct state -- copy the parent's arrays and rewire them,
  update its sets and its contractible edges from its parent's with the
  checks, and, for a state with no contractible edge, the tree built
  from its arrays and that tree's canonical key;
* once per arc, i.e. per contraction order step -- the contraction
  count and, when the child is already in the memo, the check that its
  root set at the merged node, found by a scan of its signatures, is
  the intersection of the parent's sets at the two endpoints.  The
  child's key is looked up before the child is built, so a state
  reached again is never rebuilt.

The number of contraction orders is counted in closed form.  A most
compact tree X is reachable from a start tree T exactly when every split
of X is a split of T: X is then T/S, where S is the set of T's edges
whose splits X lacks.  Every order of S is a valid path, because
cost-preserving edge sets are downward closed (contraction never lowers
the cost, and T/S costs what T does) and no node of X holds two labels.
So X is reached from T by k! orders, k = |S| being the number of edges
T has beyond X's, and ``raw_count`` sums k! over those pairs (X, T).

A per-node local update rule using only the old root sets is not
sound: a state can stay optimal at a node through a different parent
state than the one that justified it before.  So a state is the
:class:`~parsicompact.parsimony.ScoreResult` of its tree, hung from a
fixed root: each node's parent and children, label, VU, VL, VV and
local cost.  Those arrays are the whole state: it keeps no
:class:`MixedTree`, and :meth:`MixedTree.from_arrays` builds one only
for a state with no contractible edge.
A child's arrays are copies of its parent's, rewired once, with the
child end's slot dead, and the scorer's own kernels recompute only the
nodes whose inputs may change (:func:`contract_and_update` says which).
A node's VU, VL and local cost depend only on its label and its
children's VU, and its VV only on its parent's VV and its own VU and
VL, so every node the update skips keeps inputs that did not change:
the update is exact, not a local rule over old root sets, and the
merged node's set must still come out as the intersection.

Contraction never makes an edge contractible that was not before.
Say edge e' of T' = T/uv is contractible and comes from edge e of T: an
edge (u, y) of T' was (u, y) or (v, y), and every other edge kept its
ends.  Contracting e' keeps the cost of T', which is T's, and T'/e' =
T/{uv, e}.  Contraction never lowers the cost (a fit of T/e, both ends
of e given the merged node's states, is a fit of T), so T/e, between T
and T/{uv, e}, costs what T does: e has min-cost 0, and it does not
join two labelled nodes, since e' does not.  So a child's
contractible edges are among its parent's, renamed, and the search
derives them (:func:`contract_and_update`): drop (u, v), rename each
(v, y) to (u, y), and test again only the edges at u, which took v's
label and children, or at a node whose VV the descent changed.  Every
other edge keeps its ends' labels and root sets, so it stays
contractible untested.  The list keeps the order of
:func:`zero_min_cost_edges`, which scans each start tree once.

The search runs no second check of the update itself; the test suite's
``shadow_rescore`` hook (``tests/conftest.py``) wraps
:func:`contract_and_update`, rescores every child it builds in full from
another root, and compares its derived contractible edges with a full
scan and with that rescore.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial

from .charmatrix import CharacterMatrix
from .enumeration import SearchRecord, enumerate_cubic
from .errors import IllegalContractionError, ParsicompactError, TreeStructureError
from .parsimony import Scorer, ScoreResult
from .tree import CanonicalKey, MixedTree

# Built states between two calls of a contraction search's on_progress hook.
PROGRESS_EVERY = 10_000


def zero_min_cost_edges(state: ScoreResult) -> list[tuple[int, int]]:
    """Edges whose endpoint root sets intersect in every character, each
    as (parent end, child end), so that ``state.parent`` of the second is
    the first, in order of the child end's id.

    Label-label edges are excluded: contracting one would discard a
    species, so they are never candidates.
    """
    sc = state.scorer
    vv = state.vv
    label = state.label
    carry = sc.carry
    high = sc.high
    top = sc.top
    m = sc.m
    out = []
    for x, p in enumerate(state.parent):
        # Every edge joins a node to its parent; the root and dead slots
        # have none.
        if p < 0 or label[x] is not None and label[p] is not None:
            continue
        meet = vv[x] & vv[p]
        if (((((meet & carry) + carry) | meet) & high) >> top).bit_count() == m:
            out.append((p, x))
    return out


def contract_and_update(
    state: ScoreResult, edge: tuple[int, int], zero: list[tuple[int, int]]
) -> tuple[ScoreResult, list[tuple[int, int]]]:
    """Contract zero-min-cost edge (u, v), in either order, merging its
    child end into its parent end; return the child and its contractible
    edges, derived from the parent's sets and from ``zero``, the parent's
    contractible edges as :func:`zero_min_cost_edges` lists them.

    Below, u is the parent end and v the child end.  The child keeps the
    parent's root, which never moves, and its arrays are copies of the
    parent's with v's slot dead; it shares each inner kids list it does
    not change.  v's children move under u, and u takes v's label if v
    has one; the label list is copied only then.  Only u and its
    ancestors have new subtrees, so VU, VL and local cost are
    recomputed, one node at a time, at u and then up its ancestors,
    stopping at the first node whose VU, all its parent reads of it,
    comes out as that parent saw it before.  VV is then recomputed down
    from the topmost recomputed node, entering every child of a node
    whose VV changed, else the recomputed child, and at u the moved
    children when u's VV differs from v's, their old parent's.  The
    child's cost is the parent's less v's local cost plus the change in
    local cost at the recomputed nodes; it must equal the parent's, and
    u's root set must be the intersection of the endpoints'.

    The child's contractible edges are ``zero`` without (u, v), with each
    edge (v, y) renamed (u, y), in the same order.  An edge at u, or at a
    node whose VV the descent changed, is tested again, label-label and
    then the meet; every other edge keeps its ends' labels and root sets,
    so it stays contractible untested.  No edge outside ``zero`` needs a
    test, since contraction never makes an edge contractible.
    """
    u, v = edge
    parent = state.parent  # -1 in a free slot, so no edge reaches one
    if not (0 <= u < len(parent) and 0 <= v < len(parent)) or parent[u] != v and parent[v] != u:
        raise TreeStructureError(f"no edge ({u}, {v})")
    if parent[u] == v:
        u, v = v, u
    sc = state.scorer
    label = state.label
    if label[u] is not None and label[v] is not None:
        raise IllegalContractionError(f"edge ({u}, {v}) joins two labelled nodes")
    vv = state.vv
    meet = vv[u] & vv[v]
    m = sc.m
    md = m - sc._fold(meet).bit_count()
    if md:
        raise IllegalContractionError(f"edge ({u}, {v}) has min-cost {md}, not 0")
    parent = parent.copy()
    kids = state.kids.copy()
    vu = state.vu.copy()
    vl = state.vl.copy()
    vv = vv.copy()
    local = state.local.copy()
    moved = kids[v]
    ks = kids[u] = kids[u].copy()
    ks.remove(v)
    ks += moved
    for c in moved:
        parent[c] = u
    if label[v] is not None:
        label = label.copy()
        label[u] = label[v]
        label[v] = None
    cost = state.mp_cost - local[v]
    parent[v] = -1
    kids[v] = None
    vu[v] = vl[v] = vv[v] = local[v] = 0
    x = u
    was = vu[u]  # what u's parent read of it before
    below = None  # each recomputed ancestor's path child
    while True:
        cost -= local[x]
        cost += sc._up((x,), parent, label, vu, vl, local, kids)
        p = parent[x]
        if vu[x] == was or p < 0:
            break
        if below is None:
            below = {}
        below[p] = x
        was = vu[p]
        x = p
    dirty = {u}  # u, and every node whose VV changed
    stack = [x]  # the topmost recomputed node
    while stack:
        x = stack.pop()
        old = vv[x]
        sc._top_down((x,), parent, vu, vl, vv)
        if vv[x] != old:
            dirty.add(x)
            stack += kids[x]
        elif below is not None and x in below:
            stack.append(below[x])
        elif x == u and vv[u] != state.vv[v]:
            stack += moved
    if vv[u] != meet:
        raise ParsicompactError(
            "merged-node root set differs from the endpoint intersection"
        )
    if cost != state.mp_cost:
        raise ParsicompactError(
            f"zero-min-cost contraction changed cost {state.mp_cost} -> {cost}"
        )
    out = []
    for e in zero:
        p, x = e
        if p == v:
            p = u
            e = (u, x)
        elif x == v:
            continue  # the contracted edge
        elif p not in dirty and x not in dirty:
            out.append(e)
            continue
        if label[p] is not None and label[x] is not None:
            continue
        if sc._fold(vv[p] & vv[x]).bit_count() == m:
            out.append(e)
    child = ScoreResult(sc, cost, state.root, parent, kids, label, vu, vl, vv, local)
    return child, out


@dataclass
class CompactResultSet:
    """Most compact trees found, plus bookkeeping of the exploration.

    trees lists the canonical key of each minimum-node-count tree, in
    the order found; len(trees) is the dedup count.  raw_count
    is the number of contraction orders, summed over all start trees,
    that arrive at those trees: k! for each pair (X, T) of a result X and
    a start tree T whose splits include X's, with k the number of edges
    T has beyond X's.  memo_hits counts the contractions whose child was
    already in the memo, so was not built again.  cubic_ms and
    contract_ms are the wall times of :func:`most_compact_pipeline`'s two
    stages.
    """

    best_node_count: int | None
    trees: list[CanonicalKey]
    explored_states: int
    mp_cost: int | None = None
    raw_count: int = 0
    contractions: int = 0
    memo_hits: int = 0
    sources: int = 0
    cubic_record: SearchRecord | None = None
    cubic_ms: float = 0.0
    contract_ms: float = 0.0

    @property
    def dedup_count(self) -> int:
        return len(self.trees)

    @property
    def mean_contractions(self) -> float:
        return self.contractions / self.sources if self.sources else 0.0


def tree_splits(tree: MixedTree, species: dict[str, int]) -> list[tuple[int, int, int]]:
    """(u, v, split) for every edge (u, v) of the tree.

    The split is the bitmask, over the species numbered by ``species``,
    of the edge's side that does not hold species 0.
    """
    order, parent, _kids = tree.hang(next(tree.iter_nodes()))
    below = [0] * len(tree.adj)
    full = (1 << len(species)) - 1
    out = []
    for u in reversed(order):
        name = tree.label[u]
        if name is not None:
            below[u] |= 1 << species[name]
        p = parent[u]
        if p >= 0:
            side = below[u]
            below[p] |= side
            out.append((p, u, side ^ full if side & 1 else side))
    return out


class CompactSearcher:
    """Contraction search over every order of every start tree, with one
    memo of states keyed by split set (distinct start trees can contract
    into the same state).

    Start trees must be X-trees that carry every species of the matrix,
    as the cubic MP-trees the pipeline feeds are; any other is refused.
    ``on_progress``, if given, is called with the searcher once every
    :data:`PROGRESS_EVERY` built states.
    """

    def __init__(self, matrix: CharacterMatrix, on_progress=None):
        self.on_progress = on_progress
        self.scorer = Scorer(matrix)
        self.species = {name: i for i, name in enumerate(matrix.names)}
        self.bit: dict[int, int] = {}  # split -> its bit
        self.holders: dict[int, int] = {}  # split bit -> start trees holding it
        self.by_edges: dict[int, int] = {}  # edge count -> start trees with it
        self.memo: dict[int, tuple[list, list]] = {}  # key -> (signature, VV) by node id
        self.final: list[tuple[int, int, CanonicalKey]] = []  # (nodes, key, canonical key)
        self.sources = 0
        self.contractions = 0
        self.memo_hits = 0

    @property
    def states(self) -> int:
        """States built so far, start trees included."""
        return len(self.memo)

    def add_source(self, tree: MixedTree) -> int:
        """Contract one start tree in every order; returns its MP-cost."""
        if tree.n_labelled < len(self.species) or any(
            tree.label[u] is None and len(tree.adj[u]) < 3 for u in tree.iter_nodes()
        ):
            raise TreeStructureError(
                "start tree is not an X-tree on every species of the matrix"
            )
        state = self.scorer.score(tree)
        me = 1 << self.sources
        self.sources += 1
        sig = [0] * len(tree.adj)
        key = 0
        for u, v, split in tree_splits(tree, self.species):
            b = self.bit.setdefault(split, 1 << len(self.bit))
            key |= b
            sig[u] |= b
            sig[v] |= b
            self.holders[b] = self.holders.get(b, 0) | me
        edges = key.bit_count()
        self.by_edges[edges] = self.by_edges.get(edges, 0) | me
        if key not in self.memo:
            zero = zero_min_cost_edges(state)
            self._store(key, state, sig, zero)
            self._expand(state, sig, key, zero)
        return state.mp_cost

    def _store(self, key: int, state: ScoreResult, sig: list[int],
               zero: list[tuple[int, int]]):
        """Memoize a new state, given its contractible edges."""
        self.memo[key] = (sig, state.vv)
        if not zero:
            tree = MixedTree.from_arrays(state.parent, state.kids, state.label)
            self.final.append((tree.num_nodes, key, tree.canonical_key()))
        if self.on_progress and len(self.memo) % PROGRESS_EVERY < 1:
            self.on_progress(self)

    def _expand(self, source: ScoreResult, sig: list[int], key: int,
                zero: list[tuple[int, int]]):
        """Depth first from one start tree, building each state not yet
        in the memo; ``sig`` gives each node's signature and ``zero`` the
        start tree's contractible edges."""
        stack = [(source, sig, key, zero)]
        while stack:
            state, sig, key, zero = stack.pop()
            vv = state.vv
            for edge in zero:
                u, v = edge
                merged = sig[u] ^ sig[v]
                to = key ^ (sig[u] & sig[v])
                self.contractions += 1
                got = self.memo.get(to)
                if got is None:
                    child, czero = contract_and_update(state, edge, zero)
                    csig = sig.copy()
                    csig[u] = merged
                    self._store(to, child, csig, czero)
                    stack.append((child, csig, to, czero))
                else:
                    self.memo_hits += 1
                    # The check contract_and_update makes on the merged
                    # node.  A dead slot keeps the signature it died with,
                    # which holds the bit of a contracted edge, a split no
                    # later state has: only a live node can match.
                    msig, mvv = got
                    try:
                        ok = mvv[msig.index(merged)] == vv[u] & vv[v]
                    except ValueError:
                        ok = False
                    if not ok:
                        raise ParsicompactError(
                            "merged-node root set differs from the endpoint intersection"
                        )

    def finalize(self) -> CompactResultSet:
        best = min((nodes for nodes, _, _ in self.final), default=None)
        everyone = (1 << self.sources) - 1
        trees = []
        raw = 0
        for nodes, key, canon in self.final:
            if nodes != best:
                continue
            trees.append(canon)
            held = everyone  # the start trees holding every split of this tree
            while key:
                low = key & -key
                held &= self.holders[low]
                key ^= low
            for edges, group in self.by_edges.items():
                raw += (held & group).bit_count() * factorial(edges - nodes + 1)
        return CompactResultSet(
            best_node_count=best,
            trees=trees,
            explored_states=self.states,
            raw_count=raw,
            contractions=self.contractions,
            memo_hits=self.memo_hits,
            sources=self.sources,
        )


def most_compact_pipeline(
    matrix: CharacterMatrix,
    *,
    order: str = "input",
    threads: int = 1,
    on_progress=None,
) -> CompactResultSet:
    """Full search: enumerate cubic MP-trees, contract each in all orders,
    keep the globally most compact results.

    ``on_progress`` is handed to both stages: the cubic search calls it
    with its :class:`SearchRecord`, the contraction with its
    :class:`CompactSearcher`.
    """
    t0 = time.monotonic()
    cubic = enumerate_cubic(
        matrix,
        order=order,
        threads=threads,
        on_progress=on_progress,
    )
    t1 = time.monotonic()
    searcher = CompactSearcher(matrix, on_progress=on_progress)
    for key in sorted(cubic.incumbents):
        searcher.add_source(cubic.incumbents[key])
    out = searcher.finalize()
    out.mp_cost = cubic.incumbent_cost
    out.cubic_record = cubic
    out.cubic_ms = (t1 - t0) * 1000.0
    out.contract_ms = (time.monotonic() - t1) * 1000.0
    return out
