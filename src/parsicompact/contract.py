"""Edge contraction: cubic MP-trees down to the most compact mixed MP-trees.

An edge is contractible exactly when every character's root sets at its
two endpoints intersect (min-cost 0) and it does not join two labelled
nodes.  Contracting such an edge preserves the MP-cost and removes one
node; the merged node's root set is the per-character intersection of
the endpoints' root sets.

The tree reached from a start tree T by contracting a set S of T's edges
is T/S, whatever the order of the contractions; the order only decides
which edges are contractible on the way.  (Contraction never makes an
edge contractible that was not before; that is tested, but the search
does not rely on it: every newly built state gets a full scan for its
contractible edges.)  So the search names each child by the bitmask of
T's edges contracted to reach it and builds it once per start tree:

* once per (start tree, edge set) -- copy, contract, rescore, the checks
  below, and the canonical key;
* once per distinct state -- the scan for contractible edges, and the
  Newick text of a terminal state;
* once per arc, i.e. per contraction order step -- the contraction count,
  the DAG arc, and the check that the built child's root set at the
  node holding the contracted edge is the intersection of the parent's
  sets at its two endpoints (O(1) when the child is already built).

States are memoized by canonical key across start trees: each distinct
tree is expanded once, and the number of contraction orders reaching
each result is recovered afterwards by path counting over the DAG.

After a contraction the remaining nodes' root sets are refreshed with a
two-pass rescore rooted at the merged node (linear in tree size, the
same bound the update traversal is supposed to meet).  A per-node local
update rule using only the old root sets is not sound: a state can stay
optimal at a node through a different parent state than the one that
justified it before, so only the merged node's set (the intersection)
is carried over directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charmatrix import CharacterMatrix
from .enumeration import SearchRecord, enumerate_cubic
from .errors import IllegalContractionError, ParsicompactError
from .parsimony import Scorer
from .tree import CanonicalKey, MixedTree


class ContractionState:
    """A tree mid-contraction, with current root sets and candidate edges.

    ``merged`` is the node the last contraction made (None for a start
    tree).  ``zero_edges`` is scanned on first read.
    """

    __slots__ = ("tree", "vv", "mp_cost", "scorer", "merged", "_zero_edges")

    def __init__(self, tree, vv, mp_cost, scorer, merged=None):
        self.tree: MixedTree = tree
        self.vv: list[int] = vv
        self.mp_cost: int = mp_cost
        self.scorer: Scorer = scorer
        self.merged: int | None = merged
        self._zero_edges: list[tuple[int, int]] | None = None

    @property
    def zero_edges(self) -> list[tuple[int, int]]:
        if self._zero_edges is None:
            self._zero_edges = zero_min_cost_edges(self)
        return self._zero_edges

    @classmethod
    def from_tree(cls, tree: MixedTree, matrix: CharacterMatrix) -> "ContractionState":
        scorer = Scorer(matrix)
        res = scorer.score(tree)
        return cls(tree, res.vv, res.mp_cost, scorer)


def zero_min_cost_edges(state: ContractionState) -> list[tuple[int, int]]:
    """Edges whose endpoint root sets intersect in every character.

    Label-label edges are excluded: contracting one would discard a
    species, so they are never candidates.
    """
    sc = state.scorer
    tree = state.tree
    vv = state.vv
    label = tree.label
    fold = sc._fold
    m = sc.m
    out = []
    for u, v in tree.iter_edges():
        if label[u] is not None and label[v] is not None:
            continue
        if fold(vv[u] & vv[v]).bit_count() == m:
            out.append((u, v))
    return out


def contract_and_update(
    state: ContractionState, edge: tuple[int, int], oracle_check: bool = False
) -> ContractionState:
    """Contract a zero-min-cost edge and refresh every root set.

    The merged node (the child's ``merged``) has the intersection of the
    endpoints' root sets as its root set; the rest are recomputed by a
    rescore rooted at the merged node.  With ``oracle_check`` the refreshed sets are compared against
    an independent rescore from a different root (they must agree
    set-for-set, and the cost must be unchanged).
    """
    u, v = edge
    sc = state.scorer
    tree = state.tree
    if tree.label[u] is not None and tree.label[v] is not None:
        raise IllegalContractionError(f"edge ({u}, {v}) joins two labelled nodes")
    md = sc.m - sc._fold(state.vv[u] & state.vv[v]).bit_count()
    if md:
        raise IllegalContractionError(f"edge ({u}, {v}) has min-cost {md}, not 0")
    meet = state.vv[u] & state.vv[v]
    t2 = tree.copy()
    w = t2.contract_edge(u, v)
    res = sc.score(t2, root=w)
    vv2 = res.vv
    if vv2[w] != meet:
        raise ParsicompactError(
            "merged-node root set differs from the endpoint intersection"
        )
    if res.mp_cost != state.mp_cost:
        raise ParsicompactError(
            f"zero-min-cost contraction changed cost {state.mp_cost} -> {res.mp_cost}"
        )
    if oracle_check:
        _shadow_check(t2, w, vv2, state.mp_cost, sc)
    return ContractionState(t2, vv2, state.mp_cost, sc, w)


def _shadow_check(tree, w, vv, want_cost, scorer):
    root = next((x for x in tree.iter_nodes() if x != w), w)
    res = scorer.score(tree, root=root)
    if res.mp_cost != want_cost:
        raise ParsicompactError(
            f"shadow rescore cost {res.mp_cost} != maintained cost {want_cost}"
        )
    for x in tree.iter_nodes():
        if res.vv[x] != vv[x]:
            raise ParsicompactError(
                f"maintained root set at node {x} differs from full rescore"
            )


@dataclass
class CompactResultSet:
    """Most compact trees found, plus bookkeeping of the exploration.

    trees maps canonical key -> canonical Newick text of each
    minimum-node-count tree.  raw_count is the number of contraction
    orders (summed over all start trees) that arrive at those trees;
    len(trees) is the dedup count.
    """

    best_node_count: int | None
    trees: dict[CanonicalKey, str]
    explored_states: int
    mp_cost: int | None = None
    raw_count: int = 0
    contractions: int = 0
    sources: int = 0
    cubic_record: SearchRecord | None = None

    @property
    def dedup_count(self) -> int:
        return len(self.trees)

    @property
    def mean_contractions(self) -> float:
        return self.contractions / self.sources if self.sources else 0.0


class CompactSearcher:
    """Contraction search over the edge sets of each start tree, with a
    canonical-key memo shared across start trees (distinct cubic MP-trees
    can contract into the same intermediate state)."""

    def __init__(self, matrix: CharacterMatrix, oracle_check: bool = False):
        self.matrix = matrix
        self.oracle_check = oracle_check
        self.index: dict[CanonicalKey, int] = {}
        self.keys: list[CanonicalKey] = []
        self.children: list[list[int]] = []
        self.node_count: list[int] = []
        self.terminal: list[bool] = []
        self.newick: list[str | None] = []
        self.source_ids: list[int] = []
        self.contractions = 0

    def _intern(self, key: CanonicalKey, state: ContractionState):
        sid = self.index.get(key)
        if sid is not None:
            return sid, False
        sid = len(self.keys)
        self.index[key] = sid
        self.keys.append(key)
        self.children.append([])
        self.node_count.append(state.tree.num_nodes)
        term = not state.zero_edges
        self.terminal.append(term)
        self.newick.append(state.tree.write_newick() if term else None)
        return sid, True

    def add_source(self, tree: MixedTree) -> int:
        state = ContractionState.from_tree(tree, self.matrix)
        sid, fresh = self._intern(state.tree.canonical_key(), state)
        self.source_ids.append(sid)
        if fresh:
            self._expand(state, sid)
        return state.mp_cost

    def _expand(self, source: ContractionState, source_id: int):
        """Contract, depth first, every reachable edge set of one start tree.

        Every state on the stack was interned fresh, so it was built from
        this start tree: ``mask`` is the set of its edges contracted to
        reach it, and ``rep`` maps each start-tree node to the node that
        now holds it.  ``built`` maps a mask to the child built for it;
        another order reaching the same mask reuses that child.
        """
        ends = list(source.tree.iter_edges())
        built: dict[int, tuple[int, list[int], list[int]]] = {}
        stack = [(source, source_id, 0, list(range(len(source.tree.adj))))]
        while stack:
            state, sid, mask, rep = stack.pop()
            bit_of = {}
            for i, (a, b) in enumerate(ends):
                if not mask >> i & 1:
                    x, y = rep[a], rep[b]
                    bit_of[(x, y) if x < y else (y, x)] = i
            arcs = self.children[sid]
            for edge in state.zero_edges:
                u, v = edge
                i = bit_of[edge]
                to = mask | 1 << i
                self.contractions += 1
                got = built.get(to)
                if got is None:
                    child = contract_and_update(state, edge, self.oracle_check)
                    w = child.merged
                    crep = [w if r == u or r == v else r for r in rep]
                    cid, fresh = self._intern(child.tree.canonical_key(), child)
                    built[to] = (cid, child.vv, crep)
                    if fresh:
                        stack.append((child, cid, to, crep))
                else:
                    # The check contract_and_update makes on the merged node.
                    cid, vv, crep = got
                    if vv[crep[ends[i][0]]] != state.vv[u] & state.vv[v]:
                        raise ParsicompactError(
                            "merged-node root set differs from the endpoint intersection"
                        )
                arcs.append(cid)

    def finalize(self) -> CompactResultSet:
        total = len(self.keys)
        arrivals = [0] * total
        for s in self.source_ids:
            arrivals[s] += 1
        for sid in sorted(range(total), key=lambda i: -self.node_count[i]):
            a = arrivals[sid]
            if a:
                for c in self.children[sid]:
                    arrivals[c] += a
        terminals = [i for i in range(total) if self.terminal[i]]
        best = min((self.node_count[i] for i in terminals), default=None)
        trees = {}
        raw = 0
        for i in terminals:
            if self.node_count[i] == best:
                trees[self.keys[i]] = self.newick[i]
                raw += arrivals[i]
        return CompactResultSet(
            best_node_count=best,
            trees=trees,
            explored_states=total,
            raw_count=raw,
            contractions=self.contractions,
            sources=len(self.source_ids),
        )


def compact_search(
    tree: MixedTree,
    matrix: CharacterMatrix,
    *,
    oracle_check: bool = False,
) -> CompactResultSet:
    """All minimum-node-count trees reachable from one tree by
    cost-preserving contractions, over every contraction order."""
    searcher = CompactSearcher(matrix, oracle_check=oracle_check)
    cost = searcher.add_source(tree)
    out = searcher.finalize()
    out.mp_cost = cost
    return out


def most_compact_pipeline(
    matrix: CharacterMatrix,
    *,
    order: str = "input",
    threads: int = 1,
    oracle_check: bool = False,
    on_progress=None,
    progress_interval: int = 100_000,
) -> CompactResultSet:
    """Full search: enumerate cubic MP-trees, contract each in all orders,
    keep the globally most compact results."""
    cubic = enumerate_cubic(
        matrix,
        order=order,
        threads=threads,
        on_progress=on_progress,
        progress_interval=progress_interval,
    )
    searcher = CompactSearcher(matrix, oracle_check=oracle_check)
    for key in sorted(cubic.incumbents, key=lambda k: k.data):
        searcher.add_source(cubic.incumbents[key])
    out = searcher.finalize()
    out.mp_cost = cubic.incumbent_cost
    out.cubic_record = cubic
    return out
