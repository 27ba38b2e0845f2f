"""Shared randomized generators and independent oracles for the test suite.

Every generator takes an explicit random.Random so failures reproduce
from the seed alone.
"""

import random
from contextlib import contextmanager
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

import parsicompact.contract
from parsicompact import (
    CharacterMatrix,
    FitAssignment,
    IllegalContractionError,
    MixedTree,
    OracleResult,
    ParsicompactError,
    ScoreResult,
    TreeStructureError,
    brute_force_best_fit,
    enumerate_mixed,
    most_compact_pipeline,
    random_matrix,
    zero_min_cost_edges,
)


def random_mixed_tree(names, rng: random.Random) -> MixedTree:
    """A random tree carrying every name, built from the four growth rules.

    Each name is placed by a uniformly chosen legal move, so leaf-heavy,
    star-like, and chain-like shapes all occur.
    """
    names = list(names)
    tree = MixedTree.single(names[0])
    for name in names[1:]:
        moves = [("r3", node) for node in tree.iter_nodes()]
        moves += [("r4", node) for node in tree.iter_nodes() if tree.label[node] is None]
        for edge in tree.iter_edges():
            moves.append(("r1", edge))
            moves.append(("r2", edge))
        kind, where = rng.choice(moves)
        if kind == "r1":
            tree.grow_rule_1(where, name)
        elif kind == "r2":
            tree.grow_rule_2(where, name)
        elif kind == "r3":
            tree.grow_rule_3(where, name)
        else:
            tree.grow_rule_4(where, name)
    return tree


def growth_moves(tree: MixedTree, kind: str) -> list:
    """Every growth move of a ``kind`` ("cubic" or "mixed") search on the
    tree, in the search's visit order: r1 on each edge, each followed for
    mixed by r2 on the same edge; then, for mixed, r3 on each node, each
    unlabelled one followed by r4.

    The reference listing that the scorer's sweep must reproduce.
    """
    if kind == "cubic":
        return [("r1", e) for e in tree.iter_edges()]
    out = []
    for e in tree.iter_edges():
        out.append(("r1", e))
        out.append(("r2", e))
    for u in tree.iter_nodes():
        out.append(("r3", u))
        if tree.label[u] is None:
            out.append(("r4", u))
    return out


def live_labels(tree: MixedTree) -> list[str]:
    """Species labels of the tree's live nodes, sorted."""
    return sorted(tree.label[u] for u in tree.iter_nodes() if tree.label[u] is not None)


def random_instance(seed: int, max_n=7, max_m=5, max_states=4):
    """(matrix, tree) pair: random data plus a random tree over its species."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    states = rng.randint(2, max_states)
    matrix = random_matrix(n, m, states, seed=rng.randrange(1 << 30))
    tree = random_mixed_tree(matrix.names, rng)
    return matrix, tree


# 64 state symbols, the most a column may have, none of them a gap or
# unknown symbol that CharacterMatrix.from_rows rejects.
SYMBOLS = "ABCDEFGHIJKLMOPQRSTUVWYZabcdefghijklmopqrstuvwyz0123456789+=#@!$"


def sized_matrix(sizes, rng: random.Random):
    """A matrix of max(sizes) species whose column c has sizes[c] states.

    The first sizes[c] rows take the column's states in turn, the rest
    draw from them at random, and the rows are then shuffled.  sizes[c]
    may be up to 64.
    """
    rows = [
        (f"S{i + 1}", "".join(SYMBOLS[i] if i < k else rng.choice(SYMBOLS[:k]) for k in sizes))
        for i in range(max(sizes))
    ]
    rng.shuffle(rows)
    return CharacterMatrix.from_rows(rows)


# -- hand-built trees and independent oracles over the tree arena -------------
#
# A program tree changes only through its growth rules.  These helpers
# write the arena lists directly, without checks, so the oracles below
# share no code with the program, and a test can build a tree no growth
# rule makes.


def add_node(tree: MixedTree, name: str | None = None) -> int:
    """A new isolated node in the lowest free slot, or a new one at the end."""
    if None in tree.adj:
        u = tree.adj.index(None)
        tree.adj[u], tree.label[u] = [], name
        return u
    tree.adj.append([])
    tree.label.append(name)
    return len(tree.adj) - 1


def add_edge(tree: MixedTree, u: int, v: int):
    tree.adj[u].append(v)
    tree.adj[v].append(u)


def remove_edge(tree: MixedTree, u: int, v: int):
    tree.adj[u].remove(v)
    tree.adj[v].remove(u)


def free_node(tree: MixedTree, u: int):
    """Empty slot u; its edges must be removed first."""
    assert not tree.adj[u], f"node {u} has live edges"
    tree.adj[u] = tree.label[u] = None


def subdivide_with_unlabelled(tree: MixedTree, rng: random.Random, count: int):
    """Insert `count` unlabelled degree-2 nodes on random edges, in place."""
    for _ in range(count):
        u, v = rng.choice(list(tree.iter_edges()))
        remove_edge(tree, u, v)
        mid = add_node(tree)
        add_edge(tree, u, mid)
        add_edge(tree, mid, v)
    return tree


def num_edges(tree: MixedTree) -> int:
    """Edges of the tree, counted from both ends of each adjacency."""
    return sum(len(tree.adj[u]) for u in tree.iter_nodes()) // 2


def validate(tree: MixedTree):
    """Raise TreeStructureError unless the tree is a connected tree with
    no unlabelled leaf and distinct labels, with one label slot per arena
    slot and no label in a free slot."""
    nodes = list(tree.iter_nodes())
    if not nodes:
        raise TreeStructureError("empty tree")
    if num_edges(tree) != len(nodes) - 1:
        raise TreeStructureError(
            f"{num_edges(tree)} edges for {len(nodes)} nodes (need nodes-1)"
        )
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for v in tree.adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != len(nodes):
        raise TreeStructureError("tree is disconnected")
    for u in nodes:
        if len(tree.adj[u]) <= 1 and tree.label[u] is None and len(nodes) > 1:
            raise TreeStructureError(f"unlabelled leaf {u}")
    labels = [tree.label[u] for u in nodes if tree.label[u] is not None]
    if len(labels) != len(set(labels)):
        raise TreeStructureError("duplicate species labels")
    if len(tree.label) != len(tree.adj) or any(
        at is None and name is not None for at, name in zip(tree.adj, tree.label)
    ):
        raise TreeStructureError("labels out of step with the arena")


def contract_edge(tree: MixedTree, u: int, v: int) -> int:
    """Merge v into u along edge (u, v) in place; returns u.

    v's other edges move to u and v is freed, so every other node keeps
    its id.  u takes v's species label if only v had one.  Contracting
    an edge between two labelled nodes would discard a species, so it is
    refused.
    """
    if v not in tree.adj[u]:
        raise TreeStructureError(f"no edge ({u}, {v})")
    name = tree.label[v]
    if name is not None:
        if tree.label[u] is not None:
            raise IllegalContractionError(
                f"both endpoints labelled ({tree.label[u]!r}, {name!r})"
            )
        tree.label[u] = name
    remove_edge(tree, u, v)
    for y in list(tree.adj[v]):
        remove_edge(tree, v, y)
        add_edge(tree, u, y)
    free_node(tree, v)
    return u


def suppress_degree2_unlabelled(tree: MixedTree) -> MixedTree:
    """Remove unlabelled degree-2 (and dangling unlabelled) nodes in place."""
    again = True
    while again:
        again = False
        for u in list(tree.iter_nodes()):
            if tree.label[u] is not None or tree.adj[u] is None:
                continue
            d = len(tree.adj[u])
            if d == 2:
                a, b = tree.adj[u]
                remove_edge(tree, u, a)
                remove_edge(tree, u, b)
                add_edge(tree, a, b)
                free_node(tree, u)
                again = True
            elif d <= 1 and tree.num_nodes > 1:
                for y in list(tree.adj[u]):
                    remove_edge(tree, u, y)
                free_node(tree, u)
                again = True
    return tree


# -- the contraction's shadow rescore -------------------------------------------


def shadow_check(state: ScoreResult, w: int) -> ScoreResult:
    """Rescore ``state``'s tree in full from a root other than node ``w``
    and compare its cost and every root set with the state's; returns
    the rescore."""
    tree = MixedTree.from_arrays(state.parent, state.kids, state.label)
    root = next((x for x in tree.iter_nodes() if x != w), w)
    res = state.scorer.score(tree, root=root)
    if res.mp_cost != state.mp_cost:
        raise ParsicompactError(
            f"shadow rescore cost {res.mp_cost} != maintained cost {state.mp_cost}"
        )
    for x in tree.iter_nodes():
        if res.vv[x] != state.vv[x]:
            raise ParsicompactError(
                f"maintained root set at node {x} differs from full rescore"
            )
    return res


def check_contractible_edges(state: ScoreResult, zero, rescore: ScoreResult):
    """``zero``, the contractible edges derived with ``state``, must be
    :func:`zero_min_cost_edges` of it, exactly and in order; as unordered
    node pairs, they must be the edges, not label-label, whose ends' root
    sets meet in every character in ``rescore``, a full rescore of the
    state's tree."""
    if zero != zero_min_cost_edges(state):
        raise ParsicompactError("derived contractible edges differ from a full scan")
    sc = state.scorer
    label = state.label
    want = {
        frozenset((x, p))
        for x, p in enumerate(rescore.parent)
        if p >= 0 and (label[x] is None or label[p] is None)
        and sc._fold(rescore.vv[x] & rescore.vv[p]).bit_count() == sc.m
    }
    if {frozenset(e) for e in zero} != want:
        raise ParsicompactError("derived contractible edges differ from the full rescore")


@contextmanager
def shadow_rescore():
    """Within the block, every child that ``parsicompact.contract``'s
    :func:`contract_and_update` returns, to the contraction search or to
    any caller that reaches it through that module, is checked by
    :func:`shadow_check` from a root other than the merged node, the
    edge's parent end, and its derived contractible edges by
    :func:`check_contractible_edges` against that rescore.  Yields a
    namespace whose ``checked`` counts the children checked."""
    derive = parsicompact.contract.contract_and_update
    hook = SimpleNamespace(checked=0)

    def checked(state, edge, zero):
        child, czero = derive(state, edge, zero)
        u, v = edge
        rescore = shadow_check(child, v if state.parent[u] == v else u)
        check_contractible_edges(child, czero, rescore)
        hook.checked += 1
        return child, czero

    parsicompact.contract.contract_and_update = checked
    try:
        yield hook
    finally:
        parsicompact.contract.contract_and_update = derive


# -- readings of brute_force_best_fit's exhaustive optima ----------------------


def oracle_fits(oracle: OracleResult, limit: int | None = 10000) -> list[FitAssignment]:
    """Up to ``limit`` optimal fits (the product across characters)."""
    out = []
    for combo in product(*oracle.optima):
        states: dict[int, list[int]] = {u: [] for u in oracle.fixed}
        for u in oracle.unlabelled:
            states[u] = []
        for c, assign in enumerate(combo):
            for u, s in oracle.fixed.items():
                states[u].append(s[c])
            for i, u in enumerate(oracle.unlabelled):
                states[u].append(assign[i])
        out.append(FitAssignment({u: tuple(v) for u, v in states.items()}, oracle.mp_cost))
        if limit is not None and len(out) >= limit:
            break
    return out


def oracle_vv_union(oracle: OracleResult) -> dict[int, tuple[frozenset[int], ...]]:
    """Per node, per character: the union of its states over all optimal fits."""
    m = oracle.matrix.m
    out: dict[int, list[set[int]]] = {}
    for u, s in oracle.fixed.items():
        out[u] = [{s[c]} for c in range(m)]
    for u in oracle.unlabelled:
        out[u] = [set() for _ in range(m)]
    for c, opts in enumerate(oracle.optima):
        for assign in opts:
            for i, u in enumerate(oracle.unlabelled):
                out[u][c].add(assign[i])
    return {u: tuple(frozenset(s) for s in sets) for u, sets in out.items()}


# -- minimum spanning trees of the species' Hamming graph ---------------------


def hamming_distances(matrix: CharacterMatrix) -> list[list[int]]:
    """dist[i][j]: characters where species i and j differ, in input order."""
    rows = [matrix.values[name] for name in matrix.names]
    return [[sum(a != b for a, b in zip(r, s)) for s in rows] for r in rows]


def _merged(comp: list[int], edges) -> list[int]:
    """Component ids after joining the components of each edge's ends."""
    for i, j in edges:
        a, b = comp[i], comp[j]
        if a != b:
            comp = [a if c == b else c for c in comp]
    return comp


def _weight_classes(matrix: CharacterMatrix):
    """Kruskal by weight class.  For each distinct distance w, from low to
    high: w, the pairs at distance w that join different components of
    the lighter pairs' graph, and those components (comp[i] is species
    i's).  Every MST takes, from each class, a forest of its pairs that
    joins all the components they join, and any such choice is an MST."""
    dist = hamming_distances(matrix)
    n = len(dist)
    by_weight: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            by_weight.setdefault(dist[i][j], []).append((i, j))
    comp = list(range(n))
    for w in sorted(by_weight):
        edges = [(i, j) for i, j in by_weight[w] if comp[i] != comp[j]]
        yield w, edges, comp
        comp = _merged(comp, edges)


def _class_forests(edges, comp) -> list[list[tuple[int, int]]]:
    """Every acyclic subset of ``edges`` (over components ``comp``) that
    joins all the components ``edges`` join, by backtracking."""
    rank = len(set(comp)) - len(set(_merged(comp, edges)))
    out = []

    def walk(k, comp, chosen):
        if len(chosen) == rank:
            out.append(chosen)
            return
        if len(chosen) + len(edges) - k < rank:
            return
        i, j = edges[k]
        if comp[i] != comp[j]:
            walk(k + 1, _merged(comp, [edges[k]]), chosen + [edges[k]])
        walk(k + 1, comp, chosen)

    walk(0, comp, [])
    return out


def kruskal_mst_edges(matrix: CharacterMatrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """W and the edge list of every minimum spanning tree of the species'
    Hamming graph (species numbered in input order): one maximal forest
    per weight class, every combination once."""
    weight = 0
    choices = []
    for w, edges, comp in _weight_classes(matrix):
        forests = _class_forests(edges, comp)
        weight += w * len(forests[0])
        choices.append(forests)
    return weight, [sum(pick, []) for pick in product(*choices)]


def kruskal_msts(matrix: CharacterMatrix) -> tuple[int, list[str]]:
    """W and the sorted canonical Newick of every minimum spanning tree."""
    weight, edge_lists = kruskal_mst_edges(matrix)
    texts = []
    for edges in edge_lists:
        tree = MixedTree()
        for name in matrix.names:
            add_node(tree, name)
        for u, v in edges:
            add_edge(tree, u, v)
        texts.append(tree.write_newick())
    return weight, sorted(texts)


def _determinant(a: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [row[:] for row in a]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def matrix_tree_mst_count(matrix: CharacterMatrix) -> int:
    """The number of MSTs by Kirchhoff's matrix-tree theorem: per weight
    class, the maximal forests of its pairs, as a multigraph on the
    components, number the determinant of its Laplacian less one row and
    column per component of the merged graph; the classes multiply."""
    count = 1
    for _w, edges, comp in _weight_classes(matrix):
        after = _merged(comp, edges)
        first = {}
        for i, c in enumerate(comp):
            first.setdefault(after[i], c)
        kept = sorted(set(comp) - set(first.values()))
        at = {c: k for k, c in enumerate(kept)}
        laplacian = [[0] * len(kept) for _ in kept]
        for i, j in edges:
            a, b = at.get(comp[i]), at.get(comp[j])
            for x, y in ((a, b), (b, a)):
                if x is not None:
                    laplacian[x][x] += 1
                    if y is not None:
                        laplacian[x][y] -= 1
        count *= _determinant(laplacian)
    return count


# -- every small input ------------------------------------------------------------


def partition_columns(n: int, states: int) -> list[tuple[int, ...]]:
    """Every column over n species with at most ``states`` states, the
    states numbered in order of first appearance: one column per set
    partition of the species into at most ``states`` blocks."""
    columns = [(0,)]
    for _ in range(n - 1):
        columns = [c + (s,) for c in columns for s in range(min(max(c) + 2, states))]
    return columns


def every_matrix(n: int, m: int, states: int):
    """Every matrix of m columns over species S1..Sn with at most
    ``states`` states per column, up to the order of the columns and the
    naming of each column's states: one per multiset of m columns of
    :func:`partition_columns`."""
    for pick in combinations_with_replacement(partition_columns(n, states), m):
        yield CharacterMatrix.from_rows(
            [(f"S{i + 1}", "".join(SYMBOLS[c[i]] for c in pick)) for i in range(n)])


def check_the_pipeline_against_the_mixed_search(matrix: CharacterMatrix):
    """The paper's theorem on one matrix, against the exhaustive mixed
    search: the contraction pipeline finds the MP cost and the most
    compact trees, and the MP mixed trees are its contraction states; the
    brute-force oracle prices one most compact tree at the MP cost; and,
    as each species labels its own node, the best node count is n exactly
    when the MP cost is W, the weight of an MST of the species' Hamming
    graph."""
    mixed = enumerate_mixed(matrix)
    pipe = most_compact_pipeline(matrix)
    assert pipe.mp_cost == mixed.incumbent_cost
    assert set(pipe.trees) == set(mixed.most_compact)
    assert pipe.explored_states == len(mixed.incumbents)
    assert pipe.best_node_count == mixed.min_nodes
    tree = mixed.most_compact[pipe.trees[0]]
    assert brute_force_best_fit(tree, matrix).mp_cost == pipe.mp_cost
    weight, _msts = kruskal_msts(matrix)
    assert (pipe.best_node_count == matrix.n) == (pipe.mp_cost == weight)
