"""Edge contraction: legality, cost effects, memoized order exploration."""

import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parsicompact import (
    CharacterMatrix,
    IllegalContractionError,
    MixedTree,
    ParsicompactError,
    contract_and_update,
    enumerate_cubic,
    enumerate_mixed,
    Scorer,
    TreeStructureError,
    brute_force_best_fit,
    most_compact_pipeline,
    parse_newick,
    random_matrix,
    evolved_matrix,
    unpack_sets,
    zero_min_cost_edges,
)
import parsicompact.contract
from parsicompact.contract import CompactSearcher, tree_splits
import conftest
from conftest import (
    add_edge,
    add_node,
    check_contractible_edges,
    check_the_pipeline_against_the_mixed_search,
    contract_edge,
    every_matrix,
    hamming_distances,
    kruskal_mst_edges,
    kruskal_msts,
    matrix_tree_mst_count,
    random_instance,
    random_mixed_tree,
    shadow_check,
    shadow_rescore,
    subdivide_with_unlabelled,
    validate,
)


def make_state(seed):
    matrix, tree = random_instance(seed, max_n=6, max_m=4)
    return matrix, tree, Scorer(matrix).score(tree)


def tree_of(state):
    """The tree a state's arrays describe."""
    return MixedTree.from_arrays(state.parent, state.kids, state.label)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_zero_edges_match_direct_min_cost(seed):
    matrix, tree, state = make_state(seed)
    vv = state.vv
    want = set()
    for u, v in tree.iter_edges():
        if tree.label[u] is not None and tree.label[v] is not None:
            continue
        su, sv = unpack_sets(matrix, vv[u]), unpack_sets(matrix, vv[v])
        if all(a & b for a, b in zip(su, sv)):
            want.add((min(u, v), max(u, v)))
    zero = zero_min_cost_edges(state)
    assert {tuple(sorted(e)) for e in zero} == want
    # Each edge comes parent end first, with the state hung from its
    # root, listed by the id of its child end; each node is the child
    # end of one edge at most.
    assert all(state.parent[v] == u for u, v in zero)
    ends = [v for _u, v in zero]
    assert ends == sorted(set(ends))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_zero_contraction_preserves_cost(seed):
    matrix, tree, state = make_state(seed)
    zero = zero_min_cost_edges(state)
    for edge in zero:
        after, _ = contract_and_update(state, edge, zero)
        assert after.mp_cost == state.mp_cost
        assert tree_of(after).num_nodes == tree.num_nodes - 1
        assert Scorer(matrix).cost(tree_of(after)) == state.mp_cost


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_positive_edge_contraction_strictly_raises_cost(seed):
    matrix, tree, state = make_state(seed)
    edges = zero_min_cost_edges(state)
    zero = {tuple(sorted(e)) for e in edges}
    for u, v in list(tree.iter_edges()):
        if tuple(sorted((u, v))) in zero:
            continue
        if tree.label[u] is not None and tree.label[v] is not None:
            continue
        worse = tree.copy()
        contract_edge(worse, u, v)
        assert Scorer(matrix).cost(worse) > state.mp_cost
        with pytest.raises(IllegalContractionError):
            contract_and_update(state, (u, v), edges)


def test_label_label_edges_are_never_contractible():
    rows = [("a", "A"), ("b", "A"), ("c", "A")]
    matrix = CharacterMatrix.from_rows(rows)
    tree = parse_newick("((a)b)c;")
    state = Scorer(matrix).score(tree)
    assert zero_min_cost_edges(state) == []
    edge = next(iter(tree.iter_edges()))
    with pytest.raises(IllegalContractionError):
        contract_and_update(state, edge, [])
    # Nor are two nodes that no edge joins, though their root sets meet.
    tree = parse_newick("(a,(b,c));")
    state = Scorer(matrix).score(tree)
    a = tree.species_node("a")
    hub = tree.adj[tree.species_node("b")][0]
    assert tree.label[hub] is None and hub not in tree.adj[a]
    with pytest.raises(TreeStructureError, match="no edge"):
        contract_and_update(state, (a, hub), zero_min_cost_edges(state))
    # Nor are ids that are not live slots, refused before any other check:
    # a negative id would read another slot, and -1 is the root's parent.
    matrix = CharacterMatrix.from_rows([(x, "A") for x in "abcd"])
    state = Scorer(matrix).score(parse_newick("((a,b),(c,d));"))
    assert state.parent[2] == -1
    for u, v in ((99, 0), (0, 99), (-1, 2), (2, -1)):
        with pytest.raises(TreeStructureError, match=f"no edge \\({u}, {v}\\)"):
            contract_and_update(state, (u, v), zero_min_cost_edges(state))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_oracle_check_mode_agrees(seed):
    # Every contraction of a random state passes the shadow rescore and
    # the comparison of its derived edge list, with the edge given in
    # either order.
    matrix, tree, state = make_state(seed)
    zero = zero_min_cost_edges(state)
    with shadow_rescore() as hook:
        for i, (u, v) in enumerate(zero):
            parsicompact.contract.contract_and_update(
                state, (u, v) if i % 2 else (v, u), zero)
    assert hook.checked == len(zero)


def test_oracle_check_rescores_every_built_state(monkeypatch):
    # The shadow rescore sees each state the searcher builds once, with
    # its live merged node, and no start tree; it is gone after the
    # block; a corrupt root set is refused, and so is a derived edge
    # list that is not the full scan's.
    matrix = evolved_matrix(6, 6, 2, seed=5, mutation_rate=0.05)
    seen = []

    def spy(state, w):
        assert state.kids[w] is not None
        seen.append((tuple(state.parent), tuple(state.label)))
        return shadow_check(state, w)

    monkeypatch.setattr(conftest, "shadow_check", spy)
    with shadow_rescore() as hook:
        result = most_compact_pipeline(matrix)
    assert len(seen) == len(set(seen)) == hook.checked
    assert hook.checked == result.explored_states - result.sources > 0
    most_compact_pipeline(matrix)
    assert len(seen) == hook.checked
    state = Scorer(matrix).score(next(iter(enumerate_cubic(matrix).incumbents.values())))
    zero = zero_min_cost_edges(state)
    u, v = zero[0]
    child, czero = contract_and_update(state, (u, v), zero)
    rescore = shadow_check(child, u)
    check_contractible_edges(child, czero, rescore)
    with pytest.raises(ParsicompactError, match="differ from a full scan"):
        check_contractible_edges(child, czero + [(u, v)], rescore)
    x, _y = czero[0]
    rescore.vv[x] = 0
    with pytest.raises(ParsicompactError, match="differ from the full rescore"):
        check_contractible_edges(child, czero, rescore)
    child.vv[u] ^= 1
    with pytest.raises(ParsicompactError, match="differs from full rescore"):
        shadow_check(child, u)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_extract_fit_on_contracted_states(seed):
    # A contracted state's kids are rewired, so its fit walks them in an
    # order no scoring pass produced.
    matrix, _tree, state = make_state(seed)
    rng = random.Random(seed)
    while True:
        tree = tree_of(state)
        fit = state.extract_fit()
        assert set(fit.states) == set(tree.iter_nodes())
        changes = sum(
            sum(x != y for x, y in zip(fit.states[u], fit.states[v]))
            for u, v in tree.iter_edges()
        )
        assert changes == fit.total_cost == state.mp_cost
        assert state.mp_cost == brute_force_best_fit(tree, matrix).mp_cost
        for node, states in fit.states.items():
            vv = unpack_sets(matrix, state.vv[node])
            assert all(s in vv[c] for c, s in enumerate(states)), node
        zero = zero_min_cost_edges(state)
        if not zero:
            break
        state, _ = contract_and_update(state, rng.choice(zero), zero)


def test_merged_node_vv_is_the_intersection():
    matrix = evolved_matrix(5, 6, 4, seed=21)
    cubic = enumerate_cubic(matrix)
    tree = next(iter(cubic.incumbents.values()))
    state = Scorer(matrix).score(tree)
    zero = zero_min_cost_edges(state)
    for u, v in zero:
        meet = state.vv[u] & state.vv[v]
        after, _ = contract_and_update(state, (u, v), zero)
        # the merged node is the parent end u: the child end v is gone
        # and every other node kept its id
        assert state.parent[v] == u
        assert set(tree_of(after).iter_nodes()) == set(tree.iter_nodes()) - {v}
        assert after.vv[u] == meet


def edge_set(state):
    """The state's edges, read from its parent array, as (smaller, larger)."""
    return {(min(x, p), max(x, p)) for x, p in enumerate(state.parent) if p >= 0}


def check_arrays_match(child, tree):
    """The child's arrays describe ``tree``, contracted independently."""
    assert edge_set(child) == set(tree.iter_edges())
    assert child.label == tree.label
    assert [ks is None for ks in child.kids] == [at is None for at in tree.adj]
    for x, ks in enumerate(child.kids):
        for c in ks or ():
            assert child.parent[c] == x, (x, c)
    assert tree_of(child).canonical_key() == tree.canonical_key()


def arrays_of(state):
    """A state's cost, root and arrays, inner kids lists copied too."""
    return (state.mp_cost, state.root, list(state.parent),
            [None if ks is None else list(ks) for ks in state.kids],
            list(state.label), list(state.vu), list(state.vl), list(state.vv),
            list(state.local))


def check_every_order(state, matrix, tree):
    """Contract every order from ``state``, checking each child's derived
    sets against fresh scores; returns the rewire cases met on the way.

    ``tree`` is the state's tree, carried along by the independent
    ``contract_edge`` on copies, which merges each edge's child end into
    its parent end, so the child's rewired arrays are checked against a
    contraction that does not use them.
    VV and the cost come from a score at the default root, which they do
    not depend on.  The hung arrays (parent, children, VU, VL and local
    cost) come from a score at the child's own root.
    """
    cases = set()
    before = arrays_of(state)
    zero = zero_min_cost_edges(state)
    for u, v in zero:
        if tree.label[v] is not None:
            cases.add("v labelled")
        child, _ = contract_and_update(state, (u, v), zero)
        # The child shares the parent's untouched inner lists, so an edit
        # in place that reached one would show here.
        assert arrays_of(state) == before
        assert arrays_of(contract_and_update(state, (v, u), zero)[0]) == arrays_of(child)
        cases.add("edge passed child end first")
        after = tree.copy()
        contract_edge(after, u, v)
        check_arrays_match(child, after)
        if after.label[u] is None and len(child.kids[u]) >= 4:
            cases.add("threshold count at u")
        assert after.label[u] == (tree.label[u] or tree.label[v])
        fresh = Scorer(matrix).score(after)
        assert child.mp_cost == fresh.mp_cost == state.mp_cost
        hung = Scorer(matrix).score(after, root=child.root)
        for x in after.iter_nodes():
            assert child.vv[x] == fresh.vv[x], x
            assert child.parent[x] == hung.parent[x], x
            assert sorted(child.kids[x]) == sorted(hung.kids[x]), x
            assert (child.vu[x], child.vl[x], child.local[x]) == (
                hung.vu[x], hung.vl[x], hung.local[x]), x
        assert child.vv[v] == child.vu[v] == child.local[v] == 0
        if any(child.vv[x] != state.vv[x] for x in after.iter_nodes() if x != u):
            cases.add("VV changed away from u")
        cases |= check_every_order(child, matrix, after)
    return cases


def test_derived_sets_equal_a_fresh_score_in_every_order():
    # Identical data makes high-degree merged nodes; evolved data makes
    # labelled merged nodes, and at higher rates root sets that change
    # away from the merged node.
    matrices = [evolved_matrix(5, 5, 4, seed=seed) for seed in range(3)]
    matrices.append(evolved_matrix(6, 6, 2, seed=5, mutation_rate=0.05))
    matrices.append(evolved_matrix(5, 4, 4, seed=1, mutation_rate=0.3))
    matrices += [evolved_matrix(6, 10, 3, seed=seed, mutation_rate=0.2) for seed in (1, 4)]
    matrices.append(CharacterMatrix.from_rows([(f"S{i}", "A") for i in range(1, 6)]))
    cases = set()
    for matrix in matrices:
        for tree in enumerate_cubic(matrix).incumbents.values():
            state = Scorer(matrix).score(tree)
            cases |= check_every_order(state, matrix, tree)
    assert cases == {"edge passed child end first", "v labelled",
                     "threshold count at u", "VV changed away from u"}


def test_contraction_merges_the_child_end_into_the_parent_end():
    # Every state reachable from the cubic MP trees, contracted along each
    # of its zero edges: the edge comes parent end first, the child keeps
    # the root and frees only the child end's slot, and passing the edge
    # child end first builds the same child.
    matrices = [evolved_matrix(5, 5, 4, seed=0),
                evolved_matrix(6, 6, 2, seed=5, mutation_rate=0.05)]
    cases = set()
    for matrix in matrices:
        stack = [Scorer(matrix).score(tree)
                 for tree in enumerate_cubic(matrix).incumbents.values()]
        seen = set()
        while stack:
            state = stack.pop()
            live = {x for x, ks in enumerate(state.kids) if ks is not None}
            zero = zero_min_cost_edges(state)
            for u, v in zero:
                assert state.parent[v] == u
                if v < u:
                    cases.add("smaller id is the child end")
                if state.parent[u] < 0:
                    cases.add("edge at the root")
                child, _ = contract_and_update(state, (u, v), zero)
                assert child.root == state.root
                assert {x for x, ks in enumerate(child.kids) if ks is not None} == live - {v}
                assert child.parent[v] == -1
                assert arrays_of(contract_and_update(state, (v, u), zero)[0]) == arrays_of(child)
                key = tree_of(child).canonical_key()
                if key not in seen:
                    seen.add(key)
                    stack.append(child)
    assert cases == {"smaller id is the child end", "edge at the root"}


def zero_edges_shrink(state, edges, seen, tree, cases=None):
    """Check, over every state reachable from ``state``, that the
    contractible edges each contraction derives are the full scan's, and
    that each of them was contractible in the parent.

    ``edges`` are the state's contractible edges, and the walk goes on
    from each child with the list the step derived for it.  ``tree`` is
    the state's tree, carried along by the independent ``contract_edge``
    on copies.  Edges come parent end first, and the parent end u took
    over the child end v's children, so a child edge (u, y) was (u, y)
    or (v, y) before; every other edge kept its ends.  Each edge is also
    passed child end first, which must derive the same child and list.
    ``cases``, if given, collects which kinds of parent edge the step
    dropped or renamed.  Returns the number of child edges checked.
    """
    checks = 0
    zero = set(edges)
    for u, v in edges:
        child, derived = contract_and_update(state, (u, v), edges)
        assert contract_and_update(state, (v, u), edges)[1] == derived
        assert derived == zero_min_cost_edges(child)
        after = tree.copy()
        contract_edge(after, u, v)
        check_arrays_match(child, after)
        for x, y in derived:
            if x == u and state.parent[y] == v:
                x = v
            assert (x, y) in zero
            checks += 1
        if cases is not None:
            kept = set(derived)
            for x, y in edges:
                if y == v:
                    continue
                if x == v:
                    if (u, y) in kept:
                        cases.add("renamed edge kept")
                    continue
                if (x, y) in kept:
                    continue
                same = [child.vv[z] == state.vv[z] for z in (x, y)]
                if u not in (x, y):
                    cases.add("dropped away from u")
                if u in (x, y) and all(same):
                    cases.add("dropped at u, no root set changed")
                if y != u and same[1] and (x == u or not same[0]):
                    cases.add("dropped at a retested parent end only")
        key = after.canonical_key()
        if key not in seen:
            seen.add(key)
            checks += zero_edges_shrink(child, derived, seen, after, cases)
    return checks


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_contraction_never_creates_a_contractible_edge(seed):
    _matrix, tree, state = make_state(seed)
    zero_edges_shrink(state, zero_min_cost_edges(state), set(), tree)


def test_contraction_never_creates_a_contractible_edge_in_mp_trees():
    checks = 0
    for seed in (1, 5, 8):
        matrix = evolved_matrix(6, 6, 2, seed=seed, mutation_rate=0.05)
        for tree in enumerate_cubic(matrix).incumbents.values():
            state = Scorer(matrix).score(tree)
            checks += zero_edges_shrink(state, zero_min_cost_edges(state), set(), tree)
    assert checks > 1000


def test_derived_contractible_edges_are_a_full_scan():
    # Random mixed X-trees, whose labelled internal nodes make edges at
    # the merged node turn label-label, on evolved data at several rates,
    # whose root sets change away from the merged node: every arc of every contraction
    # order, each edge in both orientations, derives the full scan's list.
    cases = set()
    checks = 0
    for seed in range(200):
        rng = random.Random(seed)
        matrix = evolved_matrix(rng.randint(4, 8), rng.randint(2, 5), rng.randint(2, 4),
                                seed=seed, mutation_rate=rng.choice([0.05, 0.1, 0.2, 0.3]))
        tree = random_mixed_tree(matrix.names, rng)
        state = Scorer(matrix).score(tree)
        checks += zero_edges_shrink(state, zero_min_cost_edges(state), set(), tree, cases)
    assert checks > 1000
    assert cases == {"renamed edge kept", "dropped away from u",
                     "dropped at u, no root set changed",
                     "dropped at a retested parent end only"}


def run_both(matrix, **kw):
    mixed = enumerate_mixed(matrix)
    pipe = most_compact_pipeline(matrix, **kw)
    return mixed, pipe


@pytest.mark.parametrize("seed", range(6))
def test_pipeline_matches_exhaustive_most_compact(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    maker = evolved_matrix if seed % 2 else random_matrix
    matrix = maker(n, rng.randint(3, 6), rng.randint(2, 4),
                   seed=rng.randrange(1 << 30))
    mixed, pipe = run_both(matrix)
    assert pipe.mp_cost == mixed.incumbent_cost
    assert set(pipe.trees) == set(mixed.most_compact)
    assert pipe.best_node_count == mixed.min_nodes


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 6),
    m=st.integers(2, 8),
    states=st.integers(2, 4),
    rate=st.sampled_from([0.0, 0.05, 0.3]),
    seed=st.integers(0, 10**6),
)
@example(n=6, m=6, states=2, rate=0.0, seed=0)
def test_contraction_visits_exactly_the_mp_mixed_trees(n, m, states, rate, seed):
    # Every MP mixed tree is a cost-keeping contraction of a cubic MP
    # tree, and every state is an MP mixed tree with a key of its own: the
    # memo holds exactly the MP mixed trees.  Rate 0 gives identical data.
    matrix = evolved_matrix(n, m, states, seed=seed, mutation_rate=rate)
    mixed, pipe = run_both(matrix)
    assert pipe.explored_states == len(mixed.incumbents)
    assert set(pipe.trees) == set(mixed.most_compact)


def test_pipeline_matches_every_contraction_order():
    # Walk every contraction order of every cubic MP tree, with no memo
    # of any kind, and count the orders ending at each most compact tree.
    def walk(state, terminals):
        edges = zero_min_cost_edges(state)
        if not edges:
            tree = tree_of(state)
            terminals.append((tree.num_nodes, tree.canonical_key()))
        return sum(1 + walk(contract_and_update(state, e, edges)[0], terminals)
                   for e in edges)

    # Identical data and the low-divergence fixture add many states
    # reached from more than one cubic tree.
    matrices = [evolved_matrix(5, 5, 4, seed=seed) for seed in range(4)]
    matrices.append(CharacterMatrix.from_rows([(f"S{i}", "A") for i in range(1, 6)]))
    matrices.append(evolved_matrix(6, 6, 2, seed=5, mutation_rate=0.05))
    for matrix in matrices:
        terminals = []
        steps = 0
        for tree in enumerate_cubic(matrix).incumbents.values():
            steps += walk(Scorer(matrix).score(tree), terminals)
        best = min(nodes for nodes, _ in terminals)
        arrivals = [key for nodes, key in terminals if nodes == best]
        result = most_compact_pipeline(matrix)
        assert set(result.trees) == set(arrivals)
        assert result.raw_count == len(arrivals)
        assert result.best_node_count == best
        assert result.contractions <= steps


@pytest.mark.parametrize("n", [4, 5, 6])
def test_identical_data_contracts_to_all_fully_labelled_trees(n):
    matrix = CharacterMatrix.from_rows([(f"S{i}", "A") for i in range(1, n + 1)])
    result = most_compact_pipeline(matrix)
    assert result.mp_cost == 0
    assert result.best_node_count == n
    # Every mixed tree without unlabelled nodes: Cayley's n**(n-2).
    assert result.dedup_count == n ** (n - 2)
    for key in result.trees:
        tree = parse_newick(key.as_text())
        assert tree.n_unlabelled == 0 and tree.num_nodes == n


def prufer_edge_lists(n):
    """The edges of every labelled tree on nodes 0..n-1, n >= 2, one per
    Prüfer sequence: n**(n-2) trees."""
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        for x in seq:
            leaf = degree.index(1)
            edges.append((leaf, x))
            degree[leaf] -= 1
            degree[x] -= 1
        edges.append(tuple(i for i in range(n) if degree[i] == 1))
        yield edges


def hamming_msts(matrix):
    """W, the weight of a minimum spanning tree of the species' Hamming
    graph, and the canonical Newick of every spanning tree of weight W."""
    names = matrix.names
    dist = hamming_distances(matrix)
    weight = None
    texts = []
    for edges in prufer_edge_lists(len(names)):
        w = sum(dist[u][v] for u, v in edges)
        if weight is None or w < weight:
            weight, texts = w, []
        if w == weight:
            tree = MixedTree()
            for name in names:
                add_node(tree, name)
            for u, v in edges:
                add_edge(tree, u, v)
            texts.append(tree.write_newick())
    return weight, sorted(texts)


# evolved_matrix(n, 8, states, seed, rate) -> MP cost, W, best node count.
# Rate 0 gives identical data.  Over n 3-6, states 2 and 4 and seeds 0-7,
# the identity held on all 192 instances, and MP < W on 39 of the 64 at
# rate 0.3 and on none at rate 0 or 0.05.
MST_PINNED = [
    ((3, 2, 0, 0.0), (0, 0, 3)),
    ((4, 4, 1, 0.0), (0, 0, 4)),
    ((5, 2, 2, 0.0), (0, 0, 5)),
    ((6, 4, 3, 0.0), (0, 0, 6)),
    ((5, 4, 1, 0.05), (3, 3, 5)),
    ((6, 2, 3, 0.05), (3, 3, 6)),
    ((6, 4, 3, 0.05), (4, 4, 6)),
    ((6, 4, 5, 0.05), (2, 2, 6)),
    ((5, 2, 2, 0.3), (3, 3, 5)),
    ((5, 4, 5, 0.3), (15, 15, 5)),
    ((3, 4, 0, 0.3), (6, 7, 4)),
    ((4, 2, 5, 0.3), (7, 9, 5)),
    ((5, 4, 7, 0.3), (11, 13, 8)),
    ((6, 2, 2, 0.3), (9, 10, 7)),
    ((6, 4, 0, 0.3), (12, 15, 8)),
]


@pytest.mark.parametrize("shape, want", MST_PINNED)
def test_most_compact_trees_are_the_msts_exactly_when_mp_equals_w(shape, want):
    # Each species labels its own node, so no mixed tree has fewer than n
    # nodes, and the n-node ones are the spanning trees, each costing its
    # Hamming weight.  So MP <= W, the best node count is n exactly when
    # MP = W, and then the most compact trees are the MSTs.
    n, states, seed, rate = shape
    matrix = evolved_matrix(n, 8, states, seed=seed, mutation_rate=rate)
    result = most_compact_pipeline(matrix)
    weight, msts = hamming_msts(matrix)
    assert (result.mp_cost, weight, result.best_node_count) == want
    assert result.mp_cost <= weight
    assert (result.best_node_count == n) == (result.mp_cost == weight)
    if result.mp_cost == weight:
        assert sorted(k.as_text() for k in result.trees) == msts
    if rate == 0:
        assert len(msts) == n ** (n - 2)  # Cayley


# (n, m, states) -> how many matrices every_matrix makes.  CI runs three
# larger slices.
EXHAUSTIVE = [((4, 1, 3), 14), ((4, 2, 3), 105), ((4, 3, 3), 560), ((5, 2, 2), 136)]


@pytest.mark.parametrize("shape, want", EXHAUSTIVE)
def test_the_pipeline_agrees_with_the_mixed_search_on_every_small_matrix(shape, want):
    # Not a sample: every matrix of the slice, up to the order of its
    # columns and the naming of each column's states.  A disagreement on
    # any one is a finding about the program, the theorem or an oracle.
    count = 0
    for matrix in every_matrix(*shape):
        check_the_pipeline_against_the_mixed_search(matrix)
        count += 1
    assert count == want


@pytest.mark.parametrize("shape", [shape for shape, _want in MST_PINNED])
def test_kruskal_msts_are_the_prufer_msts(shape):
    # The weight-class enumerator (conftest) against every spanning tree
    # by Prüfer sequence, and its count against the matrix-tree theorem.
    n, states, seed, rate = shape
    matrix = evolved_matrix(n, 8, states, seed=seed, mutation_rate=rate)
    weight, msts = kruskal_msts(matrix)
    assert (weight, msts) == hamming_msts(matrix)
    assert len(msts) == matrix_tree_mst_count(matrix)


# evolved_matrix(n, m, states, seed, rate) -> (W, MSTs).  Shapes and seeds
# pinned before the counts were read.  Identical data gives Cayley's
# n**(n-2); the n = 8 shape is CI's MST fixture, and the n = 10 one the
# diverged benchmark's.
MST_COUNTS = [
    ((3, 4, 2, 0, 0.0), (0, 3)),
    ((5, 4, 2, 0, 0.0), (0, 125)),
    ((7, 4, 2, 0, 0.0), (0, 16807)),
    ((8, 8, 2, 0, 0.08), (2, 2304)),
    ((8, 8, 2, 1, 0.08), (4, 3125)),
    ((8, 8, 2, 2, 0.08), (2, 2500)),
    ((9, 10, 2, 0, 0.1), (6, 96)),
    ((9, 10, 2, 1, 0.1), (8, 64)),
    ((9, 10, 2, 2, 0.1), (4, 1024)),
    ((10, 30, 4, 1000, 0.15), (80, 8)),
    ((10, 30, 4, 1001, 0.15), (75, 6)),
]


@pytest.mark.parametrize("shape, want", MST_COUNTS)
def test_kruskal_mst_counts_follow_the_matrix_tree_theorem(shape, want):
    n, m, states, seed, rate = shape
    matrix = evolved_matrix(n, m, states, seed=seed, mutation_rate=rate)
    weight, edge_lists = kruskal_mst_edges(matrix)
    assert (weight, len(edge_lists)) == want
    assert matrix_tree_mst_count(matrix) == len(edge_lists)
    dist = hamming_distances(matrix)
    assert len({frozenset(edges) for edges in edge_lists}) == len(edge_lists)
    for edges in edge_lists:
        assert len(edges) == n - 1
        assert sum(dist[i][j] for i, j in edges) == weight


def test_compact_search_single_tree():
    matrix = evolved_matrix(5, 8, 4, seed=31)
    cubic = enumerate_cubic(matrix)
    first = min(cubic.incumbents)
    tree = cubic.incumbents[first]
    searcher = CompactSearcher(matrix)
    assert searcher.add_source(tree) == cubic.incumbent_cost
    result = searcher.finalize()
    assert result.sources == 1
    assert result.best_node_count <= tree.num_nodes
    for key in result.trees:
        assert Scorer(matrix).cost(parse_newick(key.as_text())) == cubic.incumbent_cost


@pytest.mark.parametrize("fault", ["root set", "signature"])
def test_memo_hit_check_refuses_a_corrupt_entry(fault):
    # Identical data on four species: both start trees contract their
    # central edge into the star, so the second reaches it as a memo hit
    # whose merged node is the star's centre.  One stored entry is
    # corrupted at that node, in its VV or by dropping its signature;
    # the hit's check must refuse it as a ParsicompactError.
    matrix = CharacterMatrix.from_rows([(f"S{i}", "A") for i in range(1, 5)])
    first, second = parse_newick("(S1,S2,(S3,S4));"), parse_newick("(S1,S3,(S2,S4));")
    clean = CompactSearcher(matrix)
    clean.add_source(first)
    clean.add_source(second)  # passes the check while the memo is intact
    searcher = CompactSearcher(matrix)
    searcher.add_source(first)
    hits = searcher.memo_hits
    star = sum(b for split, b in searcher.bit.items() if split.bit_count() in (1, 3))
    sig, vv = searcher.memo[star]
    centre = sig.index(star)
    if fault == "root set":
        vv = vv.copy()
        vv[centre] ^= 1
    else:
        sig = sig.copy()
        sig[centre] = 0
    searcher.memo[star] = (sig, vv)
    with pytest.raises(ParsicompactError,
                       match="merged-node root set differs from the endpoint intersection"):
        searcher.add_source(second)
    assert searcher.memo_hits > hits


def split_set(tree, names):
    species = {name: i for i, name in enumerate(names)}
    return frozenset(split for _u, _v, split in tree_splits(tree, species))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(4, 5))
def test_equal_split_sets_iff_equal_canonical_keys(seed, n):
    # Random X-trees (every unlabelled node comes from rule 1, so has
    # degree 3 or more) on few species, so that equal trees occur.
    rng = random.Random(seed)
    names = [f"S{i}" for i in range(n)]
    by_key = {}
    by_splits = {}
    for _ in range(120):
        tree = random_mixed_tree(rng.sample(names, n), rng)
        key = tree.canonical_key()
        splits = split_set(tree, names)
        assert by_key.setdefault(key, splits) == splits
        assert by_splits.setdefault(splits, key) == key
        # The same tree with other node numbers has the same splits.
        assert split_set(parse_newick(key.as_text()), names) == splits
    assert len(by_key) == len(by_splits) < 120


def test_result_bookkeeping():
    matrix = evolved_matrix(6, 6, 4, seed=40)
    result = most_compact_pipeline(matrix)
    assert result.dedup_count == len(result.trees)
    assert result.raw_count >= result.dedup_count
    assert result.sources == len(result.cubic_record.incumbents)
    assert result.mean_contractions == result.contractions / result.sources
    assert result.explored_states >= result.dedup_count
    # Each start tree is a state of its own, and each other state was
    # built once; every other contraction found its child in the memo.
    built = result.explored_states - result.sources
    assert result.memo_hits == result.contractions - built


# (n, m, states, seed, mutation rate) -> explored states, contractions,
# raw count, best node count, tree digest.  None stands for identical data
# at n=5, which contracts to all 5**3 = 125 fully labelled trees.  The
# values predate the edge-set memo (each order's children were built
# separately then), and a changed count shows here without the benchmark.
PINNED = [
    ((5, 5, 4, 0, 0.15), (164, 418, 630, 5, "924281c67907226b")),
    ((6, 6, 2, 5, 0.05), (492, 1582, 5040, 6, "3b480f7be614b159")),
    ((6, 8, 3, 1, 0.1), (484, 1500, 4224, 6, "2a22a6ff58337776")),
    ((6, 8, 3, 2, 0.1), (262, 700, 1152, 7, "ac5c399dd90fc17e")),
    (None, (396, 1090, 1890, 5, "ce282757d3de59b1")),
]


@pytest.mark.parametrize("shape, want", PINNED)
def test_contraction_counters_are_pinned(shape, want):
    if shape is None:
        matrix = CharacterMatrix.from_rows([(f"S{i}", "A") for i in range(1, 6)])
    else:
        n, m, states, seed, rate = shape
        matrix = evolved_matrix(n, m, states, seed=seed, mutation_rate=rate)
    result = most_compact_pipeline(matrix)
    digest = hashlib.sha256("\n".join(sorted(k.as_text() for k in result.trees)).encode())
    got = (result.explored_states, result.contractions, result.raw_count,
           result.best_node_count, digest.hexdigest()[:16])
    assert got == want


def test_searcher_refuses_start_trees_that_are_not_x_trees():
    matrix = random_matrix(4, 3, 2, seed=0)
    subdivided = subdivide_with_unlabelled(
        parse_newick("((S1,S2),S3,S4);"), random.Random(0), 1)
    # An unlabelled leaf is refused by the X-tree check, not by the scorer.
    leafy = parse_newick("((S1,S2),S3,S4);")
    hub = leafy.adj[leafy.species_node("S3")][0]
    add_edge(leafy, hub, add_node(leafy))
    for tree in (subdivided, parse_newick("(S1,S2,S3);"), leafy):
        with pytest.raises(TreeStructureError):
            CompactSearcher(matrix).add_source(tree)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_from_arrays_rebuilds_the_scored_tree(seed):
    matrix, tree, state = make_state(seed)
    # A contraction frees a node, so the arena has a dead slot.
    zero = zero_min_cost_edges(state)
    freed = tree.copy()
    if zero:
        contract_edge(freed, *zero[0])
    for t in (tree, freed):
        built = tree_of(Scorer(matrix).score(t))
        validate(built)
        assert built.canonical_key() == t.canonical_key()
        assert built.label == t.label
        assert [at is None for at in built.adj] == [at is None for at in t.adj]
        assert (built.n_labelled, built.n_unlabelled) == (t.n_labelled, t.n_unlabelled)
        assert set(built.iter_edges()) == set(t.iter_edges())
