"""Scoring engine: packed Hartigan vs oracle, set semantics, edge costs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsicompact import (
    CharacterMatrix,
    DuplicateLabelError,
    EmptyTreeError,
    IllegalContractionError,
    MissingSpeciesError,
    MixedTree,
    OracleTooLargeError,
    Scorer,
    TreeStructureError,
    UnlabelledLeafError,
    brute_force_best_fit,
    contract_and_update,
    parse_newick,
    random_matrix,
    unpack_sets,
    zero_min_cost_edges,
)
from parsicompact.parsimony import group_width
from conftest import (
    add_edge,
    add_node,
    free_node,
    num_edges,
    oracle_fits,
    oracle_vv_union,
    random_instance,
    random_mixed_tree,
    remove_edge,
    sized_matrix,
    subdivide_with_unlabelled,
)

TWO_STATE = CharacterMatrix.from_rows(
    [("A1", "A"), ("A2", "A"), ("B1", "B"), ("B2", "B")]
)


def test_known_interleaved_quartet():
    # Interleaved labels force two changes however the tree is rooted.
    tree = parse_newick("(((A1,B1),A2),B2);")
    assert Scorer(TWO_STATE).cost(tree) == 2


def test_star_tree_cost():
    tree = parse_newick("(A2,B1,B2)A1;")
    assert Scorer(TWO_STATE).cost(tree) == 2


def test_vv_can_exceed_fitch_sets():
    # On a binary tree rooted at its degree-2 node, VU is the Fitch set.
    tree = parse_newick("(((A1,B1),A2),B2);")
    root = next(u for u in tree.iter_nodes() if tree.label[u] is None
                and len(tree.adj[u]) == 2)
    result = Scorer(TWO_STATE).score(tree, root)
    assert result.mp_cost == 2
    grew = 0
    for node in tree.iter_nodes():
        vu = unpack_sets(TWO_STATE, result.vu[node])[0]
        vv = unpack_sets(TWO_STATE, result.vv[node])[0]
        assert vu <= vv
        grew += vv > vu
    assert grew > 0


def test_identical_data_is_free():
    m = CharacterMatrix.from_rows([("a", "AAA"), ("b", "AAA"), ("c", "AAA")])
    assert Scorer(m).cost(parse_newick("(a,b,c);")) == 0
    assert Scorer(m).cost(parse_newick("((a)b)c;")) == 0


def test_scorer_handles_all_degrees():
    # Chain (degree 1-2), star (high degree), labelled internals.
    m = random_matrix(6, 4, 3, seed=0)
    chain = parse_newick("(((((S2)S3)S4)S5)S6)S1;")
    star = parse_newick("(S2,S3,S4,S5,S6)S1;")
    for t in (chain, star):
        got = Scorer(m).score(t).mp_cost
        want = brute_force_best_fit(t, m).mp_cost
        assert got == want


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_cost_matches_oracle(seed):
    matrix, tree = random_instance(seed, max_n=6, max_m=4, max_states=4)
    result = Scorer(matrix).score(tree)
    oracle = brute_force_best_fit(tree, matrix)
    assert result.mp_cost == oracle.mp_cost


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_root_invariance(seed):
    matrix, tree = random_instance(seed, max_n=6, max_m=4)
    costs = {Scorer(matrix).score(tree, u).mp_cost
             for u in tree.iter_nodes()}
    assert len(costs) == 1


def test_score_refuses_a_root_that_is_not_a_live_node():
    # A negative root would hang the tree from the end of the arena, one
    # past it would raise a bare IndexError, and a free slot holds no node.
    matrix = CharacterMatrix.from_rows([("a", "A"), ("b", "C"), ("c", "A"), ("d", "C")])
    tree = parse_newick("((a,b),c,d);")
    free = add_node(tree)
    free_node(tree, free)
    scorer = Scorer(matrix)
    assert {scorer.score(tree, u).mp_cost for u in tree.iter_nodes()} == {2}
    for bad in (-1, len(tree.adj), free):
        with pytest.raises(TreeStructureError, match=f"no node {bad}"):
            scorer.score(tree, root=bad)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_vv_equals_union_of_optimal_fits(seed):
    matrix, tree = random_instance(seed, max_n=5, max_m=3)
    result = Scorer(matrix).score(tree)
    oracle = brute_force_best_fit(tree, matrix)
    want = oracle_vv_union(oracle)
    for node in tree.iter_nodes():
        assert unpack_sets(matrix, result.vv[node]) == want[node]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_extract_fit_is_optimal_and_inside_vv(seed):
    matrix, tree = random_instance(seed, max_n=6, max_m=4)
    result = Scorer(matrix).score(tree)
    fit = result.extract_fit()
    assert fit.total_cost == result.mp_cost
    # Recount changes by brute walk over edges.
    changes = 0
    for u, v in tree.iter_edges():
        a, b = fit.states[u], fit.states[v]
        changes += sum(x != y for x, y in zip(a, b))
    assert changes == result.mp_cost
    for node, states in fit.states.items():
        vv = unpack_sets(matrix, result.vv[node])
        for c, s in enumerate(states):
            assert s in vv[c]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_set_containments(seed):
    matrix, tree = random_instance(seed, max_n=6, max_m=4)
    result = Scorer(matrix).score(tree)
    for node in tree.iter_nodes():
        sets = zip(*(unpack_sets(matrix, packed[node])
                     for packed in (result.vu, result.vl, result.vv)))
        for c, (vu, vl, vv) in enumerate(sets):
            assert vu and not (vu & vl)
            assert vv <= (vu | vl)
            assert (vv <= vu) or (vv >= vu)
            if tree.label[node] is not None:
                state = matrix.values[tree.label[node]][c]
                assert vu == {state} and vl == frozenset() and vv == {state}


def test_fitch_equals_hartigan_on_binary_leaf_trees():
    # Fitch's setting: binary trees, species on the leaves only.  Rooted
    # on an edge midpoint, every scoring step is the two-child recurrence.
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(3, 8)
        matrix = random_matrix(n, rng.randint(1, 5), rng.randint(2, 4),
                               seed=rng.randrange(1 << 30))
        # Random binary leaf-labelled tree via repeated edge subdivision.
        tree = parse_newick("(S1,S2,S3);")
        for i in range(4, n + 1):
            edge = rng.choice(list(tree.iter_edges()))
            tree.grow_rule_1(edge, f"S{i}")
        u, v = next(iter(tree.iter_edges()))
        remove_edge(tree, u, v)
        mid = add_node(tree)
        add_edge(tree, u, mid)
        add_edge(tree, mid, v)
        want = brute_force_best_fit(tree, matrix).mp_cost
        assert Scorer(matrix).score(tree, mid).mp_cost == want


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_min_cost_edge_definition(seed):
    # An edge's min cost is one unit per character whose VV member sets
    # are disjoint: zero puts it among the contraction candidates, and a
    # positive value is the figure contract_and_update refuses it with.
    matrix, tree = random_instance(seed, max_n=6, max_m=4)
    if num_edges(tree) == 0:
        return
    state = Scorer(matrix).score(tree)
    zero = {frozenset(e) for e in zero_min_cost_edges(state)}
    for u, v in tree.iter_edges():
        if tree.label[u] is not None and tree.label[v] is not None:
            continue
        su = unpack_sets(matrix, state.vv[u])
        sv = unpack_sets(matrix, state.vv[v])
        disjoint = sum(not (a & b) for a, b in zip(su, sv))
        assert (frozenset((u, v)) in zero) == (disjoint == 0)
        if disjoint:
            with pytest.raises(IllegalContractionError, match=f"min-cost {disjoint},"):
                contract_and_update(state, (u, v))


def test_scoring_errors():
    m = random_matrix(3, 2, 2, seed=0)
    with pytest.raises(MissingSpeciesError):
        Scorer(m).cost(parse_newick("(S1,S2,S9);"))
    tree = parse_newick("(S1,S2,S3);")
    leafy = tree.copy()
    add_edge(leafy, next(iter(leafy.iter_nodes())), add_node(leafy))
    with pytest.raises(UnlabelledLeafError):
        Scorer(m).cost(leafy)
    with pytest.raises(EmptyTreeError):
        Scorer(m).cost(MixedTree())
    # A species not in the matrix: as the new name of a growth sweep, of
    # either kind, and as a label for the oracle.
    sc = Scorer(m)
    for state in (sc.sweep_state(tree), sc.mixed_state(tree)):
        with pytest.raises(MissingSpeciesError, match="'S9' not in the matrix"):
            sc.growth_costs(tree, "S9", state)
    with pytest.raises(MissingSpeciesError, match="'q' not in the matrix"):
        brute_force_best_fit(parse_newick("(a,q);"), CharacterMatrix.from_rows([("a", "A")]))
    with pytest.raises(EmptyTreeError):
        brute_force_best_fit(MixedTree(), m)


@pytest.mark.parametrize("leaf_first", [True, False])
def test_unlabelled_leaf_is_rejected_under_any_numbering(leaf_first):
    # Star w(a,b,c) plus an unlabelled leaf x hung on a.  Whichever of x
    # and w gets the lower id (and so becomes the scoring root), the
    # tree is rejected.
    m = CharacterMatrix.from_rows([("a", "A"), ("b", "A"), ("c", "B"), ("d", "B")])
    tree = MixedTree()
    if leaf_first:
        x = add_node(tree)
        w = add_node(tree)
    else:
        w = add_node(tree)
        x = add_node(tree)
    a = add_node(tree, "a")
    for v in (a, add_node(tree, "b"), add_node(tree, "c")):
        add_edge(tree, w, v)
    add_edge(tree, a, x)
    assert Scorer.pick_root(tree) == min(x, w)
    sc = Scorer(m)
    with pytest.raises(UnlabelledLeafError):
        sc.cost(tree)
    with pytest.raises(UnlabelledLeafError):
        sc.score(tree)
    with pytest.raises(UnlabelledLeafError):
        sc.growth_costs(tree, "d", sc.mixed_state(tree))


@pytest.mark.parametrize("text", ["(a,b,c);", "(b,c,d)a;", "((b,c)a,d);"])
@pytest.mark.parametrize("mixed", [False, True])
def test_sweep_refuses_a_species_the_tree_already_holds(monkeypatch, text, mixed):
    # Growing a tree by a species it holds raises DuplicateLabelError, so
    # pricing that growth must raise it too, with the same message,
    # before any pass over the tree runs or any field of its state is
    # read: each field is None, which no read survives.
    m = CharacterMatrix.from_rows([("a", "A"), ("b", "A"), ("c", "B"), ("d", "B")])
    tree = parse_newick(text)
    with pytest.raises(DuplicateLabelError) as grown:
        tree.grow_rule_1(tree.iter_edges()[0], "a")
    sc = Scorer(m)
    state = sc.mixed_state(tree) if mixed else sc.sweep_state(tree)
    for slot in type(state).__slots__:
        setattr(state, slot, None)
    monkeypatch.setattr(MixedTree, "hang", lambda *_: pytest.fail("a pass ran"))
    with pytest.raises(DuplicateLabelError) as swept:
        sc.growth_costs(tree, "a", state)
    assert str(swept.value) == str(grown.value)


def test_oracle_cap():
    m = random_matrix(7, 5, 4, seed=2)
    tree = random_mixed_tree(m.names, random.Random(0))
    with pytest.raises(OracleTooLargeError):
        brute_force_best_fit(tree, m, cap=3)


def test_oracle_fit_enumeration_is_bounded_and_optimal():
    m = random_matrix(4, 3, 3, seed=4)
    tree = random_mixed_tree(m.names, random.Random(4))
    oracle = brute_force_best_fit(tree, m)
    fits = oracle_fits(oracle, limit=50)
    assert 1 <= len(fits) <= 50
    for fit in fits:
        changes = sum(
            sum(x != y for x, y in zip(fit.states[u], fit.states[v]))
            for u, v in tree.iter_edges()
        )
        assert changes == oracle.mp_cost


def test_scorer_reuse_across_trees():
    matrix = random_matrix(5, 4, 3, seed=6)
    scorer = Scorer(matrix)
    rng = random.Random(6)
    for _ in range(10):
        tree = random_mixed_tree(matrix.names, rng)
        assert scorer.cost(tree) == brute_force_best_fit(tree, matrix).mp_cost


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), extra=st.integers(0, 2))
def test_an_edge_combines_its_directional_sets_into_its_ends_root_sets(seed, extra):
    # Per character, the root set of an unlabelled degree-2 node on edge
    # (u, v) is both the 2-set combine of the edge's directional sets and
    # VV[u] | VV[v], so the cubic sweep prices rule 1 from the root sets
    # alone.  The trees hold polytomies, labelled internal nodes, labelled
    # degree-2 nodes and, with ``extra``, unlabelled degree-2 nodes.
    rng = random.Random(seed)
    matrix = random_matrix(rng.randint(3, 7), rng.randint(1, 5), rng.randint(2, 4),
                           seed=rng.randrange(1 << 30))
    tree = random_mixed_tree(matrix.names[:-1], rng)
    subdivide_with_unlabelled(tree, rng, extra)
    sc = Scorer(matrix)
    vv = sc.score(tree).vv
    for u, v in tree.iter_edges():
        # D(u->v), the VU set of u's side, is u's VU with the tree hung from v.
        a = unpack_sets(matrix, sc.score(tree, root=v).vu[u])
        b = unpack_sets(matrix, sc.score(tree, root=u).vu[v])
        assert tuple(s & t or s | t for s, t in zip(a, b)) == unpack_sets(matrix, vv[u] | vv[v])
    new = matrix.names[-1]
    moves, costs = sc.growth_costs(tree, new, sc.mixed_state(tree))
    rule_1 = [(move, cost) for move, cost in zip(moves, costs) if move[0] == "r1"]
    edges, cubic_costs = sc.growth_costs(tree, new, sc.sweep_state(tree))
    assert [(("r1", e), cost) for e, cost in zip(edges, cubic_costs)] == rule_1


# Widest alphabet -> group width, up to the 64 states a column may have:
# the fold's carry crosses 0, 1, 3, 7, 15, 31 and 63 bits.
GROUP_WIDTH = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16,
               17: 32, 32: 32, 33: 64, 64: 64}


@pytest.mark.parametrize("widest", sorted(GROUP_WIDTH))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fold_flags_exactly_the_non_empty_groups(widest, data):
    m = data.draw(st.integers(1, 12))
    sizes = [widest] + data.draw(st.lists(st.integers(1, widest), min_size=m - 1, max_size=m - 1))
    matrix = sized_matrix(sizes, random.Random(0))
    g = group_width(matrix)
    assert g == GROUP_WIDTH[widest]
    bits = data.draw(st.sets(st.integers(0, m * g - 1)))
    x = sum(1 << b for b in bits)
    want = sum(1 << (c * g) for c in range(m) if any(c * g <= b < (c + 1) * g for b in bits))
    assert Scorer(matrix)._fold(x) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_three_set_closed_form_matches_num_definition(data):
    # README "Scoring": for d sets, with num(s) the number of sets holding
    # s and K = max num, VU = {num = K}, VL = {num = K - 1} and the cost is
    # d - K, per character.  The threshold count takes any d, one and two
    # included; the closed form is that count unrolled for d = 3 and
    # covers non-empty sets only.
    widest = data.draw(st.sampled_from(sorted(GROUP_WIDTH)))
    m = data.draw(st.integers(1, 10))
    sizes = [widest] + data.draw(st.lists(st.integers(1, widest), min_size=m - 1, max_size=m - 1))
    sizes = data.draw(st.permutations(sizes))
    d = data.draw(st.integers(1, 8))
    matrix = sized_matrix(sizes, random.Random(0))
    g = group_width(matrix)
    assert g == GROUP_WIDTH[widest]
    members = [
        [data.draw(st.sets(st.integers(0, k - 1), min_size=1)) for k in sizes]
        for _ in range(d)
    ]
    packed = [sum(1 << (c * g + s) for c, got in enumerate(sets) for s in got) for sets in members]
    want_vu, want_vl, want_cost = [], [], 0
    for c, k in enumerate(sizes):
        num = [sum(s in sets[c] for sets in members) for s in range(k)]
        top = max(num)
        want_vu.append(frozenset(s for s in range(k) if num[s] == top))
        want_vl.append(frozenset(s for s in range(k) if num[s] == top - 1))
        want_cost += d - top
    scorer = Scorer(matrix)
    vu, vl, cost = scorer._count_many(packed)
    assert unpack_sets(matrix, vu) == tuple(want_vu)
    assert unpack_sets(matrix, vl) == tuple(want_vl)
    assert cost == want_cost
    if d == 3:
        assert scorer._three(*packed) == (vu, vl, cost)
