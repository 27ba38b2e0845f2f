"""Counting recurrences and exhaustive search behavior."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsicompact import (
    CharacterMatrix,
    Scorer,
    brute_force_best_fit,
    closed_form_estimate,
    count_cubic,
    count_mixed,
    count_total_mixed,
    enumerate_cubic,
    enumerate_mixed,
    evolved_matrix,
    most_compact_pipeline,
    order_species,
    random_matrix,
)
from parsicompact.enumeration import _GROWTH, _Search
from parsicompact.parsimony import group_width
from conftest import (
    SYMBOLS,
    add_node,
    contract_edge,
    growth_moves,
    live_labels,
    random_mixed_tree,
    sized_matrix,
    subdivide_with_unlabelled,
    validate,
)

TOTALS = [1, 1, 4, 32, 396, 6692, 143816]


def test_count_base_cases():
    assert count_mixed(1, 0) == 1
    assert count_mixed(1, 1) == 0
    assert count_mixed(2, 0) == 1
    assert count_mixed(2, 1) == 0
    assert count_mixed(3, -1) == 0
    assert count_mixed(5, 4) == 0


@pytest.mark.parametrize("n", range(-3, 1))
def test_counts_refuse_fewer_than_one_species(n):
    for count in (count_cubic, count_total_mixed, lambda n: count_mixed(n, 0)):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            count(n)


def test_count_totals_small():
    for n, want in enumerate(TOTALS, start=1):
        assert count_total_mixed(n) == want


def test_count_rows_sum_to_totals():
    for n in range(2, 12):
        assert sum(count_mixed(n, m) for m in range(n - 1)) == count_total_mixed(n)


def test_cubic_double_factorial():
    want = 1
    for n in range(3, 12):
        assert count_cubic(n) == want
        want *= 2 * (n + 1) - 5


def test_closed_form_tracks_exact_counts():
    ratios = [closed_form_estimate(n) / count_total_mixed(n) for n in range(4, 13)]
    assert all(0.5 < r < 1.0 for r in ratios)
    assert ratios == sorted(ratios)
    with pytest.raises(ValueError):
        closed_form_estimate(1)


def flat_matrix(n):
    """All-identical data: every topology costs zero, nothing can prune."""
    return CharacterMatrix.from_rows([(f"S{i}", "A") for i in range(1, n + 1)])


@pytest.mark.parametrize("n", range(2, 7))
def test_unpruned_mixed_enumeration_matches_counts(n):
    # On flat data every tree costs 0 and is offered, and incumbents is
    # keyed by canonical key, so equal counts mean no tree came twice.
    record = enumerate_mixed(flat_matrix(n), no_prune=True)
    assert record.generated == count_total_mixed(n)
    assert len(record.incumbents) == count_total_mixed(n)
    # Nothing is priced out, so every tree on k < n species is swept.
    assert record.sweeps_by_depth == [0] + [count_total_mixed(k) for k in range(1, n)]


@pytest.mark.parametrize("n", range(4, 8))
def test_unpruned_cubic_enumeration_matches_counts(n):
    record = enumerate_cubic(flat_matrix(n), no_prune=True)
    assert record.generated == count_cubic(n)
    assert len(record.incumbents) == count_cubic(n)
    assert record.sweeps_by_depth == [0, 0, 0] + [count_cubic(k) for k in range(3, n)]


def test_tiny_instances():
    one = enumerate_mixed(flat_matrix(1))
    assert one.incumbent_cost == 0 and len(one.incumbents) == 1
    m2 = random_matrix(2, 3, 2, seed=0)
    two = enumerate_mixed(m2)
    assert len(two.incumbents) == 1
    only = next(iter(two.incumbents.values()))
    assert two.incumbent_cost == Scorer(m2).cost(only)
    # One and two species, in both orders: the diverse order keeps the
    # matrix order, and the cubic search visits only its start tree.
    for n, text, cost in [(1, "S1;", 0), (2, "(S1)S2;", 1)]:
        matrix = random_matrix(n, 3, 2, seed=0)
        for order in ("input", "diverse"):
            assert order_species(matrix, order) == list(matrix.names)
            cubic = enumerate_cubic(matrix, order=order)
            assert (cubic.incumbent_cost, cubic.visited) == (cost, 1)
            assert [key.as_text() for key in cubic.incumbents] == [text]
            mixed = enumerate_mixed(matrix, order=order)
            assert mixed.incumbent_cost == cost
            assert [key.as_text() for key in mixed.most_compact] == [text]
            pipe = most_compact_pipeline(matrix, order=order)
            assert pipe.mp_cost == cost
            assert [key.as_text() for key in pipe.trees] == [text]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pruning_preserves_the_optimum_set(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    matrix = random_matrix(n, rng.randint(1, 4), rng.randint(2, 4),
                           seed=rng.randrange(1 << 30))
    pruned = enumerate_mixed(matrix)
    full = enumerate_mixed(matrix, no_prune=True)
    assert pruned.incumbent_cost == full.incumbent_cost
    assert set(pruned.incumbents) == set(full.incumbents)
    assert pruned.visited <= full.visited
    assert full.pruned == 0 and full.generated == count_total_mixed(n)


def test_incumbents_all_have_optimal_cost_and_valid_shape():
    matrix = evolved_matrix(6, 6, 4, seed=9)
    record = enumerate_mixed(matrix)
    assert record.incumbents
    for key, tree in record.incumbents.items():
        validate(tree)
        assert tree.canonical_key() == key
        assert live_labels(tree) == sorted(matrix.names)
        assert Scorer(matrix).cost(tree) == record.incumbent_cost
    best = min(t.num_nodes for t in record.incumbents.values())
    assert {t.num_nodes for t in record.most_compact.values()} == {best}
    assert set(record.most_compact) <= set(record.incumbents)


def test_cubic_incumbents_are_cubic():
    matrix = random_matrix(6, 5, 4, seed=3)
    record = enumerate_cubic(matrix)
    for tree in record.incumbents.values():
        assert all(len(tree.adj[u]) in (1, 3) for u in tree.iter_nodes())
        leaves = [u for u in tree.iter_nodes() if len(tree.adj[u]) == 1]
        assert sorted(tree.label[u] for u in leaves) == sorted(matrix.names)
        assert all(tree.label[u] is None for u in tree.iter_nodes()
                   if len(tree.adj[u]) == 3)


def test_mixed_optimum_never_worse_than_cubic():
    for seed in range(5):
        matrix = random_matrix(5, 4, 3, seed=seed)
        cubic = enumerate_cubic(matrix)
        mixed = enumerate_mixed(matrix)
        assert mixed.incumbent_cost == cubic.incumbent_cost
        assert set(cubic.incumbents) <= set(mixed.incumbents)


def test_threads_match_serial():
    matrix = evolved_matrix(6, 5, 4, seed=12)
    for runner in (enumerate_mixed, enumerate_cubic):
        serial = runner(matrix, threads=1)
        parallel = runner(matrix, threads=2)
        assert serial.incumbent_cost == parallel.incumbent_cost
        assert set(serial.incumbents) == set(parallel.incumbents)
        assert set(serial.most_compact) == set(parallel.most_compact)
    # Without pruning every complete tree is reached in both modes, so the
    # generation count is partition-independent.
    serial = enumerate_mixed(flat_matrix(5), no_prune=True)
    parallel = enumerate_mixed(flat_matrix(5), no_prune=True, threads=3)
    assert serial.generated == parallel.generated == count_total_mixed(5)
    # Each worker sweeps from the frontier's level down, and the merged
    # record adds the workers' counts depth by depth.
    level = next(k for k, count in enumerate(parallel.sweeps_by_depth) if count)
    assert level > 1
    assert parallel.sweeps_by_depth[level:] == serial.sweeps_by_depth[level:]
    assert sum(parallel.sweeps_by_depth) == parallel.sweeps


def test_order_modes_agree_on_results():
    matrix = evolved_matrix(6, 5, 4, seed=2)
    a = enumerate_mixed(matrix, order="input")
    b = enumerate_mixed(matrix, order="diverse")
    assert a.incumbent_cost == b.incumbent_cost
    assert set(a.incumbents) == set(b.incumbents)


def test_order_species_diverse():
    rows = [("a", "AAAA"), ("b", "AAAT"), ("c", "TTTT"), ("d", "ATTT")]
    matrix = CharacterMatrix.from_rows(rows)
    order = order_species(matrix, "diverse")
    assert set(order) == {"a", "b", "c", "d"}
    assert {order[0], order[1]} == {"a", "c"}  # the max-hamming pair
    assert order_species(matrix, "input") == list(matrix.names)
    with pytest.raises(Exception):
        order_species(matrix, "bogus")


def test_progress_callback_fires(monkeypatch):
    monkeypatch.setattr("parsicompact.enumeration.PROGRESS_EVERY", 10)
    # The callback gets the live record, so capture the counter value.
    hits = []
    enumerate_mixed(flat_matrix(4), no_prune=True,
                    on_progress=lambda r: hits.append(r.visited))
    assert hits and all(v % 10 == 0 for v in hits)


def test_counters_are_consistent():
    matrix = random_matrix(5, 4, 3, seed=8)
    record = enumerate_mixed(matrix)
    assert record.visited >= record.generated
    assert record.pruned <= record.visited
    assert record.min_nodes == min(t.num_nodes for t in record.most_compact.values())
    # Both are read from the incumbents, so a search run on its own has them too.
    search = _Search(matrix, list(matrix.names), "mixed", False, None)
    search.run(*search.start_tree())
    assert set(search.record.most_compact) == set(record.most_compact)
    assert search.record.min_nodes == record.min_nodes


def _with_degree_two_nodes(tree, rng):
    """The tree, and a copy with unlabelled degree-2 nodes if it has an edge.

    No search builds such a node, but the scorer must price moves around
    one, and on one, through its general threshold count.
    """
    if tree.num_nodes < 2:
        return [tree]
    return [tree, subdivide_with_unlabelled(tree.copy(), rng, rng.randint(1, 3))]


def _as_moves(listed, kind):
    """The sweep's moves as the reference listing writes them: a cubic
    move is the edge that rule 1 subdivides."""
    return [("r1", e) for e in listed] if kind == "cubic" else listed


def _full_state(scorer, tree, kind):
    """The tree's state by the full pass, of the kind that picks that
    search's sweep."""
    return scorer.mixed_state(tree) if kind == "mixed" else scorer.sweep_state(tree)


def test_sweep_costs_every_growth_move_exactly():
    # Trees grown by random moves carry polytomies, labelled internal
    # nodes and degree-2 labelled nodes, and their subdivided copies
    # degree-2 unlabelled nodes; every move of both searches must cost
    # what a full rescore (and, when small, the oracle) says.
    rng = random.Random(2024)
    shapes = {"polytomy": 0, "labelled internal": 0, "labelled degree 2": 0,
              "unlabelled degree 2": 0}
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 8)
        matrix = random_matrix(n, rng.randint(1, 6), rng.randint(2, 4),
                               seed=rng.randrange(1 << 30))
        *placed, name = matrix.names
        scorer = Scorer(matrix)
        for tree in _with_degree_two_nodes(random_mixed_tree(placed, rng), rng):
            for u in tree.iter_nodes():
                d = len(tree.adj[u])
                if tree.label[u] is None:
                    shapes["polytomy"] += d > 3
                    shapes["unlabelled degree 2"] += d == 2
                elif d >= 2:
                    shapes["labelled internal"] += 1
                    shapes["labelled degree 2"] += d == 2
            for kind in ("cubic", "mixed"):
                moves = growth_moves(tree, kind)
                listed, costs = scorer.growth_costs(tree, name, _full_state(scorer, tree, kind))
                assert _as_moves(listed, kind) == moves
                assert len(costs) == len(moves)
                for move, got in zip(moves, costs):
                    token = _Search.apply(tree, move, name)
                    assert got == scorer.cost(tree), (kind, move)
                    if tree.n_unlabelled <= 4:
                        assert got == brute_force_best_fit(tree, matrix).mp_cost
                    tree.undo_growth(token)
                    checked += 1
    assert all(shapes.values()), shapes
    assert checked > 4000


def test_sweep_lists_every_growth_move_in_the_search_order():
    # The sweep lists the moves it prices, so its list must be the
    # reference listing, in order, for both searches: on trees whose
    # arena has free slots, left by an undone growth or by a contracted
    # edge, and on trees with unlabelled degree-2 nodes.  Subdividing
    # either reuses its free slots, so node ids need not follow the order
    # in which the nodes were made.
    rng = random.Random(26)
    shapes = {"undone growth": 0, "contracted edge": 0, "unlabelled degree 2": 0}
    for _ in range(150):
        matrix = random_matrix(rng.randint(3, 9), 2, 3, seed=rng.randrange(1 << 30))
        *placed, name = matrix.names
        scorer = Scorer(matrix)
        tree = random_mixed_tree(placed, rng)
        undone = tree.copy()
        undone.undo_growth(_Search.apply(undone, rng.choice(growth_moves(undone, "mixed")), name))
        shapes["undone growth"] += None in undone.adj
        contracted = tree.copy()
        edges = [(u, v) for u, v in contracted.iter_edges()
                 if contracted.label[u] is None or contracted.label[v] is None]
        if edges:
            contract_edge(contracted, *rng.choice(edges))
        shapes["contracted edge"] += None in contracted.adj
        subdivided = subdivide_with_unlabelled(
            rng.choice((undone, contracted)).copy(), rng, rng.randint(1, 3))
        shapes["unlabelled degree 2"] += any(
            subdivided.label[u] is None and len(subdivided.adj[u]) == 2
            for u in subdivided.iter_nodes())
        for t in (tree, undone, contracted, subdivided):
            for kind in ("cubic", "mixed"):
                moves, costs = scorer.growth_costs(t, name, _full_state(scorer, t, kind))
                assert _as_moves(moves, kind) == growth_moves(t, kind), kind
                assert len(costs) == len(moves)
    assert all(count > 20 for count in shapes.values()), shapes


def test_sweep_costs_every_growth_move_on_eight_symbol_data():
    # Five to eight states in a column give 8-bit character groups, which
    # no other test's data and no benchmark matrix reach.  Every move of
    # both searches, on each tree and on a copy with unlabelled degree-2
    # nodes, must cost what building the child and rescoring says.
    rng = random.Random(88)
    checked = 0
    for _ in range(40):
        n = rng.randint(5, 8)
        sizes = [n] + [rng.randint(1, n) for _ in range(rng.randint(0, 5))]
        matrix = sized_matrix(sizes, rng)
        assert group_width(matrix) == 8
        *placed, name = matrix.names
        scorer = Scorer(matrix)
        for tree in _with_degree_two_nodes(random_mixed_tree(placed, rng), rng):
            for kind in ("cubic", "mixed"):
                moves = growth_moves(tree, kind)
                listed, costs = scorer.growth_costs(tree, name, _full_state(scorer, tree, kind))
                assert _as_moves(listed, kind) == moves
                assert len(costs) == len(moves)
                for move, got in zip(moves, costs):
                    token = _Search.apply(tree, move, name)
                    assert got == scorer.cost(tree), (kind, move)
                    tree.undo_growth(token)
                    checked += 1
    assert checked > 1000


def _assert_full_pass_state(scorer, tree, state):
    """The state's cost and every live node's parent, children and sets
    are what the full pass from the state's root gives."""
    ref = scorer.score(tree, root=state.root)
    assert state.mp_cost == ref.mp_cost
    for x in tree.iter_nodes():
        got = state.parent[x], state.vu[x], state.vl[x], state.vv[x]
        assert got == (ref.parent[x], ref.vu[x], ref.vl[x], ref.vv[x]), x
        assert sorted(state.kids[x]) == sorted(ref.kids[x]), x


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), cubic=st.booleans())
def test_a_chain_of_derived_child_states_is_the_full_pass(seed, cubic):
    # Each child's state is derived from its parent's derived state, on
    # rule-1 growths at random edges, so an error would carry down the
    # chain.  Cubic trees are what the search derives; random mixed
    # trees, some with unlabelled degree-2 nodes, add labelled internal
    # nodes (where the climb stops), polytomies and a labelled root.
    rng = random.Random(seed)
    matrix = random_matrix(rng.randint(4, 9), rng.randint(1, 8), rng.randint(2, 4),
                           seed=rng.randrange(1 << 30))
    names = matrix.names
    scorer = Scorer(matrix)
    if cubic:
        tree, k = _Search(matrix, names, "cubic", False, None).start_tree()
    else:
        k = rng.randint(2, len(names) - 1)
        tree = random_mixed_tree(names[:k], rng)
        if rng.random() < 0.5:
            subdivide_with_unlabelled(tree, rng, rng.randint(1, 2))
    state = scorer.sweep_state(tree)
    for name in names[k:]:
        moves, costs = scorer.growth_costs(tree, name, state)
        assert (moves, costs) == scorer.growth_costs(tree, name, scorer.sweep_state(tree))
        i = rng.randrange(len(moves))
        token = tree.grow_rule_1(moves[i], name)
        state = scorer.child_state(tree, state, token, costs[i])
        _assert_full_pass_state(scorer, tree, state)


class _CheckEveryState(_Search):
    """The cubic search, checking each tree's state against the full pass,
    and its r1 prices against the full pass's, before it sweeps the tree."""

    checked = 0

    def _expand(self, tree, k):
        state = self.states[k]
        _assert_full_pass_state(self.scorer, tree, state)
        name = self.order[k]
        want = self.scorer.growth_costs(tree, name, self.scorer.sweep_state(tree))
        assert self.scorer.growth_costs(tree, name, state) == want
        self.checked += 1
        super()._expand(tree, k)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.sampled_from(["input", "diverse"]),
       no_prune=st.booleans())
def test_the_cubic_search_sweeps_every_tree_from_its_full_pass_state(seed, order, no_prune):
    rng = random.Random(seed)
    matrix = evolved_matrix(rng.randint(5, 7), rng.randint(4, 12), rng.randint(2, 4),
                            seed=seed, mutation_rate=rng.choice((0.1, 0.15, 0.3)))
    search = _CheckEveryState(matrix, order_species(matrix, order), "cubic", no_prune, None)
    tree, k = search.start_tree()
    search.run(tree, k)
    assert search.checked == search.record.sweeps > 0


def _assert_full_pass_mixed_state(scorer, tree, state):
    """The mixed state's cost and every live node's parent, children and
    VU are what the full pass from the state's root gives, and each
    node's D is its parent's VU with the tree hung from the node itself
    (the root's D is 0)."""
    ref = scorer.score(tree, root=state.root)
    assert state.mp_cost == ref.mp_cost
    for x in tree.iter_nodes():
        p = ref.parent[x]
        assert (state.parent[x], state.vu[x]) == (p, ref.vu[x]), x
        assert sorted(state.kids[x]) == sorted(ref.kids[x]), x
        assert state.down[x] == (0 if p < 0 else scorer.score(tree, root=x).vu[p]), x


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_a_chain_of_derived_mixed_states_is_the_full_pass(seed):
    # Along a chain of random growths, every child of each tree on the
    # chain, one per move of all four rules, has its state derived from
    # the tree's derived state; the chain goes on from a random child, so
    # an error would carry down it.  Random mixed trees, some with
    # unlabelled degree-2 nodes, carry polytomies, labelled internal
    # nodes and an unlabelled root; a tree with no unlabelled node, and
    # the one-species start of the search, hang from a labelled root.
    rng = random.Random(seed)
    matrix = random_matrix(rng.randint(3, 8), rng.randint(1, 8), rng.randint(2, 4),
                           seed=rng.randrange(1 << 30))
    names = matrix.names
    scorer = Scorer(matrix)
    k = rng.randint(1, len(names) - 1)
    tree = random_mixed_tree(names[:k], rng)
    if k > 1 and rng.random() < 0.5:
        subdivide_with_unlabelled(tree, rng, rng.randint(1, 2))
    state = scorer.mixed_state(tree)
    _assert_full_pass_mixed_state(scorer, tree, state)
    for name in names[k:]:
        moves, costs = scorer.growth_costs(tree, name, state)
        assert (moves, costs) == scorer.growth_costs(tree, name, scorer.mixed_state(tree))
        for move, cost in zip(moves, costs):
            token = _Search.apply(tree, move, name)
            _assert_full_pass_mixed_state(
                scorer, tree, scorer.mixed_child_state(tree, state, token, cost))
            tree.undo_growth(token)
        i = rng.randrange(len(moves))
        token = _Search.apply(tree, moves[i], name)
        state = scorer.mixed_child_state(tree, state, token, costs[i])
    _assert_full_pass_mixed_state(scorer, tree, state)


class _CheckEveryMixedState(_Search):
    """The mixed search, checking each tree's state against the full pass,
    and its prices against the stateless sweep's, before it sweeps the
    tree."""

    checked = 0

    def _expand(self, tree, k):
        state = self.states[k]
        _assert_full_pass_mixed_state(self.scorer, tree, state)
        name = self.order[k]
        want = self.scorer.growth_costs(tree, name, self.scorer.mixed_state(tree))
        assert self.scorer.growth_costs(tree, name, state) == want
        self.checked += 1
        super()._expand(tree, k)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.sampled_from(["input", "diverse"]),
       no_prune=st.booleans())
def test_the_mixed_search_sweeps_every_tree_from_its_full_pass_state(seed, order, no_prune):
    rng = random.Random(seed)
    n = rng.randint(4, 5) if no_prune else rng.randint(5, 6)
    matrix = evolved_matrix(n, rng.randint(4, 12), rng.randint(2, 4),
                            seed=seed, mutation_rate=rng.choice((0.1, 0.15, 0.3)))
    search = _CheckEveryMixedState(matrix, order_species(matrix, order), "mixed", no_prune,
                                   None)
    tree, k = search.start_tree()
    search.run(tree, k)
    assert search.checked == search.record.sweeps > 0


def _novel_count(matrix, placed, name):
    """Characters where name's state is held by none of placed."""
    values = matrix.values
    return sum(state not in {values[p][c] for p in placed}
               for c, state in enumerate(values[name]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_no_child_costs_less_than_its_tree_plus_the_novel_states(seed):
    # The bound the search skips sweeps by: a child made by any move of
    # a new species costs at least its tree plus the characters where the
    # new species' state is held by no species of the tree.  X has random
    # states (up to 5 per column); Y copies a placed species and takes an
    # unseen state in some columns, so hanging Y off that species costs
    # exactly the bound, and an off-by-one fails.
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    m = rng.randint(1, 8)
    states = rng.randint(2, 4)
    placed = [(f"S{i}", "".join(rng.choice(SYMBOLS[:states]) for _ in range(m)))
              for i in range(n)]
    x_row = "".join(rng.choice(SYMBOLS[:states + 1]) for _ in range(m))
    source, source_row = rng.choice(placed)
    changed = set(rng.sample(range(m), rng.randint(1, m)))
    y_row = "".join(SYMBOLS[states] if c in changed else a
                    for c, a in enumerate(source_row))
    matrix = CharacterMatrix.from_rows(placed + [("X", x_row), ("Y", y_row)])
    names = [name for name, _ in placed]
    tree = random_mixed_tree(names, rng)
    scorer = Scorer(matrix)
    cost = scorer.cost(tree)
    for new in ("X", "Y"):
        novel = _novel_count(matrix, names, new)
        assert _Search(matrix, names + [new], "mixed", False, None).novel[-1] == novel
        for kind in ("cubic", "mixed"):
            _, costs = scorer.growth_costs(tree, new, _full_state(scorer, tree, kind))
            assert min(costs) >= cost + novel, (new, kind)
    assert _novel_count(matrix, names, "Y") == len(changed)
    moves, costs = scorer.growth_costs(tree, "Y", scorer.mixed_state(tree))
    hang = costs[moves.index(("r3", tree.species_node(source)))]
    assert hang == cost + len(changed)


def _keys_digest(record):
    keys = sorted(key.data for key in record.incumbents)
    return hashlib.sha256(b"\n".join(keys)).hexdigest()[:16]


# (n, m, states, seed) -> visited, pruned, generated, cost, MP trees, key digest.
# The visit order is part of the search's contract: these values come from
# the rescore-per-child search the directional sweep replaced.
PINNED = [
    (enumerate_cubic, (8, 12, 4, 3), (1791, 509, 1100, 18, 1, "ee2ce81bb233963f")),
    (enumerate_cubic, (8, 20, 4, 21), (1447, 699, 594, 30, 16, "0137d6b96cfcda51")),
    (enumerate_cubic, (7, 15, 3, 5), (143, 69, 54, 14, 2, "c58fc0212c47c5ff")),
    (enumerate_mixed, (6, 10, 4, 7), (2405, 297, 1971, 11, 113, "a11c417004414aa6")),
    (enumerate_mixed, (6, 12, 4, 31), (4222, 78, 3900, 11, 150, "3832142b420a193c")),
    (enumerate_mixed, (6, 8, 2, 4), (1159, 162, 929, 7, 36, "04f271e7657fba64")),
]


@pytest.mark.parametrize("runner, shape, want", PINNED)
def test_search_counters_are_pinned(runner, shape, want):
    n, m, states, seed = shape
    record = runner(evolved_matrix(n, m, states, seed=seed), threads=1)
    got = (record.visited, record.pruned, record.generated,
           record.incumbent_cost, len(record.incumbents), _keys_digest(record))
    assert got == want


def _arena_state(tree):
    alive = list(tree.iter_nodes())
    return ({u: list(tree.adj[u]) for u in alive},
            {u: tree.label[u] for u in alive},
            {name: u for u, name in enumerate(tree.label) if name is not None},
            tree.n_labelled, tree.n_unlabelled)


def _next_ids(tree, count=3):
    probe = tree.copy()
    return [add_node(probe) for _ in range(count)]


def _moves_on_a_random_tree(seed):
    """(search, tree, move) for every cubic and mixed move on a random
    mixed tree, which half the time has had an edge contracted.  The
    moves come from the reference listing, not from the sweep."""
    rng = random.Random(seed)
    matrix = random_matrix(rng.randint(2, 8), 2, 2, seed=seed)
    tree = random_mixed_tree(matrix.names, rng)
    if rng.random() < 0.5:
        # A contraction frees a node, so the next id comes off the free
        # list rather than off the end of the arena.
        edges = [(u, v) for u, v in tree.iter_edges()
                 if tree.label[u] is None or tree.label[v] is None]
        if edges:
            contract_edge(tree, *rng.choice(edges))
    for kind in ("cubic", "mixed"):
        search = _Search(matrix, matrix.names, kind, False, None)
        for move in growth_moves(tree, kind):
            yield search, tree, move


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_requeue_edge_is_the_net_effect_of_grow_and_undo(seed):
    # The search skips building a priced-out child and calls requeue_edge
    # instead, so the tree must end up exactly as apply + undo leaves it:
    # same adjacency order, labels, counters and next node ids.
    for _, tree, move in _moves_on_a_random_tree(seed):
        built, skipped = tree.copy(), tree.copy()
        built.undo_growth(_Search.apply(built, move, "new"))
        if move[0] in ("r1", "r2"):
            skipped.requeue_edge(*move[1])
        assert _arena_state(built) == _arena_state(skipped), move
        assert _next_ids(built) == _next_ids(skipped), move


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_a_skipped_child_leaves_every_move_list_as_a_built_one(seed):
    # A child whose own children are all priced out is not built: the
    # search counts its children from its size and requeues only its own
    # edge.  Built, it would also have requeued each of its edges, in its
    # iter_edges() order, before the undo.  Both must leave the same move
    # lists and next node ids, and the count must be the child's.
    for search, tree, move in _moves_on_a_random_tree(seed):
        built, skipped = tree.copy(), tree.copy()
        token = _Search.apply(built, move, "new")
        dn, du = _GROWTH[move[0]]
        count = search._child_count(tree.num_nodes + dn, tree.n_unlabelled + du)
        assert count == len(growth_moves(built, search.kind)), move
        for edge in built.iter_edges():
            built.requeue_edge(*edge)
        built.undo_growth(token)
        if move[0] in ("r1", "r2"):
            skipped.requeue_edge(*move[1])
        assert built.iter_edges() == skipped.iter_edges(), move
        assert _next_ids(built) == _next_ids(skipped), move


class _BuildEveryChild(_Search):
    """The search with no skipped children: every child is applied, scored
    in full and undone, so no move list depends on requeue_edge.  It takes
    its moves from the reference listing and its costs from full scores,
    so it shares no code with the sweep."""

    def _expand(self, tree, k):
        rec = self.record
        name = self.order[k]
        complete = k + 1 == len(self.order)
        for move in growth_moves(tree, self.kind):
            rec.visited += 1
            best = rec.incumbent_cost
            token = self.apply(tree, move, name)
            cost = self.scorer.cost(tree)
            if complete:
                rec.generated += 1
                rec._offer(cost, tree)
            elif best is None or cost <= best:
                self._expand(tree, k + 1)
            else:
                rec.pruned += 1
            tree.undo_growth(token)


class _CountSkippedSweeps(_Search):
    """The search, counting the trees whose sweep the novel-state bound
    skips and the swept trees whose children are all counted in one step."""

    counted = 0
    visits = 0

    def _visit(self, tree, k, moves, costs):
        self.visits += 1
        super()._visit(tree, k, moves, costs)

    def _count_priced_out(self, count, complete):
        self.counted += 1
        super()._count_priced_out(count, complete)

    @property
    def one_step(self):
        # Every sweep is followed by one _visit call unless its children
        # were counted in one step; the run's start tree adds one _visit.
        return self.record.sweeps - (self.visits - 1)

    @property
    def skipped(self):
        return self.counted - self.one_step


def _search_trace(matrix, kind, build_every_child):
    searcher = _BuildEveryChild if build_every_child else _CountSkippedSweeps
    search = searcher(matrix, list(matrix.names), kind, False, None)
    tree, k = search.start_tree()
    search.run(tree, k)
    rec = search.record
    # No move list reads the order of a node's lower-id neighbours, and
    # the search does not keep it; iter_edges() reads every other order.
    shapes = [t.iter_edges() for t in rec.incumbents.values()]
    trace = rec.visited, rec.pruned, rec.generated, list(rec.incumbents), shapes
    return trace, search


@pytest.mark.parametrize("kind", ["cubic", "mixed"])
def test_skipping_priced_out_children_keeps_the_visit_order(kind):
    skipped = one_step = 0
    sizes = (6, 7) if kind == "cubic" else (6,)
    for n, seed in itertools.product(sizes, range(20)):
        matrix = evolved_matrix(n, 10, 4, seed=seed)
        fast, search = _search_trace(matrix, kind, False)
        assert fast == _search_trace(matrix, kind, True)[0]
        skipped += search.skipped
        one_step += search.one_step
    # Without these the equality above could hold with the novel-state
    # skip, or the one-step count of a swept tree, never taken.
    assert skipped > 0
    assert one_step > 0


class _SweepEveryTree(_Search):
    """The search with the novel-state bound off: every expanded tree is
    swept and its children counted one at a time, including those of a
    tree whose children are all priced out."""

    def __init__(self, *args):
        super().__init__(*args)
        self.novel = [0] * len(self.order)

    def _expand(self, tree, k):
        self.record.sweeps_by_depth[k] += 1
        moves, costs = self.scorer.growth_costs(tree, self.order[k], self.full_state(tree))
        self._visit(tree, k, moves, costs)


@pytest.mark.parametrize("every", [1, 5, 7])
@pytest.mark.parametrize("kind", ["cubic", "mixed"])
def test_progress_fires_at_every_multiple_when_sweeps_are_skipped(monkeypatch, every, kind):
    # A skipped sweep, or a sweep that prices every child out, counts all
    # of a tree's children at once; the hook must still see each multiple
    # of PROGRESS_EVERY exactly once, with the pruned and generated counts
    # the per-child loop had there.
    monkeypatch.setattr("parsicompact.enumeration.PROGRESS_EVERY", every)
    skipped = one_step = 0
    for seed in range(4):
        matrix = evolved_matrix(6, 10, 4, seed=seed)
        runs = []
        for searcher in (_CountSkippedSweeps, _SweepEveryTree):
            hits = []
            search = searcher(matrix, list(matrix.names), kind, False,
                              lambda r: hits.append((r.visited, r.pruned, r.generated)))
            tree, k = search.start_tree()
            search.run(tree, k)
            runs.append((search, hits))
        (fast, hits), (slow, want) = runs
        visited = fast.record.visited
        assert [v for v, _, _ in hits] == list(range(every, visited + 1, every))
        assert hits == want and visited == slow.record.visited
        skipped += fast.skipped
        one_step += fast.one_step
    assert skipped > 0 and one_step > 0
