"""Acceptance criteria: one test per criterion, parameters pinned.

Each test prints a single summary line; pytest -v shows one pass/fail
line per criterion.  Time limits are wall-clock seconds measured with a
monotonic clock.
"""

import random
import time

from parsicompact import (
    CharacterMatrix,
    Scorer,
    brute_force_best_fit,
    contract_and_update,
    count_cubic,
    count_mixed,
    count_total_mixed,
    enumerate_cubic,
    enumerate_mixed,
    evolved_matrix,
    most_compact_pipeline,
    parse_newick,
    random_matrix,
    unpack_sets,
    zero_min_cost_edges,
)
from conftest import (
    contract_edge,
    oracle_vv_union,
    random_instance,
    shadow_rescore,
    subdivide_with_unlabelled,
    suppress_degree2_unlabelled,
)


def crit5_matrix(seed):
    """Pinned instance family shared by criteria 5, 7, and 9."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    maker = evolved_matrix if seed % 2 else random_matrix
    return maker(n, rng.randint(3, 8), rng.randint(2, 4),
                 seed=rng.randrange(1 << 30))


def test_criterion_1_cost_matches_oracle_on_500_instances():
    t0 = time.monotonic()
    for seed in range(500):
        matrix, tree = random_instance(seed, max_n=7, max_m=5, max_states=4)
        got = Scorer(matrix).score(tree).mp_cost
        want = brute_force_best_fit(tree, matrix).mp_cost
        assert got == want, f"seed {seed}: scorer {got} != oracle {want}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 1: 500/500 instances exact in {elapsed:.1f}s")


def test_criterion_2_root_invariance_and_degree2_suppression():
    rng = random.Random(2)
    for trial in range(100):
        matrix, tree = random_instance(rng.randrange(1 << 30), max_n=6, max_m=4)
        costs = {Scorer(matrix).score(tree, u).mp_cost
                 for u in tree.iter_nodes()}
        assert len(costs) == 1, f"trial {trial}: root-dependent cost {costs}"
        cost = costs.pop()
        messy = subdivide_with_unlabelled(tree.copy(), rng, rng.randint(1, 3))
        assert Scorer(matrix).cost(messy) == cost
        suppress_degree2_unlabelled(messy)
        assert messy.canonical_key() == tree.canonical_key()
        assert Scorer(matrix).cost(messy) == cost
    print("criterion 2: 100/100 trees root-invariant, suppression cost-safe")


def test_criterion_3_vv_equals_union_of_optimal_fits():
    checked = 0
    for seed in range(500):
        matrix, tree = random_instance(seed, max_n=7, max_m=5, max_states=4)
        result = Scorer(matrix).score(tree)
        want = oracle_vv_union(brute_force_best_fit(tree, matrix))
        for node in tree.iter_nodes():
            got = unpack_sets(matrix, result.vv[node])
            assert got == want[node], f"seed {seed} node {node}"
            checked += 1
    print(f"criterion 3: VV exact on 500 instances ({checked} nodes)")


def test_criterion_4_enumeration_counts():
    t0 = time.monotonic()
    assert count_mixed(1, 0) == 1
    for n in range(2, 7):
        flat = [(f"S{i}", "A") for i in range(1, n + 1)]
        record = enumerate_mixed(CharacterMatrix.from_rows(flat), no_prune=True)
        want = count_total_mixed(n)
        assert record.generated == want, f"n={n}"
        assert len(record.incumbents) == want
    cubic_want = {4: 3, 5: 15, 6: 105, 7: 945, 8: 10395}
    for n, want in cubic_want.items():
        flat = [(f"S{i}", "A") for i in range(1, n + 1)]
        record = enumerate_cubic(CharacterMatrix.from_rows(flat), no_prune=True)
        assert record.generated == want == count_cubic(n), f"n={n}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 4: mixed n=2..6 and cubic n=4..8 counts exact in {elapsed:.1f}s")


def test_criterion_5_contraction_pipeline_equals_exhaustive_search():
    t0 = time.monotonic()
    for seed in range(50):
        matrix = crit5_matrix(seed)
        mixed = enumerate_mixed(matrix)
        pipe = most_compact_pipeline(matrix)
        assert pipe.mp_cost == mixed.incumbent_cost, f"seed {seed}"
        assert set(pipe.trees) == set(mixed.most_compact), f"seed {seed}"
        assert pipe.best_node_count == mixed.min_nodes, f"seed {seed}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"criterion 5: 50/50 most compact sets identical in {elapsed:.1f}s")


def test_criterion_6_contraction_cost_laws_on_100_mp_trees():
    rng = random.Random(6)
    trees_checked = 0
    raised = preserved = 0
    while trees_checked < 100:
        n = rng.randint(4, 6)
        matrix = random_matrix(n, rng.randint(2, 5), rng.randint(2, 4),
                               seed=rng.randrange(1 << 30))
        record = enumerate_mixed(matrix)
        picks = sorted(record.incumbents)[:3]
        for key in picks:
            if trees_checked == 100:
                break
            tree = record.incumbents[key]
            state = Scorer(matrix).score(tree)
            edges = zero_min_cost_edges(state)
            zero = {tuple(sorted(e)) for e in edges}
            for edge in edges:
                after, _ = contract_and_update(state, edge, edges)
                assert after.mp_cost == state.mp_cost
                preserved += 1
            for u, v in tree.iter_edges():
                if tuple(sorted((u, v))) in zero:
                    continue
                if tree.label[u] is not None and tree.label[v] is not None:
                    continue
                worse = tree.copy()
                contract_edge(worse, u, v)
                assert Scorer(matrix).cost(worse) > state.mp_cost, \
                    f"edge ({u},{v}) did not raise cost"
                raised += 1
            trees_checked += 1
    print(f"criterion 6: 100 MP-trees, {preserved} zero-edge contractions "
          f"cost-preserving, {raised} positive-edge contractions strictly worse")


def test_criterion_7_incremental_sets_match_full_rescore():
    checked = 0
    for seed in range(50):
        matrix = crit5_matrix(seed)
        with shadow_rescore() as hook:
            result = most_compact_pipeline(matrix)
        assert hook.checked == result.explored_states - result.sources
        checked += hook.checked
    print(f"criterion 7: 50/50 pipelines pass shadow rescore of every contraction, "
          f"sets and contractible edges ({checked} built states)")


def test_criterion_8_contraction_pipeline_is_faster():
    t0 = time.monotonic()
    wins = 0
    total_mtea = total_cteeca = 0.0
    for trial in range(10):
        n = 8 if trial < 5 else 9
        matrix = evolved_matrix(n, 30, 4, seed=800 + trial)
        t1 = time.monotonic()
        mixed = enumerate_mixed(matrix)
        t_mtea = time.monotonic() - t1
        t1 = time.monotonic()
        pipe = most_compact_pipeline(matrix)
        t_cteeca = time.monotonic() - t1
        assert mixed.incumbent_cost == pipe.mp_cost
        assert set(mixed.most_compact) == set(pipe.trees)
        total_mtea += t_mtea
        total_cteeca += t_cteeca
        wins += t_cteeca <= t_mtea
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    assert wins >= 9, f"contraction pipeline won only {wins}/10 trials"
    print(f"criterion 8: {wins}/10 wins, speedup "
          f"{total_mtea / total_cteeca:.1f}x "
          f"({total_mtea:.1f}s vs {total_cteeca:.1f}s) in {elapsed:.1f}s")


def test_criterion_9_emitted_trees_respect_size_bounds():
    batches = [crit5_matrix(seed) for seed in range(12)]
    batches.append(CharacterMatrix.from_rows(
        [(f"S{i}", "A") for i in range(1, 6)]))
    emitted = 0
    for matrix in batches:
        n = matrix.n
        mixed = enumerate_mixed(matrix)
        pipe = most_compact_pipeline(matrix)
        trees = [parse_newick(k.as_text()) for k in pipe.trees]
        trees += list(mixed.most_compact.values())
        for tree in trees:
            assert tree.n_unlabelled <= n - 2
            assert tree.num_nodes >= n
            emitted += 1
    print(f"criterion 9: {emitted} emitted trees within "
          "[n, 2n-2] nodes and <= n-2 unlabelled")
