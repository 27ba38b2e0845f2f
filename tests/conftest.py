"""Shared randomized generators for the test suite.

Every generator takes an explicit random.Random so failures reproduce
from the seed alone.
"""

import random

from parsicompact import CharacterMatrix, MixedTree, random_matrix


def random_mixed_tree(names, rng: random.Random) -> MixedTree:
    """A random tree carrying every name, built from the four growth rules.

    Each name is placed by a uniformly chosen legal move, so leaf-heavy,
    star-like, and chain-like shapes all occur.
    """
    names = list(names)
    tree = MixedTree()
    tree.add_node(names[0])
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


def subdivide_with_unlabelled(tree: MixedTree, rng: random.Random, count: int):
    """Insert `count` unlabelled degree-2 nodes on random edges, in place."""
    for _ in range(count):
        u, v = rng.choice(list(tree.iter_edges()))
        tree.remove_edge(u, v)
        mid = tree.add_node()
        tree.add_edge(u, mid)
        tree.add_edge(mid, v)
    return tree
