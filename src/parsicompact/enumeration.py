"""Counting and exhaustive generation of candidate tree topologies.

Two searches share the branch-and-bound skeleton:

* cubic search -- every leaf-labelled tree with internal degrees exactly 3,
  built by inserting each next species into every edge of every partial
  topology (2k-3 choices at k leaves);
* mixed search -- every mixed-labelled tree, built by the four growth
  moves (subdivide an edge with an unlabelled junction plus a new leaf;
  subdivide with the new species itself; hang the new species off any
  node; write the new species onto an unlabelled node).

Adding a species can never lower the MP-cost, so a partial tree's cost is
an admissible bound and strictly-worse partial trees are pruned.  Equal
cost always expands: the searches must surface every co-optimal tree.
Child costs come from one sweep of the expanded tree
(:meth:`Scorer.growth_costs`), which lists every child and costs each
in O(1) big-int operations instead of rescoring it: in cubic search
from the root sets of each edge's two ends; in mixed search from the
directional sets entering each edge or node.  It lists
them in the order the search visits them: in cubic search each edge,
standing for rule 1 on it, in :meth:`MixedTree.iter_edges`' order; in
mixed search, as (rule, site) growth moves, r1 on each edge in that
order, each followed by r2 on the same edge, then r3 on each node, in
:meth:`MixedTree.iter_nodes`' order (by id), each unlabelled one
followed by r4.  Only the tree each depth-first run starts from is
scored in full, and it then takes the same per-child step as every
child, through a move that stands for a tree already built.  Each
search keeps one state per depth, the node sets of the tree it is
expanding there: the start tree's comes from the full pass, and each
built child's is derived from its parent's, recomputing only the nodes
whose sets may change.  The cubic search keeps root sets, in a
:class:`~parsicompact.parsimony.SweepState` (:meth:`Scorer.sweep_state`,
:meth:`Scorer.child_state`); the mixed search keeps directional sets,
in a :class:`~parsicompact.parsimony.MixedState`
(:meth:`Scorer.mixed_state`, :meth:`Scorer.mixed_child_state`).  Only the
children that survive the bound are applied to the tree (and undone):
a child priced above the incumbent is counted -- visited, plus pruned,
or generated when complete -- but never built.  Building and undoing
an edge move re-appends that edge to both endpoints' adjacency lists,
which orders every later move list, so a skipped edge move still makes
that one change (:meth:`MixedTree.requeue_edge`) and every move list
is the same as if every child were built.

Many expanded trees need no sweep at all.  Let novel[k] count the
characters where species order[k]'s state is held by none of
order[:k]; every child of a depth-k tree T costs at least
cost(T) + novel[k].  Proof, per character c where x = order[k] has a
novel state s: in an optimal labelling of a child C, the maximal
connected set Z of s-nodes around x's node holds no other species, and
some node outside Z borders it, because T holds a species and none has
state s.  Relabelling Z to that neighbour's state saves at least one
mutation, and removing x then gives a labelling of T that costs no
more -- drop the leaf (rule 3), unlabel the node (rule 4), or join its
two neighbours, by the triangle inequality (rules 1 and 2) -- so
cost_c(T) <= cost_c(C) - 1.  Where x's state is not novel the same
removal gives cost_c(T) <= cost_c(C).  So when cost(T) + novel[k]
exceeds the incumbent, every child of T is priced out, and T is
neither swept nor built: the search tests the bound on T's price
before applying T and counts T's children from its size -- one per
edge of a cubic tree; for a mixed tree two per edge, one per node and
one more per unlabelled node.  The bound never changes what is
expanded, only what is priced.

Such a T, built, would have requeued each of its edges in its own move
list's order before being undone; skipped, it calls requeue_edge on its
own edge alone, as any priced-out child does.  Likewise, when a swept
tree's cheapest child costs more than the incumbent (with pruning on,
or the children complete), its children are counted in one step and no
edge is requeued, where the per-child loop would requeue each edge in
move list order (a mixed list names an edge twice in a row, and the
second requeue changes nothing).  Neither changes a later move list,
because a move list reads only the order of each node's higher-id
neighbours: its node moves go by id, and its edge moves follow
:meth:`MixedTree.iter_edges`, which lists (u, v), u < v, in the order
of v in adj[u].  Requeuing every edge of a tree in that order
reaches node x first through its edges (w, x), w < x, by increasing w,
each moving w to the end of adj[x]; then through its edges (x, v),
v > x, in adj[x]'s order, each moving v to the end.  So adj[x] ends as
its lower-id neighbours sorted, then its higher-id neighbours in their
old order.  Removing and appending list entries never reorders the
others, so after the undo every node's higher-id neighbours stand in
the order that requeue_edge alone, or no requeue, leaves.  The next node
ids depend only on which slots are free, and a requeue frees none.
Only the order of lower-id neighbours differs; no move list reads it,
and no cost or canonical key depends on it.

T(n, m) counts mixed trees with n labelled and m unlabelled nodes; the
growth moves produce each mixed tree exactly once, which the tests
cross-check: on flat data the unpruned search's generated count and its
number of distinct canonical keys both equal the recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .charmatrix import CharacterMatrix
from .errors import EmptyInputError
from .parsimony import Scorer
from .tree import CanonicalKey, MixedTree

# Visits between two calls of a search's on_progress hook.
PROGRESS_EVERY = 100_000

# Growth move -> (nodes added, unlabelled nodes added).
_GROWTH = {"r1": (2, 1), "r2": (1, 0), "r3": (1, 0), "r4": (0, -1), "built": (0, 0)}

# The move that stands for a tree already built: a run's start tree.
_BUILT = ("built", None)


# Rows of T(n, m) computed so far, by n; see _mixed_row.
_ROWS: dict[int, list[int]] = {1: [1]}


def _mixed_row(n: int) -> list[int]:
    """Row n >= 1 of the mixed-tree counts: T(n, m) for m = 0..max(n-2, 0).

    T(n, m) = (m+n-3) T(n-1, m-1) + (2n+2m-3) T(n-1, m) + (m+1) T(n-1, m+1),
    with T = 0 outside a row.  A missing row is computed iteratively from
    the nearest lower row held, and only the rows asked for are kept, so a
    cold row needs neither deep recursion nor the memory of every row
    below it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    row = _ROWS.get(n)
    if row is None:
        k = max(k for k in _ROWS if k < n)
        row = _ROWS[k]
        while k < n:
            k += 1
            p = [0, *row, 0, 0]
            row = [
                (m + k - 3) * p[m] + (2 * k + 2 * m - 3) * p[m + 1] + (m + 1) * p[m + 2]
                for m in range(k - 1)
            ]
        _ROWS[n] = row
    return row


def count_mixed(n: int, m: int) -> int:
    """Exact number of mixed trees with n labelled, m unlabelled nodes."""
    row = _mixed_row(n)
    return row[m] if 0 <= m < len(row) else 0


def count_total_mixed(n: int) -> int:
    """Exact number of mixed trees on n species (all unlabelled counts)."""
    return sum(_mixed_row(n))


def count_cubic(n: int) -> int:
    """(2n-5)!! leaf-labelled cubic topologies on n >= 3 species, else 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= 3:
        return 1
    out = 1
    for k in range(3, 2 * n - 4, 2):
        out *= k
    return out


def _log_closed_form(n: int) -> float:
    """Natural log of the closed-form estimate of count_total_mixed(n).

    The estimate is n^(n-2) / (sqrt(2) e^(n/2) (2 - e^(1/2))^(n-3/2));
    in log space it stays finite long after the estimate itself
    overflows a float.
    """
    return (
        (n - 2) * math.log(n)
        - 0.5 * math.log(2)
        - n / 2
        - (n - 1.5) * math.log(2 - math.exp(0.5))
    )


def closed_form_estimate(n: int) -> float:
    """Analytic approximation of count_total_mixed for n >= 2 (inf past floats)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    try:
        return math.exp(_log_closed_form(n))
    except OverflowError:
        return math.inf


@dataclass
class SearchRecord:
    """Outcome of one enumeration run.

    incumbents holds every minimum-cost tree found (canonical key ->
    private tree copy); most_compact and min_nodes are read from it, at
    any point of a run: the incumbents with the fewest nodes, and that
    node count (None while there is no incumbent).  Every cubic tree on
    n species has the same node count, so a cubic search's most_compact
    equals its incumbents.

    visited counts trees reached (each depth-first run's start tree
    plus every child of an expanded tree, partial or complete,
    including the children priced above the incumbent and therefore
    never built), generated counts complete trees reached (built or
    not), pruned counts subtrees cut by the cost bound; only the
    children that survive the bound are built.  sweeps counts the
    expanded trees, sweeps_by_depth[k] those holding k species (one
    entry per species), and every expanded tree is swept once by
    :meth:`Scorer.growth_costs`, from node sets derived from its
    parent's (from the full pass for a run's start tree): root sets in
    cubic search, directional sets in mixed search.  A tree whose
    children the novel-state bound prices out is not expanded (nor
    built, below the start tree), and its children are counted from its
    size, as are those of a swept tree whose children are all priced
    above the incumbent.  With ``threads > 1``, visited omits the pool frontier's
    own trees, those above its last level: each worker counts from that
    level down.  An incumbent's adjacency lists keep the order of
    higher-id neighbours that the search's move lists read, not
    necessarily that of lower-id ones.
    """

    incumbent_cost: int | None = None
    incumbents: dict[CanonicalKey, MixedTree] = field(default_factory=dict)
    visited: int = 0
    pruned: int = 0
    generated: int = 0
    sweeps: int = 0
    sweeps_by_depth: list[int] = field(default_factory=list)

    def _offer(self, cost: int, tree: MixedTree):
        if self.incumbent_cost is None or cost < self.incumbent_cost:
            self.incumbent_cost = cost
            self.incumbents = {tree.canonical_key(): tree.copy()}
        elif cost == self.incumbent_cost:
            self.incumbents.setdefault(tree.canonical_key(), tree.copy())

    def _merge(self, other: "SearchRecord"):
        self.visited += other.visited
        self.pruned += other.pruned
        self.generated += other.generated
        self.sweeps += other.sweeps
        for k, count in enumerate(other.sweeps_by_depth):
            self.sweeps_by_depth[k] += count
        if other.incumbent_cost is None:
            return
        if self.incumbent_cost is None or other.incumbent_cost < self.incumbent_cost:
            self.incumbent_cost = other.incumbent_cost
            self.incumbents = dict(other.incumbents)
        elif other.incumbent_cost == self.incumbent_cost:
            for key, t in other.incumbents.items():
                self.incumbents.setdefault(key, t)

    @property
    def min_nodes(self) -> int | None:
        return min((t.num_nodes for t in self.incumbents.values()), default=None)

    @property
    def most_compact(self) -> dict[CanonicalKey, MixedTree]:
        fewest = self.min_nodes
        return {k: t for k, t in self.incumbents.items() if t.num_nodes == fewest}


def order_species(matrix: CharacterMatrix, mode: str = "input") -> list[str]:
    """Species insertion order: matrix order, or greedy max-min distance.

    The diverse order seeds the search with far-apart species so the
    incumbent cost rises early and the bound bites sooner.
    """
    names = list(matrix.names)
    if mode == "input":
        return names
    if mode != "diverse":
        raise ValueError(f"unknown order {mode!r} (expected 'input' or 'diverse')")
    rows = [seq for _, seq in matrix.rows()]
    n = len(names)
    if n <= 2:
        return names

    def dist(i, j):
        return sum(1 for a, b in zip(rows[i], rows[j]) if a != b)

    best = max(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda p: (dist(*p), -p[0], -p[1]),
    )
    chosen = [best[0], best[1]]
    rest = [i for i in range(n) if i not in chosen]
    while rest:
        nxt = max(rest, key=lambda i: (min(dist(i, j) for j in chosen), -i))
        chosen.append(nxt)
        rest.remove(nxt)
    return [names[i] for i in chosen]


class _Search:
    """Shared DFS machinery for the cubic and mixed enumerations."""

    def __init__(self, matrix, order, kind, no_prune, on_progress):
        self.order = order
        self.kind = kind
        self.no_prune = no_prune
        self.on_progress = on_progress
        self.scorer = Scorer(matrix)
        self.record = SearchRecord(sweeps_by_depth=[0] * len(order))
        # states[k]: the SweepState (cubic) or MixedState (mixed) of the
        # tree the search is expanding with order[:k] placed: a run's
        # start tree's from the full pass, every other derived from
        # states[k-1].
        self.states = [None] * len(order)
        # novel[k]: characters where order[k]'s state is held by none of
        # order[:k]; each costs every child of a depth-k tree at least
        # one more mutation than the tree (see the module docstring).
        self.novel = []
        seen = set()  # (character, state) pairs held by order[:k]
        for name in order:
            states = set(enumerate(matrix.values[name]))
            self.novel.append(len(states - seen))
            seen |= states

    # -- growth ------------------------------------------------------------

    @staticmethod
    def apply(tree, move, name):
        kind, site = move
        if kind == "r1":
            return tree.grow_rule_1(site, name)
        if kind == "r2":
            return tree.grow_rule_2(site, name)
        if kind == "r3":
            return tree.grow_rule_3(site, name)
        return tree.grow_rule_4(site, name)

    def start_tree(self) -> tuple[MixedTree, int]:
        order = self.order
        if self.kind == "mixed" or len(order) == 1:
            return MixedTree.single(order[0]), 1
        t = MixedTree.single(order[0])
        t.grow_rule_3(t.species_node(order[0]), order[1])
        if len(order) == 2:
            return t, 2
        t.grow_rule_1((t.species_node(order[0]), t.species_node(order[1])), order[2])
        return t, 3

    # -- DFS -----------------------------------------------------------------

    def run(self, tree: MixedTree, k: int):
        """Search from ``tree``, built with the first k species: it is
        scored in full and visited as the one child, already built, of
        a depth-(k-1) tree."""
        self._visit(tree, k - 1, [_BUILT], [self.scorer.cost(tree)])

    def _child_count(self, nodes: int, unlabelled: int) -> int:
        """Length of the move list of a tree of that size: one move per
        edge for cubic search; for mixed search two per edge, one per
        node and one more per unlabelled node."""
        if self.kind == "cubic":
            return nodes - 1
        return 3 * nodes - 2 + unlabelled

    def _expand(self, tree: MixedTree, k: int):
        self.record.sweeps += 1
        self.record.sweeps_by_depth[k] += 1
        moves, costs = self.scorer.growth_costs(
            tree, self.order[k], self.kind == "mixed", self.states[k]
        )
        best = self.record.incumbent_cost
        complete = k + 1 == len(self.order)
        if best is not None and (complete or not self.no_prune) and min(costs) > best:
            # All priced out: one step, no requeue (see the module docstring).
            self._count_priced_out(len(moves), complete)
        else:
            self._visit(tree, k, moves, costs)

    def _visit(self, tree: MixedTree, k: int, moves, costs):
        """Visit the children of depth-k ``tree``, one per move, each
        priced at its cost: a cubic move is the edge rule 1 subdivides, a
        mixed move a (rule, site) pair.  The move _BUILT stands for
        ``tree`` itself, already built."""
        rec = self.record
        name = self.order[k]
        depth = len(self.order)
        complete = k + 1 == depth
        cubic = self.kind == "cubic"
        # A child priced above the incumbent can be neither offered nor
        # (with pruning on) expanded, so it is counted without being
        # built.  Every child that is built is offered or expanded.
        may_skip = complete or not self.no_prune
        # The same holds one level down, for the child's own children.
        next_complete = k + 2 == depth
        may_skip_next = next_complete or not self.no_prune
        novel = 0 if complete else self.novel[k + 1]
        on_progress = self.on_progress
        requeue = tree.requeue_edge
        scorer = self.scorer
        if cubic:
            full_state, child_state = scorer.sweep_state, scorer.child_state
        else:
            full_state, child_state = scorer.mixed_state, scorer.mixed_child_state
        nodes, unlabelled = tree.num_nodes, tree.n_unlabelled
        for move, cost in zip(moves, costs):
            rec.visited += 1
            best = rec.incumbent_cost
            priced_out = may_skip and best is not None and cost > best
            if complete:
                rec.generated += 1
            elif priced_out:
                rec.pruned += 1
            # Before the child's subtree, so each multiple is seen once.
            if on_progress and rec.visited % PROGRESS_EVERY < 1:
                on_progress(rec)
            built = move is _BUILT
            if cubic and not built:
                kind, site = "r1", move
            else:
                kind, site = move
            if (
                not (priced_out or complete)
                and may_skip_next
                and best is not None
                and cost + novel > best
            ):
                # Every child of this child costs at least cost +
                # novel[k+1] (see the module docstring), so each would be
                # priced out: count them from the child's size instead of
                # building and sweeping it.
                dn, du = _GROWTH[kind]
                self._count_priced_out(
                    self._child_count(nodes + dn, unlabelled + du), next_complete
                )
                priced_out = True
            if priced_out:
                # Building and undoing an edge move would have re-appended
                # the edge, which orders later move lists.
                if kind == "r1" or kind == "r2":
                    requeue(*site)
                continue
            if built:
                token = None
            else:
                token = tree.grow_rule_1(site, name) if cubic else self.apply(tree, move, name)
            if complete:
                rec._offer(cost, tree)
            else:
                self.states[k + 1] = (
                    full_state(tree) if built else child_state(tree, self.states[k], token, cost)
                )
                self._expand(tree, k + 1)
            if not built:
                tree.undo_growth(token)

    def _count_priced_out(self, count: int, complete: bool):
        """Count ``count`` children priced out, as the per-child loop would.

        The progress hook fires at the same counter values: once at every
        multiple of PROGRESS_EVERY that visited reaches.
        """
        rec = self.record
        every = PROGRESS_EVERY
        while count:
            step = count
            if self.on_progress:
                step = min(count, every - rec.visited % every)
            rec.visited += step
            if complete:
                rec.generated += step
            else:
                rec.pruned += step
            count -= step
            if self.on_progress and rec.visited % every < 1:
                self.on_progress(rec)

    def frontier(self, minimum: int):
        """Breadth-first partial trees for parallel partitioning."""
        t, k = self.start_tree()
        level = [(t, k)]
        while len(level) < minimum and level and level[0][1] < len(self.order):
            nxt = []
            for tree, depth in level:
                name = self.order[depth]
                moves, _ = self.scorer.growth_costs(tree, name, self.kind == "mixed")
                for move in moves:
                    token = self.apply(tree, ("r1", move) if self.kind == "cubic" else move, name)
                    nxt.append((tree.copy(), depth + 1))
                    tree.undo_growth(token)
            level = nxt
        return level


def _worker(args):
    matrix, order, kind, no_prune, jobs = args
    search = _Search(matrix, order, kind, no_prune, None)
    for tree, k in jobs:
        search.run(tree, k)
    return search.record


def _enumerate(matrix, kind, order, no_prune, threads, on_progress):
    if matrix.n < 1:
        raise EmptyInputError("enumeration needs at least one species")
    names = order_species(matrix, order)
    if threads <= 1:
        search = _Search(matrix, names, kind, no_prune, on_progress)
        t, k = search.start_tree()
        search.run(t, k)
        record = search.record
    else:
        import multiprocessing

        seed = _Search(matrix, names, kind, no_prune, None)
        jobs = seed.frontier(4 * threads)
        record = SearchRecord(sweeps_by_depth=[0] * len(names))
        chunks = [jobs[i::threads] for i in range(threads)]
        chunks = [c for c in chunks if c]
        args = [(matrix, names, kind, no_prune, c) for c in chunks]
        with multiprocessing.Pool(len(chunks)) as pool:
            for part in pool.map(_worker, args):
                record._merge(part)
    return record


def enumerate_cubic(
    matrix: CharacterMatrix,
    *,
    order: str = "input",
    no_prune: bool = False,
    threads: int = 1,
    on_progress=None,
) -> SearchRecord:
    """Branch-and-bound over all cubic leaf-labelled topologies.

    Returns a SearchRecord whose incumbents are exactly the cubic
    MP-trees.  With no_prune the full (2n-5)!! space is generated; with
    ``threads > 1``, visited omits the pool frontier's own trees.
    """
    return _enumerate(matrix, "cubic", order, no_prune, threads, on_progress)


def enumerate_mixed(
    matrix: CharacterMatrix,
    *,
    order: str = "input",
    no_prune: bool = False,
    threads: int = 1,
    on_progress=None,
) -> SearchRecord:
    """Branch-and-bound over every mixed-labelled tree.

    incumbents = all minimum-cost mixed trees; most_compact = the subset
    with the fewest nodes.  With ``threads > 1``, visited omits the pool
    frontier's own trees.
    """
    return _enumerate(matrix, "mixed", order, no_prune, threads, on_progress)
