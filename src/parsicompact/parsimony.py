"""Small-parsimony scoring for mixed trees.

One engine, :class:`Scorer`, scores every tree the package handles:
unrooted, multifurcating, with species labels on any node (a labelled
internal node is a fixed-state ancestor).  A full pass computes, per
node, the upper set VU (states reaching the subtree minimum), the lower
set VL (states exactly one mutation worse), and after a top-down pass
the root set VV (states appearing in at least one globally optimal
fit).  :meth:`Scorer.score` returns them as one :class:`ScoreResult`,
the record of a scored tree that contraction also works on;
:func:`brute_force_best_fit` is the independent exhaustive oracle the
tests compare against.

All per-character state sets for one node are packed into a single
Python int, one power-of-two-wide flag group per character, so every
set operation and the scoring recurrences run word-parallel across the
whole character matrix.  The key identity: with num(s) = number of
children whose VU contains s, an unlabelled node costs
sum(children costs) + (#children - max num), a node fixed to state x
costs sum(children costs) + #children whose VU misses x, and forcing any
state s costs exactly (max num - num(s)) above the node minimum.

Which character groups of a set are non-empty is read in constant time
by one carry through each group (:meth:`Scorer._fold`).  One rule
combines the sets entering an unlabelled node, whatever their number: a
threshold count (:meth:`Scorer._count_many`), per t the states that at
least t of the sets hold; :meth:`Scorer._combine` sends three sets to
its closed form (:meth:`Scorer._three`) and every other count to it.  A
loop that runs for every tree a search visits writes out the two-set
form (intersection and union) or the three-set closed form where it
meets that count, and sends every other count to
:meth:`Scorer._count_many` or :meth:`Scorer._combine`: the bottom-up
pass two children, both derivations' climbs two and three (the cubic
one meets no other count), the descent (:meth:`Scorer._descend`) a
non-root node's two children, and the mixed sweep of
:meth:`Scorer.growth_costs` each edge's two sets and a node's three.

Both sweeps read a per-tree state that the full pass makes for a
search's start tree and a derivation makes for every tree after it,
from its parent's, recomputing only the nodes whose sets may change;
the state's type picks the sweep.  The cubic sweep prices each edge by
one union of its ends' root sets, from a :class:`SweepState`
(:meth:`Scorer.sweep_state`, :meth:`Scorer.child_state`); the mixed
sweep prices each edge and node from the directional sets entering it,
from a :class:`MixedState` (:meth:`Scorer.mixed_state`,
:meth:`Scorer.mixed_child_state`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .charmatrix import CharacterMatrix
from .errors import (
    DuplicateLabelError,
    EmptyTreeError,
    MissingSpeciesError,
    OracleTooLargeError,
    UnlabelledLeafError,
)
from .tree import MixedTree


def group_width(matrix: CharacterMatrix) -> int:
    """Bits per character group of a packed set: the widest alphabet rounded
    up to a power of two.  The fold's carry stays inside a group of any width."""
    widest = max(len(a) for a in matrix.alphabets)
    return 1 << (widest - 1).bit_length()


def unpack_sets(matrix: CharacterMatrix, packed: int) -> tuple[frozenset[int], ...]:
    """A packed set as one frozenset of state indices per character."""
    g = group_width(matrix)
    fill = (1 << g) - 1
    out = []
    for c in range(matrix.m):
        grp = (packed >> (c * g)) & fill
        out.append(frozenset(s for s in range(len(matrix.alphabets[c])) if (grp >> s) & 1))
    return tuple(out)


@dataclass
class FitAssignment:
    """One complete optimal assignment: node id -> per-character states."""

    states: dict[int, tuple[int, ...]]
    total_cost: int


class ScoreResult:
    """One scored tree: its MP-cost and per-node arrays by node id.

    ``vu``, ``vl`` and ``vv`` hold each node's packed upper, lower and
    root set; :func:`unpack_sets` reads one as per-character state sets.
    With the tree hung from ``root``, ``parent`` and ``kids`` give each
    node's parent (-1 at the root) and children, ``label`` its species
    (None if unlabelled), and ``local`` its share of the cost: the
    mutations on the edges to its children, summing to ``mp_cost``.  An
    id not in the tree has kids None, parent -1, label None and 0
    elsewhere.  The arrays describe the whole tree: contraction works on
    them alone (:mod:`parsicompact.contract`), and
    :meth:`MixedTree.from_arrays` rebuilds the tree from them.
    """

    __slots__ = ("mp_cost", "root", "parent", "kids", "label", "vu", "vl", "vv",
                 "local", "scorer")

    def __init__(self, scorer, mp_cost, root, parent, kids, label, vu, vl, vv, local):
        self.mp_cost: int = mp_cost
        self.root: int = root
        self.parent: list[int] = parent
        self.kids: list[list[int] | None] = kids
        self.label: list[str | None] = label
        self.vu: list[int] = vu
        self.vl: list[int] = vl
        self.vv: list[int] = vv
        self.local: list[int] = local
        self.scorer: Scorer = scorer

    def extract_fit(self) -> FitAssignment:
        """One deterministic optimal fit (lowest state index on ties)."""
        matrix = self.scorer.matrix
        parent = self.parent
        chosen: dict[int, tuple[int, ...]] = {}
        order = [self.root]
        for u in order:
            order.extend(self.kids[u])
            ups = unpack_sets(matrix, self.vu[u])
            if parent[u] < 0:
                chosen[u] = tuple(min(up) for up in ups)
                continue
            lows = unpack_sets(matrix, self.vl[u])
            chosen[u] = tuple(
                s if s in up else min(s, min(up)) if s in low else min(up)
                for s, up, low in zip(chosen[parent[u]], ups, lows)
            )
        return FitAssignment(chosen, self.mp_cost)

    def __repr__(self):
        return f"ScoreResult(mp_cost={self.mp_cost}, root={self.root})"


class SweepState:
    """What the cubic sweep keeps of one scored tree: its MP-cost and,
    with the tree hung from ``root``, each node's ``parent`` and ``kids``
    and its packed ``vu``, ``vl`` and ``vv`` sets, by node id, as in
    :class:`ScoreResult`.  :meth:`Scorer.sweep_state` makes one by the
    full pass, and :meth:`Scorer.child_state` derives a grown child's
    from its parent's; :meth:`Scorer.growth_costs` prices rule 1 from
    one."""

    __slots__ = ("mp_cost", "root", "parent", "kids", "vu", "vl", "vv")

    def __init__(self, mp_cost, root, parent, kids, vu, vl, vv):
        self.mp_cost: int = mp_cost
        self.root: int = root
        self.parent: list[int] = parent
        self.kids: list[list[int] | None] = kids
        self.vu: list[int] = vu
        self.vl: list[int] = vl
        self.vv: list[int] = vv


class MixedState:
    """What the mixed sweep keeps of one tree: its MP-cost and, with the
    tree hung from ``root``, each node's ``parent`` and ``kids``, its
    packed ``vu`` set, as in :class:`ScoreResult`, and ``down``, the set
    D entering it from its parent (0 at the root), by node id.  A
    non-root node's VU is the set it sends its parent, so every edge's
    two directional sets are VU and D of its lower end.
    :meth:`Scorer.mixed_state` makes one by the full pass, and
    :meth:`Scorer.mixed_child_state` derives a grown child's from its
    parent's, each setting D through :meth:`Scorer._descend`;
    :meth:`Scorer.growth_costs` prices all four rules from one."""

    __slots__ = ("mp_cost", "root", "parent", "kids", "vu", "down")

    def __init__(self, mp_cost, root, parent, kids, vu, down):
        self.mp_cost: int = mp_cost
        self.root: int = root
        self.parent: list[int] = parent
        self.kids: list[list[int] | None] = kids
        self.vu: list[int] = vu
        self.down: list[int] = down


class Scorer:
    """Word-parallel scoring engine bound to one character matrix.

    Reusable across many trees; enumeration keeps a single instance and
    calls :meth:`growth_costs` on each tree it expands whose children
    are not all priced out by the novel-state bound.  That one sweep
    lists the tree's children, as moves in the order the search visits
    them, and prices each from the tree's state, whose type picks the
    sweep: for the cubic search with one OR per edge of the root sets in
    its :class:`SweepState`, for the mixed search from the directional
    sets in its :class:`MixedState`.  Every caller passes the state: a
    search derives each tree's from its parent's (:meth:`child_state`,
    :meth:`mixed_child_state`), and a start tree's comes from the full
    pass (:meth:`sweep_state`, :meth:`mixed_state`).
    """

    __slots__ = ("matrix", "alpha", "fill", "top", "high", "carry", "m", "vmask")

    def __init__(self, matrix: CharacterMatrix):
        self.matrix = matrix
        g = group_width(matrix)
        # Each species' states, one bit per character; alpha holds every
        # state of every character, and low bit 0 of every group.
        self.vmask = {
            name: sum(1 << (c * g + s) for c, s in enumerate(value))
            for name, value in matrix.values.items()
        }
        self.alpha = sum(((1 << len(a)) - 1) << (c * g) for c, a in enumerate(matrix.alphabets))
        low = sum(1 << (c * g) for c in range(matrix.m))
        self.fill = (1 << g) - 1
        # The fold's constants: each group's top bit, and each group's
        # g-1 low bits all set.
        self.top = g - 1
        self.high = low << self.top
        self.carry = low * ((1 << self.top) - 1)
        self.m = matrix.m

    def _fold(self, x: int) -> int:
        """Bit 0 of each character group of ``x`` set iff any bit of it is.

        Adding ``carry`` to a group's g-1 low bits carries into the group's
        top bit exactly when one of them is set, and never past it.  The hot
        loops inline this, and so does the contraction's edge scan.
        """
        carry = self.carry
        return ((((x & carry) + carry) | x) & self.high) >> self.top

    # -- traversal ---------------------------------------------------------

    @staticmethod
    def pick_root(tree: MixedTree) -> int:
        """Lowest-id unlabelled node, else lowest-id node."""
        adj = tree.adj
        root = None
        for u, name in enumerate(tree.label):
            if adj[u] is not None:
                if name is None:
                    return u
                if root is None:
                    root = u
        if root is None:
            raise EmptyTreeError("cannot score an empty tree")
        return root

    # -- bottom-up pass ------------------------------------------------------

    def _bottom_up(self, tree, root):
        """Return (cost, vu, vl, local, pre, parent, kids), the tree hung
        from ``root`` and scored bottom-up.

        Every pass computes VU, VL and local cost at each node.  ``pre``,
        ``parent`` and ``kids`` come from one pass of :meth:`MixedTree.hang`,
        so ``pre`` lists parents before children and ``kids[u]`` lists u's
        children in adjacency order (None at ids not in the tree).
        """
        pre, parent, kids = tree.hang(root)
        vu = [0] * len(kids)
        vl = [0] * len(kids)
        local = [0] * len(kids)
        cost = self._up(reversed(pre), parent, tree.label, vu, vl, local, kids)
        return cost, vu, vl, local, pre, parent, kids

    def _up(self, nodes, parent, label, vu, vl, local, kids):
        """Write VU, VL and local cost at each of ``nodes`` from its
        children's VU; returns their summed local cost.

        ``nodes`` lists children before parents, and ``kids[u]`` lists u's
        children; ``_up`` only reads it.  ``label`` gives each node's
        species or None.  A node's local cost is its share of the MP-cost:
        the mutations on the edges to its children.
        """
        vmask = self.vmask
        alpha = self.alpha
        fill = self.fill
        carry = self.carry
        high = self.high
        top = self.top
        m = self.m
        cost = 0
        for u in nodes:
            name = label[u]
            below = kids[u]
            if name is not None:
                x = vmask.get(name)
                if x is None:
                    raise MissingSpeciesError(f"species {name!r} not in the matrix")
                vu[u] = x
                vl[u] = 0
                if below:
                    # x holds one state per character, so each bit of
                    # vu[c] & x is one character that reaches x for free.
                    here = 0
                    for c in below:
                        here += m - (vu[c] & x).bit_count()
                    cost += here
                    local[u] = here
            elif not below:
                raise UnlabelledLeafError(f"unlabelled leaf {u} cannot be scored")
            elif len(below) == 2:
                a = vu[below[0]]
                b = vu[below[1]]
                meet = a & b
                ne = ((((meet & carry) + carry) | meet) & high) >> top
                here = m - ne.bit_count()
                cost += here
                both = ne * fill
                union = a | b
                vu[u] = meet | (union & ~both)
                vl[u] = ((a ^ b) & both) | (alpha & ~(union | both))
                local[u] = here
            else:
                if len(below) == 1 and parent[u] < 0:
                    # An unlabelled root with one neighbour is a leaf.
                    raise UnlabelledLeafError(f"unlabelled leaf {u} cannot be scored")
                vu[u], vl[u], here = self._combine([vu[c] for c in below])
                cost += here
                local[u] = here
        return cost

    def _three(self, a, b, c):
        """VU, VL and local cost of an unlabelled node receiving a, b and c.

        f3 = a & b & c holds the states with num(s) = 3, and f2, the union
        of the pairwise intersections, those with num(s) >= 2.  A
        character's max num K is 3 where f3 is non-empty, else 2 where f2
        is, else 1.  That last step holds only when each of a, b and c is
        non-empty in every character, as every VU set and every D set
        (see :class:`MixedState`) is.  The local cost, the sum of 3 - K,
        is then 2m minus the characters where f3 is non-empty minus those
        where f2 is.
        """
        carry = self.carry
        high = self.high
        top = self.top
        fill = self.fill
        ab = a & b
        f3 = ab & c
        f2 = ab | ((a | b) & c)
        union = a | b | c
        n3 = ((((f3 & carry) + carry) | f3) & high) >> top
        n2 = ((((f2 & carry) + carry) | f2) & high) >> top
        e3 = n3 * fill
        e2 = n2 * fill
        vu = f3 | (f2 & ~e3) | (union & ~e2)
        vl = ((f2 ^ f3) & e3) | ((union ^ f2) & (e2 ^ e3)) | (self.alpha & ~(union | e2))
        return vu, vl, 2 * self.m - n3.bit_count() - n2.bit_count()

    def _count_many(self, sets):
        """VU, VL and local cost of an unlabelled node receiving ``sets``.

        The one definition, for any number of sets: :meth:`_three` and
        the two-child case of :meth:`_up` are it unrolled, and every
        other count, one set or four and more, comes here.  ge[t] holds
        the states that at least t of the sets hold: each set x raises
        ge[t] |= ge[t-1] & x, with t taken from high to low so that x
        counts once.  Per character, the highest non-empty ge[t] is VU (t
        is the max num K) and ge[t-1] minus it is VL.  The local cost, the
        sum of d - K, is d*m minus, for each t, the characters where ge[t]
        is non-empty.  One set non-empty in every character passes
        through: VU is the set, VL the other states and the cost 0.
        """
        ge = [self.alpha]
        for x in sets:
            ge.append(0)
            for t in range(len(ge) - 1, 0, -1):
                ge[t] |= ge[t - 1] & x
        fold = self._fold
        fill = self.fill
        vu = 0
        vl = 0
        total_k = 0
        higher = 0
        for t in range(len(sets), 0, -1):
            flags = fold(ge[t])
            top = (flags ^ higher) * fill
            vu |= ge[t] & top
            vl |= ge[t - 1] & ~ge[t] & top
            total_k += flags.bit_count()
            higher = flags
        return vu, vl, len(sets) * self.m - total_k

    def _combine(self, sets):
        """VU, VL and local cost of an unlabelled node receiving ``sets``:
        three by :meth:`_three`, any other number by :meth:`_count_many`."""
        if len(sets) == 3:
            return self._three(*sets)
        return self._count_many(sets)

    # -- top-down pass ---------------------------------------------------------

    def _top_down(self, nodes, parent, vu, vl, vv):
        """Write VV at each of ``nodes`` from its parent's VV and its own
        VU and VL; ``nodes`` lists parents before children."""
        carry = self.carry
        high = self.high
        top = self.top
        fill = self.fill
        for u in nodes:
            p = parent[u]
            if p < 0:
                vv[u] = vu[u]
                continue
            vvp = vv[p]
            miss = vvp & ~vu[u]
            ns = (((((miss & carry) + carry) | miss) & high) >> top) * fill
            vv[u] = ((vu[u] | (vvp & vl[u])) & ns) | (vvp & ~ns)

    # -- entry points --------------------------------------------------------------

    def cost(self, tree: MixedTree) -> int:
        """The MP-cost alone, from the bottom-up pass :meth:`score` runs,
        with no top-down pass and no :class:`ScoreResult`.  Each
        depth-first run prices its start tree with it; every child after
        that is priced by its parent's :meth:`growth_costs`."""
        return self._bottom_up(tree, self.pick_root(tree))[0]

    def _full_pass(self, tree, root):
        """(cost, vu, vl, vv, local, parent, kids): the bottom-up pass
        from ``root``, then the top-down pass."""
        cost, vu, vl, local, pre, parent, kids = self._bottom_up(tree, root)
        vv = [0] * len(vu)
        self._top_down(pre, parent, vu, vl, vv)
        return cost, vu, vl, vv, local, parent, kids

    def sweep_state(self, tree: MixedTree) -> SweepState:
        """The tree's :class:`SweepState`, by the full pass from
        :meth:`pick_root`'s node."""
        root = self.pick_root(tree)
        cost, vu, vl, vv, _local, parent, kids = self._full_pass(tree, root)
        return SweepState(cost, root, parent, kids, vu, vl, vv)

    def child_state(self, tree: MixedTree, state: SweepState, token, cost: int) -> SweepState:
        """The :class:`SweepState` of ``tree``, grown by the
        :meth:`MixedTree.grow_rule_1` that returned ``token``, derived
        from ``state``, its state before that growth, which is left
        untouched; ``cost`` is the tree's MP-cost, as the parent's
        :meth:`growth_costs` priced it.

        The tree must be one the cubic search grows: hung from an
        unlabelled root with three children, every other unlabelled node
        with two, and every species on a leaf.  Rule 1 keeps that shape,
        so a derived state can be derived from again; any other tree
        gives wrong sets.

        The token names the edge (u, v), the new node w and the new leaf;
        below, v is u's child.  The child keeps the parent's root, and
        its arrays are copies of the parent's with w put between u and
        v and the leaf under w; it shares each inner kids list it does
        not change.  Only u and its ancestors have new subtrees, so VU
        and VL are recomputed at w, from VU[v] and the leaf's states,
        then at u and up its ancestors, stopping at the first node whose
        VU comes out as it was.  VV is then recomputed down from the
        topmost recomputed node, entering every unlabelled child of a
        node whose VV changed, else the child on the climb's path.  A
        leaf's VV is its VU, whatever its parent's (its VL is empty and
        VV is never empty in a character), so the descent enters none,
        and the new leaf's VV is set with its VU.  w's slot starts with
        u's old VV, the one v read before, so v is entered only if w's VV
        differs from it.  Every node skipped keeps inputs that did not
        change, so the state is the full pass's, as :meth:`score` with
        the same root would give it.
        """
        _, u, v, w, leaf = token
        grow = max(w, leaf) + 1 - len(state.parent)  # new slots, if any
        zero = [0] * grow
        parent = state.parent + [-1] * grow
        kids = state.kids + [None] * grow
        vu = state.vu + zero
        vl = state.vl + zero
        vv = state.vv + zero
        if parent[u] == v:
            u, v = v, u
        ks = kids[u] = kids[u].copy()
        ks[ks.index(v)] = w
        parent[w] = u
        kids[w] = [v, leaf]
        parent[v] = parent[leaf] = w
        kids[leaf] = []
        vv[w] = vv[u]  # what v read from its parent before
        carry = self.carry
        high = self.high
        top = self.top
        fill = self.fill
        alpha = self.alpha
        label = tree.label
        vu[leaf] = vv[leaf] = self.vmask[label[leaf]]
        vl[leaf] = 0
        below = {}  # each recomputed node's child on the climb's path
        y = w
        while True:
            ks = kids[y]
            if len(ks) == 2:
                c0, c1 = ks
                a = vu[c0]
                b = vu[c1]
                meet = a & b
                both = (((((meet & carry) + carry) | meet) & high) >> top) * fill
                union = a | b
                new = meet | (union & ~both)
                vl[y] = ((a ^ b) & both) | (alpha & ~(union | both))
            else:  # the root: _three, inline
                c0, c1, c2 = ks
                a = vu[c0]
                b = vu[c1]
                c = vu[c2]
                ab = a & b
                f3 = ab & c
                f2 = ab | ((a | b) & c)
                union = a | b | c
                n3 = ((((f3 & carry) + carry) | f3) & high) >> top
                n2 = ((((f2 & carry) + carry) | f2) & high) >> top
                e3 = n3 * fill
                e2 = n2 * fill
                new = f3 | (f2 & ~e3) | (union & ~e2)
                vl[y] = ((f2 ^ f3) & e3) | ((union ^ f2) & (e2 ^ e3)) | (alpha & ~(union | e2))
            was = vu[y]
            vu[y] = new
            p = parent[y]
            # w is new, so its VU counts as changed.
            if new == was and y != w or p < 0:
                break
            below[p] = y
            y = p
        stack = [y]
        while stack:
            y = stack.pop()
            p = parent[y]
            if p < 0:
                new = vu[y]
            else:
                vvp = vv[p]
                miss = vvp & ~vu[y]
                ns = (((((miss & carry) + carry) | miss) & high) >> top) * fill
                new = ((vu[y] | (vvp & vl[y])) & ns) | (vvp & ~ns)
            if new != vv[y]:
                vv[y] = new
                for c in kids[y]:
                    if label[c] is None:
                        stack.append(c)
            elif y in below:
                stack.append(below[y])
        return SweepState(cost, state.root, parent, kids, vu, vl, vv)

    def mixed_state(self, tree: MixedTree) -> MixedState:
        """The tree's :class:`MixedState`, by the full pass from
        :meth:`pick_root`'s node: the bottom-up pass gives each node's VU,
        and :meth:`_descend` each child's D.  A labelled node's children
        receive its state whatever its own D, so the descent starts from
        each labelled node with children as well as from the root."""
        root = self.pick_root(tree)
        cost, vu, _vl, _local, pre, parent, kids = self._bottom_up(tree, root)
        label = tree.label
        down = [0] * len(vu)
        seeds = [u for u in pre if parent[u] < 0 or label[u] is not None and kids[u]]
        self._descend(seeds, parent, kids, label, vu, down)
        return MixedState(cost, root, parent, kids, vu, down)

    def _descend(self, stack, parent, kids, label, vu, down):
        """Set D at the children of each node popped from ``stack``, and
        push each unlabelled child whose D changed; every VU is final.

        A labelled node's children receive its state, its VU.  An
        unlabelled node's children each receive the combine of the node's
        other incoming sets: its other children's VU and, off the root,
        its own D.  At a non-root node with two children that is the
        two-set combine, written inline; any other count goes through
        :meth:`_combine` (one set, at a node of degree 2, passes through).
        A child whose D comes out as it was sends its children what it
        sent before, so the descent does not enter it.
        """
        carry = self.carry
        high = self.high
        top = self.top
        fill = self.fill
        while stack:
            y = stack.pop()
            ks = kids[y]
            if label[y] is not None:
                x = vu[y]
                for c in ks:
                    if down[c] != x:
                        down[c] = x
                        if label[c] is None:
                            stack.append(c)
            elif len(ks) == 2 and parent[y] >= 0:
                # Each child gets the 2-set combine of D[y] and its
                # sibling's VU.
                d = down[y]
                c0, c1 = ks
                for c, a in ((c0, vu[c1]), (c1, vu[c0])):
                    meet = a & d
                    both = (((((meet & carry) + carry) | meet) & high) >> top) * fill
                    new = meet | ((a | d) & ~both)
                    if new != down[c]:
                        down[c] = new
                        if label[c] is None:
                            stack.append(c)
            else:
                sets = [vu[c] for c in ks]
                if parent[y] >= 0:
                    sets.append(down[y])
                for i, c in enumerate(ks):
                    new = self._combine(sets[:i] + sets[i + 1:])[0]
                    if new != down[c]:
                        down[c] = new
                        if label[c] is None:
                            stack.append(c)

    def mixed_child_state(
        self, tree: MixedTree, state: MixedState, token, cost: int
    ) -> MixedState:
        """The :class:`MixedState` of ``tree``, grown by the growth rule
        that returned ``token``, derived from ``state``, its state before
        that growth, which is left untouched; ``cost`` is the tree's
        MP-cost, as the parent's :meth:`growth_costs` priced it.

        The child keeps the parent's root, and its arrays are copies of
        the parent's; it shares each inner kids list it does not change.
        Write x for the new species' states.  Each rule sets only the
        nodes it makes, then pushes its site for :meth:`_descend`:

        * r1 on (u, v), v being u's child, puts w between them and the
          leaf under w: VU[w] is the two-set combine of VU[v] and x, and
          D[w] is the D[v] of before; it pushes w;
        * r2 on (u, v) puts w, labelled x, between them: VU[w] = x, and
          D[w] is the D[v] of before; it pushes w;
        * r3 hangs the leaf on a node: VU[leaf] = x; it pushes the node
          if it is labelled (the climb enters an unlabelled one);
        * r4 labels a node x: VU[node] = x; it pushes the node.

        Only the site's ancestors have new subtrees, so VU is then
        recomputed from the site's upper node (u, or r3's node, or r4's
        node's parent) up its ancestors, stopping at the first node whose
        VU comes out as it was, or at the root, and never entering a
        labelled node, whose sets never change.  Each node on that climb
        keeps its D, which its parent's side gives, and is pushed, so the
        descent recomputes D at its children and goes down from there into
        each unlabelled node whose D changed.  Every node skipped keeps
        inputs that did not change, so the state is the full pass's, as
        :meth:`mixed_state` would give it from the same root.
        """
        grow = len(tree.adj) - len(state.parent)  # new slots, if any
        zero = [0] * grow
        parent = state.parent + [-1] * grow
        kids = state.kids + [None] * grow
        vu = state.vu + zero
        down = state.down + zero
        label = tree.label
        carry = self.carry
        high = self.high
        top = self.top
        fill = self.fill
        kind = token[0]
        if kind == "r1" or kind == "r2":
            u, v, w = token[1:4]
            if parent[u] == v:
                u, v = v, u
            ks = kids[u] = kids[u].copy()
            ks[ks.index(v)] = w
            parent[w] = u
            parent[v] = w
            down[w] = down[v]
            if kind == "r1":
                leaf = token[4]
                kids[w] = [v, leaf]
                parent[leaf] = w
                kids[leaf] = []
                x = vu[leaf] = self.vmask[label[leaf]]
                a = vu[v]
                meet = a & x
                both = (((((meet & carry) + carry) | meet) & high) >> top) * fill
                vu[w] = meet | ((a | x) & ~both)
            else:
                kids[w] = [v]
                vu[w] = self.vmask[label[w]]
            stack = [w]
            y = u
        elif kind == "r3":
            _, y, leaf = token
            parent[leaf] = y
            kids[y] = kids[y] + [leaf]
            kids[leaf] = []
            vu[leaf] = self.vmask[label[leaf]]
            stack = [] if label[y] is None else [y]
        else:
            node = token[1]
            x = self.vmask[label[node]]
            was = vu[node]
            vu[node] = x
            stack = [node]
            y = parent[node] if x != was else -1
        if y >= 0 and label[y] is None:
            while True:
                ks = kids[y]
                if len(ks) == 2:
                    a = vu[ks[0]]
                    b = vu[ks[1]]
                    meet = a & b
                    both = (((((meet & carry) + carry) | meet) & high) >> top) * fill
                    new = meet | ((a | b) & ~both)
                elif len(ks) == 3:  # _three's VU, inline
                    a = vu[ks[0]]
                    b = vu[ks[1]]
                    c = vu[ks[2]]
                    ab = a & b
                    f3 = ab & c
                    f2 = ab | ((a | b) & c)
                    e3 = (((((f3 & carry) + carry) | f3) & high) >> top) * fill
                    e2 = (((((f2 & carry) + carry) | f2) & high) >> top) * fill
                    new = f3 | (f2 & ~e3) | ((a | b | c) & ~e2)
                else:
                    new = self._count_many([vu[c] for c in ks])[0]
                was = vu[y]
                vu[y] = new
                stack.append(y)
                p = parent[y]
                if new == was or p < 0 or label[p] is not None:
                    break
                y = p
        self._descend(stack, parent, kids, label, vu, down)
        return MixedState(cost, state.root, parent, kids, vu, down)

    def growth_costs(
        self, tree: MixedTree, name: str, state: SweepState | MixedState
    ) -> tuple[list, list[int]]:
        """Every tree that one growth move of ``name`` makes, with its MP-cost.

        Returns (moves, costs), ``costs`` one cost per move, in order; the
        tree is left untouched.  ``state`` is the tree's state, and its
        type picks the sweep.  The sweep lists the moves it prices, in the
        order the searches visit them.  From a :class:`MixedState`,
        ``moves`` holds ("r1" | "r2", edge) and ("r3" | "r4", node) pairs,
        named after the MixedTree growth rules: r1 on each edge, in
        :meth:`MixedTree.iter_edges`' order, each followed by r2 on the
        same edge; then r3 on each node, in :meth:`MixedTree.iter_nodes`'
        order, each unlabelled one followed by r4.  From a
        :class:`SweepState`, ``moves`` is the cubic search's: the
        iter_edges() list, each edge standing for r1 on it.  The searches
        derive each tree's state from its parent's (:meth:`child_state`,
        :meth:`mixed_child_state`); a start tree's, and the tests'
        oracle, is the full pass (:meth:`sweep_state`, :meth:`mixed_state`).
        A ``name`` the tree already holds raises DuplicateLabelError, as a
        growth rule would, before the state is read.

        One sweep replaces a rescore per child.  Write D(u->v) for the VU
        set of the side of edge (u, v) holding u.  An edge (u, v) acts as
        an unlabelled node receiving D(u->v) and D(v->u), so with x the new
        species, |s| the number of characters whose x-state lies in s (x
        has one state per character), and an unlabelled node (or edge)
        receiving d sets with local cost L and combine VV, each child costs
        the parent's cost plus:

        * r1 on an edge, r3 on an unlabelled node (hang x): m - |VV|;
        * r3 on a node labelled y: m - |y|;
        * r2 on an edge, r4 on a node (label it x): d*m - L - sum of |D|.

        Both follow from one fact: an edge into a side with set D costs
        that side's minimum plus one per character whose state misses D.

        The cubic sweep needs only r1, and an edge's combine VV is the
        union VV[u] | VV[v] of its ends' root sets.  Per character, let w
        be a new unlabelled node of degree 2 on (u, v); the tree with w
        costs what the tree without it does.  The union lies in w's root
        set: an optimal fit of the tree extends at no cost by giving w u's
        state, or v's.  And w's root set lies in the union: if an optimal
        fit of the tree with w gave w a state equal to neither end's,
        dropping w would save a mutation, and the cost cannot fall below
        the MP-cost.  So w's state is an end's, and dropping w leaves an
        optimal fit of the tree with that end in that state, which thus
        lies in the end's VV.  So the cubic sweep is one OR per edge of
        the root sets in ``state``: r1 on (u, v) costs m - |VV[u] | VV[v]|
        more than the tree.

        The mixed sweep reads directional sets, because r2 and r4 need to
        know how many of the sets entering the new node hold x, and the
        root sets do not record that.  With the tree hung from the state's
        root, a non-root node c's VU is D(c->parent) and its D is
        D(parent->c), so an edge's two sets are VU and D of its lower end,
        and an unlabelled node receives its children's VU and, off the
        root, its own D.  One loop over ``tree.adj``, in iter_edges' order,
        lists and prices r1 and r2 from one inline combine of each edge's
        two sets.  A second loop over it, by id, lists and prices r3 and
        r4: a node with three incoming sets takes :meth:`_three`'s closed
        form written inline, without VL, and any other count goes through
        :meth:`_count_many`'s threshold count.
        """
        x = self.vmask.get(name)
        if x is None:
            raise MissingSpeciesError(f"species {name!r} not in the matrix")
        label = tree.label
        if name in label:
            raise DuplicateLabelError(f"species {name!r} already labels a node")
        m = self.m
        if isinstance(state, SweepState):
            vv = state.vv
            base = state.mp_cost + m
            edges = tree.iter_edges()
            return edges, [base - ((vv[u] | vv[v]) & x).bit_count() for u, v in edges]
        up = state.vu
        down = state.down
        parent = state.parent
        kids_of = state.kids
        carry = self.carry
        high = self.high
        top = self.top
        fill = self.fill
        base = state.mp_cost + m
        adj = tree.adj
        moves = []
        costs = []
        for u, at in enumerate(adj):  # iter_edges' order
            if at is None:
                continue
            for v in at:
                if u < v:
                    # x hung from D(c->p) and D(p->c), with c the child endpoint.
                    c = v if parent[v] == u else u
                    a = up[c]
                    b = down[c]
                    meet = a & b
                    ne = ((((meet & carry) + carry) | meet) & high) >> top
                    edge = (u, v)
                    moves.append(("r1", edge))
                    costs.append(base - ((meet | ((a | b) & ~(ne * fill))) & x).bit_count())
                    # d*m - L - sum of |D|, with d = 2 and L = m - |ne|.
                    moves.append(("r2", edge))
                    costs.append(base + ne.bit_count() - (a & x).bit_count()
                                 - (b & x).bit_count())
        for u, at in enumerate(adj):  # iter_nodes' order
            if at is None:
                continue
            moves.append(("r3", u))
            if label[u] is not None:
                costs.append(base - (up[u] & x).bit_count())
                continue
            ks = kids_of[u]
            moves.append(("r4", u))
            if len(at) == 3:
                # _three's VU as the node's VV, inline, and its local cost
                # L = 2m - |n3| - |n2|, so d*m - L = m + |n3| + |n2|.
                a = up[ks[0]]
                b = up[ks[1]]
                c = up[ks[2]] if len(ks) == 3 else down[u]
                ab = a & b
                f3 = ab & c
                f2 = ab | ((a | b) & c)
                n3 = ((((f3 & carry) + carry) | f3) & high) >> top
                n2 = ((((f2 & carry) + carry) | f2) & high) >> top
                vv = f3 | (f2 & ~(n3 * fill)) | ((a | b | c) & ~(n2 * fill))
                costs.append(base - (vv & x).bit_count())
                costs.append(base + n3.bit_count() + n2.bit_count() - (a & x).bit_count()
                             - (b & x).bit_count() - (c & x).bit_count())
            else:
                sets = [up[c] for c in ks]
                if parent[u] >= 0:
                    sets.append(down[u])
                vv, _vl, local = self._count_many(sets)
                costs.append(base - (vv & x).bit_count())
                costs.append(base + (len(sets) - 1) * m - local
                             - sum((s & x).bit_count() for s in sets))
        return moves, costs

    def score(self, tree: MixedTree, root: int | None = None) -> ScoreResult:
        """Full pass: cost plus VU/VL/VV for every node.

        The cost is root-independent.  Without ``root`` the pass roots at
        :meth:`pick_root`'s node; a ``root`` that is not a live node raises
        TreeStructureError.  A labelled node holds its species' states fixed.
        """
        if root is None:
            root = self.pick_root(tree)
        cost, vu, vl, vv, local, parent, kids = self._full_pass(tree, root)
        return ScoreResult(self, cost, root, parent, kids, list(tree.label), vu, vl, vv, local)


# -- module-level operations ----------------------------------------------------


class OracleResult:
    """Exhaustive per-character optimum over all unlabelled-node assignments.

    ``fixed`` maps each labelled node to its species' states, and
    ``optima[c]`` lists every optimal assignment of character c to the
    ``unlabelled`` nodes, in their order; every optimal fit takes one
    assignment per character.
    """

    def __init__(self, mp_cost, unlabelled, fixed, optima, matrix):
        self.mp_cost: int = mp_cost
        self.unlabelled: list[int] = unlabelled
        self.fixed: dict[int, tuple[int, ...]] = fixed
        self.optima: list[list[tuple[int, ...]]] = optima
        self.matrix: CharacterMatrix = matrix


def brute_force_best_fit(
    tree: MixedTree, matrix: CharacterMatrix, cap: int = 2_000_000
) -> OracleResult:
    """Reference scorer: try every state assignment, character by character.

    Characters are independent, so the search is per character over the
    unlabelled nodes only; ``cap`` bounds the total number of candidate
    assignments across characters.
    """
    if tree.num_nodes == 0:
        raise EmptyTreeError("cannot score an empty tree")
    unlabelled = [u for u in tree.iter_nodes() if tree.label[u] is None]
    fixed = {}
    for u in tree.iter_nodes():
        name = tree.label[u]
        if name is not None:
            if name not in matrix.values:
                raise MissingSpeciesError(f"species {name!r} not in the matrix")
            fixed[u] = matrix.values[name]
    work = sum(len(a) ** len(unlabelled) for a in matrix.alphabets)
    if work > cap:
        raise OracleTooLargeError(
            f"{work} candidate assignments exceed the oracle cap {cap}"
        )
    edges = list(tree.iter_edges())
    index = {u: i for i, u in enumerate(unlabelled)}
    total = 0
    optima = []
    for c, alpha in enumerate(matrix.alphabets):
        best = None
        opts: list[tuple[int, ...]] = []
        fixed_c = {u: v[c] for u, v in fixed.items()}
        for assign in product(range(len(alpha)), repeat=len(unlabelled)):
            cost = 0
            for a, b in edges:
                sa = fixed_c[a] if a in fixed_c else assign[index[a]]
                sb = fixed_c[b] if b in fixed_c else assign[index[b]]
                if sa != sb:
                    cost += 1
            if best is None or cost < best:
                best = cost
                opts = [assign]
            elif cost == best:
                opts.append(assign)
        total += best
        optima.append(opts)
    return OracleResult(total, unlabelled, fixed, optima, matrix)
