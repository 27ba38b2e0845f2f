"""Tree arena, growth/undo bookkeeping, canonical form, Newick round trips."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsicompact import (
    AlreadyLabelledError,
    DuplicateLabelError,
    EmptyTreeError,
    IllegalContractionError,
    MixedTree,
    NewickParseError,
    TreeStructureError,
    parse_newick,
)
from conftest import (
    add_edge,
    add_node,
    contract_edge,
    free_node,
    growth_moves,
    live_labels,
    num_edges,
    random_mixed_tree,
    remove_edge,
    subdivide_with_unlabelled,
    suppress_degree2_unlabelled,
    validate,
)


def snapshot(tree):
    """Structure as a canonical edge/label set, independent of node ids."""
    return (
        tree.canonical_key(),
        tree.num_nodes,
        num_edges(tree),
        tree.n_labelled,
        tree.n_unlabelled,
    )


def test_single_and_basic_growth():
    t = MixedTree.single("a")
    assert t.num_nodes == 1 and t.n_labelled == 1 and num_edges(t) == 0
    a = t.species_node("a")
    t.grow_rule_3(a, "b")
    assert t.num_nodes == 2 and num_edges(t) == 1
    assert live_labels(t) == ["a", "b"]
    edge = next(iter(t.iter_edges()))
    t.grow_rule_1(edge, "c")
    assert t.num_nodes == 4 and t.n_unlabelled == 1
    validate(t)


def test_duplicate_species_rejected():
    t = MixedTree.single("a")
    with pytest.raises(DuplicateLabelError):
        t.grow_rule_3(t.species_node("a"), "a")


def test_growth_rules_and_undo_restore_exactly():
    rng = random.Random(5)
    for trial in range(60):
        tree = random_mixed_tree([f"s{i}" for i in range(rng.randint(1, 7))], rng)
        before = snapshot(tree)
        name = "zz"
        kind = rng.randrange(4)
        edges = list(tree.iter_edges())
        nodes = list(tree.iter_nodes())
        unlabelled = [u for u in nodes if tree.label[u] is None]
        if kind == 0 and edges:
            token = tree.grow_rule_1(rng.choice(edges), name)
        elif kind == 1 and edges:
            token = tree.grow_rule_2(rng.choice(edges), name)
        elif kind == 2:
            token = tree.grow_rule_3(rng.choice(nodes), name)
        elif unlabelled:
            token = tree.grow_rule_4(rng.choice(unlabelled), name)
        else:
            continue
        validate(tree)
        assert name in live_labels(tree)
        tree.undo_growth(token)
        validate(tree)
        assert snapshot(tree) == before


def test_rule_effects_on_counts():
    t = parse_newick("((a,b),c,d);")
    n0, e0 = t.num_nodes, num_edges(t)
    tok = t.grow_rule_1(next(iter(t.iter_edges())), "x")
    assert (t.num_nodes, num_edges(t)) == (n0 + 2, e0 + 2)
    t.undo_growth(tok)
    tok = t.grow_rule_2(next(iter(t.iter_edges())), "x")
    assert (t.num_nodes, num_edges(t)) == (n0 + 1, e0 + 1)
    t.undo_growth(tok)
    tok = t.grow_rule_4(next(u for u in t.iter_nodes() if t.label[u] is None), "x")
    assert (t.num_nodes, num_edges(t)) == (n0, e0)
    assert t.n_unlabelled == 1
    # Rule 4 on a labelled node is refused and leaves the tree unchanged.
    before = (repr(t.adj), list(t.label))
    with pytest.raises(AlreadyLabelledError, match="already labelled 'x'"):
        t.grow_rule_4(tok[1], "y")
    assert (repr(t.adj), list(t.label)) == before
    t.undo_growth(tok)
    assert t.n_unlabelled == 2  # root and one interior node


def test_split_and_contract_are_inverse():
    # ((a,b),c,d)e is (a,b,c,d)e with a and b split off onto a new node.
    split = parse_newick("((a,b),c,d)e;")
    joined = parse_newick("(a,b,c,d)e;")
    assert split.canonical_key() != joined.canonical_key()
    center = split.species_node("e")
    (w,) = [u for u in split.iter_nodes() if split.label[u] is None]
    assert len(split.adj[center]) == 3 and len(split.adj[w]) == 3
    merged = contract_edge(split, center, w)
    validate(split)
    assert split.label[merged] == "e" and len(split.adj[merged]) == 4
    assert split.canonical_key() == joined.canonical_key()


def test_contract_label_rules():
    t = parse_newick("((a,b)x,c);")
    u = t.species_node("x")
    v = next(w for w in t.adj[u] if t.label[w] is None)
    w = contract_edge(t, u, v)
    assert t.label[w] == "x"
    validate(t)

    t = parse_newick("((a,b)x,c)y;")
    with pytest.raises(IllegalContractionError):
        contract_edge(t, t.species_node("x"), t.species_node("y"))


def test_contract_edge_merges_v_into_u():
    # u is the unlabelled centre of (x(a,b),c,d); v is x.
    t = parse_newick("((a,b)x,c,d);")
    v = t.species_node("x")
    (u,) = [w for w in t.iter_nodes() if t.label[w] is None]
    kept = [w for w in t.iter_nodes() if w != v]
    moved = [w for w in t.adj[v] if w != u]
    size = len(t.adj)
    assert contract_edge(t, u, v) == u
    validate(t)
    assert len(t.adj) == size
    assert t.adj[v] is None
    assert all(t.adj[w] is not None for w in kept)
    assert sorted(t.label[w] for w in moved) == ["a", "b"]
    assert all(w in t.adj[u] for w in moved)
    assert t.label[u] == "x" and t.species_node("x") == u
    assert len(t.adj[u]) == 4 and t.n_unlabelled == 0


def test_suppress_degree2_unlabelled():
    rng = random.Random(7)
    for trial in range(30):
        tree = random_mixed_tree([f"s{i}" for i in range(rng.randint(2, 7))], rng)
        want = tree.canonical_key()
        messy = subdivide_with_unlabelled(tree.copy(), rng, rng.randint(1, 4))
        assert messy.canonical_key() != want
        suppress_degree2_unlabelled(messy)
        assert messy.canonical_key() == want


def test_suppress_keeps_labelled_degree2():
    t = parse_newick("((a)b)c;")
    suppress_degree2_unlabelled(t)
    assert t.num_nodes == 3 and len(t.adj[t.species_node("b")]) == 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_canonical_key_is_id_invariant(seed, n):
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(n)]
    tree = random_mixed_tree(names, rng)
    # Rebuild on a different arena layout: random insertion order via copy
    # plus churn (allocate and free junk ids to leave free slots).
    other = tree.copy()
    junk = [add_node(other) for _ in range(rng.randint(1, 5))]
    for u in junk:
        free_node(other, u)
    rebuilt = parse_newick(tree.write_newick())
    assert rebuilt.canonical_key() == tree.canonical_key() == other.canonical_key()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_newick_round_trip_is_exact(seed, n):
    rng = random.Random(seed)
    tree = random_mixed_tree([f"s{i}" for i in range(n)], rng)
    text = tree.write_newick()
    again = parse_newick(text)
    assert again.write_newick() == text
    assert again.canonical_key() == tree.canonical_key()


def test_quoted_names_round_trip():
    ugly = ["has space", "pa,ren", "qu'ote", "(open", "semi;colon", "tab\tname",
            "cr\rname", "new\nline", "co:lon", "br[ack]et", "close)"]
    tree = random_mixed_tree(ugly, random.Random(1))
    again = parse_newick(tree.write_newick())
    assert live_labels(again) == sorted(ugly)
    assert again.canonical_key() == tree.canonical_key()


def test_deep_caterpillar_round_trips():
    # Nesting 2,500 deep, past the interpreter's recursion limit.
    text = "x0"
    for i in range(1, 2500):
        text = f"({text},x{i})"
    tree = parse_newick(text + ";")
    assert tree.num_nodes == 4999 and tree.n_labelled == 2500
    key = tree.canonical_key()
    again = parse_newick(key.as_text())
    assert again.canonical_key() == key
    assert snapshot(again) == snapshot(tree)


def test_parse_rejects_malformed():
    for bad, message, position in [
        ("(a,b;", "expected ',' or ')'", 4),                        # unbalanced
        ("(a,b):1;", "branch lengths are not supported", 5),
        ("(a:0.1,b);", "branch lengths are not supported", 2),
        ("(a,a);", "species 'a' appears twice", 3),
        ("(a,'b);", "unterminated quoted name", 3),
        ("(a,b); junk", "trailing characters after ';'", 7),
        ("(a,());", "expected a node, found ')'", 4),               # empty group
        ("(a);", "tree contains an unlabelled leaf", 0),
        ("(a,b);(c,d);", "trailing characters after ';'", 6),      # second tree
        ("", "unexpected end of input", 0),
        (";", "expected a node, found ';'", 0),                     # no nodes
        ("'a''", "unterminated quoted name", 0),                    # '' is a quote
        ("((a,b)a,c);", "species 'a' appears twice", 1),            # at its "("
        ("(a,b)c :1;", "branch lengths are not supported", 7),      # after a blank
        ("(a,b)[c];", "expected ';'", 5),                           # no comments
        ("(a,b)'c", "unterminated quoted name", 5),                 # group's name
    ]:
        with pytest.raises(NewickParseError) as caught:
            parse_newick(bad)
        assert str(caught.value) == f"{message} (at position {position})", bad
        assert caught.value.position == position, bad


def test_blanks_and_quoted_names_round_trip():
    # Blanks around every token are skipped; '' in a quoted name is one
    # quote, and '' alone is the empty name.
    assert parse_newick(" ( 'x y' , b ) ; ").write_newick() == "('x y',b);"
    text = "('a''b',c)'';"
    tree = parse_newick(text)
    assert live_labels(tree) == ["", "a'b", "c"]
    assert tree.write_newick() == text


def test_canonical_key_is_an_immutable_value_ordered_as_its_text():
    # One tree written three ways: other child orders, another root.
    same = [parse_newick(t).canonical_key()
            for t in ("((a,b)x,c,é);", "(é,c,(b,a)x);", "(a,b,(c,é))x;")]
    assert same[0] == same[1] == same[2]
    assert len({hash(k) for k in same}) == 1
    # UTF-8 bytes sort as code points do, past ASCII and past the BMP.
    keys = [parse_newick(f"(a,b,{name});").canonical_key()
            for name in ("z", "é", "Z", "～", "\U0001f600", "a2")]
    assert [k.as_text() for k in sorted(keys)] == sorted(k.as_text() for k in keys)
    key = same[0]
    with pytest.raises(AttributeError):
        key.data = b"(a,b);"
    assert repr(key) == "CanonicalKey('((a,b)x,c,é);')"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(key, protocol))
        assert type(back) is type(key)
        assert back == key and hash(back) == hash(key) and repr(back) == repr(key)


def test_canonical_texts_of_the_peel_edge_cases():
    # A path of four has two centres, b and c; the key is the smaller
    # rooting, at c, whichever centre the peel lists first.
    for text in ("(((a)b)c)d;", "(((d)c)b)a;"):
        assert parse_newick(text).write_newick() == "((a)b,d)c;", text
    # One node, and two nodes (two centres, no peel).
    assert parse_newick("a;").write_newick() == "a;"
    assert parse_newick("(a)b;").write_newick() == "(a)b;"
    assert parse_newick("(b)a;").write_newick() == "(a)b;"


def test_free_slots_key_as_the_compact_rebuild():
    # Growth then undo leaves freed slots 6 and 7 between live nodes.
    tree = parse_newick("((a,b)x,c,d);")
    token = tree.grow_rule_1(next(iter(tree.iter_edges())), "z")
    tree.grow_rule_3(tree.species_node("c"), "e")
    tree.undo_growth(token)
    assert [u for u, at in enumerate(tree.adj) if at is None] == [6, 7]
    assert len(tree.adj) == 9
    compact = parse_newick("((a,b)x,(e)c,d);")
    assert tree.canonical_key() == compact.canonical_key()
    assert tree.write_newick() == "((a,b)x,(e)c,d);"
    # A dead slot from the arrays of a scored tree.
    star = MixedTree.from_arrays(
        [-1, 0, -1, 0, 0], [[1, 3, 4], [], None, [], []], [None, "a", None, "b", "c"]
    )
    assert star.adj[2] is None and star.num_nodes == 4
    assert star.canonical_key() == parse_newick("(a,b,c);").canonical_key()
    assert star.write_newick() == "(a,b,c);"


@pytest.mark.parametrize("parent, kids, label, error, match", [
    # A triangle: node 2 is listed under 0 and under 1.
    ([-1, 0, 1], [[1, 2], [2], [0]], list("abc"), TreeStructureError, "not a child"),
    ([-1, 0], [[1], []], [7, "a"], TreeStructureError, "not a str"),
    ([-1, 0], [[1], []], ["a", "a"], DuplicateLabelError, "labels two nodes"),
    ([-1, 0], [[1], []], ["a"], TreeStructureError, "length"),
    ([0, 0], [[1], []], ["a", "b"], TreeStructureError, "no live node has parent -1"),
    ([-1, -1], [[], []], ["a", "b"], TreeStructureError, "reached"),
    ([-1, 0, 0], [[1, 1], [], []], list("abc"), TreeStructureError, "not a child"),
    ([-1, 0], [[1, 2], []], ["a", "b"], TreeStructureError, "not a child"),
    ([-1, 0], [[1, -1], []], ["a", "b"], TreeStructureError, "not a child"),
    ([-1, 0, -1], [[1, 2], [], None], ["a", "b", None], TreeStructureError, "not a child"),
    # Nodes 2 and 3 point at each other, out of the root's reach.
    ([-1, 0, 3, 2], [[1], [], [3], [2]], list("abcd"), TreeStructureError, "reached"),
    ([-1, 0, -1], [[1], [], None], ["a", "b", "c"], TreeStructureError, "free slot"),
])
def test_from_arrays_refuses_arrays_that_are_not_one_tree(parent, kids, label, error, match):
    with pytest.raises(error, match=match):
        MixedTree.from_arrays(parent, kids, label)


def test_an_empty_tree_has_no_canonical_form():
    for call in (MixedTree().canonical_key, MixedTree().write_newick):
        with pytest.raises(EmptyTreeError, match="empty tree"):
            call()


def test_nodes_that_are_not_a_tree_have_no_canonical_form():
    # Arrays as from_arrays takes them: parent (-1 if none), children and
    # species.  from_arrays refuses each, so the arena is written directly.
    # Three isolated nodes never leave the peel, two would key as an
    # edge, and the forests key as one of their parts.
    for parent, kids in [
        ([-1, -1, -1], [[], [], []]),
        ([-1, -1], [[], []]),
        ([-1, 0, -1, 2], [[1], [], [3], []]),  # two disjoint edges
        ([-1, 0, 1, -1], [[1], [2], [], []]),  # a path and a lone node
        ([-1, 0, 1, -1, 3], [[1], [2], [], [4], []]),  # a path and an edge
        ([-1, 0, 1, -1], [[1, 2], [2], [0], []]),  # a triangle and a lone node
    ]:
        label = list("abcde"[: len(kids)])
        with pytest.raises(TreeStructureError, match="reached|child"):
            MixedTree.from_arrays(parent, kids, label)
        tree = MixedTree()
        tree.adj = [[p, *ks] if p >= 0 else list(ks) for p, ks in zip(parent, kids)]
        tree.label = label
        for call in (tree.canonical_key, tree.write_newick):
            with pytest.raises(TreeStructureError, match="not a tree|cycle"):
                call()


def test_parse_keeps_degree2_root():
    t = parse_newick("((a,b),(c,d));")
    degrees = sorted(len(t.adj[u]) for u in t.iter_nodes())
    assert degrees == [1, 1, 1, 1, 2, 3, 3]


def test_polytomy_and_internal_labels_parse():
    t = parse_newick("((a,b,c)d,e,f)g;")
    assert len(t.adj[t.species_node("g")]) == 3
    assert len(t.adj[t.species_node("d")]) == 4
    assert t.n_unlabelled == 0


def test_species_node_missing():
    t = MixedTree.single("a")
    with pytest.raises(TreeStructureError):
        t.species_node("nope")


def test_free_slots_are_refused():
    t = MixedTree.single("a")
    b = add_node(t, "b")
    free_node(t, b)
    assert t.adj[b] is None and t.num_nodes == 1
    with pytest.raises(TreeStructureError, match=f"no node {b}"):
        t.grow_rule_3(b, "c")
    assert t.num_nodes == 1
    assert t.grow_rule_3(t.species_node("a"), "c") == ("r3", 0, b) and t.num_nodes == 2


def test_a_new_node_takes_the_lowest_free_slot():
    t = parse_newick("(a,b,c);")
    extra = [add_node(t) for _ in range(3)]
    for u in (extra[2], extra[0], extra[1]):  # freed out of id order
        free_node(t, u)
    a = t.species_node("a")
    hub = t.adj[a][0]
    _, _, _, w, leaf = t.grow_rule_1((a, hub), "x")
    _, _, y = t.grow_rule_3(hub, "y")
    _, _, _, z = t.grow_rule_2((hub, y), "z")
    assert [w, leaf, y, z] == [4, 5, 6, 7]
    validate(t)


# Where each growth rule's undo token holds the ids of the nodes it adds.
NEW_IDS = {"r1": slice(3, 5), "r2": slice(3, 4), "r3": slice(2, 3), "r4": slice(0, 0)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), parsed=st.booleans())
def test_grow_and_undo_in_stack_order_reuse_ids_last_freed_first(seed, parsed):
    # The searches undo growth in reverse order, so the lowest free slot
    # is always the one freed last: the ids must match a model that keeps
    # freed ids on a stack.
    rng = random.Random(seed)
    if parsed:
        names = [f"s{i}" for i in range(rng.randint(1, 6))]
        tree = parse_newick(random_mixed_tree(names, rng).write_newick())
    else:
        tree = MixedTree.single("s0")
    end, freed = len(tree.adj), []
    tokens, taken = [], []  # per growth, its undo token and the model's ids

    def take():
        nonlocal end
        if freed:
            return freed.pop()
        end += 1
        return end - 1

    for step in range(40):
        if tokens and rng.random() < 0.4:
            tree.undo_growth(tokens.pop())
            freed.extend(reversed(taken.pop()))
            continue
        kind, site = rng.choice(growth_moves(tree, "mixed"))
        token = getattr(tree, f"grow_rule_{kind[1]}")(site, f"n{step}")
        got = list(token[NEW_IDS[kind]])
        want = [take() for _ in got]
        assert got == want, (kind, token)
        tokens.append(token)
        taken.append(want)
        validate(tree)


def _model_grow(m, kind, site, name):
    """Growth rule ``kind`` on model tree m from the plain edge edits."""
    if kind == "r4":
        m.label[site] = name
        return ("r4", site)
    if kind == "r3":
        leaf = add_node(m, name)
        add_edge(m, site, leaf)
        return ("r3", site, leaf)
    u, v = site
    w = add_node(m, None if kind == "r1" else name)
    remove_edge(m, u, v)
    add_edge(m, u, w)
    add_edge(m, w, v)
    if kind == "r2":
        return ("r2", u, v, w)
    leaf = add_node(m, name)
    add_edge(m, w, leaf)
    return ("r1", u, v, w, leaf)


def _model_undo(m, token):
    if token[0] == "r4":
        m.label[token[1]] = None
        return
    if token[0] == "r3":
        _, node, leaf = token
        remove_edge(m, node, leaf)
        free_node(m, leaf)
        return
    u, v, w = token[1:4]
    if token[0] == "r1":
        remove_edge(m, w, token[4])
        free_node(m, token[4])
    remove_edge(m, u, w)
    remove_edge(m, w, v)
    add_edge(m, u, v)
    free_node(m, w)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_growth_leaves_the_arena_as_the_plain_edge_edits_do(seed):
    # Every id and every adjacency order decides a search's move lists.
    # Nested growths and requeues reorder a node's list between a growth
    # and its undo, so the undo must re-append the edge, not put it back
    # where the new node was.
    rng = random.Random(seed)
    tree = parse_newick(random_mixed_tree(["s0", "s1", "s2"], rng).write_newick())
    model = tree.copy()
    tokens, tokens_m = [], []
    for step in range(40):
        roll = rng.random()
        if tokens and roll < 0.35:
            tree.undo_growth(tokens.pop())
            _model_undo(model, tokens_m.pop())
        elif roll < 0.5:
            u, v = rng.choice(tree.iter_edges())
            tree.requeue_edge(u, v)
            remove_edge(model, u, v)
            add_edge(model, u, v)
        else:
            kind, site = rng.choice(growth_moves(tree, "mixed"))
            tokens.append(getattr(tree, f"grow_rule_{kind[1]}")(site, f"n{step}"))
            tokens_m.append(_model_grow(model, kind, site, f"n{step}"))
        assert (tree.adj, tree.label) == (model.adj, model.label), step


def test_growth_rules_refuse_a_name_that_is_not_a_str():
    # None would build an unlabelled leaf (rule 3) or count as a label
    # (rule 4); the refusal comes before the tree changes.
    t = parse_newick("((a,b),c,d);")
    a = t.species_node("a")
    hub = t.adj[a][0]
    before = (repr(t.adj), list(t.label))
    for rule, site in [
        (t.grow_rule_1, (a, hub)),
        (t.grow_rule_2, (a, hub)),
        (t.grow_rule_3, a),
        (t.grow_rule_4, hub),
    ]:
        for bad in (None, 7):
            with pytest.raises(TreeStructureError, match="is not a str"):
                rule(site, bad)
            assert (repr(t.adj), list(t.label)) == before
    for bad in (None, 7):
        with pytest.raises(TreeStructureError, match="is not a str"):
            MixedTree.single(bad)
    free_node(t, add_node(t))  # a free slot and unlabelled nodes hold None
    for missing in (None, "e"):
        with pytest.raises(TreeStructureError, match="not in tree"):
            t.species_node(missing)
    assert (t.n_labelled, t.n_unlabelled) == (4, 2)
    assert t.write_newick() == parse_newick("((a,b),c,d);").write_newick()


def test_edge_primitives_refuse_a_free_slot_before_changing_anything():
    t = MixedTree.single("a")
    a = t.species_node("a")
    t.grow_rule_3(a, "b")
    b = t.species_node("b")
    c = add_node(t, "c")
    free_node(t, c)
    before = (repr(t.adj), list(t.label), t.num_nodes)
    with pytest.raises(TreeStructureError, match=f"no node {c}"):
        t.hang(c)
    for u, v in ((a, c), (c, a)):
        for rule in (t.grow_rule_1, t.grow_rule_2):
            with pytest.raises(TreeStructureError, match=f"no edge \\({u}, {v}\\)"):
                rule((u, v), "d")
            assert (repr(t.adj), list(t.label), t.num_nodes) == before
    for rule in (t.grow_rule_3, t.grow_rule_4):
        with pytest.raises(TreeStructureError, match=f"no node {c}"):
            rule(c, "d")
        assert (repr(t.adj), list(t.label), t.num_nodes) == before
    assert t.adj[a] == [b] and t.adj[b] == [a]


def test_ids_outside_the_arena_are_refused_before_changing_anything():
    # A negative id would read from the end of the arena, and one past it
    # would raise a bare IndexError; both are no node.
    t = parse_newick("(a,b);")
    a = t.species_node("a")

    def state():
        return (repr(t.adj), list(t.label))

    before = state()
    for bad in (-1, len(t.adj)):
        for name, args in [
            ("grow_rule_1", ((a, bad), "c")),
            ("grow_rule_1", ((bad, a), "c")),
            ("grow_rule_2", ((a, bad), "c")),
            ("grow_rule_2", ((bad, a), "c")),
            ("grow_rule_3", (bad, "c")),
            ("grow_rule_4", (bad, "c")),
            ("hang", (bad,)),
        ]:
            with pytest.raises(TreeStructureError):
                getattr(t, name)(*args)
            assert state() == before, (name, args)
    assert t.write_newick() == parse_newick("(a,b);").write_newick()
