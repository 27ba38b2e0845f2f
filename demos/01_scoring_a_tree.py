"""
Scoring a tree where ancestors can be species too
==================================================

A character matrix assigns each species one state per character.  The
parsimony cost of a tree is the fewest state changes along edges needed
to explain the data, minimized over all states of the unlabelled nodes.
Species may sit on internal nodes, not just leaves.
"""

from parsicompact import CharacterMatrix, Scorer, parse_newick, unpack_sets

# Four species, one binary character, interleaved so that grouping the
# A's together or the B's together always costs two changes.
matrix = CharacterMatrix.from_rows(
    [("A1", "A"), ("A2", "A"), ("B1", "B"), ("B2", "B")]
)

# A caterpillar tree written in plain Newick.  Unlabelled internal nodes
# are just "(...)" groups without a name.
tree = parse_newick("(((A1,B1),A2),B2);")
scorer = Scorer(matrix)
result = scorer.score(tree)
print("cost of the caterpillar:", result.mp_cost)

# The same four species with A2 placed on an internal node: one fewer
# node, same cost.  Trees like this are produced by edge contraction.
live = parse_newick("((A1,B1)A2,B2);")
print("cost with A2 ancestral:", scorer.score(live).mp_cost)

# Each node carries three state sets per character.  VU holds the states
# an optimal fit can use when the node is viewed as the root, VV holds
# every state that appears in at least one optimal fit over the whole
# tree.  VV can be strictly larger than VU, which is what makes naive
# local reasoning about contractions dangerous.
symbols = matrix.alphabets[0]
for node in sorted(tree.iter_nodes()):
    vv = unpack_sets(matrix, result.vv[node])[0]
    name = tree.label[node] or f"node{node}"
    print(f"{name:>6}  VV={sorted(symbols[s] for s in vv)}")

# A concrete optimal assignment of states to every node.  Its recounted
# cost always equals the reported minimum.
fit = result.extract_fit()
print("one optimal fit:", {k: symbols[v[0]] for k, v in sorted(fit.states.items())})
print("fit cost:", fit.total_cost)
