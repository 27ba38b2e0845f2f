"""
Shrinking optimal trees by contracting free edges
=================================================

An edge whose endpoints share a possible state in every character (in
some optimal fit) can be collapsed without changing the tree's cost;
every other contraction strictly raises it.  Repeatedly collapsing such
edges in every possible order, starting from each optimal cubic tree,
reaches exactly the most compact mixed optima without ever searching
the mixed space.
"""

from parsicompact import (
    MixedTree,
    Scorer,
    contract_and_update,
    enumerate_cubic,
    evolved_matrix,
    most_compact_pipeline,
    zero_min_cost_edges,
)

matrix = evolved_matrix(6, 8, 4, seed=11)

# Start from one optimal cubic tree and walk a single contraction chain.
cubic = enumerate_cubic(matrix)
key = min(cubic.incumbents)
# A state is the tree's scoring: its sets and shape, hung from one root.
state = Scorer(matrix).score(cubic.incumbents[key])
print("start:", cubic.incumbents[key].write_newick(), "cost", state.mp_cost)
# Each step also derives the child's contractible edges from the parent's.
free = zero_min_cost_edges(state)
while free:
    state, free = contract_and_update(state, free[0], free)
    tree = MixedTree.from_arrays(state.parent, state.kids, state.label)
    print("  ->", tree.write_newick(),
          f"({tree.num_nodes} nodes, cost {state.mp_cost})")

# One chain finds one compact tree.  The full pipeline branches over
# every contractible edge at every step and every optimal cubic start,
# memoizing states reached more than once.
result = most_compact_pipeline(matrix)
print("\nall most compact optima:", result.dedup_count,
      "trees with", result.best_node_count, "nodes at cost", result.mp_cost)
for key in result.trees:
    print("  ", key.as_text())
print("explored", result.explored_states, "distinct states via",
      result.contractions, "contractions from", result.sources, "cubic optima")
