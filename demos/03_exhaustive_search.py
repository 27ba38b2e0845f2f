"""
Exhaustive search with a cost bound
===================================

Trees are grown one species at a time by four rules: subdivide an edge
and hang a new leaf, subdivide an edge with the new species itself,
attach a leaf to an existing node, or write the species onto an
unlabelled node.  Every mixed tree is generated exactly once, and cost
never decreases as a tree grows, so partial trees dearer than the best
complete tree found so far can be discarded wholesale.
"""

from parsicompact import enumerate_cubic, enumerate_mixed, evolved_matrix

# A synthetic alignment: six species mutated along a random genealogy,
# eight characters over up to four states.
matrix = evolved_matrix(6, 8, 4, seed=11)
for name, seq in matrix.rows():
    print(name, seq)

# Search only cubic topologies first (all species at leaves, internal
# nodes of degree three), the classic setting.
cubic = enumerate_cubic(matrix)
print("\ncubic optimum:", cubic.incumbent_cost,
      "over", len(cubic.incumbents), "trees,",
      cubic.visited, "states visited,", cubic.pruned, "pruned")

# Now the full mixed space.  Same optimal cost here, but the most
# compact optima use fewer nodes by writing species onto ancestors.
mixed = enumerate_mixed(matrix)
print("mixed optimum:", mixed.incumbent_cost,
      "over", len(mixed.incumbents), "trees,",
      mixed.visited, "states visited")
print("most compact, with", mixed.min_nodes, "nodes:")
for key in sorted(mixed.most_compact):
    print("  ", key.as_text())

# The bound removes most of the space but keeps every optimum: rerun
# without pruning and compare.
full = enumerate_mixed(matrix, no_prune=True)
assert set(full.incumbents) == set(mixed.incumbents)
print("\nwithout pruning:", full.visited, "states visited "
      f"({full.visited / mixed.visited:.0f}x more work, same answer)")
