"""Nodes with different speeds.

Real clusters mix machine generations: here a and b each sustain 100
writes/s (200 reads/s) while c and d only manage half that. Capacity is
then actual throughput, not an abstract probability, and the optimizer
routes proportionally more traffic to the faster pair.
"""

from quorumopt import Node, QuorumSystem, find_strategy

nodes = [
    Node("a", write_cap=100, read_cap=200),
    Node("b", write_cap=100, read_cap=200),
    Node("c", write_cap=50, read_cap=100),
    Node("d", write_cap=50, read_cap=100),
]
grid = QuorumSystem(nodes, reads="a*b + c*d")

for read_fraction in (1, 0.5, 0):
    sigma = find_strategy(grid, read_fraction)
    print(f"read fraction {read_fraction}: capacity {float(sigma.capacity(read_fraction)):.0f}")
# 300 at all-reads (the {a,b} quorum is picked twice as often as {c,d}),
# 200 at half reads, 100 at all-writes.

sigma = find_strategy(grid, 1)
print("read distribution at 100% reads:")
for quorum, prob in sigma.dist("read"):
    print(f"  {sorted(quorum)}  {float(prob):.3f}")
