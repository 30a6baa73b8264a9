"""Optimizing latency under capacity and network constraints.

Each node carries a latency; the latency of a quorum is the time for its
fastest sub-quorum to respond. A strategy's latency and network load (how
many nodes each operation contacts) are both linear in the selection
probabilities, so they can serve as objectives or as constraints.

Here the slow pair {a, b} is the high-capacity one, so pure latency
optimization would starve capacity. Asking for the latency optimum subject
to capacity >= 150 and network load <= 2 lands on a mix: the fast quorum
{c, d} two thirds of the time, the slow one a third.
"""

from quorumopt import Constraints, Node, QuorumSystem, find_strategy

nodes = [
    Node("a", write_cap=100, read_cap=200, latency=4),
    Node("b", write_cap=100, read_cap=200, latency=4),
    Node("c", write_cap=50, read_cap=100, latency=1),
    Node("d", write_cap=50, read_cap=100, latency=1),
]
grid = QuorumSystem(nodes, reads="a*b + c*d")

sigma = find_strategy(
    grid, 1, "latency", Constraints(capacity_limit=150, network_limit=2)
)
print("latency:     ", float(sigma.latency(1)), "s")   # 2.0
print("capacity:    ", float(sigma.capacity(1)))       # 150
print("network load:", float(sigma.network_load(1)))   # 2
for quorum, prob in sigma.dist("read"):
    print(f"  read {sorted(quorum)}  {float(prob):.3f}")
