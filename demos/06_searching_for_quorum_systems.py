"""Let the search pick the quorum system too.

Everything so far optimized a strategy for a hand-chosen system. The
search instead sweeps every quorum system whose read quorums can be written
as a duplicate-free expression (or/and/choose, each node appearing once),
simplest shapes first, and keeps the best feasible one. With four nodes
that space has 74 distinct systems, so the sweep is instant.
"""

from quorumopt import Constraints, Node, SearchOptions, enumerate_candidates, search

nodes = [
    Node("a", write_cap=100, read_cap=200, latency=4),
    Node("b", write_cap=100, read_cap=200, latency=4),
    Node("c", write_cap=50, read_cap=100, latency=1),
    Node("d", write_cap=50, read_cap=100, latency=1),
]

print("first candidates:", [str(e) for e in enumerate_candidates("abcd")][:6])

result = search(
    nodes,
    1,
    SearchOptions(
        objective="latency",
        constraints=Constraints(capacity_limit=150, network_limit=2),
    ),
)
print("winner:", result.strategy.qs)
# reads=a + b + c + d, writes=a*b*c*d: single-node reads are unbeatable on
# latency, and the write side only has to keep up with 0% of the traffic
# here (the workload is all reads).
print("latency:", float(result.metric_value), "s")              # 1.0
print("capacity:", float(result.strategy.capacity(1)))          # >= 150
print("candidates examined:", result.candidates_examined)
