"""End-to-end capacity planning for a five-node cluster.

The cluster mixes fast and slow machines and near and far ones, and the
workload hovers around half reads with some drift. We start from the
deployed baseline (majority quorums, uniform strategy), compare a few
hand-built systems, let the search do better, and finally re-plan for
latency once a downstream bottleneck caps useful throughput at 2,000
commands/s.
"""

from quorumopt import (
    Constraints,
    Node,
    QuorumSystem,
    SearchOptions,
    Workload,
    find_strategy,
    search,
    throughput_breakdown,
    uniform_strategy,
)

nodes = [
    Node("a", write_cap=2000, read_cap=4000, latency=1),
    Node("b", write_cap=1000, read_cap=2000, latency=1),
    Node("c", write_cap=2000, read_cap=4000, latency=3),
    Node("d", write_cap=1000, read_cap=2000, latency=4),
    Node("e", write_cap=2000, read_cap=4000, latency=5),
]
workload = Workload.from_weights({
    "0.9": 10, "0.8": 20, "0.7": 100, "0.6": 100, "0.5": 100,
    "0.4": 60, "0.3": 30, "0.2": 30, "0.1": 20,
})

maj = QuorumSystem(nodes, reads="majority([a, b, c, d, e])")
grid = QuorumSystem(nodes, reads="a*b + c*d*e")
paths = QuorumSystem(nodes, reads="a*b + a*c*e + d*e + d*c*b")

print("deployed baseline (uniform majority):",
      round(float(uniform_strategy(maj).capacity(workload))))  # 2292

print("\noptimized strategies:")
for name, qs in [("majority", maj), ("grid", grid), ("paths", paths)]:
    sigma = find_strategy(qs, workload)
    print(f"  {name:9s} capacity {round(float(sigma.capacity(workload)))}")
# 3667 / 4200 / 4125: the theoretically elegant paths system loses to the
# plain grid once node speeds and the real read mix enter the picture.

result = search(nodes, workload, SearchOptions(min_fault_tolerance=1))
print("\nsearched system:", result.strategy.qs)
print("capacity:", round(float(result.metric_value)),
      f"({result.candidates_examined} candidates)")  # ~5005

# Where does the work land? Per-node, per-quorum throughput at the peak
# sustainable rate; higher-capacity nodes carry visibly more.
print("\nper-node throughput (ops/s):")
totals = {}
for node, side, quorum, thr in throughput_breakdown(result.strategy, workload):
    totals[node] = totals.get(node, 0) + float(thr)
for node, total in sorted(totals.items()):
    print(f"  {node}: {total:8.1f}")

# Months later throughput above 2,000/s is wasted, so re-plan for latency.
print("\nlatency with capacity >= 2000:")
limit = Constraints(capacity_limit=2000)
for name, qs in [("majority", maj), ("grid", grid), ("paths", paths)]:
    sigma = find_strategy(qs, workload, "latency", limit)
    print(f"  {name:9s} {float(sigma.latency(workload)):.2f} s")
# 3.24 / 1.95 / 2.43
result = search(nodes, workload, SearchOptions(objective="latency", constraints=limit))
print("searched :", f"{float(result.metric_value):.2f} s", "-", result.strategy.qs)
