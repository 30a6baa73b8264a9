"""Workloads that shift between read-heavy and write-heavy.

Instead of a single read fraction, give a probability distribution over
read fractions. The optimizer then finds one strategy that does best in
expectation across the whole distribution, which is the right thing when
the mix drifts and you cannot re-deploy a strategy every hour.
"""

from quorumopt import Node, QuorumSystem, Workload, capacity_curve, find_strategy

nodes = [
    Node("a", write_cap=100, read_cap=200),
    Node("b", write_cap=100, read_cap=200),
    Node("c", write_cap=50, read_cap=100),
    Node("d", write_cap=50, read_cap=100),
]
grid = QuorumSystem(nodes, reads="a*c + b*d")

# Mostly writes: 0% reads 10/18 of the time, 25% reads 4/18, and so on.
workload = Workload({
    "0.00": "10/18",
    "0.25": "4/18",
    "0.50": "2/18",
    "0.75": "1/18",
    "1.00": "1/18",
})

sigma = find_strategy(grid, workload)
print("expected capacity:", round(float(sigma.capacity(workload))))  # 159

# Compare this single strategy against re-optimizing for each fraction.
# The fixed strategy gives up a little at every individual fraction but is
# the best compromise across the distribution.
points = [i / 10 for i in range(11)]
print("fr    fixed   per-point optimum")
for fr, cap_best in capacity_curve(grid, points):
    print(f"{float(fr):.1f}  {float(sigma.capacity(fr)):7.1f}  {float(cap_best):7.1f}")
