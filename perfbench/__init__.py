"""The repository benchmark: three sweep workloads and a traced run.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed
N --seconds S --trace 0|1`` from the repository root; see ``run.py``.
"""
