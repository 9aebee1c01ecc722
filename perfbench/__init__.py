"""The repository benchmark: four simulator workloads, end to end and per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; see ``perfbench/README.md`` for the workloads and metrics.
"""
