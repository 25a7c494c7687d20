"""The repository benchmark: replay, sweep and serve workloads.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics as the last line
of standard output.  See ``perfbench/README.md`` for the workloads, the
metrics and the layer map.
"""
