"""The repository benchmark: seeded workloads over the public entry points.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`perfbench.workloads`) and
prints its metrics; ``--workload all`` runs every workload, each in its
own process, traced and untraced. :mod:`perfbench.tracing` wraps each
layer's entry points from the outside for the traced run.
"""
