"""Seeded end-to-end benchmark of the ridecloak service over TCP.

Run it from the repository root:

    python3 ridebench/run.py --workload direct-crowd --seed 1 --seconds 12 --trace 0

See ridebench/README.md for the workloads, the metrics and the trace.
"""
