"""Benchmark for apil-lab: end-to-end workloads plus a traced per-layer run.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
