"""Benchmark harness for qlinesearch: seeded workloads, end-to-end metrics and
a traced run that times each library layer.  Entry point: ``perfbench/run.py``.
"""
