"""Benchmark for the ABAE reproduction: query latency, Monte-Carlo trial
throughput and per-layer traces. Entry point: ``perfbench/run.py``."""
