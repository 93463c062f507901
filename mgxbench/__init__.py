"""Benchmark harness for the MGX reproduction (see run.py)."""
