"""Benchmark of the khabcheck package; see run.py and README.md."""
