"""Benchmark of the tmpnn library and CLI; see run.py."""
