"""Benchmark of the repro simulator: see README.md in this directory."""
