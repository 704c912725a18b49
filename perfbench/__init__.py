"""Benchmark for gtokit; see README.md in this directory."""
