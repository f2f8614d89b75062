"""Benchmark of the indom command line; run.py is the entry point."""
