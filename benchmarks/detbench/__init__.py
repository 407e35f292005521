"""Seeded workloads, spans and reference checks for benchmarks/run.py."""
