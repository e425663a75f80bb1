"""Benchmark harness for swnet: workloads, tracer, correctness gate, metrics."""
