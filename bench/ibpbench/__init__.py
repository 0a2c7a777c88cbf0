"""Workloads, harness and tracing for bench/run.py."""
