"""Benchmark for qkdlink: see README.md in this directory."""
