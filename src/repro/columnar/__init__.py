"""Removed: plans run on the row path only. The two submodules are
empty anchors that benchmarks/suite/tracing.py still patches."""
