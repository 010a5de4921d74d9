"""Profiling: basic-block discovery and BBV collection (gem5 analogue)."""
