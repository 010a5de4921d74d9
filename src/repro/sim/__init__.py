"""Functional simulation: memory, architectural state, executor, syscalls."""
