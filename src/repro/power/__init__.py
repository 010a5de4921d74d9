"""Structural RTL-style power estimation (Cadence Joules analogue)."""
