"""Architectural checkpointing at SimPoint boundaries (Spike analogue)."""

from repro.checkpoint.checkpoint import Checkpoint

__all__ = ["Checkpoint"]
