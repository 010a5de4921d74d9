"""Staged experiment pipeline with content-addressed artifact caching."""

from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.manifest import RunManifest
from repro.pipeline.stages import (
    ExperimentPipeline,
    PAPER_COUNTERPART,
    STAGE_ORDER,
    WORKLOAD_STAGES,
)

__all__ = [
    "ArtifactStore",
    "ExperimentPipeline",
    "PAPER_COUNTERPART",
    "RunManifest",
    "STAGE_ORDER",
    "WORKLOAD_STAGES",
]
