"""The end-to-end experimental flow (paper Figs. 3 and 4).

Since the staged-pipeline refactor the flow is a composition of
content-addressed stages; see :mod:`repro.pipeline` for the stage and
artifact-store machinery.
"""

from repro.flow.experiment import (
    FlowSettings,
    profile_and_select,
    run_experiment,
)
from repro.flow.sweep import SweepRunner

__all__ = [
    "FlowSettings",
    "profile_and_select",
    "run_experiment",
    "SweepRunner",
]
