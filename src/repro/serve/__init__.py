"""Sweep-as-a-service: a job server over the content-addressed pipeline.

``repro-cli serve`` runs a long-lived asyncio daemon that accepts
sweep/DSE job submissions from many concurrent clients over a local
HTTP/JSON endpoint.  Identical requests collapse to one compute — a
canonical request hash keys the in-process job table, and the
underlying stage artifacts deduplicate further through the
``ArtifactStore`` + ``WorkClaims`` lease arbitration — so N clients
asking for the same study cost one sweep and N byte-identical result
bodies.  See DESIGN.md §14 and docs/serve.md.
"""

from repro.serve.client import ServeClient
from repro.serve.loadgen import run_load
from repro.serve.quotas import ClientQuotas

__all__ = [
    "ClientQuotas",
    "ServeClient",
    "run_load",
]
