"""The explanation service: resident sessions behind an async NDJSON server.

ROADMAP's server mode: ``repro serve`` keeps named
:class:`~repro.core.api.ExplanationSession` instances resident — database
loaded once, lineage cache and memoized explanations warm — and serves
concurrent ``explain`` / ``explain-batch`` / ``whyno`` / ``delta``
requests over newline-delimited JSON on a local socket.  See
:mod:`repro.server.app` for the request lifecycle,
:mod:`repro.server.protocol` for the frame format,
:mod:`repro.server.registry` for the concurrency design (one worker
thread + one epoch counter per session) and
:mod:`repro.server.admission` for the load-shedding knobs.

The package depends only on :mod:`repro.core.api` and the relational seam
(``database_from_dict`` / ``parse_query`` / ``DatabaseDelta``); the lint
rule ``backend-seam`` enforces that boundary.
"""

from __future__ import annotations

from .admission import AdmissionGate, AdmissionPolicy
from .app import ExplanationServer
from .client import ServeClient
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    explanation_to_wire,
    explanations_to_wire,
    responsibility_from_wire,
    responsibility_to_wire,
)
from .registry import ServerSession, SessionConfig, SessionRegistry
from .testing import ServerHarness, running_server

__all__ = [
    "AdmissionGate",
    "AdmissionPolicy",
    "ExplanationServer",
    "MAX_FRAME_BYTES",
    "ServeClient",
    "ServerHarness",
    "ServerSession",
    "SessionConfig",
    "SessionRegistry",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "explanation_to_wire",
    "explanations_to_wire",
    "responsibility_from_wire",
    "responsibility_to_wire",
    "running_server",
]
