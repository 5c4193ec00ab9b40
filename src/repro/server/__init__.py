"""The multi-session BrAID server.

Turns the paper's single-IE CMS into a shared bridge serving many named
IE sessions over one cache: session management (per-session advice and
metrics), admission control (bounded queue, backpressure), and
deterministic cooperative scheduling (round-robin and weighted-fair) on
the simulated clock.  See ``docs/server.md``.
"""

from repro.server.admission import AdmissionController
from repro.server.braid_server import BraidServer, ServerConfig, StepRecord
from repro.server.scheduler import (
    POLICIES,
    RoundRobinPolicy,
    WeightedFairPolicy,
)
from repro.server.session import Request, Session, SessionManager

__all__ = [
    "AdmissionController",
    "BraidServer",
    "POLICIES",
    "Request",
    "RoundRobinPolicy",
    "ServerConfig",
    "Session",
    "SessionManager",
    "StepRecord",
    "WeightedFairPolicy",
]
