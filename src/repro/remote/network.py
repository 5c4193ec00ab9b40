"""The simulated workstation–server communication link.

The paper's cost model (Section 3) makes "volume of communication between
the workstation and the remote system" a first-class cost.  The prototype
ran over Ethernet to an INGRES server or an IDM-500 database machine; this
reproduction substitutes a deterministic link model: each request pays a
fixed round-trip latency, and each shipped tuple pays a transfer cost.

All charges go to the shared :class:`~repro.common.clock.SimClock` under the
track name ``"remote"`` so that, inside a parallel region opened by the
Execution Monitor, remote time overlaps with local cache work (Section
5.3.3's parallel subquery execution).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import CostProfile, SimClock
from repro.common.metrics import (
    REMOTE_BINDINGS_SHIPPED,
    REMOTE_REQUESTS,
    REMOTE_SERVER_TUPLES,
    REMOTE_TUPLES,
    Metrics,
)

#: Clock track used for all remote-side work.
REMOTE_TRACK = "remote"


@dataclass
class NetworkModel:
    """Charges communication and server costs for remote requests."""

    clock: SimClock
    profile: CostProfile
    metrics: Metrics
    #: Cumulative remote-side seconds ever charged through this model.
    #: Monotone even inside parallel regions (where ``clock.now`` is
    #: frozen), so clients can meter per-request timeouts against it.
    charged_seconds: float = 0.0
    #: Clock track this link charges to.  A federated backend uses
    #: ``remote.<name>`` so the per-backend share of remote time (half-open
    #: probes included) is attributable inside parallel regions.
    track: str = REMOTE_TRACK

    def _charge(self, seconds: float) -> None:
        self.charged_seconds += seconds
        self.clock.charge(self.track, seconds)

    def charge_request(self) -> None:
        """One round trip: pay latency, count the request."""
        self.metrics.incr(REMOTE_REQUESTS)
        self._charge(self.profile.remote_latency)

    def charge_server_work(self, tuples_touched: int) -> None:
        """Server-side execution cost for a request."""
        if tuples_touched < 0:
            raise ValueError("tuples_touched must be non-negative")
        self.metrics.incr(REMOTE_SERVER_TUPLES, tuples_touched)
        self._charge(self.profile.server_per_tuple * tuples_touched)

    def charge_transfer(self, tuples_shipped: int) -> None:
        """Wire cost of shipping result tuples to the workstation."""
        if tuples_shipped < 0:
            raise ValueError("tuples_shipped must be non-negative")
        self.metrics.incr(REMOTE_TUPLES, tuples_shipped)
        self._charge(self.profile.transfer_per_tuple * tuples_shipped)

    def charge_uplink(self, values_shipped: int) -> None:
        """Wire cost of shipping binding values *to* the server (the
        semijoin IN-list).  Charged so a semijoin reduction only ever wins
        when the bindings really are cheaper than the unreduced result."""
        if values_shipped < 0:
            raise ValueError("values_shipped must be non-negative")
        if values_shipped:
            self.metrics.incr(REMOTE_BINDINGS_SHIPPED, values_shipped)
            self._charge(self.profile.uplink_per_value * values_shipped)

    def charge_stall(self, seconds: float) -> None:
        """An injected latency spike: dead time on the wire."""
        if seconds < 0:
            raise ValueError("stall seconds must be non-negative")
        self._charge(seconds)

    def charge_backoff(self, seconds: float) -> None:
        """Client-side wait between retries (still remote-track time: the
        workstation is free to do parallel cache work meanwhile)."""
        if seconds < 0:
            raise ValueError("backoff seconds must be non-negative")
        self._charge(seconds)
