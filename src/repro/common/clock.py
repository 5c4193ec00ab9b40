"""Deterministic simulated time for cost accounting.

BrAID's design is driven by a three-way cost model (Section 3 of the paper):
the volume of communication between the workstation and the remote system,
the computational demands on the database server, and the computation done
by the workstation.  A wall clock cannot separate those contributions and is
not reproducible, so every component in this reproduction charges its costs
to a :class:`SimClock` instead.

The clock supports *parallel tracks* so the Execution Monitor can model the
paper's parallel execution of cache-side and remote-side subqueries
(Section 5.3.3): work charged on concurrent tracks advances simulated time
by the maximum, not the sum, of the track durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CostProfile:
    """Unit costs, in abstract simulated seconds.

    The defaults model a late-1980s workstation/Ethernet/server setup in
    relative terms: a remote round trip costs orders of magnitude more than
    touching a tuple locally, and shipping a tuple over the wire costs more
    than reading it from main memory.
    """

    #: Fixed cost of one request/response round trip to the remote DBMS.
    remote_latency: float = 50e-3
    #: Cost of shipping one tuple from the remote DBMS to the workstation.
    transfer_per_tuple: float = 0.5e-3
    #: Cost of shipping one binding value *to* the remote DBMS (semijoin
    #: IN-lists).  Cheaper than a result tuple — a binding is one value,
    #: not a whole row — but charged so semijoin reduction stays honest.
    uplink_per_value: float = 0.1e-3
    #: Server-side cost of touching one tuple while executing a DML request.
    server_per_tuple: float = 0.05e-3
    #: Workstation-side cost of touching one tuple in the cache.
    cache_per_tuple: float = 0.01e-3
    #: Workstation-side cost of one hash-index probe.
    index_probe: float = 0.002e-3
    #: Workstation-side cost of inserting one tuple into an index.
    index_build_per_tuple: float = 0.015e-3
    #: Cost charged by the IE for one inference step (resolution attempt).
    inference_step: float = 0.005e-3

    def __post_init__(self) -> None:
        for unit in fields(self):
            cost = getattr(self, unit.name)
            if cost < 0:
                raise ValueError(f"{unit.name} must be non-negative, got {cost}")

    def scaled(self, factor: float) -> "CostProfile":
        """Return a copy with every unit cost multiplied by ``factor``."""
        return CostProfile(
            remote_latency=self.remote_latency * factor,
            transfer_per_tuple=self.transfer_per_tuple * factor,
            uplink_per_value=self.uplink_per_value * factor,
            server_per_tuple=self.server_per_tuple * factor,
            cache_per_tuple=self.cache_per_tuple * factor,
            index_probe=self.index_probe * factor,
            index_build_per_tuple=self.index_build_per_tuple * factor,
            inference_step=self.inference_step * factor,
        )


@dataclass
class SimClock:
    """A monotonically advancing simulated clock with parallel tracks.

    Ordinary sequential work calls :meth:`advance`.  To model two activities
    that overlap in real time, open a :meth:`parallel` region, charge work to
    its named tracks, and close it; the region advances the clock by the
    longest track.
    """

    now: float = 0.0
    _tracks: dict[str, float] | None = field(default=None, repr=False)

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of sequential work (or to the active track)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        if self._tracks is None:
            self.now += seconds
        else:
            # Inside a parallel region every plain advance is charged to the
            # implicit "local" track.
            self._tracks["local"] = self._tracks.get("local", 0.0) + seconds

    def charge(self, track: str, seconds: float) -> None:
        """Charge ``seconds`` to a named track of the open parallel region.

        Outside a parallel region this is equivalent to :meth:`advance`.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        if self._tracks is None:
            self.now += seconds
        else:
            self._tracks[track] = self._tracks.get(track, 0.0) + seconds

    def parallel(self) -> "ParallelRegion":
        """Open a parallel region; use as a context manager."""
        return ParallelRegion(self)


class ParallelRegion:
    """Context manager that merges concurrent track times as a maximum."""

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._saved: dict[str, float] | None = None

    def __enter__(self) -> "ParallelRegion":
        if self._clock._tracks is not None:
            raise RuntimeError("parallel regions do not nest")
        self._saved = {}
        self._clock._tracks = self._saved
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracks = self._clock._tracks
        self._clock._tracks = None
        if tracks:
            self._clock.now += max(tracks.values())

    @property
    def tracks(self) -> dict[str, float]:
        """Time charged so far to each track (readable inside the region)."""
        if self._saved is None:
            raise RuntimeError("parallel region is not open")
        return dict(self._saved)
