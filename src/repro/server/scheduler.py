"""Deterministic cooperative scheduling of session steps.

The server is single-threaded on the simulated clock: concurrency is
*cooperative interleaving* of per-session steps (execute and drain one
query), which keeps every run exactly reproducible — the same seed and
submissions yield byte-identical schedules.

Two policies, each a class with ``note_session`` / ``forget_session`` /
``pick``; the server holds the one its configuration names:

* **round-robin** — sessions take turns in opening order; a session with
  nothing runnable is skipped.  Simple, and fair in steps.
* **weighted-fair** — stride scheduling: each session advances a virtual
  *pass* by ``stride = K / weight`` per step it receives, and the lowest
  pass runs next.  A weight-2 session gets twice the steps of a weight-1
  session over any window; sessions joining late start at the current
  minimum pass so they neither starve nor monopolize.

Ties (equal pass values) are broken by a seeded RNG over the tied names
in sorted order, so even the tie-breaks replay identically run to run.
"""

from __future__ import annotations

import random

from repro.common.errors import ServerError
from repro.server.session import Session

#: Stride numerator: pass advances by STRIDE_SCALE / weight per step.
STRIDE_SCALE = 1 << 20


class RoundRobinPolicy:
    """Take turns in opening order, skipping unrunnable sessions."""

    def __init__(self, seed: int = 0):
        self._order: list[str] = []
        self._cursor = 0

    def note_session(self, session: Session) -> None:
        if session.name not in self._order:
            self._order.append(session.name)

    def forget_session(self, name: str) -> None:
        if name in self._order:
            index = self._order.index(name)
            self._order.remove(name)
            if index < self._cursor:
                self._cursor -= 1
            if self._order:
                self._cursor %= len(self._order)
            else:
                self._cursor = 0

    def pick(self, eligible: list[Session]) -> Session:
        by_name = {session.name: session for session in eligible}
        for offset in range(len(self._order)):
            index = (self._cursor + offset) % len(self._order)
            session = by_name.get(self._order[index])
            if session is not None:
                self._cursor = (index + 1) % len(self._order)
                return session
        raise ServerError("round-robin pick from an empty eligible set")


class WeightedFairPolicy:
    """Stride scheduling: lowest virtual pass runs next."""

    def __init__(self, seed: int = 0):
        self._pass: dict[str, float] = {}
        self._rng = random.Random(seed)

    def note_session(self, session: Session) -> None:
        if session.name in self._pass:
            return
        # Join at the current minimum so a newcomer neither waits behind
        # everyone's accumulated pass nor gets an unbounded catch-up burst.
        floor = min(self._pass.values()) if self._pass else 0.0
        self._pass[session.name] = floor

    def forget_session(self, name: str) -> None:
        self._pass.pop(name, None)

    def pick(self, eligible: list[Session]) -> Session:
        if not eligible:
            raise ServerError("weighted-fair pick from an empty eligible set")
        best = min(self._pass[s.name] for s in eligible)
        tied = sorted(
            (s for s in eligible if self._pass[s.name] == best),
            key=lambda s: s.name,
        )
        session = tied[0] if len(tied) == 1 else tied[self._rng.randrange(len(tied))]
        self._pass[session.name] += STRIDE_SCALE / session.weight
        return session


#: The selectable policies, by name (``ServerConfig.scheduler_policy``).
POLICIES = {"round-robin": RoundRobinPolicy, "weighted-fair": WeightedFairPolicy}
