"""Discrete-event simulation kernel.

Every component in the simulated chip (cores, caches, the NoC, DRAM
controllers, stream engines) shares one :class:`Simulator`. Time is
measured in core clock cycles (the paper's system runs at 2.0 GHz; see
``repro.system.params``). Events are callbacks scheduled at absolute or
relative times and executed in (time, insertion-order) order, so the
simulation is fully deterministic.

The scheduler is a calendar queue (DESIGN.md §10): a ring of ``RING``
per-cycle FIFO buckets, plain lists, covering the window
``[now, now + RING)``, with a binary heap holding far-future overflow
events. Scheduling into the window is one append and dispatching one
walk over a bucket, with no comparisons; overflow events migrate into
the ring exactly when the window reaches them, before any direct
insert for their cycle can occur, which preserves the global
(time, insertion-order) ordering bit-for-bit.
``tests/sim/heap_oracle.py`` keeps a single-``heapq`` reference that
the equivalence suite runs against this queue.

Events at the same cycle run in the order they were scheduled (FIFO
tie-break), ``run(until=N)`` leaves ``now == N`` even when the queue
drains early, and fractional schedule times are rejected rather than
silently truncated.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.probes import Probes


class Simulator:
    """A deterministic discrete-event simulator.

    Invariants (DESIGN.md §10):

    - every pending ring event sits at a cycle in ``[now, now + RING)``
      in bucket ``when & (RING - 1)``, so a bucket holds events of
      exactly one cycle at a time and plain append order *is* global
      insertion order for that cycle;
    - every overflow-heap event is at a cycle ``>= now + RING``; when
      ``now`` advances, events falling inside the new window migrate
      into their buckets immediately — before any direct insert for
      those cycles is possible — keyed by ``(when, seq)`` so per-cycle
      FIFO order is preserved across the migration;
    - a drain deletes the events it ran from the front of its bucket
      when it stops, so between drains a bucket holds exactly the
      *pending* events of its cycle.
    """

    RING = 2048  # bucket count; must be a power of two
    # Inert: nothing under src/ reads either. bench/run.py's
    # shipping-path guard still checks ``fastpath and pooling``, so
    # both leave together with that guard.
    fastpath = True
    pooling = True

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._events_executed: int = 0
        self._events_inlined: int = 0
        self._mask = self.RING - 1
        # Plain lists: an empty list is 56 bytes, an empty deque 760.
        self._buckets: List[list] = [[] for _ in range(self.RING)]
        self._overflow: List[Tuple[int, int, Callable[..., Any], tuple]] = []
        # The probe seam (repro.obs.probes): components bind it at
        # construction and every observer attaches through it.
        self.probes = Probes()
        # Observers set these when they attach: Sanitizer(sim)
        # (repro.sim.sanitizer) and Telemetry(sim, config) (repro.obs).
        self.sanitizer = None
        self.telemetry = None

    # -- scheduling ----------------------------------------------------
    # Scheduling is the single hottest simulator entry point, so the
    # window test and bucket append happen inline in both methods.
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be a non-negative whole number of cycles; a
        zero delay runs later in the current cycle (after all
        previously scheduled events for this cycle).
        """
        if type(delay) is int:
            d = delay
        else:
            d = int(delay)
            if d != delay:
                raise ValueError(
                    f"delay must be a whole number of cycles, got {delay!r}"
                )
        if d < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if d < self.RING:
            self._buckets[(self.now + d) & self._mask].append((fn, args))
        else:
            heapq.heappush(
                self._overflow, (self.now + d, self._seq, fn, args)
            )
            self._seq += 1

    def schedule_at(self, when: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``when``.

        ``when`` is coerced *before* the past-check so a fractional
        time can never sneak past the guard and silently truncate onto
        an earlier cycle; non-integral times are rejected outright.
        """
        if type(when) is int:
            w = when
        else:
            w = int(when)
            if w != when:
                raise ValueError(
                    f"schedule time must be a whole cycle, got {when!r}"
                )
        now = self.now
        if w < now:
            raise ValueError(
                f"cannot schedule at cycle {when}, current cycle is {now}"
            )
        if w < now + self.RING:
            self._buckets[w & self._mask].append((fn, args))
        else:
            heapq.heappush(self._overflow, (w, self._seq, fn, args))
            self._seq += 1

    def _migrate(self) -> None:
        """Move every overflow event the window ``[now, now + RING)``
        reaches into its bucket, in ``(when, seq)`` order."""
        horizon = self.now + self.RING
        overflow = self._overflow
        buckets = self._buckets
        mask = self._mask
        while overflow and overflow[0][0] < horizon:
            w, _seq, fn, args = heapq.heappop(overflow)
            buckets[w & mask].append((fn, args))

    # -- introspection -------------------------------------------------
    @property
    def events_pending(self) -> int:
        """Number of events still in the queue (read between runs)."""
        return sum(map(len, self._buckets)) + len(self._overflow)

    @property
    def events_executed(self) -> int:
        """Total number of events run so far."""
        return self._events_executed

    @property
    def events_inlined(self) -> int:
        """Logical events that ran inside a batching event instead of
        through a kernel dispatch (a subset of ``events_executed``)."""
        return self._events_inlined

    def count_inlined_events(self, n: int) -> None:
        """Account ``n`` callbacks executed inside a batching event
        (e.g. the NoC's per-cycle delivery drain) so ``events_executed``
        keeps counting logical events, not just kernel dispatches."""
        self._events_executed += n
        self._events_inlined += n

    # -- execution -----------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains.

        ``until`` bounds simulated time (events at cycles > ``until``
        stay queued, and ``now`` advances to ``until`` even when the
        queue drains first); ``max_events`` bounds the number of events
        run, which guards against accidental livelock: the run stops
        where it is once that many have run, so ``max_events=0`` runs
        none, and a negative bound raises ``ValueError``. Returns the
        current cycle when the run stops.

        The ``dispatch``/``dispatched`` probes fire around every event
        the loop runs (the S5 hash and the interval sampler subscribe).
        A handler must not call ``run()``: the drain deletes the events
        it ran from their bucket only when it stops.
        """
        if max_events is not None:
            if max_events < 0:
                raise ValueError(f"max_events must be >= 0, got {max_events}")
            if max_events == 0:
                return self.now
        remaining = max_events  # None: unbounded
        buckets = self._buckets
        mask = self._mask
        ring = self.RING
        overflow = self._overflow
        before = self.probes.dispatch
        after = self.probes.dispatched
        now = self.now
        while True:
            bucket = buckets[now & mask]
            if not bucket:
                # The next non-empty bucket of the window; past it, the
                # ring is empty and the overflow head is next.
                c = now + 1
                end = now + ring
                while c < end and not buckets[c & mask]:
                    c += 1
                if c == end:
                    if not overflow:
                        break  # drained
                    c = overflow[0][0]
                if until is not None and c > until:
                    break
                self.now = now = c
                if overflow and overflow[0][0] < c + ring:
                    self._migrate()
                bucket = buckets[c & mask]
            # Drain the current cycle. A list iterator sees appends, so
            # a zero-delay event scheduled mid-drain runs in this cycle,
            # after every event queued before it.
            done = 0
            try:
                for done, (fn, args) in enumerate(islice(bucket, remaining), 1):
                    if before is not None:
                        before(now, fn)
                    fn(*args)
                    if after is not None:
                        after(now, fn)
            finally:
                del bucket[:done]
                self._events_executed += done
            if remaining is not None:
                remaining -= done
                if not remaining:
                    return now
        if until is not None and now < until:
            self.now = until
            if overflow and overflow[0][0] < until + ring:
                self._migrate()
        return self.now
