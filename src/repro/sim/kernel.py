"""Discrete-event simulation kernel.

Every component in the simulated chip (cores, caches, the NoC, DRAM
controllers, stream engines) shares one :class:`Simulator`. Time is
measured in core clock cycles (the paper's system runs at 2.0 GHz; see
``repro.system.params``). Events are callbacks scheduled at absolute or
relative times and executed in (time, insertion-order) order, so the
simulation is fully deterministic.

Two interchangeable scheduler backends implement those semantics
(DESIGN.md §10):

- :class:`CalendarSimulator` (the default) — a calendar queue: a ring
  of ``RING`` per-cycle FIFO buckets covering the window
  ``[now, now + RING)``, with a binary heap holding far-future
  overflow events. Scheduling into the window and dispatching are both
  O(1) appends/indexing with no comparisons; overflow events migrate
  into the ring exactly when the window reaches them, before any
  direct insert for their cycle can occur, which preserves the global
  (time, insertion-order) ordering bit-for-bit.
- :class:`HeapSimulator` — the original single ``heapq`` ordered by
  ``(time, seq)``. Kept as the A/B reference: ``REPRO_KERNEL=heap``
  selects it, and the equivalence suite asserts identical determinism
  hashes, event counts and stats against the calendar queue.

Both backends share the exact same observable contract: events at the
same cycle run in the order they were scheduled (FIFO tie-break),
``run(until=N)`` leaves ``now == N`` even when the queue drains early,
and fractional schedule times are rejected rather than silently
truncated.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import telemetry as _telemetry
from repro.obs.probes import Probes
from repro.sim import fastpath as _fastpath
from repro.sim import sanitizer as _sanitizer

ENV_KERNEL = "REPRO_KERNEL"

_KERNELS = ("calendar", "heap")


def kernel_from_env() -> str:
    """Which scheduler backend ``REPRO_KERNEL`` selects."""
    raw = os.environ.get(ENV_KERNEL, "").strip().lower()
    if raw in ("", "calendar", "default"):
        return "calendar"
    if raw == "heap":
        return "heap"
    raise ValueError(
        f"{ENV_KERNEL}={raw!r} names an unknown kernel; valid: {_KERNELS}"
    )


class Simulator:
    """A deterministic discrete-event simulator.

    Events scheduled for the same cycle run in the order they were
    scheduled (FIFO tie-break), which keeps runs reproducible.
    Instantiating ``Simulator()`` returns the backend selected by
    ``REPRO_KERNEL`` (calendar queue unless ``heap`` is requested).
    """

    def __new__(cls, *args, **kwargs):
        if cls is Simulator:
            cls = (
                HeapSimulator if kernel_from_env() == "heap"
                else CalendarSimulator
            )
        return object.__new__(cls)

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._events_executed: int = 0
        self._events_inlined: int = 0
        # Depth of handler-layer fused loops currently on the stack.
        # While positive, can_inline() reports False: a fused loop
        # holds callbacks in a local list the queue cannot see, so a
        # nested fusion would run ahead of them (DESIGN.md §12).
        self._inline_depth: int = 0
        self._init_queue()
        # The probe seam (repro.obs.probes): components bind it at
        # construction and every observer attaches through it.
        self.probes = Probes()
        # None unless REPRO_SANITIZE enables invariant checking.
        self.sanitizer = _sanitizer.maybe_attach(self)
        # Same contract for the telemetry layer (REPRO_TELEMETRY).
        self.telemetry = _telemetry.maybe_attach(self)
        # Handler fast paths (REPRO_FASTPATH, default on) fuse
        # uncontended event chains into synchronous calls that credit
        # count_inlined_events(). Fusion changes the *event stream*
        # (hence the S5 trace hash) but never cycles or architectural
        # stats (DESIGN.md §12), and every probe fires before a fused
        # tail call, so observers see the same sequence either way.
        # Message pooling additionally requires no sanitizer, since
        # its checkers keep packet references past a delivery.
        self.fastpath = _fastpath.enabled()
        self.pooling = self.fastpath and self.sanitizer is None

    # -- backend hooks -------------------------------------------------
    def _init_queue(self) -> None:
        raise NotImplementedError

    def _push(self, when: int, fn: Callable[..., Any], args: tuple) -> None:
        raise NotImplementedError

    def _advance_to(self, when: int) -> None:
        """Move ``now`` forward to ``when`` (no pending event before
        it), doing any backend bookkeeping the move requires."""
        raise NotImplementedError

    # -- scheduling ----------------------------------------------------
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
        self._push(self.now + d, fn, args)

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
        if w < self.now:
            raise ValueError(
                f"cannot schedule at cycle {when}, current cycle is {self.now}"
            )
        self._push(w, fn, args)

    # -- introspection -------------------------------------------------
    @property
    def events_pending(self) -> int:
        """Number of events still in the queue."""
        raise NotImplementedError

    @property
    def events_executed(self) -> int:
        """Total number of events run so far."""
        return self._events_executed

    @property
    def events_inlined(self) -> int:
        """Logical events that ran fused/batched instead of through a
        kernel dispatch (a subset of ``events_executed``)."""
        return self._events_inlined

    def count_inlined_events(self, n: int) -> None:
        """Account ``n`` callbacks executed inside a batching event
        (e.g. the NoC's per-cycle delivery drain) so ``events_executed``
        keeps counting logical events, not just kernel dispatches."""
        self._events_executed += n
        self._events_inlined += n

    def can_inline(self) -> bool:
        """True when nothing is pending at the current cycle, so a
        handler may run a zero-delay callback synchronously instead of
        scheduling it: with an empty current-cycle queue the scheduled
        callback would execute next anyway, and anything the callback
        itself schedules lands behind it in FIFO order either way
        (DESIGN.md §12). When another event *is* pending this cycle,
        fusing would jump the queue — callers must fall back to
        ``schedule(0, ...)``."""
        raise NotImplementedError

    def peek_time(self) -> Optional[int]:
        """Cycle of the next pending event, or ``None`` if queue empty."""
        nxt = self.peek_event()
        return nxt[0] if nxt is not None else None

    def peek_event(self) -> Optional[Tuple[int, Callable[..., Any]]]:
        """(cycle, callback) of the next pending event, or ``None``."""
        raise NotImplementedError

    # -- execution -----------------------------------------------------
    def step(self) -> bool:
        """Run the single next event. Returns False if none remain."""
        raise NotImplementedError

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains.

        ``until`` bounds simulated time (events at cycles > ``until``
        stay queued, and ``now`` advances to ``until`` even when the
        queue drains first); ``max_events`` bounds the number of events
        run, which guards against accidental livelock in tests. Returns
        the current cycle when the run stops.

        The ``dispatch``/``dispatched`` probes fire around every event
        the loop runs (the S5 hash, the profiler and the interval
        sampler subscribe); a bare :meth:`step` fires neither.
        """
        raise NotImplementedError


class HeapSimulator(Simulator):
    """The original single-heap backend (``REPRO_KERNEL=heap``)."""

    def _init_queue(self) -> None:
        self._queue: List[Tuple[int, int, Callable[..., Any], tuple]] = []

    def _push(self, when: int, fn: Callable[..., Any], args: tuple) -> None:
        heapq.heappush(self._queue, (when, self._seq, fn, args))
        self._seq += 1

    def _advance_to(self, when: int) -> None:
        self.now = when

    @property
    def events_pending(self) -> int:
        return len(self._queue)

    def can_inline(self) -> bool:
        if self._inline_depth:
            return False
        queue = self._queue
        return not queue or queue[0][0] != self.now

    def peek_event(self) -> Optional[Tuple[int, Callable[..., Any]]]:
        if not self._queue:
            return None
        head = self._queue[0]
        return head[0], head[2]

    def step(self) -> bool:
        if not self._queue:
            return False
        when, _seq, fn, args = heapq.heappop(self._queue)
        self.now = when
        self._events_executed += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        queue = self._queue
        pop = heapq.heappop
        before = self.probes.dispatch
        after = self.probes.dispatched
        executed = 0
        while queue:
            if until is not None and queue[0][0] > until:
                break
            if max_events is not None and executed >= max_events:
                return self.now
            when, _seq, fn, args = pop(queue)
            self.now = when
            self._events_executed += 1
            if before is not None:
                before(when, fn)
            fn(*args)
            if after is not None:
                after(when, fn)
            executed += 1
        if until is not None and self.now < until:
            self.now = until
        return self.now


class CalendarSimulator(Simulator):
    """Calendar-queue backend: per-cycle FIFO buckets + overflow heap.

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
    - buckets are deques consumed from the left as they execute, so a
      bucket always holds exactly the *pending* events of its cycle;
      ``can_inline()`` is then a free emptiness test on the current
      bucket, which is what gates the handler-layer zero-delay
      fusions (DESIGN.md §12).
    """

    RING = 2048  # bucket count; must be a power of two

    def _init_queue(self) -> None:
        self._mask = self.RING - 1
        self._buckets: List[deque] = [deque() for _ in range(self.RING)]
        self._ring_count = 0  # pending events across all buckets
        self._overflow: List[Tuple[int, int, Callable[..., Any], tuple]] = []

    def _push(self, when: int, fn: Callable[..., Any], args: tuple) -> None:
        if when < self.now + self.RING:
            self._buckets[when & self._mask].append((fn, args))
            self._ring_count += 1
        else:
            heapq.heappush(self._overflow, (when, self._seq, fn, args))
            self._seq += 1

    # Inline overrides of the base implementations: scheduling is the
    # single hottest simulator entry point, so the window test and
    # bucket append happen right here instead of through ``_push``.
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
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
            self._ring_count += 1
        else:
            heapq.heappush(
                self._overflow, (self.now + d, self._seq, fn, args)
            )
            self._seq += 1

    def schedule_at(self, when: int, fn: Callable[..., Any], *args: Any) -> None:
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
            self._ring_count += 1
        else:
            heapq.heappush(self._overflow, (w, self._seq, fn, args))
            self._seq += 1

    def _advance_to(self, when: int) -> None:
        if when == self.now:
            return
        self.now = when
        overflow = self._overflow
        if overflow and overflow[0][0] < when + self.RING:
            horizon = when + self.RING
            buckets = self._buckets
            mask = self._mask
            pop = heapq.heappop
            while overflow and overflow[0][0] < horizon:
                w, _seq, fn, args = pop(overflow)
                buckets[w & mask].append((fn, args))
                self._ring_count += 1

    @property
    def events_pending(self) -> int:
        return self._ring_count + len(self._overflow)

    def can_inline(self) -> bool:
        return (
            not self._inline_depth
            and not self._buckets[self.now & self._mask]
        )

    def peek_event(self) -> Optional[Tuple[int, Callable[..., Any]]]:
        bucket = self._buckets[self.now & self._mask]
        if bucket:
            return self.now, bucket[0][0]
        if self._ring_count:
            buckets = self._buckets
            mask = self._mask
            c = self.now + 1
            while not buckets[c & mask]:
                c += 1
            return c, buckets[c & mask][0][0]
        if self._overflow:
            head = self._overflow[0]
            return head[0], head[2]
        return None

    def step(self) -> bool:
        nxt = self.peek_event()
        if nxt is None:
            return False
        when = nxt[0]
        if when != self.now:
            self._advance_to(when)
        fn, args = self._buckets[when & self._mask].popleft()
        self._ring_count -= 1
        self._events_executed += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        buckets = self._buckets
        mask = self._mask
        budget = max_events if max_events is not None else None
        before = self.probes.dispatch
        after = self.probes.dispatched
        while True:
            bucket = buckets[self.now & mask]
            if not bucket:
                if self._ring_count:
                    c = self.now + 1
                    while not buckets[c & mask]:
                        c += 1
                elif self._overflow:
                    c = self._overflow[0][0]
                else:
                    break  # drained
                if until is not None and c > until:
                    break
                self._advance_to(c)
                bucket = buckets[c & mask]
            # Drain the current cycle. Zero-delay events append to this
            # same bucket mid-drain and are picked up by the emptiness
            # test; fused (inlined) callbacks never enter the bucket at
            # all and are accounted via count_inlined_events.
            consumed = 0
            popleft = bucket.popleft
            if budget is None:
                # Unbudgeted drain (the normal full-run case): no
                # per-event budget bookkeeping in the loop.
                try:
                    while bucket:
                        fn, args = popleft()
                        consumed += 1
                        if before is not None:
                            before(self.now, fn)
                        fn(*args)
                        if after is not None:
                            after(self.now, fn)
                finally:
                    self._ring_count -= consumed
                    self._events_executed += consumed
                continue
            try:
                while bucket:
                    fn, args = popleft()
                    consumed += 1
                    if before is not None:
                        before(self.now, fn)
                    fn(*args)
                    if after is not None:
                        after(self.now, fn)
                    budget -= 1
                    if budget <= 0:
                        break
            finally:
                self._ring_count -= consumed
                self._events_executed += consumed
            if budget <= 0:
                return self.now
        if until is not None and self.now < until:
            self._advance_to(until)
        return self.now
