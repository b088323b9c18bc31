"""Reference scheduler for the kernel tests: one ``heapq`` of ``(time, seq,
fn, args)``. The calendar queue in ``repro.sim.kernel`` must be observably
identical to it (DESIGN.md §10)."""

import heapq

from repro.sim.kernel import Simulator


class HeapOracle(Simulator):
    """``Simulator`` with the queue methods replaced by a single heap."""

    def __init__(self) -> None:
        super().__init__()
        self._queue = []

    def schedule(self, delay, fn, *args):
        d = int(delay)
        if d != delay:
            raise ValueError(f"delay must be a whole number of cycles, got {delay!r}")
        if d < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self.now + d, fn, *args)

    def schedule_at(self, when, fn, *args):
        w = int(when)
        if w != when:
            raise ValueError(f"schedule time must be a whole cycle, got {when!r}")
        if w < self.now:
            raise ValueError(f"cannot schedule at cycle {when}, current cycle is {self.now}")
        heapq.heappush(self._queue, (w, self._seq, fn, args))
        self._seq += 1

    @property
    def events_pending(self):
        return len(self._queue)

    def can_inline(self):
        return (self.fastpath and not self._inline_depth
                and not (self._queue and self._queue[0][0] == self.now))

    def run(self, until=None, max_events=None):
        queue = self._queue
        budget = max_events if max_events is not None else float("inf")
        before, after = self.probes.dispatch, self.probes.dispatched
        while queue and (until is None or queue[0][0] <= until):
            when, _seq, fn, args = heapq.heappop(queue)
            self.now = when
            self._events_executed += 1
            if before is not None:
                before(when, fn)
            fn(*args)
            if after is not None:
                after(when, fn)
            budget -= 1
            if budget <= 0:
                return self.now
        if until is not None and self.now < until:
            self.now = until
        return self.now
