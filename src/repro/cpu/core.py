"""Core timing models (IO4 / OOO4 / OOO8).

Cores execute :class:`~repro.workloads.kernel.CoreProgram` phases as a
pipeline of loop iterations:

- the front end dispatches one iteration per
  ``ceil(ops / issue_width)`` cycles;
- an iteration's loads issue together (subject to the load-queue
  bound) and its compute takes ``ceil(compute_ops / issue_width)``
  cycles after dispatch;
- iterations commit in order; the in-flight window is bounded by the
  instruction window (ROB/IQ) and load queue (Table III), which is
  where out-of-order latency hiding (and the in-order core's lack of
  it) comes from;
- stores drain asynchronously through a bounded store buffer.

With the decoupled-stream ISA (SS/SF systems), ``sload`` ops consume
from the SE_core FIFOs — the SE's run-ahead, not the core window,
hides their latency, which is why the in-order core gets OOO-like
memory behaviour (SS III-B). Without it, stream ops lower to plain
loads/stores so the exact same program runs on every system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from typing import TYPE_CHECKING

from repro.mem.l1 import L1Cache, L1Request
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats
from repro.streams.pattern import AffinePattern
from repro.streams.se_core import SECore
from repro.workloads.kernel import Iteration, KernelPhase

if TYPE_CHECKING:  # avoid the package-init import cycle via repro.system
    from repro.system.params import CoreParams


@dataclass
class _IterState:
    """Bookkeeping for one in-flight iteration."""

    seq: int
    loads_pending: int = 0
    compute_done_at: int = 0
    dispatched: bool = False
    finished: bool = False
    committed: bool = False


class Core:
    """One core executing a program phase by phase."""

    def __init__(
        self,
        sim: Simulator,
        stats: Stats,
        tile: int,
        l1: L1Cache,
        params: CoreParams,
        se_core: Optional[SECore] = None,
    ) -> None:
        self.sim = sim
        self.stats = stats
        self.tile = tile
        self.l1 = l1
        self.params = params
        self.se = se_core
        # Per-phase state:
        self._iter_source: Optional[Iterator[Iteration]] = None
        self._inflight: List[_IterState] = []
        self._next_seq = 0
        self._front_free_at = 0
        self._outstanding_loads = 0
        self._outstanding_stores = 0
        self._store_waiters: List[Callable[[], None]] = []
        self._phase_done_cb: Optional[Callable[[], None]] = None
        self._source_exhausted = False
        # Fallback stream positions when there is no SE (Base systems).
        self._fallback_pos: Dict[int, int] = {}
        self._fallback_specs: Dict[int, object] = {}
        # sid -> (chunk start, address list) vectorized via addresses().
        self._fallback_buf: Dict[int, tuple] = {}
        self._peeked: Optional[Iteration] = None
        self._phase_sids: List[int] = []
        self.ops_committed = 0
        self.finish_time = 0
        self._probes = sim.probes.bind("core", self)

    # ------------------------------------------------------------------
    # phase control (driven by the Chip)
    # ------------------------------------------------------------------
    def run_phase(self, phase: KernelPhase, on_done: Callable[[], None]) -> None:
        """Execute one kernel phase; ``on_done`` fires at the barrier."""
        p = self._probes.core_phase
        if p is not None:
            p(self, phase)
        self._phase_done_cb = on_done
        self._iter_source = phase.iterations()
        self._source_exhausted = False
        self._peeked = None
        self._next_seq = 0
        self._front_free_at = self.sim.now
        self._fallback_pos = {}
        self._fallback_buf = {}
        self._fallback_specs = {s.sid: s for s in phase.stream_specs}
        self._phase_sids = [s.sid for s in phase.stream_specs]
        if self.se is not None and phase.stream_specs:
            # stream_cfg: a few cycles of configuration work.
            self._front_free_at += len(phase.stream_specs)
            self.se.configure(phase.stream_specs)
        self._try_dispatch()

    def _phase_complete(self) -> None:
        if self.se is not None and self._phase_sids:
            self.se.end(self._phase_sids)
        self.finish_time = self.sim.now
        cb = self._phase_done_cb
        self._phase_done_cb = None
        if cb is not None:
            p = self._probes.core_phase_done
            if p is not None:
                p(self)
            cb()

    # ------------------------------------------------------------------
    # dispatch / commit pipeline
    # ------------------------------------------------------------------
    def _window_allows(self, it: Iteration) -> bool:
        ops_per_iter = max(1, len(it.ops) + it.compute_ops)
        window_iters = max(1, self.params.window // ops_per_iter)
        if len(self._inflight) >= window_iters:
            return False
        loads = sum(1 for op in it.ops if op[0] in ("sload", "load"))
        if (
            loads
            and self._outstanding_loads
            and self._outstanding_loads + loads > self.params.lq
        ):
            # LQ full. (An iteration with more loads than LQ entries
            # still dispatches once the queue drains — its loads issue
            # in bursts in real hardware; we approximate by letting a
            # lone oversized iteration proceed.)
            return False
        return True

    def _try_dispatch(self) -> None:
        while not self._source_exhausted:
            it = self._peek_iteration()
            if it is None:
                break
            if not self._window_allows(it):
                return  # re-tried on commit / load completion
            self._pop_iteration()
            state = _IterState(seq=self._next_seq)
            self._next_seq += 1
            self._inflight.append(state)
            total_ops = max(1, len(it.ops) + it.compute_ops)
            dispatch_at = max(self.sim.now, self._front_free_at)
            self._front_free_at = dispatch_at + math.ceil(
                total_ops / self.params.issue_width
            )
            self.sim.schedule_at(dispatch_at, self._start_iteration, state, it)
        if (
            self._source_exhausted
            and not self._inflight
            and self._phase_done_cb is not None
        ):
            self._phase_complete()

    def _peek_iteration(self) -> Optional[Iteration]:
        if self._peeked is None:
            try:
                self._peeked = next(self._iter_source)
            except StopIteration:
                self._source_exhausted = True
                return None
        return self._peeked

    def _pop_iteration(self) -> Iteration:
        it = self._peeked
        self._peeked = None
        return it

    def _start_iteration(self, state: _IterState, it: Iteration) -> None:
        state.dispatched = True
        state.compute_done_at = self.sim.now + math.ceil(
            max(1, it.compute_ops) / self.params.issue_width
        )
        self.ops_committed += len(it.ops) + it.compute_ops
        self.stats.add("core.iterations")
        self.stats.add("core.ops", len(it.ops) + it.compute_ops)
        for op in it.ops:
            self._issue_op(state, op)
        # An iteration with no loads still completes after compute.
        self.sim.schedule_at(state.compute_done_at, self._check_done, state)

    def _issue_op(self, state: _IterState, op) -> None:
        kind = op[0]
        if kind == "sload":
            if self.se is not None:
                state.loads_pending += 1
                self._outstanding_loads += 1
                self.se.consume(op[1], lambda: self._load_done(state))
            else:
                # Lowered stream load: tagged with its stream id so
                # the caches can classify the fill (Figure 2a) and the
                # stride prefetchers can train on the access site.
                addr = self._fallback_addr(op[1])
                self._plain_load(state, addr, op_id=op[1], stream_id=op[1])
        elif kind == "load":
            self._plain_load(state, op[1], op_id=op[2])
        elif kind == "sstore":
            if self.se is not None:
                addr = self.se.store_next(op[1])
            else:
                addr = self._fallback_addr(op[1])
            self._plain_store(addr, op_id=op[1])
        elif kind == "store":
            self._plain_store(op[1], op_id=op[2])
        else:
            raise ValueError(f"unknown op {op!r}")

    FALLBACK_ADDR_CHUNK = 64  # elements per vectorized addresses() batch

    def _fallback_addr(self, sid: int) -> int:
        """Lower a stream op to its current address without an SE.

        Lowered stream ops walk the pattern strictly sequentially, so
        affine address generation is vectorized: one ``addresses()``
        batch per chunk instead of a mixed-radix ``address()`` per op.
        """
        pos = self._fallback_pos.get(sid, 0)
        self._fallback_pos[sid] = pos + 1
        start, buf = self._fallback_buf.get(sid, (0, ()))
        off = pos - start
        if not 0 <= off < len(buf):
            pattern = self._fallback_specs[sid].pattern
            count = min(self.FALLBACK_ADDR_CHUNK, len(pattern) - pos)
            if count > 1 and isinstance(pattern, AffinePattern):
                chunk = pattern.addresses(pos, count)
                buf = chunk.tolist() if hasattr(chunk, "tolist") else chunk
            else:
                buf = [pattern.address(pos)]
            self._fallback_buf[sid] = (pos, buf)
            off = 0
        return buf[off]

    def _plain_load(
        self, state: _IterState, addr: int, op_id: int,
        stream_id: Optional[int] = None,
    ) -> None:
        state.loads_pending += 1
        self._outstanding_loads += 1
        self.stats.add("core.loads")
        self.l1.access(L1Request(
            addr=addr, op_id=op_id, stream_id=stream_id,
            on_done=lambda: self._load_done(state),
        ))

    def _load_done(self, state: _IterState) -> None:
        state.loads_pending -= 1
        self._outstanding_loads -= 1
        self._check_done(state, by_load=True)
        self._try_dispatch()

    def _plain_store(self, addr: int, op_id: int) -> None:
        self.stats.add("core.stores")
        self._do_store(addr, op_id)

    def _do_store(self, addr: int, op_id: int) -> None:
        if self._outstanding_stores >= self.params.sq:
            # Store buffer full: queue behind draining stores.
            self._store_waiters.append(lambda: self._do_store(addr, op_id))
            return
        self._outstanding_stores += 1
        if self.se is not None:
            # Committed store checks the PEB for stream aliasing.
            self.se.notify_store(addr)
        self.l1.access(L1Request(
            addr=addr, is_write=True, op_id=op_id,
            on_done=self._store_done,
        ))

    def _store_done(self) -> None:
        self._outstanding_stores -= 1
        if self._store_waiters:
            sim = self.sim
            if sim.can_inline():
                # Tail fusion (DESIGN.md §12): nothing else pending
                # this cycle, so the zero-delay wakeup runs now.
                sim.count_inlined_events(1)
                self._store_waiters.pop(0)()
            else:
                sim.schedule(0, self._store_waiters.pop(0))

    def _check_done(self, state: _IterState, by_load: bool = False) -> None:
        """Finish the iteration once its loads and compute are done;
        ``by_load`` marks a call from a load completion (the scheduled
        call is the compute-completion event)."""
        if state.finished:
            return
        if state.loads_pending == 0 and self.sim.now >= state.compute_done_at:
            state.finished = True
            p = self._probes.core_iter_finish
            if p is not None:
                p(self, state.seq, by_load)
            self._commit_in_order()

    def _commit_in_order(self) -> None:
        committed_any = False
        while self._inflight and self._inflight[0].finished:
            self._inflight.pop(0)
            committed_any = True
        if committed_any:
            self._try_dispatch()
