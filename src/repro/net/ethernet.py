"""The shared-bus Ethernet model.

One transmission at a time: a send that finds the bus busy queues behind
the in-flight frame (this is what makes bulk CopyTo traffic contend with
IPC traffic, as on the paper's real 10 Mbit segment).  Broadcast frames
are delivered to every attached NIC except the sender's.

Two hot-path economies, neither of which changes a trajectory:

* wire times are memoized per payload size (the cost model is a pure
  function and a simulation uses only a handful of distinct sizes);
* **coalesced receive processing**: every kernel charges the same
  per-packet protocol-processing delay, so one frame delivered to many
  NICs (a broadcast) -- or back-to-back frames processed in one event --
  produces a run of handler timers at the *same* simulated time with
  *consecutive* sequence numbers.  :meth:`Ethernet.schedule_rx` batches
  such a run into one scheduled event.  Coalescing only happens while
  ``sim._seq`` has not moved since the batch was opened, which proves no
  foreign event can sort between the batched handlers; running them
  back-to-back inside one event is therefore order-identical to running
  them as separate events.  Each batched handler still counts as one
  processed event so budgets and event counts match the unbatched
  execution.  A simulator carrying a schedule perturber
  (:class:`repro.verify.perturb.TiePerturber`) gets no coalescing: V
  kernels give a broadcast's receive handlers no defined order, so the
  perturber must see each one as its own same-instant schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import DEFAULT_MODEL, HardwareModel
from repro.errors import SimulationError
from repro.net.addresses import HostAddress
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet


class Ethernet:
    """A single broadcast segment connecting all simulated hosts."""

    def __init__(
        self,
        sim,
        model: HardwareModel = DEFAULT_MODEL,
        loss: Optional[LossModel] = None,
        faults=None,
    ):
        self.sim = sim
        #: Cached bound ``sim.schedule`` for the delivery hot path.
        self._sched = sim.schedule
        self.model = model
        self.loss = loss if loss is not None else NoLoss()
        #: Optional :class:`repro.faults.models.FaultPlane`; None (the
        #: default) keeps the delivery path on the one-branch loss check.
        self.faults = faults
        if faults is not None:
            faults.bind_metrics(sim.metrics)
        self._nics: Dict[HostAddress, "Nic"] = {}
        #: NICs in deterministic (address-sorted) delivery order, rebuilt
        #: lazily after attach/detach so broadcast delivery does not
        #: re-sort on every frame.
        self._sorted_nics: Optional[List["Nic"]] = None
        #: Earliest time the bus is free for the next transmission.
        self._busy_until = 0
        #: Counters for experiment reports.
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0
        #: Same-tick receive-processing events coalesced into one.
        self.rx_coalesced = 0
        self._rx_batch: Optional[list] = None  # [time, guard_seq, items]
        self._wire_us: Dict[int, int] = {}
        # Per-source instruments, labelled by str(address) -- the net
        # layer has no workstation names (repro.obs metric catalog).
        self.metrics = sim.metrics
        self._m_tx: Dict[HostAddress, tuple] = {}
        self._m_drops: Dict[HostAddress, object] = {}
        self._m_bus_wait = sim.metrics.counter("net.bus_wait_us")

    # ----------------------------------------------------------- attachment

    def attach(self, nic: "Nic") -> None:
        """Connect a NIC to the segment; its address must be unique."""
        if nic.address in self._nics:
            raise SimulationError(f"duplicate host address {nic.address}")
        if nic.address.is_broadcast:
            raise SimulationError("cannot attach a NIC at the broadcast address")
        self._nics[nic.address] = nic
        self._sorted_nics = None
        nic.ethernet = self

    def detach(self, nic: "Nic") -> None:
        """Disconnect a NIC (host crash/power-off); in-flight frames to it
        are lost."""
        self._nics.pop(nic.address, None)
        self._sorted_nics = None
        nic.ethernet = None

    def _delivery_order(self) -> List["Nic"]:
        """Attached NICs, address-sorted; cached until the next
        attach/detach."""
        order = self._sorted_nics
        if order is None:
            order = [
                nic for _, nic in
                sorted(self._nics.items(), key=lambda kv: kv[0].value)
            ]
            self._sorted_nics = order
        return order

    def nic_at(self, address: HostAddress) -> Optional["Nic"]:
        """The NIC currently attached at ``address``, if any."""
        return self._nics.get(address)

    @property
    def addresses(self) -> List[HostAddress]:
        """Addresses of all attached NICs (sorted for determinism)."""
        return [nic.address for nic in self._delivery_order()]

    # ----------------------------------------------------------- transmission

    def transmit(self, packet: Packet) -> None:
        """Queue a packet for transmission.

        The frame occupies the bus for its wire time starting when the bus
        is next free; receivers see it at the end of that interval.
        """
        size = packet.size_bytes
        wire_us = self._wire_us.get(size)
        if wire_us is None:
            wire_us = self._wire_us[size] = self.model.packet_wire_us(size)
        now = self.sim.now
        start = self._busy_until
        if start < now:
            start = now
        done = start + wire_us
        self._busy_until = done
        self.packets_sent += 1
        self.bytes_sent += size
        if self.metrics.active:
            tx = self._m_tx.get(packet.src)
            if tx is None:
                host = str(packet.src)
                tx = self._m_tx[packet.src] = (
                    self.metrics.counter("net.tx_packets", host),
                    self.metrics.counter("net.tx_bytes", host),
                )
            tx[0].inc()
            tx[1].inc(size)
            if start > now:
                # Contention: this frame queued behind the in-flight one.
                self._m_bus_wait.inc(start - now)
        trace = self.sim.trace
        if trace.active:
            trace.record(
                "net", "transmit", packet_id=packet.packet_id, kind=packet.kind,
                src=str(packet.src), dst=str(packet.dst), size=size,
            )
        self._sched(done - now, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        if packet.is_broadcast:
            src = packet.src
            targets = [n for n in self._delivery_order() if n.address != src]
        else:
            nic = self._nics.get(packet.dst)
            targets = [nic] if nic is not None else []
        trace = self.sim.trace
        faults = self.faults
        for nic in targets:
            if faults is not None:
                if self._deliver_with_faults(faults, packet, nic, trace):
                    continue
            elif self.loss.drops(self.sim, packet):
                self._count_drop(packet, nic, trace)
                continue
            nic.receive(packet)

    def _count_drop(self, packet: Packet, nic, trace) -> None:
        self.packets_dropped += 1
        if self.metrics.active:
            drop = self._m_drops.get(nic.address)
            if drop is None:
                drop = self._m_drops[nic.address] = self.metrics.counter(
                    "net.drops", str(nic.address)
                )
            drop.inc()
        if trace.active:
            trace.record(
                "net", "drop", packet_id=packet.packet_id, dst=str(nic.address),
            )

    def _deliver_with_faults(self, faults, packet: Packet, nic, trace) -> bool:
        """Apply the fault plane's plan for one delivery.  Returns True
        when the caller must NOT deliver the frame inline (discarded or
        deferred); duplicate and delayed copies are scheduled here."""
        plan = faults.plan(self.sim, packet)
        if plan.dropped or plan.corrupted:
            self._count_drop(packet, nic, trace)
            if plan.corrupted and trace.active:
                trace.record(
                    "net", "corrupt", packet_id=packet.packet_id,
                    dst=str(nic.address),
                )
            return True
        for copy in range(plan.duplicates):
            self._sched(
                plan.delay_us + (copy + 1) * max(1, plan.dup_delay_us),
                nic.receive, packet,
            )
            if trace.active:
                trace.record(
                    "net", "duplicate", packet_id=packet.packet_id,
                    dst=str(nic.address),
                )
        if plan.delay_us:
            if trace.active:
                trace.record(
                    "net", "reorder", packet_id=packet.packet_id,
                    dst=str(nic.address), delay_us=plan.delay_us,
                )
            self._sched(plan.delay_us, nic.receive, packet)
            return True
        return False

    # ------------------------------------------- receive-processing batching

    def schedule_rx(self, delay_us: int, fn, packet: Packet) -> None:
        """Schedule one receive-processing callback, coalescing it into
        the open same-time batch when provably order-identical (see the
        module docstring)."""
        sim = self.sim
        if sim._perturber is not None:
            sim.schedule(delay_us, fn, packet)
            return
        time = sim._now + delay_us
        batch = self._rx_batch
        if batch is not None and batch[0] == time and batch[1] == sim._seq:
            batch[2].append((fn, packet))
            self.rx_coalesced += 1
            return
        items = [(fn, packet)]
        batch = [time, 0, items]
        self._rx_batch = batch
        sim.schedule(delay_us, self._run_rx_batch, items)
        batch[1] = sim._seq

    def _run_rx_batch(self, items: list) -> None:
        batch = self._rx_batch
        if batch is not None and batch[2] is items:
            # This batch is firing; a later same-time schedule_rx must
            # open a fresh one rather than append to a fired batch.
            self._rx_batch = None
        sim = self.sim
        # Each coalesced handler still counts as one processed event, so
        # event counts and budgets match the unbatched execution.
        extra = len(items) - 1
        if extra:
            sim._event_count += extra
        for fn, packet in items:
            fn(packet)
