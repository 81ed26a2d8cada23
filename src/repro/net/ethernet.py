"""The shared-bus Ethernet model.

One transmission at a time: a send that finds the bus busy queues behind
the in-flight frame (this is what makes bulk CopyTo traffic contend with
IPC traffic, as on the paper's real 10 Mbit segment).  Broadcast frames
are delivered to every attached NIC except the sender's.

The segment also runs receive processing: a frame's handler, taken from
the receiving NIC's packet-kind table (:class:`repro.net.nic.Nic`), runs
``packet_process_us`` after arrival.  Two hot-path economies, neither of
which changes a trajectory:

* wire times are memoized per payload size (the cost model is a pure
  function and a simulation uses only a handful of distinct sizes);
* **one pass per frame**: :meth:`Ethernet._deliver` walks the receivers
  once and files all of the frame's handlers as *one* event.  Per-
  receiver events would be scheduled back to back inside the delivery
  event, so nothing could sort between them: running them in address
  order in one event is the same execution.  Each folded handler still
  counts as a processed event (and in :attr:`Ethernet.rx_coalesced`).

Under a schedule perturber (:class:`repro.verify.perturb.TiePerturber`)
each handler is its own event: V kernels give a broadcast's handlers no
defined order, so each must be a swap opportunity.  Under a fault plane,
a duplicate or delayed copy's schedule ends the group.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
        #: (address value, NIC), address-sorted; rebuilt lazily after
        #: attach/detach so broadcasts do not re-sort on every frame.
        self._sorted_nics: Optional[List[Tuple[int, "Nic"]]] = None
        #: Earliest time the bus is free for the next transmission.
        self._busy_until = 0
        #: Counters for experiment reports.
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0
        #: Receive handlers folded into a frame's one processing event.
        self.rx_coalesced = 0
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

    def _delivery_order(self) -> List[Tuple[int, "Nic"]]:
        """(address value, NIC) pairs, address-sorted; cached until the
        next attach/detach."""
        order = self._sorted_nics
        if order is None:
            # Address values are unique, so the NICs are never compared.
            order = self._sorted_nics = sorted(
                (address.value, nic) for address, nic in self._nics.items())
        return order

    def nic_at(self, address: HostAddress) -> Optional["Nic"]:
        """The NIC currently attached at ``address``, if any."""
        return self._nics.get(address)

    @property
    def addresses(self) -> List[HostAddress]:
        """Addresses of all attached NICs (sorted for determinism)."""
        return [nic.address for _, nic in self._delivery_order()]

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

    def _deliver(self, packet: Packet, copy_to: Optional["Nic"] = None) -> None:
        """A frame's arrival: one pass over its receivers (see the module
        docstring).  ``copy_to`` is the receiver of a fault plane's copy."""
        faults = self.faults
        loss = self.loss
        skip = None  # the sender's address value, for a broadcast
        if copy_to is not None:
            targets = ((-1, copy_to),)
            faults = loss = None
        elif packet.is_broadcast:
            targets = self._delivery_order()
            skip = packet.src.value
        else:
            nic = self._nics.get(packet.dst)
            if nic is None:
                return
            targets = ((-1, nic),)
        if loss.__class__ is NoLoss:
            loss = None
        kind = packet.kind
        delay = self.model.packet_process_us
        metered = self.metrics.active
        group: list = []
        for value, nic in targets:
            if value == skip:
                continue
            if faults is not None:
                if self._deliver_with_faults(faults, packet, nic, group, delay):
                    continue
            elif loss is not None and loss.drops(self.sim, packet):
                self._count_drop(packet, nic)
                continue
            handlers = nic.handlers
            if handlers is None:
                nic.dropped_no_handler += 1
                if metered:
                    nic._m_rx_dropped.value += 1
                continue
            nic.received += 1
            if metered:
                nic._m_rx.value += 1
            group.append(handlers[kind])
        if group:
            self._file_rx(delay, group, packet)

    def _file_rx(self, delay: int, handlers: list, packet: Packet) -> None:
        """Schedule one frame's handlers: one event, or one each while a
        perturber is armed (each is then a swap opportunity)."""
        if len(handlers) == 1 or self.sim._perturber is not None:
            for fn in handlers:
                self._sched(delay, fn, packet)
            return
        self.rx_coalesced += len(handlers) - 1
        self._sched(delay, self._run_rx_batch, handlers, packet)

    def _run_rx_batch(self, handlers: list, packet: Packet) -> None:
        # Each folded handler still counts as one processed event, so
        # event counts and budgets match the per-receiver execution.
        self.sim._event_count += len(handlers) - 1
        for fn in handlers:
            fn(packet)

    def _count_drop(self, packet: Packet, nic) -> None:
        self.packets_dropped += 1
        if self.metrics.active:
            drop = self._m_drops.get(nic.address)
            if drop is None:
                drop = self._m_drops[nic.address] = self.metrics.counter(
                    "net.drops", str(nic.address)
                )
            drop.inc()
        trace = self.sim.trace
        if trace.active:
            trace.record(
                "net", "drop", packet_id=packet.packet_id, dst=str(nic.address),
            )

    def _deliver_with_faults(self, faults, packet: Packet, nic,
                             group: list, delay: int) -> bool:
        """Apply the fault plane's plan for one delivery.  Returns True
        when the caller must NOT deliver the frame now (discarded or
        deferred).  Duplicate and delayed copies are scheduled here,
        after filing ``group``: their schedules would sort between the
        handlers before and after them."""
        plan = faults.plan(self.sim, packet)
        trace = self.sim.trace
        if plan.dropped or plan.corrupted:
            self._count_drop(packet, nic)
            if plan.corrupted and trace.active:
                trace.record(
                    "net", "corrupt", packet_id=packet.packet_id,
                    dst=str(nic.address),
                )
            return True
        if (plan.duplicates or plan.delay_us) and group:
            self._file_rx(delay, group[:], packet)
            group.clear()
        for copy in range(plan.duplicates):
            self._sched(
                plan.delay_us + (copy + 1) * max(1, plan.dup_delay_us),
                self._deliver, packet, nic,
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
            self._sched(plan.delay_us, self._deliver, packet, nic)
            return True
        return False
