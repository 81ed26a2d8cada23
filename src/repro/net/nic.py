"""Per-host network interface.

A NIC dispatches received packets to a handler installed by the host's
kernel.  Packets arriving while no handler is installed (host booting or
crashed) are counted and dropped, like a real interface with no driver.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import HostAddress
from repro.net.packet import Packet


class Nic:
    """A network interface at a fixed host address."""

    def __init__(self, sim, address: HostAddress):
        self.sim = sim
        self.address = address
        self.ethernet = None  # set by Ethernet.attach
        self._handler: Optional[Callable[[Packet], None]] = None
        self.received = 0
        self.dropped_no_handler = 0
        m = sim.metrics
        self.metrics = m
        self._m_rx = m.counter("net.rx_packets", str(address))
        self._m_rx_dropped = m.counter("net.rx_dropped", str(address))

    def install_handler(self, handler: Callable[[Packet], None]) -> None:
        """Install the packet-arrival callback (the kernel's entry point)."""
        self._handler = handler

    def remove_handler(self) -> None:
        """Remove the handler; subsequent arrivals are dropped."""
        self._handler = None

    def send(self, packet: Packet) -> None:
        """Put a packet on the wire (must be attached to a segment)."""
        if self.ethernet is None:
            # Host is detached (crashed); sends vanish, like a dead NIC.
            return
        self.ethernet.transmit(packet)

    def emit(
        self,
        dst: HostAddress,
        kind: str,
        payload,
        size_bytes: int = 64,
    ) -> None:
        """Build a frame from us to ``dst`` and transmit it.  The
        preferred way for protocol code to send."""
        ethernet = self.ethernet
        if ethernet is None:
            return
        ethernet.transmit(Packet(self.address, dst, kind, payload, size_bytes))

    def schedule_rx(self, delay_us: int, fn, packet: Packet) -> None:
        """Schedule protocol processing of a received frame, letting the
        segment coalesce same-tick processing events."""
        ethernet = self.ethernet
        if ethernet is None:
            self.sim.schedule(delay_us, fn, packet)
            return
        ethernet.schedule_rx(delay_us, fn, packet)

    def receive(self, packet: Packet) -> None:
        """Called by the segment when a frame arrives for this NIC."""
        if self._handler is None:
            self.dropped_no_handler += 1
            if self.metrics.active:
                self._m_rx_dropped.inc()
            return
        self.received += 1
        if self.metrics.active:
            self._m_rx.inc()
        self._handler(packet)
