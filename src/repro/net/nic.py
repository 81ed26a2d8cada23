"""Per-host network interface.

A NIC carries the packet-kind handler table installed by the host's
kernel.  Packets arriving while no table is installed (host booting or
crashed) are counted and dropped, like a real interface with no driver.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.net.addresses import HostAddress
from repro.net.packet import Packet


class Nic:
    """A network interface at a fixed host address.

    The handler contract: the kernel installs a ``Packet.kind`` ->
    handler mapping.  For each frame reaching the NIC the segment
    (:mod:`repro.net.ethernet`) counts the arrival in :attr:`received`
    (or :attr:`dropped_no_handler` while no table is installed), takes
    ``handlers[kind]`` -- which may raise for a kind the table does not
    serve -- and runs it ``packet_process_us`` after the arrival.
    """

    def __init__(self, sim, address: HostAddress):
        self.sim = sim
        self.address = address
        self.ethernet = None  # set by Ethernet.attach
        self.handlers: Optional[Mapping[str, Callable[[Packet], None]]] = None
        self.received = 0
        self.dropped_no_handler = 0
        m = sim.metrics
        self._m_rx = m.counter("net.rx_packets", str(address))
        self._m_rx_dropped = m.counter("net.rx_dropped", str(address))

    def install_handlers(self, handlers: Mapping[str, Callable]) -> None:
        """Install the kernel's packet-kind handler table."""
        self.handlers = handlers

    def remove_handlers(self) -> None:
        """Remove the handler table; subsequent arrivals are dropped."""
        self.handlers = None

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
