"""Nearest-neighbour 8-bit bus model.

"Processor cells contain four 8-bit buses, with one bus connected to each
of its neighbors" (paper Section 3.1).  A :class:`Bus` is one *directed*
link: it carries a single packet at a time, taking one cycle per byte-wide
flit, so an 8-flit instruction packet occupies the link for 8 cycles.
Nanoscale drive limits mean there is no bypassing or wormhole overlap --
the next packet waits until the previous one fully drains.  So a link
that cannot stall knows, the moment it accepts a packet, the cycle it
will deliver it in; :meth:`Bus.advance` lets a fabric jump to that cycle
instead of ticking the link through every cycle in between.
"""

from __future__ import annotations

from typing import Optional

from repro.grid.packet import Packet


class Bus:
    """Single-packet-in-flight directed link with flit-serialised latency.

    Args:
        name: human-readable link label (used in statistics).
        flit_overhead: extra cycles each packet occupies the link beyond
            its payload flits -- 1 when CRC framing appends a checksum
            flit (:mod:`repro.grid.packet`), 0 for the bare fabric.
    """

    #: True when the link may hold its flit on an occupied cycle, so its
    #: delivery cycle is unknown at send time and it must tick every cycle.
    stalls = False

    def __init__(self, name: str, flit_overhead: int = 0) -> None:
        if flit_overhead < 0:
            raise ValueError(f"flit_overhead must be non-negative, got {flit_overhead}")
        self.name = name
        self._flit_overhead = flit_overhead
        self._packet: Optional[Packet] = None
        self._remaining = 0
        self._delivered_count = 0
        self._busy_cycles = 0

    @property
    def busy(self) -> bool:
        """True while a packet is still being serialised across the link."""
        return self._packet is not None

    @property
    def in_flight(self) -> Optional[Packet]:
        """The packet currently on the wire, if any."""
        return self._packet

    @property
    def delivered_count(self) -> int:
        """Packets fully delivered over this link's lifetime."""
        return self._delivered_count

    @property
    def busy_cycles(self) -> int:
        """Total cycles the link spent occupied (utilisation numerator)."""
        return self._busy_cycles

    def try_send(self, packet: Packet) -> bool:
        """Start transmitting ``packet``; returns False if the link is busy."""
        if self._packet is not None:
            return False
        self._packet = packet
        self._remaining = packet.flit_count + self._flit_overhead
        return True

    def tick(self) -> Optional[Packet]:
        """Advance one cycle; returns the packet if it finished arriving."""
        if self._packet is None:
            return None
        self._busy_cycles += 1
        self._remaining -= 1
        if self._remaining > 0:
            return None
        delivered = self._packet
        self._packet = None
        self._delivered_count += 1
        return delivered

    def advance(self, cycles: int) -> Optional[Packet]:
        """Advance ``cycles`` cycles at once: the same as ``cycles``
        calls of :meth:`tick` on a link that does not stall."""
        if self._packet is None:
            return None
        self._busy_cycles += cycles
        self._remaining -= cycles
        if self._remaining > 0:
            return None
        delivered = self._packet
        self._packet = None
        self._delivered_count += 1
        return delivered

    def drop(self) -> Optional[Packet]:
        """Abort the in-flight packet (link endpoint died); returns it."""
        packet = self._packet
        self._packet = None
        self._remaining = 0
        return packet

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"carrying {self._packet!r}" if self._packet else "idle"
        return f"Bus({self.name!r}, {state})"
