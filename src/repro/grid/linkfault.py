"""Link-level fault injection for the grid's communication fabric.

The paper's premise is that *every* nanoscale structure is fault-prone,
yet the baseline :class:`~repro.grid.bus.Bus` delivers flits perfectly.
This module extends the fault model into the interconnect: a
:class:`FaultyBus` flips wire bits, loses packets in flight, and stalls
with per-link configurable rates, reusing the same mask/RNG machinery
(:mod:`repro.faults.mask`) that drives ALU and memory injection.

Corruption is applied to the packet's *wire image* (its byte flits, plus
the CRC flit when framing is enabled), so detection is exactly what a
real receiver could do:

* **CRC mismatch** (framing enabled): the corruption is detected and the
  packet rejected at the receiving router or control-processor inbox;
* **framing violation** (bad SOP marker or an illegal field encoding):
  detected even without CRC, because the flit no longer parses;
* **silent corruption**: the corrupted flits still parse (and, with CRC
  on, the checksum coincidentally matches) -- the packet is delivered
  with flipped destination, instruction-ID, operand, or result bits and
  the fabric mis-executes, which is precisely the failure mode the
  CRC + retransmit protocol exists to close.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from repro.coding.bits import popcount
from repro.faults.mask import BernoulliMask
from repro.grid.bus import Bus
from repro.grid.packet import crc_valid, frame_flits, parse_packet
from repro.grid.routing import Envelope

_BYTE = 0xFF


@dataclass(frozen=True)
class LinkFaultConfig:
    """Per-link fault rates, all independent and all defaulting to off.

    Args:
        bit_flip_rate: probability that each wire bit of a packet's flit
            image flips during one link traversal (Bernoulli per bit,
            like the memory-upset model).
        drop_rate: probability that a packet vanishes in flight -- the
            link burns its cycles but nothing arrives (broken via,
            drive-strength fade).
        stall_rate: probability per occupied cycle that the link fails
            to advance its flit counter (timing fault); must be < 1 so
            transmission terminates almost surely.
    """

    bit_flip_rate: float = 0.0
    drop_rate: float = 0.0
    stall_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("bit_flip_rate", "drop_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if not 0.0 <= self.stall_rate < 1.0:
            raise ValueError(
                f"stall_rate must be within [0, 1), got {self.stall_rate}"
            )

    @property
    def any_faults(self) -> bool:
        """True when at least one rate is nonzero."""
        return self.bit_flip_rate > 0 or self.drop_rate > 0 or self.stall_rate > 0


@dataclass(frozen=True)
class FaultEvent:
    """A delivery-time fault outcome the grid must account for.

    Attributes:
        envelope: the envelope as sent (pre-corruption payload).
        kind: ``"dropped"`` (lost in flight, undetectable at the
            receiver), ``"crc"`` (CRC flit mismatch), or ``"framing"``
            (corrupted flits no longer parse).
    """

    envelope: Envelope
    kind: str

    @property
    def detected(self) -> bool:
        """True when the receiver can observe the fault (CRC/framing)."""
        return self.kind != "dropped"


#: What a faulty link's tick can yield: nothing yet, a clean (or silently
#: corrupted) envelope, or an accounted fault outcome.
Delivery = Union[Envelope, FaultEvent]


class FaultyBus(Bus):
    """A :class:`Bus` whose deliveries pass through a fault channel.

    Args:
        name: link label.
        config: fault rates for this link.
        rng: dedicated PRNG stream (seed it per link so fabrics are
            reproducible and link order-independent).
        crc_enabled: frame packets with a CRC flit; corrupted packets
            whose checksum no longer matches are rejected as ``"crc"``
            fault events instead of being delivered.
        flit_overhead: passed through to :class:`Bus` (1 when CRC
            framing is on, so the checksum flit costs a real cycle).
    """

    def __init__(
        self,
        name: str,
        config: LinkFaultConfig,
        rng: np.random.Generator,
        crc_enabled: bool = False,
        flit_overhead: int = 0,
    ) -> None:
        super().__init__(name, flit_overhead=flit_overhead)
        self._config = config
        self._rng = rng
        self._crc_enabled = crc_enabled
        self._flip_policy = (
            BernoulliMask(config.bit_flip_rate) if config.bit_flip_rate > 0 else None
        )
        self._will_drop = False
        self.stalls = config.stall_rate > 0
        self.bit_flips = 0
        self.dropped_in_flight = 0
        self.stalled_cycles = 0
        self.crc_rejects = 0
        self.framing_rejects = 0
        self.silent_corruptions = 0

    @property
    def config(self) -> LinkFaultConfig:
        return self._config

    def try_send(self, envelope) -> bool:
        if not super().try_send(envelope):
            return False
        self._will_drop = (
            self._config.drop_rate > 0
            and self._rng.random() < self._config.drop_rate
        )
        return True

    def tick(self) -> Optional[Delivery]:
        if (
            self.busy
            and self._config.stall_rate > 0
            and self._rng.random() < self._config.stall_rate
        ):
            # The link holds its flit this cycle: still occupied, no
            # progress.  Bounded in expectation since stall_rate < 1.
            self._busy_cycles += 1
            self.stalled_cycles += 1
            return None
        return self._arrive(super().tick())

    def advance(self, cycles: int) -> Optional[Delivery]:
        if self.stalls:
            raise RuntimeError(f"{self.name} stalls: it must tick every cycle")
        return self._arrive(super().advance(cycles))

    def _arrive(self, delivered: Optional[Envelope]) -> Optional[Delivery]:
        """Pass a finished envelope through the drop and flip channels."""
        if delivered is None:
            return None
        if self._will_drop:
            self.dropped_in_flight += 1
            return FaultEvent(delivered, "dropped")
        return self._corrupt(delivered)

    def _corrupt(self, envelope: Envelope) -> Delivery:
        """Pass the wire image through the bit-flip channel."""
        if self._flip_policy is None:
            return envelope
        flits = frame_flits(envelope.packet, with_crc=self._crc_enabled)
        mask = self._flip_policy.generate(len(flits) * 8, self._rng)
        if mask == 0:
            return envelope
        self.bit_flips += popcount(mask)
        corrupted = [
            (flit ^ ((mask >> (8 * i)) & _BYTE)) for i, flit in enumerate(flits)
        ]
        if self._crc_enabled:
            if not crc_valid(corrupted):
                self.crc_rejects += 1
                return FaultEvent(envelope, "crc")
            corrupted = corrupted[:-1]  # CRC escape: strip the checksum flit
        try:
            packet = parse_packet(corrupted)
        except ValueError:
            self.framing_rejects += 1
            return FaultEvent(envelope, "framing")
        self.silent_corruptions += 1
        return replace(envelope, packet=packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultyBus({self.name!r}, flips={self._config.bit_flip_rate}, "
            f"drops={self._config.drop_rate}, stalls={self._config.stall_rate})"
        )
