"""Unit tests for link-level fault injection and CRC framing."""

import numpy as np
import pytest

from repro.grid.bus import Bus
from repro.grid.linkfault import FaultEvent, FaultyBus, LinkFaultConfig
from repro.grid.packet import (
    InstructionPacket,
    ResultPacket,
    crc8,
    crc_valid,
    frame_flits,
)
from repro.grid.routing import Envelope


def instr(iid=1):
    return InstructionPacket(
        dest_row=1, dest_col=2, instruction_id=iid,
        opcode=0b010, operand1=0x3C, operand2=0x55,
    )


def envelope(packet=None):
    return Envelope(packet if packet is not None else instr())


def rng(seed=0):
    return np.random.default_rng(seed)


def bus(config, seed=0, crc_enabled=False, flit_overhead=0):
    return FaultyBus(
        "t", config, rng(seed),
        crc_enabled=crc_enabled, flit_overhead=flit_overhead,
    )


def deliver(faulty_bus, env, max_cycles=1000):
    """Tick until something comes off the link."""
    assert faulty_bus.try_send(env)
    for _ in range(max_cycles):
        out = faulty_bus.tick()
        if out is not None:
            return out
    raise AssertionError("nothing delivered within the cycle bound")


class TestLinkFaultConfig:
    def test_defaults_are_fault_free(self):
        config = LinkFaultConfig()
        assert not config.any_faults

    @pytest.mark.parametrize("field", ["bit_flip_rate", "drop_rate",
                                       "stall_rate"])
    def test_any_faults_per_field(self, field):
        assert LinkFaultConfig(**{field: 0.5}).any_faults

    @pytest.mark.parametrize("field,value", [
        ("bit_flip_rate", -0.1),
        ("bit_flip_rate", 1.1),
        ("drop_rate", -0.1),
        ("drop_rate", 1.1),
        ("stall_rate", -0.1),
        ("stall_rate", 1.0),  # must stay < 1 so transmission terminates
    ])
    def test_out_of_range_rates_rejected(self, field, value):
        with pytest.raises(ValueError):
            LinkFaultConfig(**{field: value})


class TestCRC8:
    def test_crc_flit_appended_and_valid(self):
        flits = frame_flits(instr(), with_crc=True)
        assert len(flits) == instr().flit_count + 1
        assert crc_valid(flits)

    def test_without_crc_is_raw_flits(self):
        assert frame_flits(instr(), with_crc=False) == instr().to_flits()

    def test_every_single_bit_flip_detected(self):
        """CRC-8 catches all single-bit errors, on every wire bit."""
        for packet in (instr(), ResultPacket(0x0102, 0xA5)):
            flits = frame_flits(packet, with_crc=True)
            for bit in range(len(flits) * 8):
                corrupted = list(flits)
                corrupted[bit // 8] ^= 1 << (bit % 8)
                assert not crc_valid(corrupted)

    def test_crc8_deterministic(self):
        assert crc8([0xA5, 0x01]) == crc8([0xA5, 0x01])
        assert crc8([]) == 0


class TestEventPath:
    """A link that cannot stall delivers the same on either path: ticked
    every cycle, or advanced to its due cycle in one step."""

    @pytest.mark.parametrize("config", [
        LinkFaultConfig(bit_flip_rate=0.05),
        LinkFaultConfig(drop_rate=0.3),
        LinkFaultConfig(bit_flip_rate=0.02, drop_rate=0.2),
    ], ids=["flip", "drop", "flip+drop"])
    @pytest.mark.parametrize("crc", [False, True], ids=["bare", "crc"])
    def test_no_stall_link_same_on_both_paths(self, config, crc):
        overhead = 1 if crc else 0
        ticked, advanced = (
            bus(config, seed=11, crc_enabled=crc, flit_overhead=overhead)
            for _ in range(2)
        )
        assert not ticked.stalls
        counters = ("bit_flips", "dropped_in_flight", "crc_rejects",
                    "framing_rejects", "silent_corruptions",
                    "busy_cycles", "delivered_count")
        for iid in range(60):
            packet = instr(iid) if iid % 3 else ResultPacket(iid, iid & 0xFF)
            env = envelope(packet)
            assert ticked.try_send(env) and advanced.try_send(env)
            latency = env.flit_count + overhead
            for _ in range(latency - 1):
                assert ticked.tick() is None
            assert advanced.advance(latency) == ticked.tick()
            assert (ticked._rng.bit_generator.state
                    == advanced._rng.bit_generator.state)
            for name in counters:
                assert getattr(ticked, name) == getattr(advanced, name), name
        assert ticked.bit_flips + ticked.dropped_in_flight > 0

    def test_stalling_link_refuses_to_advance(self):
        b = bus(LinkFaultConfig(stall_rate=0.1))
        assert b.stalls
        b.try_send(envelope())
        with pytest.raises(RuntimeError, match="stalls"):
            b.advance(1)


class TestFaultyBus:
    def test_fault_free_config_behaves_like_bus(self):
        b = bus(LinkFaultConfig())
        env = envelope()
        out = deliver(b, env, max_cycles=env.flit_count)
        assert out is env
        assert b.delivered_count == 1

    def test_drop_rate_one_loses_every_packet(self):
        b = bus(LinkFaultConfig(drop_rate=1.0))
        env = envelope()
        out = deliver(b, env, max_cycles=env.flit_count)
        assert isinstance(out, FaultEvent)
        assert out.kind == "dropped"
        assert not out.detected  # invisible to the receiver
        assert out.envelope is env
        assert b.dropped_in_flight == 1
        # The link still burned its serialisation cycles and is free again.
        assert b.busy_cycles == env.flit_count
        assert not b.busy

    def test_stall_stretches_latency(self):
        b = bus(LinkFaultConfig(stall_rate=0.5), seed=3)
        env = envelope()
        assert b.try_send(env)
        cycles = 0
        while b.tick() is None:
            cycles += 1
            assert cycles < 1000
        total = cycles + 1
        assert total == env.flit_count + b.stalled_cycles
        assert b.stalled_cycles > 0

    def test_all_bits_flipped_without_crc_is_framing_reject(self):
        """Complementing every flit ruins the SOP/length: detected even
        without CRC, because the packet no longer parses."""
        b = bus(LinkFaultConfig(bit_flip_rate=1.0), crc_enabled=False)
        out = deliver(b, envelope())
        assert isinstance(out, FaultEvent)
        assert out.kind == "framing"
        assert out.detected
        assert b.framing_rejects == 1
        assert b.bit_flips == envelope().flit_count * 8

    def test_all_bits_flipped_with_crc_is_crc_reject(self):
        b = bus(LinkFaultConfig(bit_flip_rate=1.0), crc_enabled=True,
                flit_overhead=1)
        out = deliver(b, envelope())
        assert isinstance(out, FaultEvent)
        assert out.kind == "crc"
        assert out.detected
        assert b.crc_rejects == 1

    def test_fault_event_reports_original_payload(self):
        """The event carries the pre-corruption envelope, so the grid can
        account for exactly which packet was lost."""
        b = bus(LinkFaultConfig(bit_flip_rate=1.0), crc_enabled=True,
                flit_overhead=1)
        env = envelope(instr(iid=321))
        out = deliver(b, env)
        assert out.envelope.packet.instruction_id == 321

    def test_silent_corruption_without_crc(self):
        """At a low flip rate some corrupted packets still parse: they are
        delivered with flipped payload bits and nobody notices."""
        b = bus(LinkFaultConfig(bit_flip_rate=0.01), seed=5)
        silent = None
        for _ in range(400):
            out = deliver(b, envelope())
            if isinstance(out, Envelope) and out.packet != instr():
                silent = out
                break
        assert silent is not None
        assert b.silent_corruptions >= 1

    def test_crc_prevents_those_silent_corruptions(self):
        """The same channel with CRC on: every corrupted delivery in the
        same trial count is rejected, none slips through silently."""
        b = bus(LinkFaultConfig(bit_flip_rate=0.01), seed=5,
                crc_enabled=True, flit_overhead=1)
        for _ in range(400):
            out = deliver(b, envelope())
            if isinstance(out, Envelope):
                assert out.packet == instr()
        assert b.crc_rejects > 0
        assert b.silent_corruptions == 0

    def test_crc_flit_costs_one_cycle(self):
        clean = Bus("clean")
        framed = bus(LinkFaultConfig(), crc_enabled=True, flit_overhead=1)
        env = envelope()
        clean.try_send(env)
        framed.try_send(envelope())
        clean_cycles = 0
        while clean.tick() is None:
            clean_cycles += 1
        framed_cycles = 0
        while framed.tick() is None:
            framed_cycles += 1
        assert framed_cycles == clean_cycles + 1

    def test_busy_rejects_second_send_under_faults(self):
        b = bus(LinkFaultConfig(drop_rate=1.0))
        assert b.try_send(envelope())
        assert not b.try_send(envelope())


class TestGridIntegration:
    def test_detected_corruption_charges_receiver_heartbeat(self):
        """A CRC reject at a cell's inbox feeds its heartbeat error
        tally, closing the loop to the watchdog."""
        from repro.grid.grid import NanoBoxGrid

        grid = NanoBoxGrid(
            2, 2,
            link_fault_config=LinkFaultConfig(bit_flip_rate=1.0),
            crc_enabled=True,
        )
        packet = instr(iid=9)
        grid.cp_send(
            InstructionPacket(dest_row=0, dest_col=0, instruction_id=9,
                              opcode=0b000, operand1=1, operand2=2)
        )
        for _ in range(packet.flit_count + 1):
            grid.step()
        assert grid.corrupt_rejects == 1
        top = grid.cell(grid.top_row, 0)
        assert top.heartbeat.error_count == 1

    def test_cp_inbox_rejects_are_counted_separately(self):
        """Corruption on the upward edge bus lands in the CP tally, not a
        cell heartbeat."""
        from repro.grid.grid import NanoBoxGrid

        grid = NanoBoxGrid(
            1, 1,
            link_fault_config=LinkFaultConfig(bit_flip_rate=1.0),
            crc_enabled=True,
        )
        cell = grid.cell(0, 0)
        cell.store_instruction(5, 0b000, 1, 2)
        from repro.cell.cell import CellMode

        grid.set_mode(CellMode.COMPUTE)
        for _ in range(8):
            grid.step()
        grid.set_mode(CellMode.SHIFT_OUT)
        for _ in range(40):
            grid.step()
        assert grid.cp_corrupt_rejects >= 1
        assert not grid.cp_inbox

    def test_per_link_policy_callable(self):
        """A callable policy can make just one link faulty."""
        from repro.cell.cell import CellMode
        from repro.grid.grid import CONTROL_PROCESSOR, NanoBoxGrid
        from tests.grid.dense_oracle import DenseGrid

        def only_cp_downlink(src, dst):
            if src == CONTROL_PROCESSOR:
                return LinkFaultConfig(drop_rate=1.0)
            return None

        grid = NanoBoxGrid(2, 2, link_fault_config=only_cp_downlink)
        # Indexing the lazy link table builds each link of the fabric.
        faulty = {
            key for key in DenseGrid(2, 2)._buses
            if isinstance(grid._buses[key], FaultyBus)
        }
        assert faulty == {(CONTROL_PROCESSOR, (1, c)) for c in range(2)}
        packet = InstructionPacket(dest_row=0, dest_col=0,
                                   instruction_id=1, opcode=0b000,
                                   operand1=1, operand2=2)
        grid.cp_send(packet)
        for _ in range(packet.flit_count + 2):
            grid.step()
        assert grid.link_dropped == 1
        assert grid.link_fault_statistics().dropped == 1
        # Results climb the mesh and the CP uplink, which stay perfect.
        grid.cell(0, 0).store_instruction(2, 0b111, 7, 0)
        grid.set_mode(CellMode.COMPUTE)
        for _ in range(4):
            grid.step()
        grid.set_mode(CellMode.SHIFT_OUT)
        for _ in range(40):
            grid.step()
        assert [(p.instruction_id, p.result) for p in grid.cp_inbox] == [
            (2, 7)
        ]
        assert grid.link_fault_statistics().dropped == 1
