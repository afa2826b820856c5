"""Unit tests for the flit-serialised bus model."""

import pytest

from repro.grid.bus import Bus
from repro.grid.packet import InstructionPacket, ResultPacket


def instr():
    return InstructionPacket(
        dest_row=0, dest_col=0, instruction_id=1,
        opcode=0, operand1=0, operand2=0,
    )


class TestBus:
    def test_latency_equals_flit_count(self):
        bus = Bus("b")
        packet = instr()
        assert bus.try_send(packet)
        deliveries = [bus.tick() for _ in range(packet.flit_count)]
        assert deliveries[:-1] == [None] * (packet.flit_count - 1)
        assert deliveries[-1] is packet

    def test_result_packets_faster(self):
        bus = Bus("b")
        packet = ResultPacket(1, 2)
        bus.try_send(packet)
        deliveries = [bus.tick() for _ in range(4)]
        assert deliveries[-1] is packet

    def test_busy_rejects_second_send(self):
        bus = Bus("b")
        assert bus.try_send(instr())
        assert not bus.try_send(instr())
        assert bus.busy

    def test_free_after_delivery(self):
        bus = Bus("b")
        packet = instr()
        bus.try_send(packet)
        for _ in range(packet.flit_count):
            bus.tick()
        assert not bus.busy
        assert bus.try_send(instr())

    def test_idle_tick_returns_none(self):
        bus = Bus("b")
        assert bus.tick() is None
        assert bus.busy_cycles == 0

    def test_counters(self):
        bus = Bus("b")
        packet = ResultPacket(1, 2)
        bus.try_send(packet)
        for _ in range(packet.flit_count):
            bus.tick()
        assert bus.delivered_count == 1
        assert bus.busy_cycles == packet.flit_count

    def test_drop_clears_link(self):
        bus = Bus("b")
        packet = instr()
        bus.try_send(packet)
        assert bus.drop() is packet
        assert not bus.busy
        assert bus.delivered_count == 0

    def test_drop_idle_returns_none(self):
        assert Bus("b").drop() is None

    def test_drop_mid_flight_frees_link_immediately(self):
        """A partially-serialised packet is aborted, not delivered."""
        bus = Bus("b")
        packet = instr()
        bus.try_send(packet)
        ticks_before_drop = 3
        for _ in range(ticks_before_drop):
            assert bus.tick() is None
        assert bus.drop() is packet
        # The link is free right away and never delivers the victim.
        assert not bus.busy
        assert bus.in_flight is None
        assert bus.tick() is None
        assert bus.delivered_count == 0
        # Cycles already spent serialising still count as occupancy.
        assert bus.busy_cycles == ticks_before_drop

    def test_drop_mid_flight_then_resend_full_latency(self):
        """A new packet after a drop pays its full flit latency."""
        bus = Bus("b")
        bus.try_send(instr())
        bus.tick()
        bus.drop()
        replacement = ResultPacket(7, 9)
        assert bus.try_send(replacement)
        deliveries = [bus.tick() for _ in range(replacement.flit_count)]
        assert deliveries[:-1] == [None] * (replacement.flit_count - 1)
        assert deliveries[-1] is replacement
        assert bus.delivered_count == 1

    def test_flit_overhead_extends_occupancy(self):
        """CRC framing costs exactly flit_overhead extra cycles."""
        bus = Bus("b", flit_overhead=1)
        packet = ResultPacket(1, 2)
        bus.try_send(packet)
        deliveries = [bus.tick() for _ in range(packet.flit_count + 1)]
        assert deliveries[:-1] == [None] * packet.flit_count
        assert deliveries[-1] is packet

    def test_negative_flit_overhead_rejected(self):
        with pytest.raises(ValueError):
            Bus("b", flit_overhead=-1)


class TestAdvance:
    """Completing a send in one step, as the fabric's timing wheel does."""

    @pytest.mark.parametrize("packet", [instr(), ResultPacket(1, 2)],
                             ids=["instruction", "result"])
    @pytest.mark.parametrize("overhead", [0, 1])
    def test_equals_ticking_to_delivery(self, packet, overhead):
        ticked, advanced = Bus("t", overhead), Bus("a", overhead)
        for bus in (ticked, advanced):
            assert bus.try_send(packet)
        latency = packet.flit_count + overhead
        for _ in range(latency - 1):
            assert ticked.tick() is None
        assert ticked.tick() is packet
        assert advanced.advance(latency) is packet
        for bus in (ticked, advanced):
            assert not bus.busy
            assert bus.busy_cycles == latency
            assert bus.delivered_count == 1

    def test_split_advance_matches_ticks_mid_flight(self):
        """Partial advances count busy cycles like ticks and keep the
        packet on the wire until its last flit."""
        packet = instr()
        ticked, advanced = Bus("t"), Bus("a")
        for bus in (ticked, advanced):
            bus.try_send(packet)
        for _ in range(3):
            ticked.tick()
        assert advanced.advance(3) is None
        assert advanced.busy and advanced.in_flight is packet
        assert advanced.busy_cycles == ticked.busy_cycles == 3
        assert advanced.delivered_count == ticked.delivered_count == 0
        assert advanced.advance(packet.flit_count - 3) is packet
        assert advanced.busy_cycles == packet.flit_count

    def test_idle_advance_is_a_no_op(self):
        bus = Bus("b")
        assert bus.advance(5) is None
        assert bus.busy_cycles == 0

    def test_plain_bus_never_stalls(self):
        assert not Bus("b").stalls
