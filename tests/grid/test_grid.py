"""Unit tests for the grid fabric."""

import pytest

from repro.cell.cell import CellMode, ProcessorCell
from repro.cell.router import Direction
from repro.grid.grid import NanoBoxGrid
from repro.grid.packet import InstructionPacket
from tests.grid.dense_oracle import DenseGrid


def packet_to(row, col, iid=1):
    return InstructionPacket(
        dest_row=row, dest_col=col, instruction_id=iid,
        opcode=0b010, operand1=0x0F, operand2=0xF0,
    )


class TestTopology:
    def test_dimensions(self):
        grid = NanoBoxGrid(3, 4)
        assert grid.rows == 3 and grid.cols == 4
        assert grid.top_row == 2
        assert list(grid.all_coords()) == [
            (r, c) for r in range(3) for c in range(4)
        ]
        # Cells are built on first touch; cells() lists the built ones.
        assert list(grid.cells()) == []
        for coord in grid.all_coords():
            assert grid.cell(*coord).cell_id == coord
        assert len(list(grid.cells())) == 12

    def test_cell_lookup(self):
        grid = NanoBoxGrid(2, 2)
        assert grid.cell(1, 0).cell_id == (1, 0)
        with pytest.raises(IndexError):
            grid.cell(2, 0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            NanoBoxGrid(0, 3)

    def test_neighbours_interior(self):
        grid = NanoBoxGrid(3, 3)
        n = grid.neighbours(1, 1)
        assert n[Direction.UP] == (2, 1)
        assert n[Direction.DOWN] == (0, 1)
        assert n[Direction.LEFT] == (1, 2)
        assert n[Direction.RIGHT] == (1, 0)

    def test_neighbours_corner(self):
        grid = NanoBoxGrid(3, 3)
        n = grid.neighbours(0, 0)
        assert set(n) == {Direction.UP, Direction.LEFT}

    def test_alive_cells_initially_all(self):
        grid = NanoBoxGrid(2, 3)
        assert len(grid.alive_cells()) == 6


class TestReachability:
    def test_all_reachable_initially(self):
        grid = NanoBoxGrid(3, 3)
        for r in range(3):
            for c in range(3):
                assert grid.reachable(r, c)

    def test_dead_cell_unreachable(self):
        grid = NanoBoxGrid(3, 3)
        grid.kill_cell(1, 1)
        assert not grid.reachable(1, 1)

    def test_dead_cell_shadows_column_below(self):
        grid = NanoBoxGrid(3, 3)
        grid.kill_cell(1, 1)  # middle of column 1
        assert not grid.reachable(0, 1)  # below the dead cell
        assert grid.reachable(2, 1)      # above it
        assert grid.reachable(0, 0)      # other columns unaffected


class TestModeBroadcast:
    def test_mode_reaches_all_cells(self):
        grid = NanoBoxGrid(2, 2)
        built = grid.cell(1, 0)
        grid.set_mode(CellMode.COMPUTE)
        assert built.mode is CellMode.COMPUTE
        # Cells built after the broadcast join in the fabric's mode.
        assert all(
            grid.cell(*coord).mode is CellMode.COMPUTE
            for coord in grid.all_coords()
        )
        assert grid.mode is CellMode.COMPUTE


class TestPacketDelivery:
    def test_delivery_to_top_row_cell(self):
        grid = NanoBoxGrid(3, 3)
        grid.set_mode(CellMode.SHIFT_IN)
        assert grid.cp_send(packet_to(2, 1))
        for _ in range(20):
            grid.step()
        word = grid.cell(2, 1).memory.read(0)
        assert word.data_valid
        assert word.instruction_id == 1

    def test_delivery_routes_down_column(self):
        grid = NanoBoxGrid(4, 3)
        grid.set_mode(CellMode.SHIFT_IN)
        grid.cp_send(packet_to(0, 2, iid=9))
        for _ in range(60):
            grid.step()
        word = grid.cell(0, 2).memory.read(0)
        assert word.data_valid
        assert word.instruction_id == 9
        assert grid.idle()

    def test_cp_bus_backpressure(self):
        grid = NanoBoxGrid(2, 2)
        grid.set_mode(CellMode.SHIFT_IN)
        assert grid.cp_send(packet_to(1, 0, iid=1))
        # Edge bus is busy for 8 flit cycles; a second send must fail.
        assert not grid.cp_send(packet_to(1, 0, iid=2))
        assert grid.cp_bus_busy(0)

    def test_packet_to_dead_cell_dropped(self):
        grid = NanoBoxGrid(3, 3)
        grid.set_mode(CellMode.SHIFT_IN)
        grid.kill_cell(0, 1)
        grid.cp_send(packet_to(0, 1))
        for _ in range(60):
            grid.step()
        assert grid.dropped_packets
        assert not grid.cell(0, 1).memory.occupancy()

    def test_column_mismatch_routes_laterally(self):
        """A packet injected on the wrong column still arrives (the
        router walks it across the top row first)."""
        grid = NanoBoxGrid(3, 3)
        grid.set_mode(CellMode.SHIFT_IN)
        packet = packet_to(1, 0, iid=5)
        # Force injection via column 2's edge bus.
        grid.injection_column = lambda dest_col: 2
        assert grid.cp_send(packet)
        assert grid.cp_bus_busy(2) and not grid.cp_bus_busy(0)
        for _ in range(120):
            grid.step()
        assert grid.cell(1, 0).memory.read(0).instruction_id == 5


class TestShiftOut:
    def test_results_reach_cp(self):
        grid = NanoBoxGrid(3, 2)
        grid.set_mode(CellMode.SHIFT_IN)
        for iid, (r, c) in enumerate([(0, 0), (1, 1), (2, 0)]):
            grid.cell(r, c).store_instruction(iid + 1, 0b111, 10, iid)
        grid.set_mode(CellMode.COMPUTE)
        for _ in range(40):
            grid.step()
        grid.set_mode(CellMode.SHIFT_OUT)
        for _ in range(200):
            grid.step()
        results = {p.instruction_id: p.result for p in grid.cp_inbox}
        assert results == {1: 10, 2: 11, 3: 12}

    def test_exhausted_scan_leaves_the_phase(self, monkeypatch):
        """Once a cell's scan is exhausted every later pop this phase is
        ``None``, so the grid stops asking: one ``None`` per cell."""
        empty_pops = {}
        real_pop = ProcessorCell.pop_result

        def counting_pop(cell):
            popped = real_pop(cell)
            if popped is None:
                empty_pops[cell.cell_id] = empty_pops.get(cell.cell_id, 0) + 1
            return popped

        monkeypatch.setattr(ProcessorCell, "pop_result", counting_pop)
        grid = NanoBoxGrid(3, 2)
        grid.set_mode(CellMode.SHIFT_IN)
        for iid, (r, c) in enumerate([(0, 0), (1, 1), (2, 0)]):
            grid.cell(r, c).store_instruction(iid + 1, 0b111, 10, iid)
        grid.set_mode(CellMode.COMPUTE)
        for _ in range(40):
            grid.step()
        grid.set_mode(CellMode.SHIFT_OUT)
        for _ in range(200):
            grid.step()
        assert len(grid.cp_inbox) == 3
        assert empty_pops == {(0, 0): 1, (1, 1): 1, (2, 0): 1}

    def test_counters(self):
        grid = NanoBoxGrid(2, 2)
        grid.cell(0, 0).store_instruction(1, 0b010, 1, 2)
        assert grid.total_pending_instructions() == 1
        assert grid.total_completed_instructions() == 0
        grid.set_mode(CellMode.COMPUTE)
        for _ in range(10):
            grid.step()
        assert grid.total_pending_instructions() == 0
        assert grid.total_completed_instructions() == 1


class TestLinkStreamIndex:
    """The closed-form per-link PRNG index must equal the running counter
    over the eager construction order, because per-link fault streams
    are keyed by it (lazily built links must draw the same streams as
    the dense oracle's eagerly built fabric)."""

    @pytest.mark.parametrize(
        "rows,cols", [(1, 1), (1, 4), (4, 1), (2, 2), (3, 5), (5, 3), (4, 4)]
    )
    def test_matches_construction_order(self, rows, cols):
        from repro.grid.grid import CONTROL_PROCESSOR

        grid = NanoBoxGrid(rows, cols)
        expected = {}
        counter = 0
        for r in range(rows):
            for c in range(cols):
                for direction in (Direction.UP, Direction.DOWN,
                                  Direction.LEFT, Direction.RIGHT):
                    nr, nc = direction.step(r, c)
                    if 0 <= nr < rows and 0 <= nc < cols:
                        expected[((r, c), (nr, nc))] = counter
                        counter += 1
        top = rows - 1
        for c in range(cols):
            for key in ((CONTROL_PROCESSOR, (top, c)),
                        ((top, c), CONTROL_PROCESSOR)):
                expected[key] = counter
                counter += 1
        assert set(expected) == set(DenseGrid(rows, cols)._buses)
        for (src, dst), index in expected.items():
            assert grid._link_stream_index(src, dst) == index, (src, dst)
