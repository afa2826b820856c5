"""Fault-adaptive routing policy (paper Sections 6.2 / 7).

The baseline fabric uses the paper's deterministic five-case rule
(column first, then row), which strands any cell whose column is cut by a
dead router.  The Teramac and Phoenix systems the paper compares against
solve this by *rerouting around* faulty blocks; the paper lists the
equivalent NanoBox protocol as future work.  This module implements it:

* packets carry a hop budget and their previous hop (no immediate
  backtracking, which prevents two-cell ping-pong livelock);
* instruction packets try the dimension-ordered direction first, then
  the other productive dimension, then the two unproductive directions,
  taking the first alive neighbour;
* result packets prefer UP (toward the control processor), detour
  laterally around dead cells (alternating preference by column parity so
  detours spread), and only move DOWN as a last resort;
* the hop budget (default ``4 * (rows + cols)``) bounds worst-case
  misrouting; exhausted packets are dropped and recovered by the control
  processor's retry protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cell.router import Direction, route_packet
from repro.grid.packet import Packet

Coord = Tuple[int, int]

#: The four mesh port directions, in a stable order.
MESH_DIRECTIONS = (Direction.UP, Direction.DOWN, Direction.LEFT,
                   Direction.RIGHT)


@dataclass(frozen=True)
class Envelope:
    """A packet in flight, with the routing state the fabric tracks.

    Attributes:
        packet: the payload packet.
        hops: links traversed so far.
        prev: coordinate of the previous hop (``None`` when injected by
            the control processor), used to forbid immediate backtrack.
    """

    packet: Packet
    hops: int = 0
    prev: Optional[Coord] = None

    @property
    def flit_count(self) -> int:
        """Bus occupancy in cycles: the payload's flit count."""
        return self.packet.flit_count

    def forwarded(self, via: Coord) -> "Envelope":
        """The envelope as it leaves ``via`` toward the next hop."""
        return Envelope(self.packet, self.hops + 1, via)


def default_hop_budget(rows: int, cols: int) -> int:
    """Worst-case misroute allowance before a packet is dropped."""
    return 4 * (rows + cols) + 8


def instruction_candidates(
    dest_row: int, dest_col: int, cell_row: int, cell_col: int
) -> List[Direction]:
    """Direction preference order for an instruction packet.

    Dimension-ordered primary first, then the other productive
    dimension, then the two unproductive directions (deterministic
    order), so a blocked packet spirals around the obstacle instead of
    stopping.
    """
    primary = route_packet(dest_row, dest_col, cell_row, cell_col).direction
    if primary is Direction.HERE:
        return []
    candidates = [primary]
    # The other productive dimension.
    if primary in (Direction.LEFT, Direction.RIGHT):
        if dest_row > cell_row:
            candidates.append(Direction.UP)
        elif dest_row < cell_row:
            candidates.append(Direction.DOWN)
    else:
        if dest_col > cell_col:
            candidates.append(Direction.LEFT)
        elif dest_col < cell_col:
            candidates.append(Direction.RIGHT)
    for direction in MESH_DIRECTIONS:
        if direction not in candidates:
            candidates.append(direction)
    return candidates


def result_candidates(cell_row: int, cell_col: int, top_row: int) -> List[Direction]:
    """Direction preference order for a result packet heading to the CP.

    UP always leads; lateral preference alternates with column parity so
    detour traffic spreads over both sides of an obstacle; DOWN is the
    final fallback.
    """
    lateral = (
        [Direction.LEFT, Direction.RIGHT]
        if cell_col % 2 == 0
        else [Direction.RIGHT, Direction.LEFT]
    )
    return [Direction.UP] + lateral + [Direction.DOWN]


def choose_direction(
    candidates: Sequence[Direction],
    cell: Coord,
    prev: Optional[Coord],
    neighbour_alive: Callable[[Direction], bool],
) -> Optional[Direction]:
    """Pick the first candidate whose neighbour is alive and is not the
    hop we just arrived from.  Falls back to allowing backtrack when the
    previous hop is the *only* live exit, and returns ``None`` when the
    cell is fully isolated."""
    backtrack: Optional[Direction] = None
    for direction in candidates:
        if not neighbour_alive(direction):
            continue
        if prev is not None and direction.step(*cell) == prev:
            backtrack = backtrack or direction
            continue
        return direction
    return backtrack
