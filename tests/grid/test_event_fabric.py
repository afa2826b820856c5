"""Differential test of the event-timed packet fabric.

:class:`~repro.grid.grid.NanoBoxGrid` delivers a packet on a link that
cannot stall from a timing wheel, at the cycle fixed when it was sent,
and ticks only the links that can stall.  The dense oracle ticks every
link every cycle.  On one fabric that mixes stalling links, flip/drop
links and plain links -- with CRC framing, adaptive routing and a kill --
the two must agree on every cycle: grid state, CP inbox and dropped
packet order, link-fault counters, every faulty link's PRNG state and
the bus statistics, including while packets are still on the wire.
"""

import random

import pytest

from repro.grid import ControlProcessor, GridState, LinkFaultConfig, Watchdog
from repro.grid.grid import CONTROL_PROCESSOR, NanoBoxGrid
from repro.grid.linkfault import FaultyBus
from tests.grid.dense_oracle import DenseGrid

STALL = LinkFaultConfig(bit_flip_rate=0.004, stall_rate=0.05)
FLIP_DROP = LinkFaultConfig(bit_flip_rate=0.006, drop_rate=0.01)
#: Cycle of the kill, and the cell killed.
KILL = (45, (2, 2))


def mixed_links(src, dst):
    """One of a stalling link, a flip/drop link and a plain link, by
    position, so every kind carries traffic on every path."""
    kinds = (STALL, FLIP_DROP, None)
    if CONTROL_PROCESSOR in (src, dst):
        cell = dst if src == CONTROL_PROCESSOR else src
        return kinds[cell[1] % 3]
    (r, c), (nr, nc) = src, dst
    return kinds[(r + 2 * c + nr + nc) % 3]


def workload(n, seed):
    rnd = random.Random(seed)
    return [
        (i, rnd.choice([0b000, 0b001, 0b010, 0b111]),
         rnd.randrange(256), rnd.randrange(256))
        for i in range(n)
    ]


def build(grid_cls):
    return grid_cls(
        5, 5,
        adaptive_routing=True,
        link_fault_config=mixed_links,
        crc_enabled=True,
        link_fault_seed=3,
        error_threshold=6,
    )


def rng_states(grid, fresh):
    """The PRNG state of every faulty link whose stream has moved; a link
    the grid never built still holds its ``fresh`` stream."""
    states = {}
    for key, start in fresh.items():
        bus = grid._buses.get(key)
        if bus is not None and bus._rng.bit_generator.state != start:
            states[key] = bus._rng.bit_generator.state
    return states


def trace(grid_cls, every, fresh):
    """Run one job; sample the fabric every ``every`` cycles."""
    grid = build(grid_cls)
    watchdog = Watchdog(grid)
    control = ControlProcessor(grid, watchdog)
    samples, in_flight = [], []

    def hook():
        if grid.cycle == KILL[0]:
            grid.kill_cell(*KILL[1])
        if grid.cycle % every:
            return
        in_flight.append(bool(getattr(grid, "_in_wheel", ())))
        samples.append((
            grid.cycle,
            repr(GridState.from_grid(grid, watchdog)),
            grid.link_fault_statistics(),
            repr(rng_states(grid, fresh)),
            grid.bus_statistics(),
        ))

    control.add_tick_hook(hook)
    job = control.run_job(workload(150, 8), max_rounds=3)
    samples.append((
        grid.cycle,
        GridState.from_grid(grid, watchdog).to_snapshot(),
        grid.link_fault_statistics(),
        rng_states(grid, fresh),
        grid.bus_statistics(),
        job.results,
        job.delivery,
    ))
    return samples, in_flight


@pytest.mark.parametrize("every", [1, 7], ids=["every-cycle", "every-7th"])
def test_mixed_fabric_matches_the_dense_oracle(every):
    fresh = {
        key: bus._rng.bit_generator.state
        for key, bus in build(DenseGrid)._buses.items()
        if isinstance(bus, FaultyBus)
    }
    oracle, _ = trace(DenseGrid, every, fresh)
    grid, in_flight = trace(NanoBoxGrid, every, fresh)
    assert len(oracle) == len(grid)
    fields = ("cycle", "state", "link faults", "rng states", "bus stats",
              "results", "delivery")
    for expected, got in zip(oracle, grid):
        for name, a, b in zip(fields, expected, got):
            same = a == b  # kept out of the assert: the repr diff is huge
            assert same, f"{name} diverged at cycle {expected[0]}"
    # The scenario exercises what it claims: both link paths carried
    # traffic, faults fired, and statistics were read mid-flight.
    final = grid[-1][2]
    assert final.stalled_cycles > 0
    assert final.bit_flips > 0 and final.dropped > 0
    assert sum(in_flight) > len(in_flight) // 4
    assert KILL[1] in grid[-1][1]["cells"] and not (
        grid[-1][1]["cells"][KILL[1]]["alive"]
    )
