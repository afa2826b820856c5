"""The NanoBox Processor Grid system level (paper Sections 2.3 and 3).

A two-dimensional grid of processor cells with nearest-neighbour 8-bit
buses and no cross-grid wiring; the top-row cells connect to a conventional
CMOS control processor through the edge bus.  The control processor
packetises work (shift-in), commands a global switch to compute mode, and
collects result packets (shift-out), reassembling them by unique
instruction ID.  A watchdog in the communication fabric monitors cell
heartbeats, disables cells that exceed their error threshold, and salvages
their unfinished memory words into neighbouring cells -- the system-level
rung of the recursive hierarchy, which the paper describes but leaves to
future work to evaluate; this package implements and evaluates it.
"""

from repro.grid.packet import (
    FLITS_PER_INSTRUCTION,
    FLITS_PER_RESULT,
    InstructionPacket,
    Packet,
    ResultPacket,
)
from repro.grid.bus import Bus
from repro.grid.linkfault import FaultEvent, FaultyBus, LinkFaultConfig
from repro.grid.grid import LinkFaultStatistics, NanoBoxGrid
from repro.grid.watchdog import (
    CellState,
    LifecyclePolicy,
    ProbeReport,
    SalvageReport,
    Watchdog,
)
from repro.grid.engine import GridState, TemporalScheduler
from repro.grid.control import ControlProcessor, DeliveryStats, JobResult
from repro.grid.simulator import GridSimulator, SimulationStats

__all__ = [
    "Bus",
    "CellState",
    "ControlProcessor",
    "DeliveryStats",
    "FaultEvent",
    "FaultyBus",
    "FLITS_PER_INSTRUCTION",
    "FLITS_PER_RESULT",
    "GridSimulator",
    "GridState",
    "InstructionPacket",
    "JobResult",
    "LifecyclePolicy",
    "LinkFaultConfig",
    "LinkFaultStatistics",
    "NanoBoxGrid",
    "Packet",
    "ProbeReport",
    "ResultPacket",
    "SalvageReport",
    "SimulationStats",
    "TemporalScheduler",
    "Watchdog",
]
