"""Differential pins for the array-held temporal fault streams.

``StreamBank`` must replay every cell's ``CellFaultStream`` draw for
draw -- one cycle at a time and via bulk ``advance`` jumps -- because
the event-driven grid's bit-identity contract rests on this equivalence.
Its vectorised seeding must equal ``PCG64(SeedSequence([seed, salt,
row, col]))`` register for register, and the native tape scan must
equal the NumPy body hit for hit and register for register.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.schedule import StreamBank, scan_numpy, seed_streams
from repro.faults.temporal import (
    _TEMPORAL_SALT,
    CellFaultEvent,
    TemporalFaultProcess,
)
from repro.kernels import get_provider, provider_failures

PROCESSES = {
    "transient": TemporalFaultProcess.transient(0.05, errors_per_cycle=2),
    "intermittent": TemporalFaultProcess.intermittent(0.04, burst_length=5),
    "stuck_at": TemporalFaultProcess.stuck_at(0.03),
}

QUIET = CellFaultEvent()


def reference_registers(seed, row, col):
    """(state, inc) of the generator ``process.attach`` builds."""
    state = np.random.PCG64(
        np.random.SeedSequence([seed, _TEMPORAL_SALT, row, col])
    ).state["state"]
    return state["state"], state["inc"]


def registers(bank_or_array, cell):
    regs = getattr(bank_or_array, "registers", bank_or_array)[cell]
    hi, lo, inc_hi, inc_lo = (int(v) for v in regs)
    return hi << 64 | lo, inc_hi << 64 | inc_lo


def sample(bank, cell):
    """One cycle of one cell, as ``CellFaultStream.sample`` reports it."""
    _, fired = bank.advance([cell], [1])
    return bank.event if fired[0] else QUIET


def _pair(process, seed=2004, coord=(1, 2), shape=(3, 4)):
    bank = StreamBank(process, seed, *shape)
    return process.attach(coord, seed), bank, coord[0] * shape[1] + coord[1]


class TestSeeding:
    def test_every_cell_of_a_region_matches_seedsequence(self):
        rows, cols = 224, 56
        regs = seed_streams(2004, rows, cols)
        for cell in range(rows * cols):
            assert registers(regs, cell) == reference_registers(
                2004, *divmod(cell, cols)
            ), f"cell {divmod(cell, cols)}"

    @pytest.mark.parametrize("seed", [0, 2004, 2**32 + 17, 2**40 + 5])
    @pytest.mark.parametrize(
        "coord, shape",
        [((0, 0), (224, 56)), ((223, 55), (224, 56)), ((9999, 7), (10000, 8))],
        ids=["origin", "region-corner", "far"],
    )
    def test_consecutive_draws_match_attach(self, seed, coord, shape):
        """250 draws of one stream: same events, same final registers."""
        process = TemporalFaultProcess.transient(0.05)
        stream, bank, cell = _pair(process, seed, coord, shape)
        assert registers(bank, cell) == reference_registers(seed, *coord)
        got = [sample(bank, cell) for _ in range(250)]
        want = [stream.sample() for _ in range(250)]
        assert got == want
        assert any(not event.quiet for event in got)
        reference = np.random.PCG64(
            np.random.SeedSequence([seed, _TEMPORAL_SALT, *coord])
        )
        reference.advance(250)
        assert registers(bank, cell) == (
            reference.state["state"]["state"], reference.state["state"]["inc"]
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            seed_streams(-1, 2, 2)


@pytest.mark.usefixtures("kernel_provider")
class TestScalarEquivalence:
    @pytest.mark.parametrize("name", sorted(PROCESSES))
    def test_sample_matches_stream(self, name):
        stream, bank, cell = _pair(PROCESSES[name])
        for _ in range(500):
            assert sample(bank, cell) == stream.sample()
        assert bool(bank.dead[cell]) == stream.dead


@pytest.mark.usefixtures("kernel_provider")
class TestBulkEquivalence:
    @pytest.mark.parametrize("name", sorted(PROCESSES))
    def test_advance_matches_scalar_loop(self, name):
        """A bulk jump consumes exactly the cycles a scalar loop would."""
        rng = np.random.default_rng(11)
        stream, bank, cell = _pair(PROCESSES[name])
        cycles = 0
        while cycles < 3000:
            span = int(rng.integers(1, 40))
            quiet, fired = bank.advance([cell], [span])
            quiet = int(quiet[0])
            # Replay the same span on the reference stream.
            for i in range(quiet):
                ref = stream.sample()
                assert ref.quiet, f"cycle {cycles + i}: reference not quiet"
            if not fired[0]:
                assert quiet == span
                cycles += span
            else:
                assert stream.sample() == bank.event
                cycles += quiet + 1
            assert bool(bank.dead[cell]) == stream.dead

    @pytest.mark.parametrize("name", sorted(PROCESSES))
    def test_one_call_over_many_cells_equals_per_cell_calls(self, name):
        """Batching cells (with mixed spans, bursts and dead streams)
        changes nothing for any one of them."""
        process = PROCESSES[name]
        batched = StreamBank(process, 5, 6, 7)
        single = StreamBank(process, 5, 6, 7)
        rng = np.random.default_rng(3)
        for _ in range(40):
            cells = np.sort(rng.choice(42, size=int(rng.integers(1, 42)),
                                       replace=False))
            spans = rng.integers(0, 90, size=len(cells))
            quiet, fired = batched.advance(cells, spans)
            for j, (cell, span) in enumerate(zip(cells, spans)):
                q1, f1 = single.advance([cell], [span])
                assert (quiet[j], fired[j]) == (q1[0], f1[0])
        np.testing.assert_array_equal(batched.registers, single.registers)
        np.testing.assert_array_equal(batched.dead, single.dead)

    def test_burst_interrupts_bulk_advance_immediately(self):
        process = TemporalFaultProcess.intermittent(0.9, burst_length=4)
        stream, bank, cell = _pair(process)
        quiet, fired = bank.advance([cell], [100])
        assert fired[0] and bank.event.errors == 1
        for _ in range(int(quiet[0])):
            stream.sample()
        stream.sample()
        # Burst tail: bulk advance returns each burst cycle one at a time.
        for _ in range(process.burst_length - 1):
            before = registers(bank, cell)
            quiet, fired = bank.advance([cell], [100])
            assert (int(quiet[0]), bool(fired[0])) == (0, True)
            assert registers(bank, cell) == before  # a burst draws nothing
            assert stream.sample() == bank.event
        # Past the burst the stream draws again.
        before = registers(bank, cell)
        bank.advance([cell], [1])
        assert registers(bank, cell) != before

    def test_dead_stream_consumes_no_draws(self):
        process = TemporalFaultProcess.stuck_at(0.5)
        stream, bank, cell = _pair(process)
        while not bank.dead[cell]:
            assert sample(bank, cell) == stream.sample()
        assert stream.dead
        before = registers(bank, cell)
        quiet, fired = bank.advance([cell], [1000])
        assert (int(quiet[0]), bool(fired[0])) == (1000, False)
        assert sample(bank, cell).quiet
        assert registers(bank, cell) == before

    def test_advance_zero_and_negative(self):
        _, bank, cell = _pair(PROCESSES["transient"])
        before = registers(bank, cell)
        quiet, fired = bank.advance([cell], [0])
        assert (int(quiet[0]), bool(fired[0])) == (0, False)
        assert registers(bank, cell) == before
        with pytest.raises(ValueError):
            bank.advance([cell], [-1])


class TestScanEquivalence:
    """The native tape entry equals the NumPy body on raw registers."""

    @pytest.mark.parametrize("rate", [0.0, 1e-6, 0.03, 0.5, 0.9])
    def test_native_scan_matches_numpy(self, rate):
        provider = get_provider()
        if provider is None or provider.tape_fn is None:
            pytest.skip(f"no native tape scan: {provider_failures()}")
        rng = np.random.default_rng(17)
        native = seed_streams(99, 8, 9)
        reference = native.copy()
        for _ in range(20):
            cells = rng.choice(72, size=int(rng.integers(1, 72)),
                               replace=False)
            limits = rng.integers(0, 300, size=len(cells))
            got = provider.tape_fn(native, cells, limits, rate)
            want = scan_numpy(reference, cells, limits, rate)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(native, reference)


@st.composite
def _interleavings(draw):
    """A mixed schedule of scalar samples and bulk jumps."""
    return draw(
        st.lists(
            st.one_of(
                st.just(("sample", 1)),
                st.tuples(st.just("bulk"), st.integers(1, 64)),
            ),
            min_size=1,
            max_size=60,
        )
    )


class TestInterleavedProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=_interleavings(),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(sorted(PROCESSES)),
    )
    def test_any_interleaving_matches_reference(self, ops, seed, kind):
        """Bulk advancement by N ticks == N scalar dense ticks, for any
        split of the schedule (stream level)."""
        stream, bank, cell = _pair(PROCESSES[kind], seed=seed)
        for op, span in ops:
            if op == "sample":
                assert sample(bank, cell) == stream.sample()
            else:
                quiet, fired = bank.advance([cell], [span])
                for _ in range(int(quiet[0])):
                    assert stream.sample().quiet
                if fired[0]:
                    assert stream.sample() == bank.event
                else:
                    assert quiet[0] == span
            assert bool(bank.dead[cell]) == stream.dead
