"""Processor-cell heartbeat (paper Section 2.3).

"A heartbeat signal, generated within the processor cell, is used to
determine if the cell is still active.  A watchdog unit in the
communication fabric monitors these processor cell heartbeat signals and
determines if a cell has exceeded its error threshold."

The heartbeat generator beats every cycle while the cell's detected-error
*score* stays at or below its threshold; once the score exceeds the
threshold, the heartbeat goes silent, which is the watchdog's cue to act.

The score is a leaky bucket: each ``beat()`` call (one watchdog sampling
cycle) first leaks ``decay`` off the score, so a cell suffering occasional
transient glitches recovers headroom between them, while a cell erroring
faster than the leak still goes silent.  ``decay=0`` (the default)
reproduces the original monotone-tally semantics exactly -- the score then
equals the lifetime error count and never shrinks.
"""

from __future__ import annotations


class Heartbeat:
    """Error-gated heartbeat generator with a leaky-bucket error score.

    Args:
        error_threshold: error score tolerated before the heartbeat
            stops.  The paper leaves the exact protocol to future work;
            the grid benchmarks sweep this knob.
        decay: score leaked per ``beat()`` call (one fabric cycle under
            the watchdog's polling discipline).  ``0`` keeps the legacy
            monotone semantics: every recorded error counts forever.
    """

    def __init__(self, error_threshold: int = 8, decay: float = 0.0) -> None:
        if error_threshold < 0:
            raise ValueError(
                f"error_threshold must be non-negative, got {error_threshold}"
            )
        if decay < 0:
            raise ValueError(f"decay must be non-negative, got {decay}")
        self._threshold = error_threshold
        self._decay = decay
        self._errors = 0
        self._score = 0.0
        self._beats = 0
        self._forced_silent = False
        #: Optional observer called after any state-changing method with
        #: this heartbeat as argument.  Used by the event-driven grid to
        #: maintain its alive-mask and attention sets; None costs nothing.
        self.watcher = None

    @property
    def error_threshold(self) -> int:
        return self._threshold

    @property
    def decay(self) -> float:
        """Score leaked per beat cycle (0 = legacy monotone tally)."""
        return self._decay

    @property
    def error_count(self) -> int:
        """Detected errors recorded over the heartbeat's lifetime."""
        return self._errors

    @property
    def error_score(self) -> float:
        """Current leaky-bucket score (equals ``error_count`` at decay=0)."""
        return self._score

    @property
    def beats_emitted(self) -> int:
        """Total heartbeats emitted."""
        return self._beats

    @property
    def forced_silent(self) -> bool:
        """True when the heartbeat was explicitly killed via ``silence``."""
        return self._forced_silent

    @property
    def healthy(self) -> bool:
        """True while the error score is at or below threshold, not killed.

        The threshold is inclusive: a cell *at* its threshold still
        beats; only exceeding it silences the heartbeat.
        """
        return not self._forced_silent and self._score <= self._threshold

    def record_error(self, count: int = 1) -> None:
        """Add detected errors (e.g. result-copy disagreements)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._errors += count
        self._score += count
        if self.watcher is not None:
            self.watcher(self)

    def silence(self) -> None:
        """Force the heartbeat off (models a hard cell failure)."""
        self._forced_silent = True
        if self.watcher is not None:
            self.watcher(self)

    def revive(self) -> None:
        """Restart a silenced heartbeat with a clean score.

        Used by the watchdog when a quarantined cell passes its probe
        protocol and is re-admitted to service.  The lifetime
        ``error_count`` is deliberately preserved.
        """
        self.restart()
        if self.watcher is not None:
            self.watcher(self)

    def restart(self) -> None:
        """:meth:`revive` without calling the watcher.

        For a caller that settles the watcher's bookkeeping itself: the
        grid readmitting a probe round's cells in one batch.
        """
        self._forced_silent = False
        self._score = 0.0

    def beat(self) -> bool:
        """Emit (or withhold) one cycle's heartbeat.

        Each call leaks ``decay`` off the error score first, so a silent
        cell whose errors were transient can recover and resume beating
        (decay=0 never recovers, matching the original semantics).

        Returns:
            True when the heartbeat was emitted this cycle.
        """
        if self._decay:
            self._score = max(0.0, self._score - self._decay)
            if self.watcher is not None:
                self.watcher(self)
        if not self.healthy:
            return False
        self._beats += 1
        return True

    def quiescent(self) -> bool:
        """True when ``beat()`` is a pure counter increment.

        A healthy heartbeat with nothing to leak (zero decay or zero
        score) neither changes state nor can go silent on a beat, so N
        such beats are exactly a +N on ``beats_emitted``.  The
        event-driven grid uses this predicate to decide which cells may
        be bulk-credited via :meth:`credit_beats`.
        """
        return self.healthy and (self._decay == 0.0 or self._score == 0.0)

    def credit_beats(self, count: int) -> None:
        """Credit ``count`` skipped-but-owed beats at once.

        Exactly equivalent to ``count`` successive :meth:`beat` calls
        made *while the heartbeat was quiescent*: each such call would
        have leaked nothing and emitted one beat.  The caller (the
        event-driven grid) guarantees the skipped polls all happened
        during quiescent spans; the heartbeat's *current* state may
        already have moved on (e.g. an error landed this very cycle),
        which is why this does not re-check :meth:`quiescent`.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._beats += count
