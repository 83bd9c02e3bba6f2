"""Operating-system interference model.

Section 5.2.2 of the paper observes that increasing the record size increases
not only the L2 data misses (expected) but also the *L1 instruction* misses,
and offers three candidate explanations.  The one modelled here is the
NT-interference hypothesis: the operating system interrupts the processor
periodically for context switching, each interrupt replaces part of the L1
I-cache contents with operating-system code, and the DBMS has to re-fetch its
instructions when it resumes.  Larger records mean more execution time per
record, hence more interrupts per record, hence more instruction misses per
record.

The model is deliberately simple: every ``interval_instructions`` retired
user-mode instructions, an interrupt fires which

* evicts ``l1i_flush_fraction`` of the resident L1 I-cache lines,
* flushes the ITLB (kernel entry/exit reloads translations),
* retires ``kernel_instructions`` instructions in supervisor mode, and
* charges ``kernel_cycles`` supervisor-mode cycles.

The second candidate explanation -- page-boundary crossings executing buffer
pool management code -- is modelled directly by the executor (the per-page
code path is longer than the per-record code path), so both hypotheses can be
explored with the record-size sweep experiment.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OSInterferenceConfig:
    """Parameters of the periodic-interrupt model.

    ``interval_instructions`` defaults to 100k retired instructions which, at
    a CPI of ~1.5 on a 400 MHz part, corresponds to a few thousand interrupts
    per second -- the right order of magnitude for NT 4.0's timer tick plus
    background activity without dominating the measurement.
    """

    enabled: bool = True
    interval_instructions: int = 100_000
    l1i_flush_fraction: float = 0.5
    flush_itlb: bool = True
    kernel_instructions: int = 2_000
    kernel_cycles: int = 4_000


class OSInterference:
    """Stateful periodic-interrupt generator attached to a processor.

    The clock -- the instructions retired since the last interrupt and the
    interrupts fired so far -- is two members of the processor's charging
    block (``_cachesim.Machine``: ``os_since_last``, ``os_interrupts``).
    It advances in two places that are transcriptions of each other:
    :meth:`note_instructions`, which ``SimulatedProcessor.retire`` and
    ``charge_routine`` call, and the routine visit in C, which does the same
    arithmetic on the same members and enters Python -- the processor's
    interrupt handler -- only on a visit in which an interrupt fires.  A
    disabled configuration attaches no model at all: the processor treats
    it as ``os_interference=None``.
    """

    def __init__(self, config: OSInterferenceConfig | None, machine) -> None:
        self.config = config or OSInterferenceConfig()
        if self.config.enabled and self.config.interval_instructions <= 0:
            raise ValueError("interval_instructions must be positive, got "
                             f"{self.config.interval_instructions}")
        self._machine = machine
        self.reset()

    @property
    def interrupts(self) -> int:
        """Interrupts fired so far."""
        return self._machine.os_interrupts

    def note_instructions(self, count: int) -> int:
        """Account ``count`` retired user instructions.

        Returns the number of interrupts that should fire now (usually 0 or
        1; can be larger if a single bulk retirement spans several intervals).
        """
        if not self.config.enabled or count <= 0:
            return 0
        machine = self._machine
        since_last = machine.os_since_last + count
        interval = self.config.interval_instructions
        fired = since_last // interval
        if fired:
            since_last -= fired * interval
            machine.os_interrupts += fired
        machine.os_since_last = since_last
        return int(fired)

    def reset(self) -> None:
        self._machine.os_since_last = 0
        self._machine.os_interrupts = 0
