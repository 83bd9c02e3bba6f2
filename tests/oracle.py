"""The per-address charging oracle (and the in-process morsel pipeline).

Production charging is bulk: :class:`~repro.execution.context.
ExecutionContext` presents column-vector reads, full-record sweeps, page
transfers and workspace churn to the simulated hardware as strided
operations.  The contract is that each bulk operation is count-identical --
same cache/TLB hits and misses, same LRU evolution -- to the element loads
it stands for, issued one at a time in ascending order.

:class:`PerAddressContext` is that reference: the same context with the five
bulk charging sites replaced by their per-element loops, on the pure-Python
routine-visit path (so a bulk-vs-per-address differential doubles as a
native-vs-Python one).  It is a test oracle, installed by the
``charging`` fixture in ``conftest.py`` the way ``pure_python`` hides the
native module; no production code can select it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import repro.engine.session as session_mod
import repro.execution.parallel as parallel_mod
from repro.execution.code_layout import LINE_BYTES
from repro.execution.context import ExecutionContext
from repro.storage.schema import RecordLayout


class PerAddressContext(ExecutionContext):
    """An :class:`ExecutionContext` that probes one address at a time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Force the Python visit path: the native one runs the workspace
        # touches in C, in bulk.
        self._native_ctx = None
        self._charging_path = "python: per-address oracle"
        self._visit_counter = 0
        self._cold_cursor = 0
        self._workspace_cursor = 0
        self._bulk_mispred_carry = 0.0

    def _touch_workspace(self, touches: int) -> None:
        processor = self.processor
        stride = self._workspace_stride
        size = self._workspace_size
        cursor = self._workspace_cursor
        for _ in range(touches):
            processor.data_read(self.workspace_base + cursor, 4)
            cursor = (cursor + stride) % size
        self._workspace_cursor = cursor

    def _page_io_out(self, address: int, nbytes: int) -> None:
        self.visit("page_boundary")
        for offset in range(0, nbytes, LINE_BYTES):
            self.processor.data_write(address + offset, LINE_BYTES)
        self.io_stats["page_writes"] += 1
        self.io_stats["bytes_written"] += nbytes

    def _page_io_in(self, address: int, nbytes: int) -> None:
        self.visit("page_boundary")
        for offset in range(0, nbytes, LINE_BYTES):
            self.processor.data_read(address + offset, LINE_BYTES)
        self.io_stats["page_reads"] += 1
        self.io_stats["bytes_read"] += nbytes

    def read_column_batch(self, page, layout: RecordLayout,
                          slots: Sequence[int], column: str) -> list:
        if slots and getattr(page, "columnar", False):
            offset, width = layout.field_slice(column)
            for slot in slots:
                self.processor.data_read(page.field_address(slot, offset), width)
            return page.column_values(column, slots)
        return super().read_column_batch(page, layout, slots, column)

    def _charge_nsm_stride(self, page, slots: Sequence[int], offset: int,
                           width: int, record_size: int) -> None:
        for slot in slots:
            self.processor.data_read(page.slot_address(slot) + offset, width)


@contextmanager
def per_address_sessions():
    """Sessions constructed inside the block charge through the oracle."""
    saved = session_mod.ExecutionContext
    session_mod.ExecutionContext = PerAddressContext
    try:
        yield
    finally:
        session_mod.ExecutionContext = saved


@contextmanager
def in_process_morsels():
    """Morsel-parallel sessions constructed inside the block run their
    morsels in-process, as on a platform that cannot fork (no pool to spin
    up per session; the tapes and their replay are the same)."""
    saved = parallel_mod.fork_available
    parallel_mod.fork_available = lambda: False
    try:
        yield
    finally:
        parallel_mod.fork_available = saved


@contextmanager
def morsel_pages(pages):
    """Exchanges that run inside the block cut their scans into morsels of
    ``pages`` pages instead of the size derived from page count and workers
    (``None``: leave the derivation alone) -- a test's way to pin one
    particular partitioning.  Partitioning happens when the exchange is
    pulled, so the block must cover the execution, not the construction."""
    if pages is None:
        yield
        return
    saved = parallel_mod.ParallelExecution.default_morsel_pages
    parallel_mod.ParallelExecution.default_morsel_pages = (
        lambda self, page_count: max(pages, 1))
    try:
        yield
    finally:
        parallel_mod.ParallelExecution.default_morsel_pages = saved
