"""Buffer pool with a simulated backing store.

The paper configures every DBMS with a buffer pool "large enough to fit the
datasets for all the queries" and verifies that no significant I/O happens
during measurement: the study is explicitly about processor and memory
behaviour, not the I/O subsystem.  The default pool (``capacity_pages=None``)
reflects that setup -- every page stays resident and the fault counter stays
zero after load, which the tests assert.

A capacity-limited pool, however, is now a real memory budget rather than a
data-loss trap:

* evicted frames are written to a simulated backing store (the ``disk``
  region of the :class:`~repro.storage.address_space.AddressSpace`); dirty
  victims charge a page write through the optional ``io`` cost model before
  they leave the pool;
* :meth:`~BufferPool.fetch_page` transparently reloads a faulted page from
  the backing store as a charged page read -- the strict
  :class:`BufferPoolError` is reserved for page numbers that were never
  allocated;
* each frame receives a stable, page-aligned simulated virtual address from
  the ``heap`` (or ``index``, or ``workspace``) region, which is what ties
  the logical DBMS objects to the cache simulation; backing-store copies get
  a stable ``disk`` address so page transfers have somewhere to be charged;
* pin counts and hit/miss/eviction/transfer statistics are maintained so
  tests and benchmarks can reason about residency (a memory-resident run has
  zero faults; a memory-constrained hybrid hash join shows its spill traffic
  in ``page_reads``/``page_writes``).

The ``io`` collaborator only needs two methods, ``page_io_out(address,
nbytes)`` and ``page_io_in(address, nbytes)`` -- the
:class:`~repro.execution.context.ExecutionContext` implements them by
charging the simulated processor for the transferred lines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from .address_space import AddressSpace
from .page import DEFAULT_PAGE_SIZE, SlottedPage

#: Region that backs evicted pages.  Pages are only assigned an address here
#: lazily, on first eviction, so memory-resident pools never touch it.
BACKING_REGION = "disk"


class BufferPoolError(RuntimeError):
    """Raised on buffer-pool misuse (unknown page, over-capacity, pin leaks)."""


@dataclass
class BufferPoolStats:
    """Fetch statistics (hits vs. faults), evictions and page transfers."""

    fetches: int = 0
    hits: int = 0
    faults: int = 0
    evictions: int = 0
    page_reads: int = 0
    page_writes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.fetches if self.fetches else 0.0

    def as_dict(self) -> dict:
        return {"fetches": self.fetches, "hits": self.hits, "faults": self.faults,
                "evictions": self.evictions, "page_reads": self.page_reads,
                "page_writes": self.page_writes, "hit_rate": self.hit_rate}


class BufferPool:
    """Page allocator and LRU cache of :class:`SlottedPage` frames."""

    def __init__(self,
                 address_space: AddressSpace,
                 region: str = "heap",
                 page_size: int = DEFAULT_PAGE_SIZE,
                 capacity_pages: Optional[int] = None,
                 io=None,
                 backing_region: str = BACKING_REGION) -> None:
        self.address_space = address_space
        self.region = region
        #: Region evicted pages are addressed in.  The default shared
        #: ``disk`` region is right for the single-session case; concurrent
        #: logical sessions pass a private namespace (created with
        #: :meth:`~repro.storage.address_space.AddressSpace.ensure_region`)
        #: so two memory-budgeted joins spilling at the same time cannot
        #: collide on backing-store pages.
        self.backing_region = backing_region
        self.page_size = page_size
        self.capacity_pages = capacity_pages
        self.io = io
        self._frames: "OrderedDict[int, SlottedPage]" = OrderedDict()
        self._pins: Dict[int, int] = {}
        #: Evicted pages, keyed by page number (the simulated disk contents).
        self._store: Dict[int, SlottedPage] = {}
        #: Stable ``disk``-region address per spilled page number.
        self._disk_addresses: Dict[int, int] = {}
        self._next_page_number = 0
        self.stats = BufferPoolStats()

    # ------------------------------------------------------------ allocation
    def allocate_page(self,
                      page_factory: Optional[Callable[[int, int], SlottedPage]] = None,
                      pin: bool = False) -> SlottedPage:
        """Create a brand-new page with a stable virtual address.

        ``page_factory(page_number, base_address)`` lets the caller choose
        the page organisation (a heap file configured for the PAX layout
        allocates :class:`~repro.storage.page.PaxPage` frames); the default
        is the classic slotted NSM page.  With ``pin=True`` the new page is
        returned already pinned, so a tight ``capacity_pages`` cannot evict
        it before the caller gets to use it.
        """
        page_number = self._next_page_number
        self._next_page_number += 1
        base_address = self.address_space.allocate(self.region, self.page_size,
                                                   alignment=self.page_size)
        if page_factory is None:
            page = SlottedPage(page_number, base_address, self.page_size)
        else:
            page = page_factory(page_number, base_address)
        self._admit(page)
        if pin:
            self.pin(page_number)
        return page

    def _admit(self, page: SlottedPage) -> None:
        """Insert ``page`` as the most-recently-used frame.

        The page is inserted *before* any eviction runs and is exempt from
        it, so a freshly allocated or freshly reloaded page can never be the
        victim that makes room for itself.
        """
        self._frames[page.page_number] = page
        self._frames.move_to_end(page.page_number)
        if self.capacity_pages is not None:
            try:
                while len(self._frames) > self.capacity_pages:
                    self._evict_one(exempt=page.page_number)
            except BufferPoolError:
                # Roll the admission back so a failed allocate/reload does
                # not leave the pool over capacity.
                self._frames.pop(page.page_number, None)
                raise

    def _evict_one(self, exempt: Optional[int] = None) -> None:
        """Evict the least-recently-used unpinned frame to the backing store."""
        for page_number in self._frames:
            if page_number == exempt:
                continue
            if self._pins.get(page_number, 0) == 0:
                victim = self._frames.pop(page_number)
                if victim.dirty:
                    if self.io is not None:
                        self.io.page_io_out(self._disk_address(page_number),
                                            self.page_size)
                    self.stats.page_writes += 1
                    victim.dirty = False
                self._store[page_number] = victim
                self.stats.evictions += 1
                return
        raise BufferPoolError("buffer pool is full and every page is pinned")

    def _disk_address(self, page_number: int) -> int:
        """Stable backing-store address for ``page_number`` (lazily assigned)."""
        address = self._disk_addresses.get(page_number)
        if address is None:
            address = self.address_space.allocate(self.backing_region, self.page_size,
                                                  alignment=self.page_size)
            self._disk_addresses[page_number] = address
        return address

    # ---------------------------------------------------------------- fetch
    def fetch_page(self, page_number: int, pin: bool = False) -> SlottedPage:
        """Return the frame for ``page_number``, reloading it on a fault.

        A resident page is a hit.  An evicted page is a fault: it is read
        back from the backing store as a charged page transfer (possibly
        evicting another frame to make room).  Only a page number that was
        never allocated raises :class:`BufferPoolError`.
        """
        self.stats.fetches += 1
        page = self._frames.get(page_number)
        if page is None:
            self.stats.faults += 1
            stored = self._store.pop(page_number, None)
            if stored is None:
                raise BufferPoolError(
                    f"page {page_number} was never allocated in this pool")
            if self.io is not None:
                self.io.page_io_in(self._disk_address(page_number), self.page_size)
            self.stats.page_reads += 1
            self._admit(stored)
            page = stored
        else:
            self.stats.hits += 1
            self._frames.move_to_end(page_number)
        if pin:
            self.pin(page_number)
        return page

    def page_exists(self, page_number: int) -> bool:
        """Whether ``page_number`` is retrievable (resident or spilled)."""
        return page_number in self._frames or page_number in self._store

    def peek_page(self, page_number: int) -> SlottedPage:
        """Uncharged, bookkeeping-free access to a page frame.

        Unlike :meth:`fetch_page` this touches neither the fetch statistics
        nor the LRU order and never performs (or charges) a reload -- the
        page is returned wherever it currently lives, resident or spilled.
        It exists for *measurement infrastructure* (data checkpoints of a
        warmed build) that must observe page contents without perturbing
        the simulated machine or the pool state.
        """
        page = self._frames.get(page_number)
        if page is None:
            page = self._store.get(page_number)
        if page is None:
            raise BufferPoolError(
                f"page {page_number} was never allocated in this pool")
        return page

    def is_resident(self, page_number: int) -> bool:
        return page_number in self._frames

    # ----------------------------------------------------------------- pins
    def pin(self, page_number: int) -> None:
        if page_number not in self._frames:
            raise BufferPoolError(f"cannot pin non-resident page {page_number}")
        self._pins[page_number] = self._pins.get(page_number, 0) + 1

    def unpin(self, page_number: int) -> None:
        count = self._pins.get(page_number, 0)
        if count <= 0:
            raise BufferPoolError(f"unpin of page {page_number} without matching pin")
        if count == 1:
            del self._pins[page_number]
        else:
            self._pins[page_number] = count - 1

    def pin_count(self, page_number: int) -> int:
        return self._pins.get(page_number, 0)

    # ------------------------------------------------------------ iteration
    def __len__(self) -> int:
        return len(self._frames)

    def pages(self) -> Iterator[SlottedPage]:
        """Iterate over resident pages in page-number order."""
        for page_number in sorted(self._frames):
            yield self._frames[page_number]

    def resident_bytes(self) -> int:
        return len(self._frames) * self.page_size

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"BufferPool(region={self.region!r}, pages={len(self._frames)}, "
                f"page_size={self.page_size})")
