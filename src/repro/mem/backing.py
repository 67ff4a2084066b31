"""Sparse byte-addressable backing memory.

Shared by the functional simulator (directly) and the timing memory
hierarchy (as the storage behind the caches).  Pages are allocated lazily so
programs can use a large, mostly-empty address space (stack at 8 MiB, data at
1 MiB) without cost.
"""

from __future__ import annotations

from ..errors import MemoryFault

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1


class SparseMemory:
    """Little-endian sparse memory with lazy 4 KiB pages."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def _page(self, address: int) -> bytearray:
        page = self._pages.get(address >> PAGE_BITS)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[address >> PAGE_BITS] = page
        return page

    # ------------------------------------------------------------- block ops
    def load_image(self, base: int, image: bytes) -> None:
        """Copy an initial image (e.g. the program's data segment) in."""
        offset = 0
        total = len(image)
        while offset < total:
            address = base + offset
            start = address & PAGE_MASK
            chunk = min(PAGE_SIZE - start, total - offset)
            self._page(address)[start:start + chunk] = image[offset:offset + chunk]
            offset += chunk

    def read_bytes(self, address: int, size: int) -> bytes:
        if address < 0:
            raise MemoryFault(address, "negative address")
        start = address & PAGE_MASK
        if start + size <= PAGE_SIZE:  # fast path: within one page
            page = self._pages.get(address >> PAGE_BITS)
            if page is None:
                return bytes(size)
            return bytes(page[start:start + size])
        out = bytearray(size)
        for i in range(size):
            a = address + i
            page = self._pages.get(a >> PAGE_BITS)
            out[i] = page[a & PAGE_MASK] if page is not None else 0
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        if address < 0:
            raise MemoryFault(address, "negative address")
        size = len(data)
        start = address & PAGE_MASK
        if start + size <= PAGE_SIZE:  # fast path: within one page
            self._page(address)[start:start + size] = data
            return
        for i, byte in enumerate(data):
            a = address + i
            self._page(a)[a & PAGE_MASK] = byte

    # -------------------------------------------------------------- word ops
    def read_int(self, address: int, size: int, signed: bool = False) -> int:
        return int.from_bytes(
            self.read_bytes(address, size), "little", signed=signed
        )

    def write_int(self, address: int, value: int, size: int) -> None:
        mask = (1 << (size * 8)) - 1
        self.write_bytes(address, (value & mask).to_bytes(size, "little"))

    # ------------------------------------------------------------- utilities
    def copy(self) -> "SparseMemory":
        """Deep copy (used to snapshot state for differential tests)."""
        clone = SparseMemory()
        clone._pages = {k: bytearray(v) for k, v in self._pages.items()}
        return clone

    def equal_contents(self, other: "SparseMemory") -> bool:
        """Content equality that ignores untouched-but-allocated zero pages."""
        zero = bytes(PAGE_SIZE)
        pages = set(self._pages) | set(other._pages)
        for number in pages:
            mine = bytes(self._pages.get(number, zero))
            theirs = bytes(other._pages.get(number, zero))
            if mine != theirs:
                return False
        return True
