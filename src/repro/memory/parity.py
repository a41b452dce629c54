"""Byte parity for the node memory.

Paper §II: "There is one parity bit for each byte in memory."  We keep
the parity bits in a side array, update them on every write, and check
them on reads.  :meth:`ParityStore.inject_error` flips a stored parity
bit, which the checkpoint/recovery experiments use to model the memory
faults that snapshots guard against.
"""

import numpy as np

from repro.events.engine import slow_kernel_requested

#: Parity lookup: _PARITY_LUT[b] is the even-parity bit of byte b.
_PARITY_LUT = np.array(
    [bin(b).count("1") & 1 for b in range(256)], dtype=np.uint8
)


class ParityError(Exception):
    """A read observed a byte whose stored parity bit does not match."""

    def __init__(self, address):
        super().__init__(f"parity error at byte address {address:#x}")
        self.address = address


def parity_of(data: np.ndarray) -> np.ndarray:
    """Even-parity bit of each byte in ``data``."""
    return _PARITY_LUT[np.asarray(data, dtype=np.uint8)]


class ParityStore:
    """The parity side-array for a block of ``size`` bytes.

    Two equivalent representations, chosen at construction from the
    kernel tier (same sampling contract as the event engine):

    * **eager** (reference) — a real bit array: every write
      recomputes parity, every read recomputes and compares, exactly
      like the hardware.
    * **flip-set** (turbo) — only the *discrepancies* are stored.
      :meth:`check` always receives the bytes currently held by the
      memory (that is how :class:`~repro.memory.dram.DualPortMemory`
      calls it), so without injected faults the stored parity equals
      the parity of the data by construction and a check can never
      fire.  The set holds the addresses whose stored parity bit has
      been flipped by :meth:`inject_error` and not yet overwritten; a
      check fails exactly on the lowest flipped address in its range —
      bit-identical outcomes at O(1) per access instead of O(n).
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("parity store needs a positive size")
        self.size = size
        self._bits = (
            np.zeros(size, dtype=np.uint8) if slow_kernel_requested()
            else None
        )
        self._flips = set()
        #: Count of parity checks performed (reads).
        self.checks = 0
        #: Count of errors detected.
        self.errors_detected = 0

    def update(self, start: int, data: np.ndarray) -> None:
        """Recompute parity for bytes written at ``start``."""
        if self._bits is None:
            flips = self._flips
            if flips:
                # A write restores correct parity over its span.
                end = start + len(data)
                self._flips = {a for a in flips if not start <= a < end}
            return
        data = np.asarray(data, dtype=np.uint8)
        self._bits[start:start + len(data)] = _PARITY_LUT[data]

    def check(self, start: int, data: np.ndarray) -> None:
        """Verify bytes read at ``start``; raises :class:`ParityError`."""
        self.checks += 1
        if self._bits is None:
            flips = self._flips
            if not flips:
                return
            end = start + len(data)
            bad = [a for a in flips if start <= a < end]
            if not bad:
                return
            self.errors_detected += 1
            raise ParityError(min(bad))
        data = np.asarray(data, dtype=np.uint8)
        expected = self._bits[start:start + len(data)]
        actual = _PARITY_LUT[data]
        # Byte-compare first: the match path is a pair of memcpys and a
        # memcmp, far cheaper than materialising an index array.
        if expected.tobytes() == actual.tobytes():
            return
        bad = np.nonzero(expected != actual)[0]
        self.errors_detected += 1
        raise ParityError(start + int(bad[0]))

    def inject_error(self, address: int) -> None:
        """Flip the stored parity bit for one byte (fault injection)."""
        if not 0 <= address < self.size:
            raise ValueError(f"address {address:#x} outside parity store")
        if self._bits is None:
            # Flipping twice restores the correct bit, exactly as ^= 1.
            if address in self._flips:
                self._flips.discard(address)
            else:
                self._flips.add(address)
            return
        self._bits[address] ^= 1

    def __repr__(self):
        return f"<ParityStore size={self.size} checks={self.checks}>"
