"""Bloom-filter trip summaries and time-slot vectors for the direct service.

Cell sets (pick-up area, drop-off area, route) become fixed-width bit
vectors. Each inserted cell sets exactly `n_hashes` distinct bits: when two
hash positions collide, a counter is appended to the hashed message and the
position recomputed with the smallest counter that lands on a free bit, so
both sides of a membership test derive identical positions. That makes the
dot product of a single-cell query against a filter equal to `n_hashes`
exactly when the cell is present (false positives possible, never false
negatives).

Positions are keyed by (epoch, salt): rotating the epoch re-randomizes every
cell's bit positions, so summaries from different epochs do not match.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86400


def sizing(max_items: int, fpp: float) -> tuple[int, int]:
    """Filter width and hash count for a target false-positive probability.

    Width comes from the standard bound -n*ln(p)/ln(2)^2 rounded up to a
    multiple of 64; the hash count from (width/n)*ln(2) rounded up.
    """
    if max_items < 1:
        raise ValueError(f"max_items must be >= 1, got {max_items}")
    if not (0.0 < fpp < 1.0):
        raise ValueError(f"fpp must be in (0, 1), got {fpp}")
    raw = math.ceil(-max_items * math.log(fpp) / (math.log(2) ** 2))
    bits = max(64, ((raw + 63) // 64) * 64)
    n_hashes = math.ceil((bits / max_items) * math.log(2))
    return bits, n_hashes


def cell_positions(
    cell_value: int, bits: int, n_hashes: int, epoch: int, salt: int
) -> list[int]:
    """The `n_hashes` pairwise-distinct bit positions for one cell.

    Deterministic in (cell, epoch, salt, bits, n_hashes); collisions are
    resolved per hash index with the smallest counter that frees the slot.
    """
    if n_hashes > bits:
        raise ValueError(f"n_hashes {n_hashes} cannot exceed bits {bits}")
    key = struct.pack("<QQ", salt & 0xFFFFFFFFFFFFFFFF, epoch & 0xFFFFFFFFFFFFFFFF)
    used: set[int] = set()
    positions = []
    for i in range(n_hashes):
        counter = 0
        while True:
            msg = struct.pack("<QII", cell_value, i, counter)
            digest = hashlib.blake2b(msg, digest_size=16, key=key).digest()
            pos = int.from_bytes(digest, "little") % bits
            if pos not in used:
                break
            counter += 1
        used.add(pos)
        positions.append(pos)
    return positions


@dataclass
class BloomFilter:
    """A fixed-width trip summary for one epoch."""

    bits: int
    n_hashes: int
    epoch: int
    salt: int
    array: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if self.array is None:
            self.array = np.zeros(self.bits, dtype=np.uint8)
        elif self.array.shape != (self.bits,):
            raise ValueError("bit array width mismatch")

    def add(self, cell: int) -> None:
        for pos in cell_positions(int(cell), self.bits, self.n_hashes, self.epoch, self.salt):
            self.array[pos] = 1

    def add_all(self, cells) -> None:
        for cell in cells:
            self.add(cell)

    def vector(self) -> np.ndarray:
        """Float copy ready for encryption."""
        return self.array.astype(np.float64)

    @classmethod
    def of_cells(
        cls, cells, bits: int, n_hashes: int, epoch: int, salt: int
    ) -> "BloomFilter":
        filt = cls(bits, n_hashes, epoch, salt)
        filt.add_all(cells)
        return filt


def slot_index(seconds: float, slots: int) -> int:
    """Which of `slots` equal slices of the day a timestamp falls in."""
    if not (0 <= seconds < SECONDS_PER_DAY):
        raise ValueError(f"seconds must be in [0, {SECONDS_PER_DAY}), got {seconds}")
    return int(seconds * slots // SECONDS_PER_DAY)


def slot_vector(seconds: float, slots: int) -> np.ndarray:
    """One-hot day-slot vector of width `slots`, the direct time index's plaintext."""
    vec = np.zeros(slots, dtype=np.float64)
    vec[slot_index(seconds, slots)] = 1.0
    return vec
