"""Tiny helpers for int-encoded subsets."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending; a negative mask is a ValueError."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    """The mask with bit i set for each i in indices; each i must be >= 0."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def row_masks(bits: np.ndarray) -> tuple[int, ...]:
    """Each row of a 2-d bool array as a mask, column q as bit q."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
