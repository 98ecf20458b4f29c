"""Tiny helpers for int-encoded point sets.

A subset of an n-point carrier is an int whose bit i stands for point i.
Everything here is branch-light and allocation-free so the checkers can
run millions of set operations without noticeable overhead.
"""

from __future__ import annotations

from collections.abc import Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
