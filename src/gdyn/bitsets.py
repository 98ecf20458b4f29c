"""Tiny helpers for int-encoded point sets.

A subset of an n-point carrier is an int whose bit i stands for point i.
Everything here is branch-light and allocation-free so the checkers can
run millions of set operations without noticeable overhead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def subsets(full: int) -> Iterator[int]:
    """All subsets of ``full`` (including 0 and ``full`` itself).

    Standard subset-enumeration trick: iterate s -> (s - full) & full.
    """
    s = 0
    while True:
        yield s
        if s == full:
            return
        s = (s - full) & full
