"""Instruction mixes (paper §VI-B/C).

A pattern is a repeating block of 'set'/'get' opcodes:

- ``SET_ONLY`` / ``GET_ONLY``: the pure sweeps of Figs. 3-4.
- ``NON_INTERLEAVED_10_90``: "a mix of 10% Set operations and 90% Get
  operations.  The pattern of access is 1 Sets followed by 9 Gets."
- ``INTERLEAVED_50_50``: "1 Set is followed by 1 Get."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class OpPattern:
    """A repeating block of operations."""

    name: str
    block: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.block:
            raise ValueError("empty op block")
        bad = set(self.block) - {"set", "get"}
        if bad:
            raise ValueError(f"unknown ops {bad}")

    def ops(self, n: int) -> Iterator[str]:
        """The first *n* operations of the repeating pattern."""
        for i in range(n):
            yield self.block[i % len(self.block)]


SET_ONLY = OpPattern("set-100", ("set",))
GET_ONLY = OpPattern("get-100", ("get",))
NON_INTERLEAVED_10_90 = OpPattern(
    "non-interleaved-10-90", ("set",) + ("get",) * 9
)
INTERLEAVED_50_50 = OpPattern("interleaved-50-50", ("set", "get"))
