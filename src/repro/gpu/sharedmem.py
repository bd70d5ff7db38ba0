"""Shared-memory bank model with exact conflict counting.

NVIDIA shared memory is organised as 32 banks of 4-byte words; successive
words map to successive banks.  When the threads of a warp issue a memory
instruction, the hardware services one word per bank per cycle, replaying
the instruction until every distinct word has been delivered (several
threads reading the *same* word are satisfied by one broadcast).

The paper's Figures 7 and 8 argue about *bank utilization*: the fraction of
the minimal (conflict-free) cycle count that the hardware actually achieves
for a given thread-to-address layout — 6.25 % for naive FFT writes, 25 % for
the VkFFT-style FFT→GEMM hand-off and the naive GEMM→iFFT epilogue, 100 %
for TurboFNO's swizzled layouts.  :class:`SharedMemoryBankModel` computes
those numbers from explicit word-address maps so the claims can be tested
exactly rather than asserted.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "WarpAccess",
    "SharedMemoryBankModel",
    "AccessReport",
]


@dataclass(frozen=True)
class WarpAccess:
    """One shared-memory instruction issued by a warp.

    ``word_addresses[t]`` lists the 4-byte word addresses touched by thread
    ``t`` for this instruction.  A thread accessing an 8-byte complex64 value
    touches two consecutive words.  Threads may touch zero words (inactive
    lanes).
    """

    word_addresses: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_lists(addrs: Sequence[Sequence[int]]) -> "WarpAccess":
        return WarpAccess(tuple(tuple(int(a) for a in lane) for lane in addrs))

    @staticmethod
    def complex64(element_addresses: Sequence[Sequence[int]]) -> "WarpAccess":
        """Build an access from per-thread *complex-element* addresses.

        Each complex64 element at element-address ``e`` occupies words
        ``2e`` and ``2e + 1`` (8 bytes).
        """
        lanes = []
        for lane in element_addresses:
            words: list[int] = []
            for e in lane:
                words.extend((2 * int(e), 2 * int(e) + 1))
            lanes.append(tuple(words))
        return WarpAccess(tuple(lanes))

    @property
    def num_words(self) -> int:
        return sum(len(lane) for lane in self.word_addresses)


@dataclass(frozen=True)
class AccessReport:
    """Conflict analysis of one or more warp accesses.

    Attributes
    ----------
    ideal_cycles:
        Cycles a perfectly banked layout would need
        (``ceil(distinct_words / banks)`` per instruction, summed).
    actual_cycles:
        Cycles implied by the worst-loaded bank of each instruction.
    distinct_banks:
        Number of distinct banks touched across all instructions.
    """

    ideal_cycles: int
    actual_cycles: int
    distinct_banks: int
    num_banks: int

    @property
    def utilization(self) -> float:
        """Bank utilization in (0, 1]: ideal cycles / actual cycles."""
        if self.actual_cycles == 0:
            return 1.0
        return self.ideal_cycles / self.actual_cycles

    @property
    def conflict_degree(self) -> float:
        """Average replay factor (1.0 means conflict-free)."""
        if self.ideal_cycles == 0:
            return 1.0
        return self.actual_cycles / self.ideal_cycles


class SharedMemoryBankModel:
    """Counts bank-conflict replays for explicit warp access patterns."""

    def __init__(self, num_banks: int = 32, bank_bytes: int = 4) -> None:
        if num_banks <= 0 or bank_bytes <= 0:
            raise ValueError("num_banks and bank_bytes must be positive")
        self.num_banks = num_banks
        self.bank_bytes = bank_bytes

    def bank_of_word(self, word_address: int) -> int:
        """Bank index of a 4-byte word address."""
        return word_address % self.num_banks

    def analyze_instruction(self, access: WarpAccess) -> AccessReport:
        """Analyze a single warp instruction.

        The hardware cost of one instruction is the maximum, over banks, of
        the number of *distinct* words requested in that bank (duplicate
        words broadcast for free).  The ideal cost spreads the same distinct
        words evenly over all banks.
        """
        words: set[int] = set()
        for lane in access.word_addresses:
            words.update(lane)
        if not words:
            return AccessReport(0, 0, 0, self.num_banks)
        per_bank: dict[int, set[int]] = defaultdict(set)
        for w in words:
            per_bank[self.bank_of_word(w)].add(w)
        actual = max(len(ws) for ws in per_bank.values())
        ideal = -(-len(words) // self.num_banks)  # ceil div
        return AccessReport(
            ideal_cycles=ideal,
            actual_cycles=actual,
            distinct_banks=len(per_bank),
            num_banks=self.num_banks,
        )

    def analyze(self, accesses: Iterable[WarpAccess]) -> AccessReport:
        """Analyze a sequence of warp instructions (costs add)."""
        ideal = actual = 0
        banks: set[int] = set()
        for acc in accesses:
            rep = self.analyze_instruction(acc)
            ideal += rep.ideal_cycles
            actual += rep.actual_cycles
            words = {w for lane in acc.word_addresses for w in lane}
            banks.update(self.bank_of_word(w) for w in words)
        return AccessReport(ideal, actual, len(banks), self.num_banks)
