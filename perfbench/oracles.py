"""Reference computations the benchmark checks the program against.

They share no code with mflab: a plain numpy prime table, trial division
that reaches 64-bit offsets (mflab's factor_oracle stops at 1e9), and the
residue enumeration criterion 10 uses for admissibility.
"""

from __future__ import annotations

from math import isqrt

import numpy as np


def prime_table(bound: int) -> np.ndarray:
    """All primes p <= bound, ascending, as int64."""
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


class TrialDivision:
    """(mobius, liouville, squarefree) at any n < top by trial division."""

    def __init__(self, top: int) -> None:
        self.top = top
        self.primes = prime_table(isqrt(top))

    def sign_values(self, n: int) -> tuple[int, int, int]:
        # every prime up to isqrt(n) is tried, so the cofactor left is 1 or a prime
        if not 1 <= n < self.top:
            raise ValueError(f"{n} outside [1, {self.top})")
        divisors = self.primes[: np.searchsorted(self.primes, isqrt(n), side="right")]
        m = n
        total = distinct = 0
        for p in divisors[np.int64(n) % divisors == 0].tolist():
            distinct += 1
            while m % p == 0:
                m //= p
                total += 1
        if m > 1:
            distinct += 1
            total += 1
        squarefree = int(total == distinct)
        return (-1) ** distinct * squarefree, (-1) ** total, squarefree


def admissible(shifts: list[int]) -> bool:
    """Residue enumeration: inadmissible iff some p^2 <= |shifts| has every class hit."""
    for p in prime_table(isqrt(len(shifts))).tolist():
        if len({a % (p * p) for a in shifts}) == p * p:
            return False
    return True
