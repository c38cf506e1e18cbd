"""The tests' own subset order, independent of the package's bitmasks.

degree_basis(n, p) lists the p-subsets of range(n) as sorted tuples in
lexicographic order, and subset_position is its inverse. The package
indexes subsets by bitmask only (cecomplex.degree_masks and
mask_position); references built on these tuples therefore check that
order rather than read it.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def degree_basis(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically ordered p-subsets of range(n)."""
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def subset_position(n: int, p: int) -> dict[tuple[int, ...], int]:
    return {I: pos for pos, I in enumerate(degree_basis(n, p))}


def subset_mask(I: tuple[int, ...]) -> int:
    """The bitmask of a subset: bit i for x_i."""
    return sum(1 << i for i in I)
