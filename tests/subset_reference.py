"""The tests' own subset order, independent of the package's bitmasks.

degree_basis(n, p) lists the p-subsets of range(n) as sorted tuples in
lexicographic order, and subset_position is its inverse. The package
indexes subsets by bitmask only (cecomplex.degree_masks and
oracle.mask_position); references built on these tuples therefore check
that order rather than read it. ce_kernel names the cochain x_I (x) v_k
by its key mask(I) * m + k; cochain_key and key_position translate
between keys and positions in this order. kept_cochains is the
enumeration of a set of tags' cochains by filtering every subset.
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


def cochain_key(n: int, m: int, p: int, i: int) -> int:
    """The key of the degree-p cochain at position i."""
    return subset_mask(degree_basis(n, p)[i // m]) * m + i % m


def key_position(n: int, m: int, key: int) -> int:
    """The position of a cochain key in its degree."""
    mask, k = divmod(key, m)
    I = tuple(i for i in range(n) if mask >> i & 1)
    return subset_position(n, len(I))[I] * m + k


def positional(n: int, m: int, entries: dict) -> dict:
    """Kernel entries {(row key, column key): v} at positions, in their order."""
    return {(key_position(n, m, r), key_position(n, m, c)): v for (r, c), v in entries.items()}


def kept_cochains(n: int, m: int, tag_of, kept) -> list[tuple[list[int], list[int]]]:
    """Per degree, the keys and tag ids of the cochains (I, k) with tag_of(I, k) in kept.

    Every p-subset in degree_basis order, which is cecomplex.degree_masks'
    (test_cecomplex checks the two agree), then k ascending, filtered.
    """
    out = []
    for p in range(n + 1):
        found = [
            (subset_mask(I) * m + k, t)
            for I in degree_basis(n, p)
            for k in range(m)
            for t in [tag_of(I, k)]
            if t in kept
        ]
        out.append(([key for key, _ in found], [t for _, t in found]))
    return out
