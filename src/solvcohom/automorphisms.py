"""Signed-permutation automorphisms of a Lie algebra that keep its complement.

A signed permutation pi of the basis sends X_i to +-X_{pi(i)}. It is an
automorphism when [pi X_i, pi X_j] = pi [X_i, X_j] for every pair, which is
compared exactly on the structure constants. The oracle pairs full
sectors along such maps (oracle.verify_quasi_iso), and certifies each map
on the algebra and its module before it pairs anything (oracle._certified),
so a map found here is never trusted unchecked.
"""
from __future__ import annotations

from .liealg import LieAlgebraData

# A signed permutation of the basis: (image, whether the sign is -1) per index.
SignedPermutation = tuple[tuple[int, bool], ...]
# The most nodes linear_automorphisms visits for one algebra.
SEARCH_NODES = 4096


def find_root(root: list[int], i: int) -> int:
    """i's class in the union-find forest root."""
    while root[i] != i:
        i = root[i]
    return i


def linear_automorphisms(g: LieAlgebraData) -> tuple[list[SignedPermutation], int]:
    """Signed permutations of the basis that keep the complement and the brackets,
    and the search nodes spent finding them (at most SEARCH_NODES).

    The components of the bracket graph (i, j and k joined for each nonzero
    c_ij^k) are the ideals of a direct sum. Only a component that holds a
    complement index can move a weight tag (a covector over the
    complement), so only those are searched: for each, one
    automorphism per action on its complement indices, and for each
    consecutive pair of isomorphic ones an isomorphism, extended to the swap
    of the two. Each fixes every index outside the components it maps.
    Images are tried among the indices with the same bracket counts; once
    the search has spent SEARCH_NODES nodes, it returns what it has found.
    """
    n, complement = g.dim, set(g.complement)
    # An automorphism keeps whether an index is in the complement, how many
    # nonzero brackets it enters, and how many bracket terms it is the target of.
    pairs, targets = [0] * n, [0] * n
    root = list(range(n))
    for (i, j), terms in g.bracket_table().items():
        pairs[i] += 1
        pairs[j] += 1
        root[find_root(root, j)] = find_root(root, i)
        for k, _ in terms:
            targets[k] += 1
            root[find_root(root, k)] = find_root(root, i)
    signature = [(i in complement, pairs[i], targets[i]) for i in range(n)]
    parts: dict[int, list[int]] = {}
    for i in range(n):
        parts.setdefault(find_root(root, i), []).append(i)
    budget = [SEARCH_NODES]

    def maps(source: list[int], target: list[int], first_only: bool) -> list[dict]:
        """Bracket-keeping signed bijections source -> target, one per action on
        the complement indices, or only the first found."""
        order = sorted(source, key=lambda i: (i not in complement, i))
        at = {i: x for x, i in enumerate(order)}
        # ready[x]: the pairs whose bracket is compared once order[: x + 1] is mapped.
        ready: list[list[tuple[int, int]]] = [[] for _ in order]
        for x, a in enumerate(order):
            for b in order[:x]:
                ready[max([x] + [at[k] for k in g.bracket(a, b)])].append((a, b))
        options = [[j for j in target if signature[j] == signature[i]] for i in order]
        image: dict[int, tuple[int, bool]] = {}
        used: set[int] = set()
        found: list[dict] = []

        def keeps(a: int, b: int) -> bool:
            (pa, na), (pb, nb) = image[a], image[b]
            want = {}
            for k, c in g.bracket(a, b).items():
                pk, nk = image[k]
                want[pk] = -c if na ^ nb ^ nk else c
            return g.bracket(pa, pb) == want

        def extend(x: int) -> bool:
            if x == len(order):
                found.append(dict(image))
                return True
            hit = False
            for j in options[x]:
                if j in used:
                    continue
                used.add(j)
                for negative in (False, True):
                    if not budget[0]:
                        break
                    budget[0] -= 1
                    image[order[x]] = (j, negative)
                    if all([keeps(a, b) for a, b in ready[x]]) and extend(x + 1):
                        # Past the complement, one completion is enough.
                        if first_only or order[x] not in complement:
                            used.discard(j)
                            return True
                        hit = True
                used.discard(j)
            return hit

        extend(0)
        return found

    identity = [(i, False) for i in range(n)]
    perms: list[SignedPermutation] = []
    # (signature multiset, latest component) per isomorphism class met so far.
    tails: list[tuple[list, list[int]]] = []
    for part in parts.values():
        if complement.isdisjoint(part):
            continue
        for found in maps(part, part, False):
            perm = list(identity)
            for i, value in found.items():
                perm[i] = value
            perms.append(tuple(perm))
        key = sorted([signature[i] for i in part])
        for c, (other, tail) in enumerate(tails):
            if other == key and (iso := maps(tail, part, True)):
                perm = list(identity)
                for i, (j, negative) in iso[0].items():
                    perm[i], perm[j] = (j, negative), (i, negative)
                perms.append(tuple(perm))
                tails[c] = (key, part)
                break
        else:
            tails.append((key, part))
    return perms, SEARCH_NODES - budget[0]
