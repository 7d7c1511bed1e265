"""Descent and inversion statistics, their tables, and descent compositions.

The inversion set records *value* pairs: ``Inv(sigma)`` consists of pairs
``(sigma_i, sigma_j)`` with ``i < j`` and ``sigma_i > sigma_j``.  The
inversion table ``invt(sigma)`` is indexed by values: entry ``j`` counts
inversion pairs whose second (smaller) coordinate is ``j``.

The major index table ``majt(sigma)`` is built from runs: decompose
``sigma`` into maximal increasing factors; if there are ``r`` runs and
value ``i`` lies in the ``k``-th run then entry ``i`` of the table is
``r - k``.  Its entries sum to ``maj(sigma)``.  The image of ``majt`` on
``S_n`` is the set of descent compositions ``D_n``; shuffling descent
compositions with block sizes ``lam`` gives the shape-indexed family
``D_lam``, the exponent set of the descent-monomial basis.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from itertools import compress, count
from operator import gt, itemgetter

from .core import (
    Composition,
    OrderedSetPartition,
    Partition,
    Permutation,
    multinomial,
    ordered_set_partitions,
    permutations,
)


class NotADescentComposition(ValueError):
    """Raised when a composition is not the major index table of any permutation."""


def inversion_set(sigma: Permutation) -> set[tuple[int, int]]:
    """Value pairs ``(sigma_i, sigma_j)`` with ``i < j`` and ``sigma_i > sigma_j``.

    >>> sorted(inversion_set((3, 5, 1, 2, 4)))
    [(3, 1), (3, 2), (5, 1), (5, 2), (5, 4)]
    """
    return {
        (sigma[i], sigma[j])
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    }


def descent_set(sigma: Permutation) -> set[int]:
    """1-based positions ``i`` with ``sigma_i > sigma_{i+1}``.

    >>> descent_set((3, 5, 1, 2, 4))
    {2}
    """
    return {i + 1 for i in range(len(sigma) - 1) if sigma[i] > sigma[i + 1]}


def inv(sigma: Permutation) -> int:
    """Number of inversions."""
    return len(inversion_set(sigma))


def maj(sigma: Permutation) -> int:
    """Major index: sum of descent positions.

    >>> maj((3, 5, 1, 2, 4))
    2
    """
    return sum(compress(count(1), map(gt, sigma, sigma[1:])))


def invt(sigma: Permutation) -> Composition:
    """Inversion table, indexed by value.

    Entry ``j`` counts the values larger than ``j`` appearing to its left.
    These are the exponents of the Artin-type monomial of ``sigma``.

    >>> invt((3, 4, 1, 5, 2))
    (2, 3, 0, 0, 0)
    """
    n = len(sigma)
    table = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                table[sigma[j] - 1] += 1
    return tuple(table)


def runs(sigma: Permutation) -> list[tuple[int, ...]]:
    """Maximal increasing factors of ``sigma``, in order.

    >>> runs((3, 4, 1, 5, 2))
    [(3, 4), (1, 5), (2,)]
    """
    result = []
    current = [sigma[0]] if sigma else []
    for value in sigma[1:]:
        if value > current[-1]:
            current.append(value)
        else:
            result.append(tuple(current))
            current = [value]
    if current:
        result.append(tuple(current))
    return result


def majt(sigma: Permutation) -> Composition:
    """Major index table: entry ``i`` is ``r - k`` when value ``i`` is in run ``k``.

    The entries sum to ``maj(sigma)``, and these are the exponents of the
    descent monomial of ``sigma``.  ``r - k`` is the number of descents at
    or right of the position of ``i``, so one right-to-left scan fills the
    table.

    >>> majt((3, 4, 1, 5, 2))
    (1, 0, 2, 2, 1)
    >>> majt((3, 1, 7, 5, 4, 2, 6))
    (3, 0, 4, 1, 2, 0, 3)
    """
    table = [0] * len(sigma)
    descents = 0
    right = len(sigma) + 1  # the value right of the current one; none at the end
    for value in reversed(sigma):
        if value > right:
            descents += 1
        table[value - 1] = descents
        right = value
    return tuple(table)


def majt_inverse(a: Composition) -> Permutation:
    """The unique permutation with major index table ``a``.

    Reconstruction: the positions ``i`` with ``a_i = j`` form level ``j``;
    listing the levels from the top down, each one increasingly, gives the
    word.  The levels are its runs exactly when every level ``0..max(a)`` is
    occupied and each level ends to the right of where the level below it
    starts (a descent at every junction).

    Raises :class:`NotADescentComposition` when no such permutation exists.

    >>> majt_inverse((1, 0, 2, 2, 1))
    (3, 4, 1, 5, 2)
    >>> majt_inverse((1, 1, 0))
    Traceback (most recent call last):
        ...
    gpdescent.descent.NotADescentComposition: (1, 1, 0)
    """
    a = tuple(a)
    if not a:
        return ()
    if min(a) < 0:
        raise NotADescentComposition(a)
    levels: list[list[int]] = [[] for _ in range(max(a) + 1)]
    for i, entry in enumerate(a, start=1):
        levels[entry].append(i)
    word: list[int] = []
    for level in reversed(levels):
        if not level or (word and word[-1] < level[0]):
            raise NotADescentComposition(a)
        word += level
    return tuple(word)


def ascent_set(a: Composition) -> frozenset[int]:
    """Values ``v`` with ``a_v < a_{v+1}`` (1-based).

    For ``a = majt(sigma)`` this is the inverse descent set of ``sigma``:
    ``v + 1`` stands left of ``v`` exactly when it lies in an earlier run,
    that is, on a higher level of the table.

    >>> sorted(ascent_set(majt((3, 1, 4, 2))))
    [2]
    """
    return frozenset(v for v in range(1, len(a)) if a[v - 1] < a[v])


def is_descent_composition(a: Composition) -> bool:
    """Whether ``a`` lies in ``D_n``, i.e. is a major index table."""
    try:
        majt_inverse(a)
    except NotADescentComposition:
        return False
    return True


@lru_cache(maxsize=None)
def descent_compositions(n: int) -> tuple[Composition, ...]:
    """The set ``D_n`` of descent compositions of length ``n``, sorted.

    >>> descent_compositions(3)
    ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 1))
    """
    return tuple(sorted({majt(sigma) for sigma in permutations(n)}))


def descent_key(a: Composition):
    """Sort key realizing the descent order on exponent vectors.

    Compare the descending sorts lexicographically; break ties by comparing
    the vectors themselves lexicographically.  This is a total order on
    compositions of a fixed length (not a monomial order).
    """
    return (tuple(sorted(a, reverse=True)), tuple(a))


def restrict(a: Composition, positions) -> Composition:
    """Subsequence of ``a`` at the 1-based ``positions``, in original order.

    >>> restrict((3, 0, 4, 1, 2, 0, 3), {1, 3, 6})
    (3, 4, 0)
    """
    return tuple(a[p - 1] for p in sorted(positions))


@lru_cache(maxsize=None)
def descent_compositions_lambda(lam: Partition) -> tuple[Composition, ...]:
    """The set ``D_lam``: compositions whose restriction to some ordered set
    partition of type ``lam`` is a descent composition block by block.

    ``D_lam`` is the union of shuffles of tuples from
    ``D_{lam_1} x ... x D_{lam_l}``.  A shuffle of the blocks is a choice of
    positions for one block plus a shuffle of the others on the complement,
    so the family is built part by part: the smallest part ``p`` is peeled
    off, and every ``p``-subset of positions carries each element of ``D_p``
    while its complement carries each element of ``D_{lam - p}`` (cached).
    Peeling the smallest part makes the fewest candidates.  Zero parts are
    skipped and the parts sorted, so weak or unsorted compositions share the
    family of their partition.

    >>> len(descent_compositions_lambda((3, 1)))
    12
    """
    parts = tuple(sorted((p for p in lam if p > 0), reverse=True))
    if parts != tuple(lam):
        return descent_compositions_lambda(parts)
    if len(parts) <= 1:
        return descent_compositions(sum(parts))
    *rest, p = parts
    n = sum(parts)
    heads = descent_compositions(p)
    tails = descent_compositions_lambda(tuple(rest))
    found: set[Composition] = set()
    for chosen in itertools.combinations(range(n), p):
        # entry i of the result is entry order[i] of head + tail
        order = [0] * n
        others = (i for i in range(n) if i not in chosen)
        for k, i in enumerate(itertools.chain(chosen, others)):
            order[i] = k
        pick = itemgetter(*order)
        found.update(pick(head + tail) for head in heads for tail in tails)
    return tuple(sorted(found))


def descent_composition_witness(a: Composition, lam: Partition) -> OrderedSetPartition | None:
    """An ordered set partition witnessing ``a`` in ``D_lam``, or ``None``.

    >>> descent_composition_witness((1, 0, 0, 1), (3, 1))
    ((1, 2, 4), (3,))
    >>> descent_composition_witness((1, 1, 0, 0), (3, 1)) is None
    True
    """
    parts = tuple(p for p in lam if p > 0)
    if len(a) != sum(parts):
        raise ValueError("composition length must match the partition size")
    for osp in ordered_set_partitions(parts):
        if all(is_descent_composition(restrict(a, block)) for block in osp):
            return osp
    return None


def j_maj(lam: Partition) -> tuple[Permutation, ...]:
    """The permutations whose major index tables lie in ``D_lam``, listed in
    the order of their tables in :func:`descent_compositions_lambda`.

    Cardinality is the multinomial coefficient in the conjugate parts.

    >>> len(j_maj((3, 1))) == multinomial((3, 1)) == 12
    True
    """
    return tuple(majt_inverse(a) for a in descent_compositions_lambda(lam))

