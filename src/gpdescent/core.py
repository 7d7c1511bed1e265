"""Partitions, compositions, permutations, ordered set partitions, shuffles.

Conventions used throughout the package:

- A partition is a tuple of weakly decreasing positive integers, stored
  without trailing zeros, e.g. ``(3, 3, 2, 1)``.
- A composition is a tuple of non-negative integers.  Compositions double
  as exponent vectors of monomials: ``a = (a_1, ..., a_n)`` stands for
  ``x_1^{a_1} ... x_n^{a_n}``.
- A permutation of ``{1, ..., n}`` is a tuple in one-line notation with
  values ``1..n``, e.g. ``(3, 5, 1, 2, 4)``.  Positions are 1-based when
  reported (descent sets, restriction index sets).
- An ordered set partition is a tuple of pairwise disjoint non-empty
  tuples (each sorted increasingly) whose union is ``{1, ..., n}``.

All functions are pure; enumeration output is deterministic (lexicographic
in the permutation word or in the natural tuple order).
"""

from __future__ import annotations

import itertools
from math import comb, factorial

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Permutation = tuple[int, ...]
OrderedSetPartition = tuple[tuple[int, ...], ...]


def is_partition(parts) -> bool:
    """Check that ``parts`` is a weakly decreasing tuple of positive integers.

    >>> is_partition((3, 3, 2, 1)), is_partition((2, 3)), is_partition(())
    (True, False, True)
    """
    parts = tuple(parts)
    return all(p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts) -> Partition:
    """Return ``parts`` as a tuple, raising ``ValueError`` if not a partition."""
    parts = tuple(int(p) for p in parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def partitions(n: int) -> list[Partition]:
    """All partitions of ``n`` in reverse lexicographic order.

    >>> partitions(4)
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n == 0:
        return [()]
    result = []

    def extend(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(largest, remaining), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(n, n, ())
    return result


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram of ``lam``.

    >>> conjugate((3, 3, 2, 1))
    (4, 3, 2)
    >>> conjugate((4,))
    (1, 1, 1, 1)
    """
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def pad(lam: Partition, length: int) -> tuple[int, ...]:
    """Pad ``lam`` with trailing zeros up to ``length``."""
    if len(lam) > length:
        raise ValueError(f"partition {lam} longer than pad length {length}")
    return tuple(lam) + (0,) * (length - len(lam))


def n_stat(lam: Partition) -> int:
    """The statistic n(lam) = sum of binomial(lam'_i, 2) over columns.

    >>> n_stat((1, 1, 1)), n_stat((3, 1)), n_stat((2, 2, 1))
    (3, 1, 4)
    """
    return sum(comb(c, 2) for c in conjugate(lam))


def multinomial(lam: Partition) -> int:
    """The multinomial coefficient n! / (lam'_1! ... lam'_h!) in the conjugate parts.

    This is the dimension of the module whose monomial basis is indexed by
    the descent compositions of shape ``lam``.

    >>> multinomial((3, 1)), multinomial((2, 2, 1)), multinomial((4,))
    (12, 10, 24)
    >>> multinomial((1, 1, 1, 1))
    1
    """
    n = sum(lam)
    result = factorial(n)
    for c in conjugate(lam):
        result //= factorial(c)
    return result


def is_permutation(word) -> bool:
    """Check that ``word`` is a permutation of ``{1, ..., n}`` in one-line notation.

    >>> is_permutation((3, 1, 2)), is_permutation((1, 1, 2))
    (True, False)
    """
    word = tuple(word)
    return sorted(word) == list(range(1, len(word) + 1))


def check_permutation(word) -> Permutation:
    """Return ``word`` as a tuple, raising ``ValueError`` if not a permutation."""
    word = tuple(int(v) for v in word)
    if not is_permutation(word):
        raise ValueError(f"not a permutation of 1..n: {word}")
    return word


def permutations(n: int):
    """All permutations of ``{1, ..., n}`` in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def value_blocks(mu: Composition) -> list[range]:
    """Consecutive intervals of ``{1..n}`` with sizes given by ``mu``.

    Zero parts give empty intervals.

    >>> [list(b) for b in value_blocks((3, 2))]
    [[1, 2, 3], [4, 5]]
    """
    blocks = []
    start = 1
    for part in mu:
        blocks.append(range(start, start + part))
        start += part
    return blocks


def inverse_descent_set(word: Permutation) -> frozenset[int]:
    """Values ``v`` such that ``v + 1`` stands to the left of ``v`` in ``word``:
    the descent set of the inverse permutation (Gessel's iDes).

    >>> sorted(inverse_descent_set((3, 1, 4, 2)))
    [2]
    """
    pos = {v: i for i, v in enumerate(word)}
    return frozenset(v for v in range(1, len(word)) if pos[v + 1] < pos[v])


def block_interior(mu: Composition) -> frozenset[int]:
    """Values ``v`` such that ``v`` and ``v + 1`` share a block of
    :func:`value_blocks`; for a composition of ``n`` these are the values
    ``1..n-1`` that are not partial sums of ``mu``.

    >>> sorted(block_interior((3, 2)))
    [1, 2, 4]
    """
    return frozenset(v for block in value_blocks(mu) for v in block[:-1])


def is_shuffle(sigma: Permutation, mu: Composition) -> bool:
    """Membership test for the minimal coset representatives of type ``mu``.

    ``sigma`` is a mu-shuffle when the values of each consecutive block
    ``{1..mu_1}, {mu_1+1..mu_1+mu_2}, ...`` appear in increasing order, that
    is, when its inverse descent set avoids the block interiors (lies inside
    the partial sums of ``mu``).
    """
    return inverse_descent_set(sigma).isdisjoint(block_interior(mu))


def is_reverse_shuffle(sigma: Permutation, mu: Composition) -> bool:
    """Like :func:`is_shuffle` but each block must appear in decreasing
    order: the inverse descent set contains every block interior."""
    return block_interior(mu) <= inverse_descent_set(sigma)


def _arrangements(mu: Composition, reverse: bool) -> list[Permutation]:
    """Place each block of :func:`value_blocks` increasingly (decreasingly
    when ``reverse``) on the positions of the same block of every ordered
    set partition of type ``mu``."""
    n = sum(mu)
    blocks = [b[::-1] if reverse else b for b in value_blocks(mu)]
    result = []
    for osp in ordered_set_partitions(mu):
        word = [0] * n
        for positions, block in zip(osp, blocks):
            for p, v in zip(positions, block):
                word[p - 1] = v
        result.append(tuple(word))
    return sorted(result)


def shuffles(mu: Composition) -> list[Permutation]:
    """All mu-shuffles, in lexicographic order of the word.

    >>> len(shuffles((3, 2)))
    10
    >>> shuffles((2,))
    [(1, 2)]
    """
    return _arrangements(tuple(mu), reverse=False)


def reverse_shuffles(mu: Composition) -> list[Permutation]:
    """All reverse mu-shuffles, in lexicographic order of the word.

    >>> reverse_shuffles((2,))
    [(2, 1)]
    """
    return _arrangements(tuple(mu), reverse=True)


def ordered_set_partitions(typ: Composition) -> list[OrderedSetPartition]:
    """All ordered set partitions of ``{1..n}`` with block sizes ``typ``.

    Zero parts contribute empty blocks, which are kept so the output type
    matches ``typ`` position by position.

    >>> ordered_set_partitions((2, 1))
    [((1, 2), (3,)), ((1, 3), (2,)), ((2, 3), (1,))]
    """
    n = sum(typ)
    result = []

    def choose(block_index: int, free: tuple[int, ...], blocks: list):
        if block_index == len(typ):
            result.append(tuple(blocks))
            return
        for subset in itertools.combinations(free, typ[block_index]):
            remaining = tuple(v for v in free if v not in subset)
            choose(block_index + 1, remaining, blocks + [subset])

    choose(0, tuple(range(1, n + 1)), [])
    return result


def dominates(mu: Partition, nu: Partition) -> bool:
    """Dominance order on partitions of the same size: ``mu >= nu``.

    ``mu`` dominates ``nu`` when every leading partial sum of ``mu`` is at
    least the corresponding partial sum of ``nu``.
    """
    if sum(mu) != sum(nu):
        raise ValueError("dominance compares partitions of equal size")
    total_mu = 0
    total_nu = 0
    for i in range(max(len(mu), len(nu))):
        total_mu += mu[i] if i < len(mu) else 0
        total_nu += nu[i] if i < len(nu) else 0
        if total_mu < total_nu:
            return False
    return True
