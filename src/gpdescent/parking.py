"""Parking functions with the dinv, area and diagonal-touch statistics.

A parking function is stored as a pair ``(area, labels)``:

- ``area`` is the area sequence of a Dyck path: ``area[0] == 0`` and each
  entry grows by at most one over its predecessor;
- ``labels`` is a permutation of ``{1..n}`` decorating the rows, read from
  the bottom row up, with the rule that a rise in the area sequence forces
  the labels to increase.

Row indices are 0-based internally; the pair is immutable and hashable.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .core import (
    Composition,
    Permutation,
    is_permutation,
    n_stat,
    ordered_set_partitions,
    value_blocks,
)


class ParkingFunction(NamedTuple):
    area: tuple[int, ...]
    labels: tuple[int, ...]


class NotAParkingFunction(ValueError):
    """Raised when a pair (area, labels) violates the parking constraints."""


class TouchConstraintError(ValueError):
    """Raised when a parking function misses a required diagonal touch."""


def is_valid(pf: ParkingFunction) -> bool:
    """Check the Dyck and label constraints.

    >>> is_valid(ParkingFunction((0, 0, 1, 0, 0, 1, 2, 2, 3), (2, 4, 7, 9, 1, 5, 8, 3, 6)))
    True
    >>> is_valid(ParkingFunction((0, 1), (2, 1)))
    False
    """
    area, labels = pf
    n = len(area)
    if len(labels) != n or not is_permutation(labels):
        return False
    if (area and area[0] != 0) or any(a < 0 for a in area):
        return False
    for i in range(n - 1):
        if area[i + 1] > area[i] + 1:
            return False
        if area[i + 1] == area[i] + 1 and labels[i] >= labels[i + 1]:
            return False
    return True


def check_valid(pf: ParkingFunction) -> ParkingFunction:
    if not is_valid(pf):
        raise NotAParkingFunction(pf)
    return pf


def area(pf: ParkingFunction) -> int:
    """Total area: the norm of the area sequence."""
    return sum(pf.area)


def _dinv_partners(a, labels, j: int) -> list[int]:
    """The rows ``i < j`` that form a dinv pair with row ``j``: equal levels
    with ``labels[i] < labels[j]``, or ``a[i] == a[j] + 1`` with
    ``labels[i] > labels[j]``.  Reads only rows ``0..j``.
    """
    level, label = a[j], labels[j]
    rows = []
    for i in range(j):
        if a[i] == level:
            if labels[i] < label:
                rows.append(i)
        elif a[i] == level + 1 and labels[i] > label:
            rows.append(i)
    return rows


def dinv_pairs(pf: ParkingFunction) -> set[tuple[int, int]]:
    """Label pairs ``(labels_i, labels_j)`` with ``i < j`` and either
    equal levels with increasing labels, or levels off by one
    (``a_i == a_j + 1``) with decreasing labels.

    >>> sorted(dinv_pairs(ParkingFunction((0, 0, 1, 0, 0, 1, 2, 2, 3), (2, 4, 7, 9, 1, 5, 8, 3, 6))))
    [(2, 4), (2, 9), (4, 9), (7, 1)]
    """
    a, labels = pf
    pairs = set()
    for j in range(len(a)):
        for i in _dinv_partners(a, labels, j):
            pairs.add((labels[i], labels[j]))
    return pairs


def dinv(pf: ParkingFunction) -> int:
    """Number of :func:`dinv_pairs`, counted row by row without building them.

    >>> dinv(ParkingFunction((0, 0, 1, 0, 0, 1, 2, 2, 3), (2, 4, 7, 9, 1, 5, 8, 3, 6)))
    4
    """
    a, labels = pf
    return sum(len(_dinv_partners(a, labels, j)) for j in range(len(a)))


def touches(pf: ParkingFunction, alpha: Composition) -> bool:
    """Whether the path touches the diagonal at the start of every block."""
    if sum(alpha) != len(pf.area) or any(part < 1 for part in alpha):
        return False
    # value_blocks numbers rows from 1; the area sequence is 0-based
    return all(pf.area[block.start - 1] == 0 for block in value_blocks(alpha))


def _doff_weights(alpha: Composition) -> list[int]:
    """Per-row doff weight: every row of block ``k`` (1-based, ``l``
    blocks) weighs ``l - k``."""
    l = len(alpha)
    return [l - k for k, part in enumerate(alpha, start=1) for _ in range(part)]


def doff(pf: ParkingFunction, alpha: Composition) -> int:
    """Weighted count of diagonal rows: block ``k`` (1-based, ``l`` blocks)
    contributes ``(l - k)`` for each of its rows at level zero.

    >>> doff(ParkingFunction((0, 0, 1, 0, 0, 1, 2, 2, 3), (2, 4, 7, 9, 1, 5, 8, 3, 6)), (1, 2, 6))
    3
    """
    check_valid(pf)
    if not touches(pf, alpha):
        raise TouchConstraintError((pf, alpha))
    return sum(w for w, level in zip(_doff_weights(alpha), pf.area) if level == 0)


def _area_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All Dyck area sequences of length ``n >= 1``."""

    def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for nxt in range(prefix[-1] + 2):
            yield from extend(prefix + (nxt,))

    yield from extend((0,))


def _labelings(area_seq: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All label permutations valid for ``area_seq``.

    Rows linked by rises form chains that must be labeled increasingly, so
    a labeling amounts to distributing ``{1..n}`` over the chains: one
    ordered set partition with the chain sizes.  The chains are runs of
    consecutive rows, so the blocks, joined, are the labels bottom row first.
    """
    sizes: list[int] = []
    for i, level in enumerate(area_seq):
        if i and level == area_seq[i - 1] + 1:
            sizes[-1] += 1
        else:
            sizes.append(1)
    for blocks in ordered_set_partitions(tuple(sizes)):
        yield tuple(itertools.chain.from_iterable(blocks))


def parking_functions(n: int) -> Iterator[ParkingFunction]:
    """All parking functions on ``n`` rows.

    >>> sum(1 for _ in parking_functions(3))
    16
    """
    yield from parking_functions_alpha((n,) if n else ())


def parking_functions_alpha(alpha: Composition) -> Iterator[ParkingFunction]:
    """All parking functions whose path touches the diagonal at the start
    of each block of ``alpha``."""
    if any(part < 1 for part in alpha):
        raise ValueError(f"touch composition must have positive parts: {alpha}")
    for pieces in itertools.product(*(_area_sequences(part) for part in alpha)):
        seq = tuple(itertools.chain.from_iterable(pieces))
        for labels in _labelings(seq):
            yield ParkingFunction(seq, labels)


def reading_word(pf: ParkingFunction) -> Permutation:
    """Labels read along diagonals, highest level first, top row first
    within a level.

    >>> reading_word(ParkingFunction((0, 0, 1, 2, 3, 3, 4), (6, 2, 4, 5, 7, 1, 3)))
    (3, 1, 7, 5, 4, 2, 6)
    """
    order = sorted(range(len(pf.area)), key=lambda i: (-pf.area[i], -i))
    return tuple(pf.labels[i] for i in order)


def perm_to_pf0(sigma: Permutation) -> ParkingFunction:
    """The dinv-zero parking function with reading word ``sigma``.

    The labels are ``sigma`` reversed; walking up from the bottom row, the
    level steps up exactly at the descents of ``sigma``, so the area of the
    row holding value ``i`` is entry ``i`` of ``majt(sigma)`` and the total
    area is ``maj(sigma)``.

    >>> perm_to_pf0((3, 1, 7, 5, 4, 2, 6))
    ParkingFunction(area=(0, 0, 1, 2, 3, 3, 4), labels=(6, 2, 4, 5, 7, 1, 3))
    """
    n = len(sigma)
    levels = [0] * n
    level = 0
    for i in range(n - 1, 0, -1):
        if sigma[i - 1] > sigma[i]:
            level += 1
        levels[n - i] = level
    return ParkingFunction(tuple(levels), tuple(reversed(sigma)))


def pf0_to_perm(pf: ParkingFunction) -> Permutation:
    """Inverse of :func:`perm_to_pf0`; rejects parking functions with dinv > 0."""
    check_valid(pf)
    if dinv(pf) != 0:
        raise ValueError(f"parking function has dinv {dinv(pf)} != 0")
    return reading_word(pf)


def level_composition(pf: ParkingFunction) -> Composition:
    """Composition whose entry ``i`` is the level of the row labeled ``i``.

    For dinv-zero parking functions this equals ``majt`` of the reading word.
    """
    n = len(pf.area)
    entry = [0] * n
    for i in range(n):
        entry[pf.labels[i] - 1] = pf.area[i]
    return tuple(entry)


def minimal_parking_functions(alpha: Composition) -> list[ParkingFunction]:
    """Touch-constrained parking functions minimizing ``dinv + doff``, sorted.

    ``alpha`` must be the reverse of a partition ``lam`` (weakly increasing
    parts); the minimum value of the statistic is ``n(lam)`` and the family
    is selected by that exact value, not by a structural shortcut.

    A depth-first search over the rows, bottom up, instead of filtering
    :func:`parking_functions_alpha`.  Each row takes a level (0 at the
    start of every block of ``alpha``, otherwise at most one above the row
    below) and a free label (above the row below's label at a rise).  The
    statistic is a sum over rows of non-negative terms: the dinv pairs the
    new row makes with the rows below it, plus its doff weight if it sits
    at level 0.  So a branch is cut as soon as the running total passes
    ``n(lam)``, and a complete row sequence is kept exactly when its total
    equals ``n(lam)``.

    >>> len(minimal_parking_functions((1, 3)))
    12
    >>> minimal_parking_functions(())
    [ParkingFunction(area=(), labels=())]
    """
    alpha = tuple(alpha)
    if any(alpha[i] > alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError(f"touch composition must be weakly increasing: {alpha}")
    if any(part < 1 for part in alpha):
        raise ValueError(f"touch composition must have positive parts: {alpha}")
    target = n_stat(tuple(reversed(alpha)))
    n = sum(alpha)
    weights = _doff_weights(alpha)
    starts = {block.start - 1 for block in value_blocks(alpha)}
    levels = [0] * n
    labels = [0] * n
    found: list[ParkingFunction] = []

    def extend(j: int, free: tuple[int, ...], total: int) -> None:
        # rows 0..j-1 are placed; ``free`` holds the unused labels, ascending
        if j == n:
            if total == target:
                found.append(ParkingFunction(tuple(levels), tuple(labels)))
            return
        top = 0 if j in starts else levels[j - 1] + 1
        for level in range(top + 1):
            levels[j] = level
            rise = j > 0 and level == levels[j - 1] + 1
            for k, label in enumerate(free):
                if rise and label < labels[j - 1]:
                    continue
                labels[j] = label
                gain = len(_dinv_partners(levels, labels, j))
                if level == 0:
                    gain += weights[j]
                if total + gain <= target:
                    extend(j + 1, free[:k] + free[k + 1 :], total + gain)

    extend(0, tuple(range(1, n + 1)), 0)
    # extend reaches itself through its closure; breaking that cycle frees
    # ``found`` now, not at the next cyclic garbage collection
    del extend
    return sorted(found)


def render(pf: ParkingFunction) -> str:
    """ASCII picture: one line per row, top row first, label placed in the
    column just right of its north step; dots fill the rest of the square.
    """
    check_valid(pf)
    n = len(pf.area)
    width = len(str(n))
    lines = []
    for row in range(n - 1, -1, -1):
        col = row - pf.area[row]
        cells = []
        for c in range(n):
            if c == col:
                cells.append(str(pf.labels[row]).rjust(width))
            elif c == row:
                cells.append("\\".rjust(width))
            else:
                cells.append(".".rjust(width))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def to_json_dict(pf: ParkingFunction) -> dict:
    """Canonical serialization as the pair of integer sequences."""
    return {"area": list(pf.area), "labels": list(pf.labels)}
