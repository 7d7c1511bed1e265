"""Tuples of ribbon-shaped standard fillings and the height-vector bijection.

A single ribbon is stored as its rows from the bottom up, each row a tuple
of entries from west to east:

    ((2,), (8,), (10,), (3, 4, 7, 16), (5, 13, 23))

The shape is implied: within a component, the east end of each row sits
directly on top of the west end of the row below (an edge-connected skew
shape with no 2x2 block).  Entries increase to the east along rows and to
the north up columns, which for this encoding means every row is sorted
and ``max(row above) > min(row below)``.

A ribbon tuple is a tuple of components laid out left to right with
disjoint column supports; the bottom rows share height 0.  Only the
left-to-right component order and the row alignment enter any statistic,
so no column offsets are stored.

The key statistics: ``heights`` (per entry), ``area`` (their sum), the
reading word (levels top down, west to east within a level), ``dinv``
(cross-component pairs: same row with a bigger entry to the west, or an
entry one row up and further east that is bigger), and ``doff`` (bottom
cells weighted by component position).  Minimal tuples are those whose
dinv pairs hit every non-bottom cell of each later component exactly once
per earlier component and never end in the bottom row; they minimize
``dinv + doff``.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Iterable, Iterator

from .core import (
    Composition,
    Partition,
    Permutation,
    multinomial,
    n_stat,
    permutations,
)
from .descent import runs
from .parking import ParkingFunction

Ribbon = tuple[tuple[int, ...], ...]
RibbonTuple = tuple[Ribbon, ...]


class DoesNotTerminate(RuntimeError):
    """Raised when the set-partition recovery algorithm runs out of candidates."""


class ReconstructionError(ValueError):
    """Raised when a composition does not reconstruct to a minimal ribbon tuple."""


def component_sizes(tup: RibbonTuple) -> tuple[int, ...]:
    return tuple(sum(len(row) for row in comp) for comp in tup)


def heights(tup: RibbonTuple) -> dict[int, int]:
    """Map each entry to the height of its cell (bottom row is height 0)."""
    result = {}
    for comp in tup:
        for h, row in enumerate(comp):
            for entry in row:
                result[entry] = h
    return result


def area(tup: RibbonTuple) -> int:
    """Sum of all cell heights."""
    return sum(h * len(row) for comp in tup for h, row in enumerate(comp))


def height_vector(tup: RibbonTuple) -> Composition:
    """The composition whose entry ``i`` is the height of the cell holding ``i``.

    This is the map carrying a minimal tuple to its descent composition.
    """
    hs = heights(tup)
    return tuple([hs[i] for i in range(1, len(hs) + 1)])


def reading_word(tup: RibbonTuple) -> Permutation:
    """Entries by level, top level first; within a level by component order
    then west to east.

    >>> reading_word((((1, 9), (5,), (3, 8), (6,)), ((4,), (7,)), ((2,),)))
    (6, 3, 8, 5, 7, 1, 9, 4, 2)
    """
    top = max((len(comp) for comp in tup), default=0) - 1
    word = []
    for level in range(top, -1, -1):
        for comp in tup:
            if level < len(comp):
                word.extend(comp[level])
    return tuple(word)


def dinv_pairs(tup: RibbonTuple) -> set[tuple[int, int]]:
    """Cross-component pairs ``(x, y)`` with ``x`` in an earlier component
    than ``y`` and either equal heights with ``x > y``, or ``y`` one row
    above ``x`` with ``x < y``.

    Geometry rules out pairs within one component: rows increase eastward
    and heights only rise along the path.
    """
    pairs = set()
    for i, comp_i in enumerate(tup):
        for j in range(i + 1, len(tup)):
            comp_j = tup[j]
            for h, row_i in enumerate(comp_i):
                if h < len(comp_j):
                    for x in row_i:
                        for y in comp_j[h]:
                            if x > y:
                                pairs.add((x, y))
                if h + 1 < len(comp_j):
                    for x in row_i:
                        for y in comp_j[h + 1]:
                            if x < y:
                                pairs.add((x, y))
    return pairs


def dinv(tup: RibbonTuple) -> int:
    return len(dinv_pairs(tup))


def doff(tup: RibbonTuple) -> int:
    """Bottom-row cells of component ``i`` (1-based) weigh ``i - 1``.

    >>> doff((((1, 9), (5,), (3, 8), (6,)), ((4,), (7,)), ((2,),)))
    3
    """
    return sum(i * len(comp[0]) for i, comp in enumerate(tup))


def ribbon_to_parking(tup: RibbonTuple) -> ParkingFunction:
    """Reflect and shear a tuple with weakly decreasing component sizes into
    a parking function touching the diagonal at the reversed sizes.

    Components are traversed last to first; within a component the cells
    follow the ribbon path from the bottom-east end (heights weakly
    increasing, east before west at equal height).  Heights become the area
    sequence and entries become the labels.
    """
    sizes = component_sizes(tup)
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError(f"component sizes must be weakly decreasing: {sizes}")
    area_seq: list[int] = []
    labels: list[int] = []
    for comp in reversed(tup):
        for h, row in enumerate(comp):
            for entry in reversed(row):
                area_seq.append(h)
                labels.append(entry)
    return ParkingFunction(tuple(area_seq), tuple(labels))


def _settled(cells: tuple[int, ...], h: int, row: tuple[int, ...], below: tuple[int, ...]) -> bool:
    """Whether every later cell ``y`` in ``cells``, all at height ``h``, meets
    an earlier component as minimality asks, given that component's rows at
    heights ``h`` and ``h - 1`` (empty where it has none): the pair count
    ``#{x > y in row} + #{x < y in below}`` is 1 above the bottom row and
    0 in it.

    >>> _settled((7,), 1, (5,), (1, 9))  # one pair: 1 < 7 one row down
    True
    >>> _settled((4,), 0, (1, 9), ())  # a bottom cell in a pair with 9
    False
    """
    need = 1 if h > 0 else 0
    for y in cells:
        count = 0
        for x in row:
            if x > y:
                count += 1
        for x in below:
            if x < y:
                count += 1
        if count != need:
            return False
    return True


def is_minimal(tup: RibbonTuple) -> bool:
    """Minimality: every cell of a later component is in exactly one dinv
    pair with each earlier component if it sits above the bottom row, and
    in none at all if it sits in the bottom row.

    >>> is_minimal((((3,), (1, 6, 7), (2, 4)), ((5,), (9,)), ((8,),)))
    True
    >>> is_minimal((((1, 9), (5,), (3, 8), (6,)), ((4,), (7,)), ((2,),)))
    False
    """
    for j, comp_j in enumerate(tup):
        for comp_i in tup[:j]:
            top = len(comp_i)
            for h, cells in enumerate(comp_j):
                row = comp_i[h] if h < top else ()
                below = comp_i[h - 1] if 0 < h <= top else ()
                if not _settled(cells, h, row, below):
                    return False
    return True


def _ribbon(word: Permutation) -> Ribbon:
    """The ribbon whose rows, read from the top row down, are the runs of
    ``word``: a descent between two runs is the row above topping the row
    below.

    >>> _ribbon((6, 3, 8, 5, 1, 9))
    ((1, 9), (5,), (3, 8), (6,))
    """
    return tuple(reversed(runs(word)))


def ribbon_tuples(lam: Partition) -> Iterator[RibbonTuple]:
    """All ribbon tuples with component sizes ``lam`` on entries ``1..n``.

    There are ``n!`` of them: every permutation of ``1..n`` cut into
    consecutive pieces of sizes ``lam``, each piece's runs the rows of one
    component (:func:`_ribbon`).
    """
    parts = tuple(p for p in lam if p > 0)
    cuts = list(itertools.accumulate(parts, initial=0))
    pieces = list(zip(cuts, cuts[1:]))
    for word in permutations(sum(parts)):
        yield tuple([_ribbon(word[start:end]) for start, end in pieces])


Leaf = Callable[[list[int], list[int], list[Ribbon]], None]


def _minimal_tuple_search(parts: tuple[int, ...], leaf: Leaf) -> None:
    """Call ``leaf(height, rank, components)`` once for every minimal tuple
    with component sizes ``parts`` (positive, in any order), in search order.

    ``height[e]`` is the row of entry ``e`` and ``rank[e]`` its reading
    rank ``height[e] * len(parts) - i`` for entry ``e`` of component ``i``
    (index 0 of both is unused): an entry with a larger rank sits in a
    higher row, or in the same row of an earlier component, so it comes
    earlier in the reading word.  ``components[i]`` is component
    ``i`` as a tuple of rows, built once when the component closes and
    shared by every leaf that extends it.  The three lists are updated in
    place and reused from one leaf to the next, so a leaf must read them
    before it returns and must not keep them (the tuples inside may be
    kept).

    A depth-first search that only ever extends partial tuples that can
    still be minimal, instead of filtering all ``n!`` ribbon tuples with
    :func:`is_minimal`.  Components are placed last to first, and each
    component's rows bottom up from the entries still free.  Choosing row
    ``r`` of component ``i`` settles the pair count with ``i`` of every
    already placed later cell ``y`` at height ``r`` (:func:`_settled`, the
    rule :func:`is_minimal` checks): ``#{x > y in row r} + #{x < y in row
    r-1}`` must be ``need``, which is 1 if ``r > 0`` and 0 if ``r == 0``.

    So the admissible rows are known before any is built.  Let ``met`` be
    ``#{x < y in row r-1}``.  If ``met == need``, no entry of the row may
    top ``y``: its last entry is below ``y``.  If ``met == need - 1``,
    exactly one may: the last entry is above ``y`` and every other entry
    below it.  Any other ``met`` kills the branch.  A row is therefore one
    last entry in the open interval ``(lo, hi)`` plus any entries below it
    and below ``cap``, where

    - ``lo`` is ``min(row r-1)``, since the row must top the one below, or
      0 for ``r == 0``;
    - ``hi`` is the smallest cell with ``met == need``;
    - ``cap`` is the smallest cell with ``met == need - 1``.

    A cell with ``met == need - 1`` puts no bound of its own on the last
    entry: it has ``met == 0`` and ``r > 0``, so it lies below
    ``min(row r-1) = lo`` already.

    A row after which its component goes on is skipped when no free entry
    is left above its first entry, since the next row could then have no
    last entry.  A row that completes its component closes it in place:
    the later cells above it are settled against its empty rows, so one at
    height ``r + 1`` needs exactly one ``x < y`` in row ``r``, and one at
    height ``r + 2`` or more rejects the branch.

    >>> found = []
    >>> _minimal_tuple_search((2, 1), lambda height, rank, components: found.append(
    ...     (height[1:], rank[1:], tuple(components))))
    >>> for item in sorted(found):
    ...     print(*item)
    [0, 0, 0] [0, 0, -1] (((1, 2),), ((3,),))
    [0, 0, 1] [0, -1, 2] (((1,), (3,)), ((2,),))
    [0, 1, 0] [0, 2, -1] (((1,), (2,)), ((3,),))
    """
    n = sum(parts)
    m = len(parts)
    height = [0] * (n + 1)
    rank = [0] * (n + 1)
    components: list[Ribbon] = [() for _ in parts]
    if not parts:
        leaf(height, rank, components)
        return

    def extend(i: int, free: list, rows: list, left: int, later: list) -> None:
        # ``rows``: the rows of component i chosen so far, ``left`` cells to
        # go; ``later[h]``: the entries of components i+1.. at height h.
        r = len(rows)
        here = r * m - i
        below = rows[-1] if rows else ()
        need = 1 if r > 0 else 0
        lo = below[0] if below else 0
        hi = cap = n + 1
        for y in later[r] if r < len(later) else ():
            met = 0
            for x in below:
                if x < y:
                    met += 1
            if met == need:
                if y < hi:
                    hi = y
            elif met == need - 1:
                if y < cap:
                    cap = y
            else:
                return
        # ``free`` is ascending: it starts as a range and is only ever
        # filtered in order, so its slices are found by bisection
        lasts = free[bisect.bisect_right(free, lo) : bisect.bisect_left(free, hi)]
        if not lasts:
            return
        # closing the component at row r leaves the later cells above it
        # to be settled: those at r + 1 against this row, none higher
        closes = len(later) <= r + 2
        above = later[r + 1] if len(later) == r + 2 else ()
        pool = free[: bisect.bisect_left(free, min(cap, lasts[-1]))]
        for size in range(1, min(left, len(pool) + 1) + 1):
            goes_on = size < left
            if not (goes_on or closes):
                continue
            for head in itertools.combinations(pool, size - 1):
                start = bisect.bisect_right(lasts, head[-1]) if head else 0
                for e in head:
                    height[e] = r
                    rank[e] = here
                for last in lasts[start:]:
                    chosen = head + (last,)
                    if goes_on:
                        if chosen[0] == free[-size]:
                            continue  # every free entry above chosen[0] is in chosen
                    elif above and not _settled(above, r + 1, (), chosen):
                        continue
                    height[last] = r
                    rank[last] = here
                    rows.append(chosen)
                    if goes_on:
                        extend(i, [v for v in free if v not in chosen], rows, left - size, later)
                    else:
                        components[i] = tuple(rows)
                        if i == 0:
                            leaf(height, rank, components)
                        else:
                            merged = [
                                (later[h] if h < len(later) else ()) + (rows[h] if h <= r else ())
                                for h in range(max(len(later), r + 1))
                            ]
                            rest = [v for v in free if v not in chosen]
                            extend(i - 1, rest, [], parts[i - 1], merged)
                    rows.pop()

    k = len(parts) - 1
    extend(k, list(range(1, n + 1)), [], parts[k], [])
    # extend reaches itself through its closure; breaking that cycle frees
    # what the leaf holds (a caller's whole family) now, not at the next
    # cyclic garbage collection
    del extend


def minimal_ribbon_tuples(lam: Partition) -> tuple[RibbonTuple, ...]:
    """The minimal tuples of shape ``lam``, sorted by height vector.

    Collects every tuple that :func:`_minimal_tuple_search` finds, keyed by
    its height vector read as a base-``n`` number (every height is below
    ``n``), and sorts by the keys, which are distinct (:func:`reconstruct`).
    The keys stay apart from the tuples: a (key, tuple) pair per leaf would
    add one more object per leaf while the leaves are sorted, at the memory
    peak.  A caller that only tallies statistics of the tuples reads them
    off the search instead of holding this family, as
    :func:`gpdescent.symfunc.hall_littlewood_by_ribbons` does.

    >>> len(minimal_ribbon_tuples((3, 1)))
    12
    >>> minimal_ribbon_tuples(())
    ((),)
    """
    parts = tuple(p for p in lam if p > 0)
    n = sum(parts)
    found: list[RibbonTuple] = []
    keys: list[int] = []

    def keep(height: list[int], rank: list[int], components: list[Ribbon]) -> None:
        key = 0
        for h in height:
            key = key * n + h
        keys.append(key)
        found.append(tuple(components))

    _minimal_tuple_search(parts, keep)
    order = sorted(range(len(found)), key=keys.__getitem__)
    return tuple([found[k] for k in order])


def verify_minimal_ribbons(lam: Partition) -> bool:
    """Check :func:`minimal_ribbon_tuples` by brute force over all ribbon
    tuples of shape ``lam``: the minimum of ``dinv + doff`` is ``n(lam)``,
    the tuples attaining it are exactly the minimal tuples, and there are
    as many of them as the multinomial coefficient.

    >>> verify_minimal_ribbons((2, 1))
    True
    """
    tuples = list(ribbon_tuples(lam))
    values = [dinv(t) + doff(t) for t in tuples]
    least = min(values)
    argmin = {t for t, v in zip(tuples, values) if v == least}
    structural = set(minimal_ribbon_tuples(lam))
    return least == n_stat(lam) and argmin == structural and len(structural) == multinomial(lam)


def algorithm_sequence(a: Composition, lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Recover an ordered set partition from a composition by scanning the
    periodically shifted sequence ``a~[k*n + i] = a[i] + k``.

    For each block ``k`` the levels ``0 .. lam_k - 1`` are matched greedily:
    level ``m`` is realized by position ``i' = (m - a_j)*n + j`` for an
    unused index ``j`` with ``a_j <= m``, and the smallest ``i'`` past the
    previous pick wins.  Blocks are returned with their indices in the
    order picked.  Raises :class:`DoesNotTerminate` if a level cannot be
    matched.

    >>> algorithm_sequence((1, 2, 0, 2, 0, 1, 1, 0, 1), (6, 2, 1))
    ((3, 6, 1, 2, 4, 7), (5, 9), (8,))
    """
    n = len(a)
    if sum(lam) != n:
        raise ValueError("partition size must match composition length")
    unused = list(range(1, n + 1))
    blocks = []
    for size in lam:
        block: list[int] = []
        position = 0
        for m in range(size):
            best = None
            for j in unused:
                if a[j - 1] > m:
                    continue
                candidate = (m - a[j - 1]) * n + j
                if candidate > position and (best is None or candidate < best):
                    best = candidate
            if best is None:
                raise DoesNotTerminate((a, lam))
            position = best
            j = (best - 1) % n + 1
            unused.remove(j)
            block.append(j)
        blocks.append(tuple(block))
    return tuple(blocks)


def _recover(
    unused: list[list[int]], sizes: Iterable[int]
) -> list[tuple[list[int], list[list[int]]]]:
    """The set recovery of the ribbon bijection, on entries bucketed by height.

    ``unused[h]`` lists the entries at height ``h`` not yet picked, in
    ascending order, and is consumed; it must end with an empty bucket, so
    that a row above the highest entry can be read.  Block ``k`` takes
    ``sizes[k]`` entries (none for a size of zero): the first is the
    smallest entry at height 0; then each step goes to the smallest unused
    entry one row up that is larger than the current one, if there is one,
    and otherwise to the smallest unused entry in the highest non-empty row
    at or below the current one.  Raises :class:`DoesNotTerminate`, with no
    context, when no entry is left to go to; the callers add theirs.

    For each block, returns its entries in pick order and its entries
    grouped by height (``rows[h]`` in pick order, not sorted).  A block
    climbs one row at a time, so none of its rows is empty.  Once it drops
    to a lower row, it never climbs again, since it dropped because the
    rows in between were used up; so every step up opens a new top row.
    """
    blocks = []
    for size in sizes:
        picked: list[int] = []
        rows: list[list[int]] = []
        # start below height 0, so the first step takes its smallest entry
        current, level = 0, -1
        for _ in range(size):
            above = unused[level + 1]
            if above and above[-1] > current:
                current = above.pop(bisect.bisect_right(above, current))
                level += 1
                rows.append([current])  # a step up always opens a new row
            else:
                while level >= 0 and not unused[level]:
                    level -= 1
                if level < 0:
                    raise DoesNotTerminate
                current = unused[level].pop(0)
                rows[level].append(current)
            picked.append(current)
        blocks.append((picked, rows))
    return blocks


def algorithm_tableau(tup: RibbonTuple) -> tuple[tuple[int, ...], ...]:
    """The same recovery run directly on a ribbon tuple (:func:`_recover`).

    Each block starts at the smallest unused bottom-row entry; then it
    repeatedly moves to the smallest unused larger entry one row up if one
    exists, and otherwise to the smallest unused entry in the highest row
    not above the current one.  A component of size 0 gives an empty block.

    >>> t = (((3,), (1, 6, 7), (2, 4)), ((5,), (9,)), ((8,),))
    >>> algorithm_tableau(t)
    ((3, 6, 1, 2, 4, 7), (5, 9), (8,))
    """
    unused: list[list[int]] = [[]]  # always one empty bucket above the top row
    sizes = []
    for comp in tup:
        size = 0
        for h, row in enumerate(comp):
            if h == len(unused) - 1:
                unused.append([])
            unused[h] += row
            size += len(row)
        sizes.append(size)
    for cells in unused:
        cells.sort()
    try:
        blocks = _recover(unused, sizes)
    except DoesNotTerminate:
        raise DoesNotTerminate(tup) from None
    return tuple([tuple(picked) for picked, _ in blocks])


def reconstruct(a: Composition, lam: Partition) -> RibbonTuple:
    """The unique minimal tuple of shape ``lam`` with height vector ``a``.

    Puts each index ``j`` in the bucket of height ``a_j`` and runs
    :func:`_recover` on the buckets with the sizes ``lam``; the entries of
    a block at height ``h``, sorted, are the row at height ``h`` of its
    component.  For ``a >= 0`` this recovers the blocks of
    :func:`algorithm_sequence`, which stays the independent scan that the
    tests compare against: its position ``(m - a_j)*n + j`` comes after the
    previous pick's ``(m - 1 - a_prev)*n + j_prev`` exactly when either
    ``a_j = a_prev + 1`` and ``j > j_prev``, or ``a_j <= a_prev``; so the
    smallest such position is the tableau rule's choice.

    Raises ``ValueError`` if ``lam`` and ``a`` differ in size, and otherwise
    :class:`ReconstructionError` with the message of the first failed check:

    - ``invalid tuple for a``: an entry of ``a`` is negative, so it has no
      row;
    - ``set recovery failed for a``: :func:`_recover` ran out of entries,
      or an entry of ``a`` is ``n`` or more (a block of size ``s`` climbs
      to height ``s - 1`` at most, so no block could take it);
    - ``invalid ribbon rows ()``: a block took no entry, as for a zero part
      of ``lam``;
    - ``tuple for a is not minimal``: :func:`is_minimal` fails.  It is the
      certificate that the result is the tuple sought.

    The rest holds by construction, so it is not checked again:

    - that the entries are ``1..n`` in components of sizes ``lam``, since
      each ``j`` in ``1..n`` is picked once and block ``k`` takes ``lam_k``
      entries;
    - the height vector, since each ``j`` sits at height ``a_j``;
    - that each block that took an entry is a ribbon: its rows are
      non-empty and increasing, each topping the row below.  A block climbs one row at a time, so each of its rows up to the top
      is non-empty.  It first reaches height ``h + 1`` by a step up from an
      entry at height ``h`` to a larger one, so each row tops the row below.

    >>> reconstruct((0, 1, 0), (2, 1))
    (((1,), (2,)), ((3,),))
    >>> reconstruct((), ())
    ()
    """
    n = len(a)
    if sum(lam) != n:
        raise ValueError("partition size must match composition length")
    lowest, top = (min(a), max(a)) if a else (0, -1)
    if lowest < 0:
        raise ReconstructionError(f"invalid tuple for {a}")
    if top >= n:  # no block climbs that high; this also bounds the buckets
        raise ReconstructionError(f"set recovery failed for {a}")
    unused: list[list[int]] = [[] for _ in range(top + 2)]  # nothing above the top row
    for j, h in enumerate(a, 1):
        unused[h].append(j)
    try:
        blocks = _recover(unused, lam)
    except DoesNotTerminate:
        context = DoesNotTerminate((a, lam))
        raise ReconstructionError(f"set recovery failed for {a}") from context
    components = []
    for _, rows in blocks:
        if not rows:
            raise ReconstructionError("invalid ribbon rows ()")
        for row in rows:
            row.sort()
        components.append(tuple(map(tuple, rows)))
    tup = tuple(components)
    if not is_minimal(tup):
        raise ReconstructionError(f"tuple for {a} is not minimal")
    return tup


def _column_spans(comp: Ribbon) -> list[tuple[int, int]]:
    """Per-row [west, east] column spans, normalized to start at 0."""
    spans = []
    east = 0
    for i, row in enumerate(comp):
        west = east - len(row) + 1
        spans.append((west, east))
        if i + 1 < len(comp):
            east = west
    shift = -min(w for w, _ in spans)
    return [(w + shift, e + shift) for w, e in spans]


def cell_coordinates(tup: RibbonTuple, gap: int = 1) -> dict[int, tuple[int, int]]:
    """Absolute (column, row) of each entry in a left-to-right layout with
    ``gap`` empty columns between components.

    Statistics never read these coordinates; they exist for rendering and
    for checking that no statistic depends on the chosen offsets.
    """
    coords: dict[int, tuple[int, int]] = {}
    offset = 0
    for comp in tup:
        spans = _column_spans(comp)
        for h, (row, (west, _)) in enumerate(zip(comp, spans)):
            for k, entry in enumerate(row):
                coords[entry] = (offset + west + k, h)
        offset += max(east for _, east in spans) + 1 + gap
    return coords


def render(tup: RibbonTuple, gap: int = 1) -> str:
    """ASCII layout mirroring the stored geometry, components left to right;
    the empty tuple renders as the empty string."""
    if not tup:
        return ""
    n = sum(component_sizes(tup))
    width = len(str(n))
    coords = cell_coordinates(tup, gap)
    total_cols = max(col for col, _ in coords.values()) + 1
    top = max(len(comp) for comp in tup)
    lines = []
    for h in range(top - 1, -1, -1):
        cells = ["." * width] * total_cols
        for entry, (col, row) in coords.items():
            if row == h:
                cells[col] = str(entry).rjust(width)
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)
