"""Checks of the paper's lemmas that only the tests run.

Each one tests a statement about the objects the package computes, not a
step of any command: the local patterns of minimal ribbon tuples, the
structure of the dinv-zero parking functions, the extreme exponents of the
antisymmetrized descent monomials, and the splitting map's containment of
the conjugate ideal.  The test modules import them as
``from lemmas import ...``.
"""

from __future__ import annotations

import random

from gpdescent.core import Composition, Partition, conjugate, partitions
from gpdescent.descent import descent_key
from gpdescent.parking import ParkingFunction
from gpdescent.polynomial import elementary_symmetric, mul_monomial
from gpdescent.ribbon import RibbonTuple
from gpdescent.tanisaki import (
    ideal_member,
    parabolic_basis_elements,
    phi_by_descent_coordinates,
    tanisaki_ideal,
)


def check_patterns(tup: RibbonTuple) -> list[str]:
    """Local rules satisfied by every minimal tuple; returns violations.

    With the earlier component on the west side of each picture:

    1. the bottom row increases west to east across components;
    2. a stacked pair (``a`` on top of ``c``) level with a later-component
       entry ``b`` in ``a``'s row never has ``c < b < a``;
    3. an entry with an east neighbour in its own row is smaller than every
       later-component entry at its height;
    4. no row with three or more cells is level with a later-component cell
       carrying a cell directly above it;
    5. if a cell ``a`` tops the west end ``b`` of a row with east neighbour
       ``c``, and a later component also rises through those two rows, then
       ``a < c``.

    Vertical adjacency in this encoding: the cell above the west end of a
    row is the east end of the row above, whenever that row exists.
    """
    violations = []

    bottom = [e for comp in tup for e in comp[0]]
    if any(bottom[k] > bottom[k + 1] for k in range(len(bottom) - 1)):
        violations.append(f"pattern 1: bottom row {bottom} not increasing")

    for i, comp in enumerate(tup):
        for j in range(i + 1, len(tup)):
            other = tup[j]
            for h, row in enumerate(comp):
                if h >= 1 and h < len(other):
                    a_val, c_val = row[-1], comp[h - 1][0]
                    for b_val in other[h]:
                        if c_val < b_val < a_val:
                            violations.append(
                                f"pattern 2: {c_val}<{b_val}<{a_val} at height {h}"
                                f" (components {i + 1},{j + 1})"
                            )
                if len(row) >= 2 and h < len(other):
                    for a_val in row[:-1]:
                        for c_val in other[h]:
                            if a_val > c_val:
                                violations.append(
                                    f"pattern 3: {a_val}>{c_val} at height {h}"
                                    f" (components {i + 1},{j + 1})"
                                )
                if len(row) >= 3 and h + 1 < len(other):
                    violations.append(
                        f"pattern 4: 3-cell row at height {h} of component"
                        f" {i + 1} with component {j + 1} rising past it"
                    )
                if h + 1 < len(comp) and len(row) >= 2 and h + 1 < len(other):
                    a_val, c_val = comp[h + 1][-1], row[1]
                    if a_val > c_val:
                        violations.append(
                            f"pattern 5: {a_val}>{c_val} at height {h}"
                            f" (components {i + 1},{j + 1})"
                        )
    return violations


def is_dinv_zero_structural(pf: ParkingFunction) -> bool:
    """Structural characterization of dinv-zero parking functions: the area
    sequence is weakly increasing and equal levels carry decreasing labels.
    """
    a, labels = pf
    n = len(a)
    if any(a[i + 1] < a[i] for i in range(n - 1)):
        return False
    return all(
        labels[i] > labels[j]
        for i in range(n)
        for j in range(i + 1, n)
        if a[i] == a[j]
    )


def antisymmetrized_extreme_exponents(lam: Partition, mu: Composition) -> bool:
    """For every reverse-shuffle element of the shape-``lam`` family, the
    descent-order minimum of the antisymmetrized monomial is the original
    exponent (with coefficient of absolute value 1), and every other term
    sits strictly higher in the descent order."""
    for exponent, p in parabolic_basis_elements(lam, mu):
        key = descent_key(exponent)
        others = [exp for exp in p if exp != exponent]
        if exponent not in p or abs(p[exponent]) != 1:
            return False
        if any(descent_key(exp) <= key for exp in others):
            return False
    return True


def tanimap_spot_check(
    n: int, trials_per_generator: int = 20, seed: int = 2024, max_extra_degree: int = 2
) -> bool:
    """Randomized check that splitting along a size ``lam_1`` subset sends
    the conjugate ideal into (coinvariants) tensor (ideal of the conjugate
    of the shape with its first part removed).

    For each partition of ``n`` with at least two parts, each generator is
    multiplied by random monomials and pushed through the split; every
    second factor attached to a descent-basis coordinate of the first
    factor must lie in the smaller ideal.
    """
    rng = random.Random(seed)
    for lam in partitions(n):
        if len(lam) < 2:
            continue
        k = lam[0]
        tail = lam[1:]
        ideal = tanisaki_ideal(conjugate(lam))
        tail_ideal_shape = conjugate(tail) if tail else ()
        for subset_vars, d in ideal.generators:
            generator = elementary_symmetric(d, subset_vars, n)
            for _ in range(trials_per_generator):
                extra = rng.randrange(max_extra_degree + 1)
                exp = [0] * n
                for _ in range(extra):
                    exp[rng.randrange(n)] += 1
                product = mul_monomial(generator, tuple(exp))
                positions = tuple(sorted(rng.sample(range(1, n + 1), k)))
                grouped = phi_by_descent_coordinates(positions, product)
                for second in grouped.values():
                    if n - k == 0:
                        if second:
                            return False
                    elif not ideal_member(tail_ideal_shape, second):
                        return False
    return True
