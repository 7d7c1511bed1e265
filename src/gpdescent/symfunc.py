"""Monomial-basis expansions over Z[t] and the Hall-Littlewood formulas.

A ``TPoly`` is a univariate polynomial in ``t`` with integer coefficients,
stored sparsely.  A symmetric-function expansion is a plain dict mapping
partitions of ``n`` to nonzero ``TPoly`` coefficients of the monomial
symmetric functions ``m_mu``.

Two independent routes compute the same modified Hall-Littlewood
polynomial:

- the descent route sums ``t^maj`` over the permutations whose major index
  table has shape ``lam'`` intersected with the (reverse) shuffles of type
  ``mu``;
- the ribbon route sums ``t^area`` over minimal ribbon tuples of shape
  ``lam`` whose reading word is a (reverse) shuffle of type ``mu``, and
  produces the polynomial indexed by ``lam'``.

Both routes group their items once by the inverse descent set of the word
(Gessel's fundamental quasisymmetric expansion): a word is a ``mu``-shuffle
exactly when its inverse descent set avoids the block interiors of ``mu``
(lies inside the partial sums of ``mu``), and a reverse ``mu``-shuffle
exactly when it contains them.  Each ``m_mu`` coefficient is then a sum over
at most ``2^(n-1)`` classes instead of a membership test per item.

The descent route never builds the permutations: for ``sigma`` with major
index table ``a`` in ``D_{lam'}``, ``maj(sigma)`` is the sum of ``a`` and the
inverse descent set of ``sigma`` is the ascent set of ``a``.  Each ``a`` is
still passed through ``majt_inverse``, which raises unless ``a`` is the
table of a permutation.

The ribbon route never builds the tuples either: it tallies each minimal
tuple where the search finds it, from the row ``height[e]`` and reading
rank ``rank[e]`` of each entry.  The area is the sum of the heights, and
``v`` is in the inverse descent set of the reading word exactly when
``rank[v + 1] > rank[v]``: ``v + 1`` sits in a higher row, or in the same
row of an earlier component.

Both routes tally their items by key ``(ascents, degree)``, where
``ascents[v - 1]`` says whether ``v`` is in the inverse descent set; the key
of each item is made by C-level ``map`` and ``zip`` calls.

Both indexings follow the convention that ``hall_littlewood_by_descents(lam)``
returns the expansion of the polynomial indexed by ``lam`` itself, so the
cross-check is ``hall_littlewood_by_descents(conjugate(lam)) ==
hall_littlewood_by_ribbons(lam)``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress, count, repeat
from operator import itemgetter, lt
from types import MappingProxyType

from .core import (
    Partition,
    block_interior,
    check_partition,
    conjugate,
    dominates,
    n_stat,
    partitions,
)
from .descent import descent_compositions_lambda, majt_inverse
from .ribbon import _minimal_tuple_search


class TPoly:
    """Sparse integer polynomial in one variable ``t``.

    ``coeffs`` is a read-only mapping, so a cached value cannot be altered
    through a caller's reference.

    >>> TPoly({0: 1, 1: 2}) + TPoly({1: -2, 3: 5})
    TPoly({0: 1, 3: 5})
    >>> TPoly.monomial(2) * TPoly({0: 1, 1: 1})
    TPoly({2: 1, 3: 1})
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = MappingProxyType({d: c for d, c in (coeffs or {}).items() if c != 0})

    @classmethod
    def zero(cls) -> "TPoly":
        return cls({})

    @classmethod
    def one(cls) -> "TPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "TPoly":
        return cls({degree: coeff})

    @classmethod
    def from_coefficient_list(cls, coeffs) -> "TPoly":
        """Build from the list of coefficients of t^0, t^1, ...

        >>> TPoly.from_coefficient_list([1, 3, 5, 3])
        TPoly({0: 1, 1: 3, 2: 5, 3: 3})
        """
        return cls({d: c for d, c in enumerate(coeffs)})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other: "TPoly") -> "TPoly":
        result = dict(self.coeffs)
        for d, c in other.coeffs.items():
            result[d] = result.get(d, 0) + c
        return TPoly(result)

    def __sub__(self, other: "TPoly") -> "TPoly":
        result = dict(self.coeffs)
        for d, c in other.coeffs.items():
            result[d] = result.get(d, 0) - c
        return TPoly(result)

    def __mul__(self, other: "TPoly") -> "TPoly":
        result: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                result[d1 + d2] = result.get(d1 + d2, 0) + c1 * c2
        return TPoly(result)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def __getitem__(self, degree: int) -> int:
        return self.coeffs.get(degree, 0)

    def __repr__(self) -> str:
        return f"TPoly({dict(sorted(self.coeffs.items()))})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            if d == 0:
                terms.append(str(c))
            else:
                base = "t" if d == 1 else f"t^{d}"
                if c == 1:
                    terms.append(base)
                elif c == -1:
                    terms.append(f"-{base}")
                else:
                    terms.append(f"{c}{base}")
        return " + ".join(terms).replace("+ -", "- ")

    def to_json_dict(self) -> dict[str, int]:
        return {str(d): c for d, c in sorted(self.coeffs.items())}


SymExpansion = dict[Partition, TPoly]


def q_factorial(n: int) -> TPoly:
    """The t-factorial, product of the t-analogues [1]_t ... [n]_t.

    >>> q_factorial(3)
    TPoly({0: 1, 1: 2, 2: 2, 3: 1})
    """
    result = TPoly.one()
    for k in range(1, n + 1):
        result = result * TPoly({d: 1 for d in range(k)})
    return result


Tally = dict[tuple[tuple[bool, ...], int], int]


def _group(n: int, tally: Tally) -> tuple[SymExpansion, SymExpansion]:
    """Group a tally by shuffle and reverse-shuffle type at once.

    ``tally`` maps ``(ascents, degree)`` to the number of words whose
    inverse descent set holds ``v`` exactly when ``ascents[v - 1]`` is true
    and whose statistic is ``degree``.  The ``m_mu`` coefficient sums the
    classes of inverse descent sets that avoid (plain) or contain (twisted)
    the block interiors of ``mu``.
    """
    classes: dict[tuple[bool, ...], dict[int, int]] = {}
    for (ascents, degree), total in tally.items():
        classes.setdefault(ascents, {})[degree] = total
    sets = [(frozenset(compress(count(1), ascents)), degrees) for ascents, degrees in classes.items()]
    plain: SymExpansion = {}
    twisted: SymExpansion = {}
    for mu in partitions(n):
        interior = block_interior(mu)
        plain_mu: dict[int, int] = {}
        twisted_mu: dict[int, int] = {}
        for ides, degrees in sets:
            if ides.isdisjoint(interior):
                for degree, total in degrees.items():
                    plain_mu[degree] = plain_mu.get(degree, 0) + total
            if interior <= ides:
                for degree, total in degrees.items():
                    twisted_mu[degree] = twisted_mu.get(degree, 0) + total
        if plain_mu:
            plain[mu] = TPoly(plain_mu)
        if twisted_mu:
            twisted[mu] = TPoly(twisted_mu)
    return plain, twisted


@lru_cache(maxsize=None)
def _descent_expansions(lam: Partition) -> tuple[SymExpansion, SymExpansion]:
    family = descent_compositions_lambda(conjugate(lam))
    for a in family:
        majt_inverse(a)  # raises unless a is the table of a permutation
    # key of a: (a_v < a_{v+1} for each v, |a|), the ascent set and maj
    ascents = map(tuple, map(map, repeat(lt), family, map(itemgetter(slice(1, None)), family)))
    return _group(sum(lam), Counter(zip(ascents, map(sum, family))))


@lru_cache(maxsize=None)
def _ribbon_expansions(lam: Partition) -> tuple[SymExpansion, SymExpansion]:
    tally: Tally = {}

    def tally_leaf(height: list[int], rank: list[int], components: list) -> None:
        key = (tuple(map(lt, rank[1:], rank[2:])), sum(height))
        tally[key] = tally.get(key, 0) + 1

    _minimal_tuple_search(lam, tally_leaf)
    return _group(sum(lam), tally)


def hall_littlewood_by_descents(lam: Partition) -> SymExpansion:
    """Monomial expansion of the modified Hall-Littlewood polynomial indexed
    by ``lam``: the ``m_mu`` coefficient sums ``t^maj`` over the shape-``lam'``
    major-index family intersected with the ``mu``-shuffles.

    >>> hall_littlewood_by_descents((1, 1))[(1, 1)]
    TPoly({0: 1, 1: 1})
    """
    return dict(_descent_expansions(check_partition(lam))[0])


def hall_littlewood_omega_by_descents(lam: Partition) -> SymExpansion:
    """Sign-twisted variant: reverse shuffles in place of shuffles."""
    return dict(_descent_expansions(check_partition(lam))[1])


def hall_littlewood_by_ribbons(lam: Partition, twisted: bool = False) -> SymExpansion:
    """Monomial expansion computed from minimal ribbon tuples of shape
    ``lam``; the result is the polynomial indexed by the conjugate of
    ``lam``.  With ``twisted`` the reading words range over reverse
    shuffles and the result is the sign-twisted polynomial.

    The tuples are tallied as the minimal-tuple search finds them, so the
    family is never held and memory does not grow with it.  Plain
    and twisted come from one search, cached per shape.

    >>> hall_littlewood_by_ribbons((2,))[(1, 1)]
    TPoly({0: 1, 1: 1})
    """
    pair = _ribbon_expansions(check_partition(lam))
    return dict(pair[1] if twisted else pair[0])


def leading_coefficient_check(lam: Partition) -> bool:
    """The coefficient of ``m_{lam'}`` in the sign-twisted expansion indexed
    by ``lam`` must be exactly ``t^{n(lam)}``.

    >>> leading_coefficient_check((2, 2, 1))
    True
    """
    lam = check_partition(lam)
    coeff = hall_littlewood_omega_by_descents(lam).get(conjugate(lam), TPoly.zero())
    return coeff == TPoly.monomial(n_stat(lam))


def dominance_support_check(lam: Partition) -> bool:
    """Every partition carrying a nonzero coefficient in the sign-twisted
    expansion indexed by ``lam`` is dominated by ``lam'``.

    >>> dominance_support_check((3, 1))
    True
    """
    lam = check_partition(lam)
    target = conjugate(lam)
    return all(
        dominates(target, mu)
        for mu, coeff in hall_littlewood_omega_by_descents(lam).items()
        if coeff
    )


def expansion_diff(a: SymExpansion, b: SymExpansion) -> dict[Partition, tuple[TPoly, TPoly]]:
    """Coefficient-wise differences, keyed by partition; empty when equal."""
    diffs = {}
    for mu in sorted(set(a) | set(b), reverse=True):
        ca = a.get(mu, TPoly.zero())
        cb = b.get(mu, TPoly.zero())
        if ca != cb:
            diffs[mu] = (ca, cb)
    return diffs


def expansion_lines(expansion: SymExpansion) -> list[str]:
    """Canonical text form, e.g. ``m[2,2,1]: t^2 + 2t^3 + 2t^4``."""
    lines = []
    for mu in sorted(expansion, reverse=True):
        if expansion[mu]:
            lines.append(f"m[{','.join(map(str, mu))}]: {expansion[mu]}")
    return lines


def expansion_json(expansion: SymExpansion) -> list[dict]:
    """Canonical JSON form: one object per monomial coefficient."""
    return [
        {"mu": list(mu), "coeffs": expansion[mu].to_json_dict()}
        for mu in sorted(expansion, reverse=True)
        if expansion[mu]
    ]
