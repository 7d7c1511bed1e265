"""Tanisaki ideals, graded quotients, and descent-basis verification.

The ideal attached to a partition ``lam`` of ``n`` is generated by the
partial elementary symmetric polynomials ``e_d(S)`` over subsets ``S`` of
the variables, whenever ``d`` exceeds ``|S|`` minus the sum of the last
``|S|`` entries of the conjugate partition padded to length ``n``.  For
``lam = (1^n)`` this is the ideal of symmetric polynomials without
constant term, whose quotient is the coinvariant algebra.

All linear algebra here is exact.  The quotient ``R = S / I`` is built
one degree at a time from the two degrees below it, through the exact
presentation

    R_d = (S_1 (x) R_{d-1}) / (Koszul rows + generators of degree d),

whose columns are the products ``x_i * b`` of a variable and a standard
monomial ``b`` of degree ``d - 1``.  The Koszul complex of ``x_1..x_n`` is
exact, so the Koszul rows ``x_i NF(x_j c) - x_j NF(x_i c)`` are all the
relations among those products once ``S_1 I_{d-1}`` is quotiented out, and
the degree-``d`` generators supply the rest of ``I_d``.  This needs at most
``n * dim R_{d-1}`` columns where the ideal slice has one per monomial of
degree ``d``.

Most of those rows are redundant, and two exact rules leave them out:

* Koszul rule: ``K_ij(c) = x_i NF(x_j c) - x_j NF(x_i c)``, ``i < j``, is
  kept only when the standard monomial ``c`` uses no variable after
  ``x_j``.  If ``x_k`` divides ``c`` with ``k > j``, the Koszul identity
  (``d^2 = 0``, with ``NF(c) = c``) gives ``K_ij(c) = K_ik(NF(x_j c / x_k))
  - K_jk(NF(x_i c / x_k))``, both with a larger second index, so
  induction on ``j`` from ``n`` down puts every skipped row in the span of
  the kept ones.
* Generator rule: the row of ``e_d(S)`` is kept only when
  ``d <= |S| - p(|S| - 1)`` (``p`` is :func:`p_stat`; this holds for
  ``d = 1``).  Otherwise ``e_d(S) = e_d(S - x) + x e_{d-1}(S - x)`` with
  ``e_{d-1}(S - x)`` a generator of degree ``d - 1``, so the lift of the
  second term lies in the Koszul span and the row reduces to that of
  ``e_d(S - x)``, which is zero or another generator row; induction on
  ``|S|`` finishes.

One column order serves every purpose: among the monomials of degree
``d``, taken smallest first in the descent order, the standard ones are
those whose class is independent of the classes of the smaller ones.
These are exactly the non-pivot columns of the fully reduced ideal slice
with the monomials as columns, largest first, and for the conjugate ideal
they are the descent-basis monomials, which is the content of the
verification routines.  Normal forms onto them are unique.  One
elimination both picks them out and expresses the quotient in them: each
walked monomial enters with a tag column of its own, and it is standard
exactly when its reduced row still has a pivot left of the tags.

No slice visits every monomial of its degree.  The walk generates the
monomials smallest first and stops once it has as many standard monomials
as the slice has free columns.  The normal form of a monomial ``m`` is
computed when it is first looked up, as the class of the lift
``x_i NF(m / x_i)``, and kept for the life of the slice.  The lookups come
from the walk, the Koszul and generator rows of the next degree, and the
reductions of the parabolic and splitting-map checks, which together read a
small share of the monomials: the coinvariant algebra in 7 variables has
C(28, 7) = 1 184 040 monomials of degree at most 21, and its basis check
computes 175 083 normal forms.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from types import MappingProxyType

from .core import (
    Composition,
    Partition,
    block_interior,
    check_partition,
    conjugate,
    multinomial,
    n_stat,
    ordered_set_partitions,
    pad,
    partitions,
)
from .descent import (
    ascent_set,
    descent_compositions_lambda,
    restrict,
)
from .linalg import Echelon, matrix_rank
from .polynomial import (
    Exponent,
    MPoly,
    antisymmetrize,
    elementary_symmetric,
    monomial,
    split_exponent,
)
from .symfunc import TPoly, hall_littlewood_by_ribbons


def p_stat(lam: Partition, m: int) -> int:
    """Sum of the last ``m`` entries of the conjugate of ``lam`` padded to
    length ``|lam|``.

    >>> p_stat((2, 1), 2)
    1
    """
    n = sum(lam)
    return sum(pad(conjugate(lam), n)[n - m :])


@dataclass(frozen=True)
class TanisakiIdeal:
    lam: Partition
    generators: tuple[tuple[tuple[int, ...], int], ...]  # (variable subset, degree)


@lru_cache(maxsize=None)
def tanisaki_ideal(lam: Partition) -> TanisakiIdeal:
    """All qualifying generators ``e_d(S)`` in ``|lam|`` variables, pruned
    of the identically zero ones (``d > |S|``) and deduplicated.

    >>> [d for s, d in tanisaki_ideal((1, 1, 1)).generators if len(s) == 3]
    [1, 2, 3]
    """
    lam = check_partition(lam)
    n = sum(lam)
    generators = []
    variables = range(1, n + 1)
    for size in range(1, n + 1):
        threshold = size - p_stat(lam, size)
        for subset in itertools.combinations(variables, size):
            for d in range(max(threshold + 1, 1), size + 1):
                generators.append((subset, d))
    return TanisakiIdeal(lam, tuple(generators))


def _rearrangements(shape: Exponent) -> Iterator[Exponent]:
    """The distinct rearrangements of ``shape`` in increasing lex order.
    Each step is the next permutation: the entry before the longest
    non-increasing tail swaps with the rightmost larger entry of the tail,
    and the tail is reversed."""
    word = sorted(shape)
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


def _descent_walk(n: int, degree: int) -> Iterator[Exponent]:
    """The monomials of ``degree`` in ``n`` variables, smallest first in the
    descent order (:func:`~gpdescent.descent.descent_key`): by descending
    sort, then by the exponent itself, both lexicographically.

    >>> list(_descent_walk(3, 2))
    [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 2), (0, 2, 0), (2, 0, 0)]
    """
    for shape in reversed(partitions(degree)):  # increasing lex order
        if len(shape) <= n:
            yield from _rearrangements(pad(shape, n))


class NormalForms:
    """The normal forms of one degree slice, a read-only lookup: each is
    computed on its first lookup, kept, and returned frozen.  A key that is
    not an exponent of the slice's length and degree raises ``KeyError``."""

    __slots__ = ("_n", "_degree", "_compute", "_memo")

    def __init__(
        self, n: int, degree: int, compute: Callable[[Exponent], Mapping[Exponent, Rational]]
    ):
        self._n = n
        self._degree = degree
        self._compute = compute
        self._memo: dict[Exponent, Mapping[Exponent, Rational]] = {}

    def __getitem__(self, exp: Exponent) -> Mapping[Exponent, Rational]:
        nf = self._memo.get(exp)
        if nf is None:
            if len(exp) != self._n or sum(exp) != self._degree or min(exp, default=0) < 0:
                raise KeyError(exp)
            nf = self._memo[exp] = MappingProxyType(self._compute(exp))
        return nf


@dataclass(frozen=True)
class QuotientSlice:
    """One degree of the quotient by an ideal: the standard monomials,
    smallest first in the descent order, and the normal form of each
    monomial of that degree, supported on the standard monomials and
    computed when it is first looked up."""

    standard: tuple[Exponent, ...]
    normal_forms: NormalForms


def _shift(exp: Exponent, i: int, delta: int) -> Exponent:
    return exp[:i] + (exp[i] + delta,) + exp[i + 1 :]


def _exact(value: Rational) -> Rational:
    """An integral value as an ``int``: later products stay in integer
    arithmetic, and integral normal forms have ``int`` coefficients."""
    return value.numerator if value.denominator == 1 else value


def _divide(v: int, d: int) -> Rational:
    """``v / d`` as an ``int`` when ``d`` divides ``v``, else a ``Fraction``.

    >>> _divide(-6, 3), _divide(3, 6)
    (-2, Fraction(1, 2))
    """
    return v // d if v % d == 0 else Fraction(v, d)


def _koszul_row_needed(c: Exponent, j: int) -> bool:
    """Whether the Koszul rows ``K_ij(c)``, ``i < j``, are kept: ``c`` uses
    no variable after ``x_j`` (indices from 0).  The others lie in the span
    of the kept ones (module docstring).

    >>> _koszul_row_needed((1, 0, 1), 2), _koszul_row_needed((1, 0, 1), 1)
    (True, False)
    """
    return not any(c[j + 1 :])


def _generator_row_needed(lam: Partition, size: int, d: int) -> bool:
    """Whether the row of a generator ``e_d(S)`` with ``|S| = size`` is
    kept: ``d <= size - p(size - 1)``.  For larger ``d`` the row lies in
    the span of the Koszul rows and the other generator rows (module
    docstring).  Every ``d = 1`` row is kept, as ``p(m) <= m``: the padded
    conjugate decreases and averages 1.

    >>> _generator_row_needed((3,), 2, 1), _generator_row_needed((3,), 2, 2)
    (True, False)
    """
    return d <= size - p_stat(lam, size - 1)


@lru_cache(maxsize=None)
def _quotient_slice(lam: Partition, degree: int) -> QuotientSlice:
    """Degree ``degree`` of the quotient by the ideal of ``lam`` in ``|lam|``
    variables, built from the two degrees below it (see the module
    docstring for why the presentation is exact).

    Column ``(i, b)`` stands for ``x_i * b``.  A monomial ``m`` of this
    degree is lifted to the columns as ``x_i NF(m / x_i)`` for the first
    variable ``x_i`` dividing it; that is how generators enter the
    relations, and how the monomials are walked, smallest first, to pick
    out the standard ones.  The relations are the Koszul rows ``K_ij(c)``
    whose ``c`` uses no variable after ``x_j``, since ``K_ij(x_k c') =
    K_ik(NF(x_j c')) - K_jk(NF(x_i c'))`` for ``k > j``, and the generator
    rows of ``e_d(S)`` with ``d <= |S| - p(|S| - 1)``, since
    otherwise ``e_d(S) = e_d(S - x) + x e_{d-1}(S - x)`` with the second
    term in the Koszul span (:func:`_koszul_row_needed`,
    :func:`_generator_row_needed`).  A slice runs one elimination in
    integers.  The relations go in first and are back-substituted; the
    walked images follow into the same echelon, each with a tag column for
    its position.  A second back-substitution then writes every column, a
    relation pivot or a free one, in the classes of the standard
    monomials.  The walk (:func:`_descent_walk`) generates the monomials
    lazily and stops at the last standard one; each normal form is
    computed on its first lookup (:class:`NormalForms`).  A negative
    degree gives the empty slice, where every lookup raises ``KeyError``.
    """
    n = sum(lam)
    if degree < 0:  # no exponent has a negative degree: every lookup raises
        return QuotientSlice((), NormalForms(n, degree, lambda exp: {}))
    if degree == 0:  # no generator is a constant
        one = (0,) * n
        return QuotientSlice((one,), NormalForms(n, 0, lambda exp: {exp: 1}))
    below = _quotient_slice(lam, degree - 1)
    column = {
        (i, b): len(below.standard) * i + k for i in range(n) for k, b in enumerate(below.standard)
    }

    def lift(exp: Exponent) -> dict[int, Rational]:
        i = next(k for k, e in enumerate(exp) if e)
        return {column[i, b]: c for b, c in below.normal_forms[_shift(exp, i, -1)].items()}

    relations = []
    if degree >= 2:
        for c in _quotient_slice(lam, degree - 2).standard:
            for i, j in itertools.combinations(range(n), 2):
                if not _koszul_row_needed(c, j):
                    continue
                row = {column[i, b]: v for b, v in below.normal_forms[_shift(c, j, 1)].items()}
                for b, v in below.normal_forms[_shift(c, i, 1)].items():
                    row[column[j, b]] = -v
                relations.append(row)
    for subset, d in tanisaki_ideal(lam).generators:
        if d == degree and _generator_row_needed(lam, len(subset), d):
            generator = elementary_symmetric(d, subset, n)
            relations.append(_combine(generator, {exp: lift(exp) for exp in generator}))
    echelon = Echelon()
    for row in sorted(relations, key=len):  # sparsest first keeps fill-in low
        echelon.add_row(row)
    # Reduced relation rows leave the images less to eliminate: without this
    # the coinvariant algebra in 7 variables takes about 1.5 times as long.
    echelon.back_substitute()
    offset = len(column)
    free = offset - echelon.rank

    # The standard monomials: each image joins the relations with a tag
    # column of its own, numbered after the slice's columns.  It is standard
    # when its pivot lands left of the tags, on a free column; a pivot on a
    # tag column is a relation among the images already kept, and its row
    # is dropped.
    standard: list[Exponent] = []
    for exp in _descent_walk(n, degree):
        if len(standard) == free:
            break
        row = lift(exp)
        row[offset + len(standard)] = 1
        echelon.add_row(row)
        if next(reversed(echelon.pivot_rows)) < offset:
            standard.append(exp)
        else:
            echelon.pivot_rows.popitem()

    # One image per free column was kept, so every column is now a pivot,
    # and a fully reduced row reads ``lead * e_p = sum of tag * [s]``.
    echelon.back_substitute()
    class_of = {
        p: {standard[col - offset]: _divide(v, row[p]) for col, v in row.items() if col >= offset}
        for p, row in echelon.pivot_rows.items()
    }

    def normal_form(exp: Exponent) -> dict[Exponent, Rational]:
        return {b: _exact(c) for b, c in _combine(lift(exp), class_of).items()}

    return QuotientSlice(tuple(standard), NormalForms(n, degree, normal_form))


def _by_degree(exponents) -> dict[int, list[Exponent]]:
    """The exponents grouped by total degree, each group in input order."""
    groups: dict[int, list[Exponent]] = {}
    for a in exponents:
        groups.setdefault(sum(a), []).append(a)
    return groups


def _combine(coefficients: Mapping, vectors: Mapping) -> dict:
    """The linear combination ``sum c * vectors[k]`` over ``coefficients``."""
    out: dict = {}
    for key, c in coefficients.items():
        for target, v in vectors[key].items():
            value = out.get(target, 0) + c * v
            if value:
                out[target] = value
            else:
                out.pop(target, None)
    return out


def hilbert_series(lam: Partition) -> TPoly:
    """Graded dimensions of the quotient by the ideal of ``lam``.

    Degree ``d`` counts the standard monomials of the quotient slice
    (:func:`_quotient_slice`), for ``d`` in ``0 .. n(lam)``; they sum to
    the multinomial coefficient in the parts of ``lam`` (the quotient is
    zero above ``n(lam)``), and a mismatch raises.

    >>> hilbert_series((1, 1, 1))
    TPoly({0: 1, 1: 2, 2: 2, 3: 1})
    >>> hilbert_series((3,))
    TPoly({0: 1})
    """
    lam = check_partition(lam)
    dims = {}
    total = 0
    for degree in range(n_stat(lam) + 1):
        dim = len(_quotient_slice(lam, degree).standard)
        if dim:
            dims[degree] = dim
        total += dim
    target = multinomial(conjugate(lam))
    if total != target:
        raise ArithmeticError(
            f"graded dimensions sum to {total}, expected {target} for {lam}"
        )
    return TPoly(dims)


@dataclass
class GradedBasisReport:
    """Outcome of checking the descent monomials of shape ``lam`` inside the
    quotient by the ideal of the conjugate shape."""

    lam: Partition
    hilbert: TPoly
    basis_ok: bool
    leading_terms_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "hilbert": self.hilbert.to_json_dict(),
            "basis_ok": self.basis_ok,
            "leading_terms_ok": self.leading_terms_ok,
            "grading": "direct",  # t^d counts the degree-d slice of the quotient
        }


def verify_descent_basis(lam: Partition) -> GradedBasisReport:
    """Degree by degree: the monomials with exponents in the shape-``lam``
    descent family must avoid the leading terms of the conjugate ideal and
    must count exactly the quotient dimension.

    >>> verify_descent_basis((2, 1)).basis_ok
    True
    """
    lam = check_partition(lam)
    target_ideal = conjugate(lam)
    by_degree = _by_degree(descent_compositions_lambda(lam))
    top = n_stat(target_ideal)
    dims: dict[int, int] = {}
    # the quotient is zero above degree ``top``, so a family member there fails
    leading_ok = max(by_degree, default=0) <= top
    for degree in range(top + 1):
        standard = set(_quotient_slice(target_ideal, degree).standard)
        dims[degree] = len(standard)
        leading_ok = leading_ok and standard == set(by_degree.get(degree, ()))
    basis_ok = leading_ok and sum(dims.values()) == multinomial(lam)
    return GradedBasisReport(lam, TPoly(dims), basis_ok, leading_ok)


def _quotient_normal_form(lam_ideal: Partition, p: MPoly) -> MPoly:
    """Reduce ``p`` modulo the ideal: the sum of the tabulated normal forms
    of its monomials, supported on the standard (descent basis) monomials."""
    return _combine(
        p, {exp: _quotient_slice(lam_ideal, sum(exp)).normal_forms[exp] for exp in p}
    )


def descent_normal_form(p: MPoly, k: int) -> MPoly:
    """Expansion of ``p`` in the descent basis of the coinvariant algebra in
    ``k`` variables (reduction modulo the ideal of ``(1^k)``).

    >>> descent_normal_form({(1, 0, 0): 1}, 3)
    {(0, 1, 0): -1, (0, 0, 1): -1}
    """
    return _quotient_normal_form((1,) * k, p)


def phi_map(subset, p: MPoly) -> list[tuple[MPoly, MPoly]]:
    """Split the variables along ``subset``: each monomial factors as a
    monomial in the relabelled ``subset`` variables times a monomial in the
    relabelled complement.  The first factor is reduced to the descent
    basis of the coinvariant algebra in ``|subset|`` variables; the result
    is the list of pure tensors (first factor, complement monomial),
    grouped by the complement monomial.

    >>> phi_map({2, 3, 7}, {(2, 1, 0, 3, 0, 1, 0): 1})
    [({(0, 1, 0): -1, (0, 0, 1): -1}, {(2, 3, 0, 1): 1})]
    """
    positions = tuple(sorted(subset))
    k = len(positions)
    by_second: dict[Exponent, MPoly] = {}
    for exp, coeff in p.items():
        inside, outside = split_exponent(exp, positions)
        block = by_second.setdefault(outside, {})
        block[inside] = block.get(inside, 0) + coeff
    tensors = []
    for outside in sorted(by_second, reverse=True):
        first = descent_normal_form(by_second[outside], k)
        if first:
            tensors.append((first, monomial(outside)))
    return tensors


def parabolic_basis_elements(lam: Partition, mu: Composition) -> list[tuple[Composition, MPoly]]:
    """The antisymmetrized descent monomials indexed by the reverse-shuffle
    part of the shape-``lam`` major-index family: pairs (exponent, polynomial).
    """
    return [(a, antisymmetrize(mu, monomial(a))) for a in _reverse_shuffle_part(lam, mu)]


def _reverse_shuffle_part(lam: Partition, mu: Composition) -> list[Composition]:
    """The exponents ``majt(tau)`` of the reverse shuffles ``tau`` of ``mu``
    in the shape-``lam`` major-index family, by degree, then exponent.
    The inverse descent set of ``tau`` is the ascent set of its table, so
    ``tau`` is never built: ``a`` is kept when its ascent set contains the
    block interiors of ``mu``.  Zero parts are allowed, negative ones raise."""
    lam = check_partition(lam)
    if any(part < 0 for part in mu):
        raise ValueError(f"mu must have no negative part, got {tuple(mu)}")
    if sum(mu) != sum(lam):
        raise ValueError("mu must be a composition of the same n")
    interior = block_interior(mu)
    kept = [a for a in descent_compositions_lambda(lam) if interior <= ascent_set(a)]
    return sorted(kept, key=lambda a: (sum(a), a))


def _block_sorted(mu: Composition, a: Exponent) -> tuple[int, Exponent | None]:
    """``(sign, c)`` with ``antisymmetrize(mu, x^a) = sign * antisymmetrize(mu,
    x^c)``: ``c`` is ``a`` with each block of ``mu`` sorted ascending and
    ``sign`` the parity of the inversions of ``a`` inside the blocks.
    ``(0, None)`` when a block repeats a value, as the image is then zero.

    >>> _block_sorted((2, 1), (2, 0, 1))
    (-1, (0, 2, 1))
    >>> _block_sorted((2, 1), (1, 1, 0))
    (0, None)
    """
    sign = 1
    c: list[int] = []
    start = 0
    for part in mu:
        block = a[start : start + part]
        if len(set(block)) < part:
            return 0, None
        inversions = sum(x > y for x, y in itertools.combinations(block, 2))
        if inversions % 2:
            sign = -sign
        c.extend(sorted(block))
        start += part
    return sign, tuple(c)


@dataclass
class ParabolicReport:
    lam: Partition
    mu: Composition
    count_poly: TPoly
    independent: bool
    spans: bool
    matches_expansion: bool | None  # None when mu is not a partition

    @property
    def ok(self) -> bool:
        return self.independent and self.spans and self.matches_expansion is not False

    def to_json_dict(self) -> dict:
        return {
            "mu": list(self.mu),
            "count_poly": self.count_poly.to_json_dict(),
            "ok": self.ok,
        }


def verify_parabolic_basis(lam: Partition, mu: Composition) -> ParabolicReport:
    """Check that the antisymmetrized family is a basis of the image of the
    antisymmetrizer on the quotient: linearly independent modulo the
    conjugate ideal, with graded count equal to the rank of the induced
    antisymmetrization operator degree by degree.  When ``mu`` is a
    partition the graded count is also compared against the ``m_mu``
    coefficient of the sign-twisted expansion indexed by the conjugate,
    taken from the ribbon route (area over the minimal ribbon tuples of
    shape ``lam``), which shares no step with the count.
    """
    lam = check_partition(lam)
    mu = tuple(mu)
    ideal_shape = conjugate(lam)
    kept = _by_degree(_reverse_shuffle_part(lam, mu))
    family = _by_degree(descent_compositions_lambda(lam))
    count_poly = TPoly({d: len(group) for d, group in kept.items()})

    # Degree by degree, over every degree of either set: the kept images
    # must be independent modulo the ideal (rank = count), and the images of
    # the whole family, the antisymmetrizer on the graded piece of the
    # quotient, must have rank equal to the count too.  The image of ``a`` is
    # zero or plus or minus the image of its block-sorted exponent ``c``
    # (see ``antisymmetrize``), so each distinct nonzero ``c`` is
    # antisymmetrized and reduced once.  A zero image is an empty row, and a
    # kept ``c`` met twice is a repeated row: both lower the rank of the kept
    # rows as their own images would.  The family's rank needs each ``c``
    # only once.  Columns are positions among the standard monomials.
    independent = spans = True
    for degree in family | kept:
        position = {
            b: k for k, b in enumerate(_quotient_slice(ideal_shape, degree).standard)
        }
        in_family, in_kept = family.get(degree, []), kept.get(degree, [])
        sorted_of = {a: _block_sorted(mu, a)[1] for a in dict.fromkeys(in_family + in_kept)}
        rows: dict[Exponent | None, dict[int, Rational]] = {None: {}}
        for c in dict.fromkeys(sorted_of.values()):
            if c is not None:
                nf = _quotient_normal_form(ideal_shape, antisymmetrize(mu, monomial(c)))
                rows[c] = {position[b]: v for b, v in nf.items()}
        if matrix_rank([rows[sorted_of[a]] for a in in_kept]) != len(in_kept):
            independent = False
        family_sorted = dict.fromkeys(sorted_of[a] for a in in_family)
        if matrix_rank([rows[c] for c in family_sorted]) != len(in_kept):
            spans = False

    matches = None
    if tuple(sorted(mu, reverse=True)) == mu and all(part > 0 for part in mu):
        coeff = hall_littlewood_by_ribbons(lam, twisted=True).get(mu, TPoly.zero())
        matches = coeff == count_poly

    return ParabolicReport(lam, mu, count_poly, independent, spans, matches)


def verify_phi_injective(lam: Partition) -> bool:
    """Assemble the direct sum over all ordered set partitions of type
    ``lam`` of the split-reduce maps on a basis of the quotient of the
    conjugate ideal, and confirm full rank degree by degree.

    >>> verify_phi_injective((2, 1))
    True
    """
    lam = check_partition(lam)
    osps = ordered_set_partitions(lam)
    for basis in _by_degree(descent_compositions_lambda(lam)).values():
        columns: dict = {}
        rows = []
        for a in basis:
            row: dict[int, Rational] = {}
            for osp_index, osp in enumerate(osps):
                factor_forms = []
                for block, size in zip(osp, lam):
                    exponent = restrict(a, block)
                    factor_forms.append(
                        list(descent_normal_form(monomial(exponent), size).items())
                    )
                for combo in itertools.product(*factor_forms):
                    key = (osp_index,) + tuple(exp for exp, _ in combo)
                    coeff = 1
                    for _, c in combo:
                        coeff *= c
                    column = columns.setdefault(key, len(columns))
                    row[column] = row.get(column, 0) + coeff
            rows.append({col: c for col, c in row.items() if c})
        if matrix_rank(rows) != len(basis):
            return False
    return True
