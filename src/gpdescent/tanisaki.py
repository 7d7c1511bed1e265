"""Tanisaki ideals, graded quotients, and descent-basis verification.

The ideal attached to a partition ``lam`` of ``n`` is generated by the
partial elementary symmetric polynomials ``e_d(S)`` over subsets ``S`` of
the variables, whenever ``d`` exceeds ``|S|`` minus the sum of the last
``|S|`` entries of the conjugate partition padded to length ``n``.  For
``lam = (1^n)`` this is the ideal of symmetric polynomials without
constant term, whose quotient is the coinvariant algebra.

All linear algebra here is exact.  A degree slice of an ideal is spanned
by generator-times-monomial products and handled by sparse row reduction,
with the monomials as columns sorted largest first in the descent order.
One order serves every purpose: dimensions and membership do not depend
on it, and with it the non-pivot columns of a fully reduced slice are
exactly the descent-basis monomials, which is the content of the
verification routines.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .core import (
    Composition,
    Partition,
    check_partition,
    conjugate,
    is_reverse_shuffle,
    multinomial,
    n_stat,
    ordered_set_partitions,
    pad,
    partitions,
)
from .descent import (
    descent_compositions_lambda,
    descent_key,
    j_maj,
    majt,
    restrict,
)
from .linalg import Echelon, matrix_rank
from .polynomial import (
    Exponent,
    MPoly,
    antisymmetrize,
    elementary_symmetric,
    homogeneous_components,
    monomial,
    monomials_of_degree,
    mul_monomial,
    split_exponent,
)
from .symfunc import TPoly, hall_littlewood_omega_by_descents


class ResourceBoundError(RuntimeError):
    """Raised when a request exceeds the configured size bound."""


DEFAULT_BOUND = 6
PHI_BOUND = 4


def check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise ResourceBoundError(f"n = {n} exceeds configured bound {bound}")


def p_stat(lam: Partition, n: int, m: int) -> int:
    """Sum of the last ``m`` entries of the conjugate of ``lam`` padded to
    length ``n``.

    >>> p_stat((2, 1), 3, 2)
    1
    """
    padded = pad(conjugate(lam), n)
    return sum(padded[n - m :])


@dataclass(frozen=True)
class TanisakiIdeal:
    n: int
    lam: Partition
    generators: tuple[tuple[tuple[int, ...], int], ...]  # (variable subset, degree)

    def generator_polys(self) -> list[MPoly]:
        return [
            elementary_symmetric(d, subset, self.n) for subset, d in self.generators
        ]


@lru_cache(maxsize=None)
def tanisaki_ideal(lam: Partition, n: int | None = None) -> TanisakiIdeal:
    """All qualifying generators ``e_d(S)``, pruned of the identically zero
    ones (``d > |S|``) and deduplicated.

    >>> [d for s, d in tanisaki_ideal((1, 1, 1)).generators if len(s) == 3]
    [1, 2, 3]
    """
    lam = check_partition(lam)
    if n is None:
        n = sum(lam)
    if sum(lam) != n:
        raise ValueError(f"partition {lam} does not have size {n}")
    generators = []
    variables = range(1, n + 1)
    for size in range(1, n + 1):
        threshold = size - p_stat(lam, n, size)
        for subset in itertools.combinations(variables, size):
            for d in range(max(threshold + 1, 1), size + 1):
                generators.append((subset, d))
    return TanisakiIdeal(n, lam, tuple(generators))


@lru_cache(maxsize=None)
def _ordered_monomials(
    n: int, degree: int
) -> tuple[tuple[Exponent, ...], Mapping[Exponent, int]]:
    """Degree slice of the monomials, largest first in the descent order,
    and the read-only column index of each monomial in that list."""
    monos = tuple(sorted(monomials_of_degree(n, degree), key=descent_key, reverse=True))
    return monos, MappingProxyType({exp: i for i, exp in enumerate(monos)})


@lru_cache(maxsize=None)
def _slice_echelon(lam: Partition, n: int, degree: int) -> Echelon:
    """Row-reduced degree slice of the ideal of ``lam`` in ``n`` variables.

    Rows are all products of a generator with a complementary-degree
    monomial, expressed in coordinates indexed by the ordered monomial
    list (column 0 = largest monomial).
    """
    ideal = tanisaki_ideal(lam, n)
    _, index = _ordered_monomials(n, degree)
    echelon = Echelon()
    rows = []
    for subset, d in ideal.generators:
        if d > degree:
            continue
        generator = elementary_symmetric(d, subset, n)
        for padding in monomials_of_degree(n, degree - d):
            shifted = mul_monomial(generator, padding)
            rows.append({index[exp]: coeff for exp, coeff in shifted.items()})
    echelon.add_rows(rows, stop_at_rank=len(index))
    return echelon


def quotient_dimension(lam: Partition, n: int, degree: int) -> int:
    monos, _ = _ordered_monomials(n, degree)
    return len(monos) - _slice_echelon(lam, n, degree).rank


def ideal_slice_basis(lam: Partition, n: int, degree: int) -> list[MPoly]:
    """Row-reduced spanning set of the degree slice of the ideal, as
    polynomials, one per pivot, sorted by leading monomial (largest first
    in the descent order) and scaled so the pivot coefficient is 1.

    >>> from .polynomial import poly_str
    >>> [poly_str(p) for p in ideal_slice_basis((1, 1), 2, 1)]
    ['x1 + x2']
    >>> len(ideal_slice_basis((1, 1), 2, 2))
    3
    """
    monos, _ = _ordered_monomials(n, degree)
    echelon = _slice_echelon(lam, n, degree)
    rows = []
    for lead in sorted(echelon.pivot_rows):
        row = echelon.pivot_rows[lead]
        pivot = Fraction(row[lead])
        rows.append({monos[col]: c / pivot for col, c in row.items()})
    return rows


def ideal_member(lam: Partition, n: int, p: MPoly) -> bool:
    """Exact membership test: the normal form modulo the ideal is zero."""
    return not _quotient_normal_form(lam, n, p)


def hilbert_series(lam: Partition, bound: int = DEFAULT_BOUND) -> TPoly:
    """Graded dimensions of the quotient by the ideal of ``lam``.

    Degrees ``0 .. n(lam)`` are computed by exact rank; the degrees sum to
    the multinomial coefficient in the parts of ``lam`` (the quotient is
    zero above ``n(lam)``), and a mismatch raises.

    >>> hilbert_series((1, 1, 1))
    TPoly({0: 1, 1: 2, 2: 2, 3: 1})
    >>> hilbert_series((3,))
    TPoly({0: 1})
    """
    lam = check_partition(lam)
    n = sum(lam)
    check_bound(n, bound)
    dims = {}
    total = 0
    for degree in range(n_stat(lam) + 1):
        dim = quotient_dimension(lam, n, degree)
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


def verify_descent_basis(lam: Partition, bound: int = DEFAULT_BOUND) -> GradedBasisReport:
    """Degree by degree: the monomials with exponents in the shape-``lam``
    descent family must avoid the leading terms of the conjugate ideal and
    must count exactly the quotient dimension.

    >>> verify_descent_basis((2, 1)).basis_ok
    True
    """
    lam = check_partition(lam)
    n = sum(lam)
    check_bound(n, bound)
    target_ideal = conjugate(lam)
    by_degree: dict[int, set[Exponent]] = {}
    for a in descent_compositions_lambda(lam):
        by_degree.setdefault(sum(a), set()).add(a)
    top = n_stat(target_ideal)
    dims: dict[int, int] = {}
    basis_ok = True
    leading_ok = True
    for degree in range(top + 1):
        monos, _ = _ordered_monomials(n, degree)
        echelon = _slice_echelon(target_ideal, n, degree)
        pivots = {monos[i] for i in echelon.pivot_columns()}
        descent_monos = by_degree.get(degree, set())
        dims[degree] = len(monos) - echelon.rank
        if dims[degree] != len(descent_monos) or pivots & descent_monos:
            basis_ok = False
        if pivots != set(monos) - descent_monos:
            leading_ok = False
    if sum(dims.values()) != multinomial(lam):
        basis_ok = False
    return GradedBasisReport(lam, TPoly(dims), basis_ok, leading_ok)


def verify_leading_terms(lam: Partition, bound: int = DEFAULT_BOUND) -> bool:
    """Leading monomials of the conjugate ideal under the descent order are
    exactly the monomials outside the shape-``lam`` descent family."""
    return verify_descent_basis(lam, bound).leading_terms_ok


def _quotient_normal_form(
    lam_ideal: Partition, n: int, p: MPoly
) -> dict[Exponent, Fraction]:
    """Reduce ``p`` modulo the ideal, degree by degree, in the descent
    order; the result is supported on non-pivot (descent basis) monomials."""
    result: dict[Exponent, Fraction] = {}
    for degree, component in homogeneous_components(p).items():
        monos, index = _ordered_monomials(n, degree)
        row = {index[exp]: coeff for exp, coeff in component.items()}
        reduced = _slice_echelon(lam_ideal, n, degree).reduce(row)
        for col, coeff in reduced.items():
            result[monos[col]] = coeff
    return result


def descent_normal_form(p: MPoly, k: int) -> MPoly:
    """Expansion of ``p`` in the descent basis of the coinvariant algebra in
    ``k`` variables (reduction modulo the ideal of ``(1^k)``).

    >>> from .polynomial import variable, poly_str
    >>> poly_str(descent_normal_form(variable(3, 1), 3))
    '-x2 - x3'
    """
    ones = (1,) * k
    return _quotient_normal_form(ones, k, p)


def phi_map(subset, p: MPoly, n: int) -> list[tuple[MPoly, MPoly]]:
    """Split the variables along ``subset``: each monomial factors as a
    monomial in the relabelled ``subset`` variables times a monomial in the
    relabelled complement.  The first factor is reduced to the descent
    basis of the coinvariant algebra in ``|subset|`` variables; the result
    is the list of pure tensors (first factor, complement monomial),
    grouped by the complement monomial.

    >>> from .polynomial import poly_str
    >>> x = {(2, 1, 0, 3, 0, 1, 0): 1}
    >>> [(poly_str(f), poly_str(s)) for f, s in phi_map({2, 3, 7}, x, 7)]
    [('-x2 - x3', 'x1^2*x2^3*x4')]
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


def phi_by_descent_coordinates(subset, p: MPoly, n: int) -> dict[Exponent, MPoly]:
    """Regroup :func:`phi_map` by the descent-basis exponent of the first
    factor: the value at ``a`` is the full second-factor polynomial."""
    grouped: dict[Exponent, MPoly] = {}
    for first, second in phi_map(subset, p, n):
        ((second_exp, second_coeff),) = second.items()
        for a, coeff in first.items():
            block = grouped.setdefault(a, {})
            value = block.get(second_exp, 0) + coeff * second_coeff
            if value:
                block[second_exp] = value
            else:
                block.pop(second_exp, None)
    return {a: block for a, block in grouped.items() if block}


def parabolic_basis_elements(lam: Partition, mu: Composition) -> list[tuple[Composition, MPoly]]:
    """The antisymmetrized descent monomials indexed by the reverse-shuffle
    part of the shape-``lam`` major-index family: pairs (exponent, polynomial).
    """
    lam = check_partition(lam)
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("mu must be a composition of the same n")
    elements = []
    for tau in j_maj(lam):
        if is_reverse_shuffle(tau, mu):
            exponent = majt(tau)
            elements.append((exponent, antisymmetrize(mu, monomial(exponent))))
    elements.sort(key=lambda pair: (sum(pair[0]), pair[0]))
    return elements


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


def verify_parabolic_basis(
    lam: Partition, mu: Composition, bound: int = DEFAULT_BOUND
) -> ParabolicReport:
    """Check that the antisymmetrized family is a basis of the image of the
    antisymmetrizer on the quotient: linearly independent modulo the
    conjugate ideal, with graded count equal to the rank of the induced
    antisymmetrization operator degree by degree.  When ``mu`` is a
    partition the graded count is also compared against the ``m_mu``
    coefficient of the sign-twisted expansion indexed by the conjugate.
    """
    lam = check_partition(lam)
    n = sum(lam)
    check_bound(n, bound)
    mu = tuple(mu)
    ideal_shape = conjugate(lam)
    elements = parabolic_basis_elements(lam, mu)

    by_degree: dict[int, list[MPoly]] = {}
    for exponent, p in elements:
        by_degree.setdefault(sum(exponent), []).append(p)
    count_poly = TPoly({d: len(polys) for d, polys in by_degree.items()})

    # Independence modulo the ideal, degree by degree.
    independent = True
    for degree, polys in by_degree.items():
        _, index = _ordered_monomials(n, degree)
        reduced_rows = []
        for p in polys:
            nf = _quotient_normal_form(ideal_shape, n, p)
            reduced_rows.append({index[exp]: c for exp, c in nf.items()})
        if matrix_rank(reduced_rows) != len(polys):
            independent = False

    # Spanning: the rank of the antisymmetrizer on each graded piece of the
    # quotient must match the count.
    spans = True
    descent_family = descent_compositions_lambda(lam)
    degrees = sorted({sum(a) for a in descent_family} | set(count_poly.coeffs))
    for degree in degrees:
        _, index = _ordered_monomials(n, degree)
        operator_rows = []
        for a in descent_family:
            if sum(a) != degree:
                continue
            image = antisymmetrize(mu, monomial(a))
            nf = _quotient_normal_form(ideal_shape, n, image)
            row = {index[exp]: c for exp, c in nf.items()}
            if row:
                operator_rows.append(row)
        if matrix_rank(operator_rows) != count_poly[degree]:
            spans = False

    matches = None
    if tuple(sorted(mu, reverse=True)) == mu and all(part > 0 for part in mu):
        coeff = hall_littlewood_omega_by_descents(ideal_shape).get(mu, TPoly.zero())
        matches = coeff == count_poly

    return ParabolicReport(lam, mu, count_poly, independent, spans, matches)


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


def verify_phi_injective(lam: Partition, bound: int = PHI_BOUND) -> bool:
    """Assemble the direct sum over all ordered set partitions of type
    ``lam`` of the split-reduce maps on a basis of the quotient of the
    conjugate ideal, and confirm full rank degree by degree.

    >>> verify_phi_injective((2, 1))
    True
    """
    lam = check_partition(lam)
    n = sum(lam)
    check_bound(n, bound)
    family = descent_compositions_lambda(lam)
    by_degree: dict[int, list[Composition]] = {}
    for a in family:
        by_degree.setdefault(sum(a), []).append(a)
    osps = ordered_set_partitions(lam)
    for degree, basis in by_degree.items():
        columns: dict = {}
        rows = []
        for a in basis:
            row: dict[int, Fraction] = {}
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
        ideal = tanisaki_ideal(conjugate(lam), n)
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
                grouped = phi_by_descent_coordinates(positions, product, n)
                for second in grouped.values():
                    if n - k == 0:
                        if second:
                            return False
                    elif not ideal_member(tail_ideal_shape, n - k, second):
                        return False
    return True
