import dataclasses
import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

import pytest

from gpdescent.core import conjugate, multinomial, n_stat, partitions
from gpdescent.descent import descent_key
from gpdescent.linalg import Echelon, clear_denominators, matrix_rank
from gpdescent.polynomial import (
    _young_subgroup,
    antisymmetrize,
    elementary_symmetric,
    monomial,
    monomials_of_degree,
    mul,
    mul_monomial,
    variable,
)
from gpdescent.symfunc import TPoly, hall_littlewood_by_descents, q_factorial
from gpdescent.tanisaki import (
    _descent_walk,
    _generator_row_needed,
    _koszul_row_needed,
    _quotient_normal_form,
    _quotient_slice,
    descent_normal_form,
    hilbert_series,
    ideal_member,
    ideal_slice_basis,
    p_stat,
    parabolic_basis_elements,
    phi_by_descent_coordinates,
    phi_map,
    tanisaki_ideal,
    verify_descent_basis,
    verify_parabolic_basis,
    verify_phi_injective,
)
from lemmas import antisymmetrized_extreme_exponents, tanimap_spot_check


def frac_poly(terms):
    return {exp: Fraction(c) for exp, c in terms.items()}


# ---------------------------------------------------------------- polynomial


def test_elementary_symmetric():
    assert elementary_symmetric(1, [1, 2], 3) == frac_poly({(1, 0, 0): 1, (0, 1, 0): 1})
    assert elementary_symmetric(2, [1, 2, 3], 3) == frac_poly(
        {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    )
    assert elementary_symmetric(3, [1, 2, 3], 3) == frac_poly({(1, 1, 1): 1})
    assert elementary_symmetric(0, [1, 2], 2) == frac_poly({(0, 0): 1})
    assert elementary_symmetric(3, [1, 2], 2) == {}


def test_antisymmetrize_examples():
    assert antisymmetrize((2,), variable(2, 1)) == frac_poly({(1, 0): 1, (0, 1): -1})
    # second displayed basis polynomial generator: x1*x3 under (2,2,1)
    result = antisymmetrize((2, 2, 1), monomial((1, 0, 1, 0, 0)))
    assert result == frac_poly(
        {(1, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0): -1, (0, 1, 1, 0, 0): -1, (0, 1, 0, 1, 0): 1}
    )
    result = antisymmetrize((2, 2, 1), monomial((1, 0, 2, 0, 0)))
    assert result == frac_poly(
        {(1, 0, 2, 0, 0): 1, (1, 0, 0, 2, 0): -1, (0, 1, 2, 0, 0): -1, (0, 1, 0, 2, 0): 1}
    )


def test_monomials_of_degree():
    monos = monomials_of_degree(3, 2)
    assert len(monos) == 6
    assert monos[0] == (2, 0, 0)  # largest in lex


# -------------------------------------------------------------------- linalg


def test_clear_denominators():
    row = {0: Fraction(1, 2), 3: Fraction(-2, 3)}
    assert clear_denominators(row) == {0: 3, 3: -4}
    assert clear_denominators({}) == {}


def test_echelon_rank_and_reduce():
    e = Echelon()
    assert e.add_row({0: 1, 1: 1})
    assert not e.add_row({0: 2, 1: 2})
    assert e.add_row({1: 1, 2: -1})
    assert e.rank == 2
    assert matrix_rank([{0: 1}, {0: 2}, {1: 5}]) == 2
    reduced = e.reduce({0: Fraction(1)})
    # x0 = (x0+x1) - (x1-x2) - x2 modulo the rows: remainder is on column 2
    assert set(reduced) == {2}
    assert e.contains({0: Fraction(1), 1: Fraction(1)})
    assert not e.contains({0: Fraction(1)})


def _random_rows(rng, kind, count, width=8):
    """Sparse rows over ``range(width)``: ``int``, ``Fraction`` or mixed
    entries, explicit zeros included, and every third row a combination of
    two earlier ones, so that some rows reduce to nothing."""

    def entry():
        value = rng.randint(-6, 6)
        if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
            return Fraction(value, rng.randint(1, 4))
        return value

    rows = []
    for k in range(count):
        if k % 3 == 2:
            a, b = rng.sample(rows, 2)
            x, y = rng.choice([1, 2, -3]), rng.choice([1, -1, 4])
            row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in a.keys() | b.keys()}
        else:
            row = {c: entry() for c in rng.sample(range(width), rng.randint(1, min(width, 5)))}
        rows.append(row)
    return rows


def _primitive(row):
    """A nonzero rational row scaled to integers with content 1 and a
    positive leading entry."""
    scale = lcm(*(Fraction(v).denominator for v in row.values()))
    ints = {c: int(v * scale) for c, v in row.items()}
    content = gcd(*ints.values())
    if ints[min(ints)] < 0:
        content = -content
    return {c: v // content for c, v in ints.items()}


def _minus(row, factor, pivot):
    """``row - factor * pivot``, without zero entries."""
    merged = {c: row.get(c, 0) - factor * pivot.get(c, 0) for c in row.keys() | pivot.keys()}
    return {c: v for c, v in merged.items() if v}


def _gauss_jordan(rows):
    """Plain ``Fraction`` Gauss–Jordan: each row in turn reduced at its
    leading column by the pivot rows so far, scaled to lead 1 when it
    becomes a pivot; then every pivot column cleared from the other pivot
    rows.  Returns the forward and the reduced pivot rows, made primitive."""
    pivots = {}
    for row in rows:
        work = {c: Fraction(v) for c, v in row.items() if v}
        while work and min(work) in pivots:
            work = _minus(work, work[min(work)], pivots[min(work)])
        if work:
            lead = min(work)
            pivots[lead] = {c: v / work[lead] for c, v in work.items()}
    forward = {lead: _primitive(row) for lead, row in pivots.items()}
    for lead, pivot in pivots.items():
        for other, row in pivots.items():
            if other != lead and lead in row:
                pivots[other] = _minus(row, row[lead], pivot)
    return forward, {lead: _primitive(row) for lead, row in pivots.items()}


def _assert_primitive_pivots(echelon):
    for lead, row in echelon.pivot_rows.items():
        assert min(row) == lead and row[lead] > 0, (lead, row)
        assert all(type(v) is int and v for v in row.values()), row
        assert gcd(*row.values()) == 1, row


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_add_row_leaves_the_callers_row_alone(kind):
    rng = random.Random(11)
    for _ in range(30):
        rows = _random_rows(rng, kind, rng.randint(2, 9))
        before = [[(c, type(v), v) for c, v in row.items()] for row in rows]
        e = Echelon()
        for row in rows:
            e.add_row(row)
        e.back_substitute()
        assert [[(c, type(v), v) for c, v in row.items()] for row in rows] == before
        assert not any(stored is row for stored in e.pivot_rows.values() for row in rows)


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_stored_pivot_rows_are_primitive_with_positive_lead(kind):
    rng = random.Random(13)
    for _ in range(30):
        e = Echelon()
        for row in _random_rows(rng, kind, rng.randint(1, 9)):
            e.add_row(row)
            _assert_primitive_pivots(e)
        e.back_substitute()
        _assert_primitive_pivots(e)


def test_elimination_matches_a_fraction_gauss_jordan():
    rng = random.Random(17)
    for trial in range(200):
        kind = ("int", "fraction", "mixed")[trial % 3]
        rows = _random_rows(rng, kind, rng.randint(1, 12), width=rng.randint(2, 10))
        forward, reduced = _gauss_jordan(rows)
        e = Echelon()
        for row in rows:
            e.add_row(row)
        assert list(e.pivot_rows) == list(forward) and e.pivot_rows == forward, rows
        e.back_substitute()
        assert e.pivot_rows == reduced, rows


# ------------------------------------------------------------------ tanisaki


def test_p_stat():
    # conjugate of (2,1) padded to length 3 is (2,1,0)
    assert p_stat((2, 1), 1) == 0
    assert p_stat((2, 1), 2) == 1
    assert p_stat((2, 1), 3) == 3
    # single column: conjugate (n) padded leaves zeros except the first slot
    assert p_stat((1, 1, 1), 2) == 0
    assert p_stat((1, 1, 1), 3) == 3


def test_column_ideal_is_the_symmetric_ideal():
    ideal = tanisaki_ideal((1, 1, 1))
    assert [(s, d) for s, d in ideal.generators] == [
        ((1, 2, 3), 1),
        ((1, 2, 3), 2),
        ((1, 2, 3), 3),
    ]


def test_row_ideal_kills_everything():
    # single row: every e_d(S) qualifies, the quotient is one-dimensional
    ideal = tanisaki_ideal((3,))
    assert ((1,), 1) in ideal.generators
    assert hilbert_series((3,)) == TPoly.one()


def test_hilbert_series_examples():
    assert hilbert_series((1, 1, 1)) == q_factorial(3)
    assert hilbert_series((2, 1)) == TPoly.from_coefficient_list([1, 2])
    assert hilbert_series((2, 1, 1)) == TPoly.from_coefficient_list([1, 3, 5, 3])
    # hand-enumerated via the minimal ribbon count for the conjugate shape
    assert hilbert_series((2, 2)) == TPoly.from_coefficient_list([1, 3, 2])


def test_hilbert_series_counts():
    for n in range(1, 5):
        for lam in partitions(n):
            assert sum(hilbert_series(lam).coeffs.values()) == multinomial(conjugate(lam))


def test_hilbert_matches_full_size_coefficient_up_to_5():
    for n in range(1, 6):
        for lam in partitions(n):
            coeff = hall_littlewood_by_descents(lam).get((1,) * n, TPoly.zero())
            assert hilbert_series(lam) == coeff


def test_hilbert_matches_full_size_coefficient_at_6():
    # past the full-slice oracle's reach, the expansion side checks every
    # quotient slice of size 6 on its own
    for lam in partitions(6):
        assert hilbert_series(lam) == hall_littlewood_by_descents(lam).get((1,) * 6), lam


def test_ideal_slice_basis_examples():
    # degree-1 slice of the two-variable symmetric ideal is spanned by e_1
    assert ideal_slice_basis((1, 1), 1) == [frac_poly({(1, 0): 1, (0, 1): 1})]
    # degree-2 slice is full: the series 1 + t has nothing in degree 2
    assert len(ideal_slice_basis((1, 1), 2)) == 3
    # ranks for the hook of size 3 are consistent with its series 1 + 2t
    assert len(ideal_slice_basis((2, 1), 1)) == 3 - 2
    assert len(ideal_slice_basis((2, 1), 2)) == 6 - 0


def test_quotient_dimension_matches_lex_order_rank():
    # the quotient dimension does not depend on the column order: plain lex
    # columns, built here from scratch, give the same counts
    for n in range(1, 5):
        for lam in partitions(n):
            generators = tanisaki_ideal(lam).generators
            for degree in range(n_stat(lam) + 2):
                monos = monomials_of_degree(n, degree)  # decreasing lex order
                index = {exp: i for i, exp in enumerate(monos)}
                rows = [
                    {
                        index[exp]: c
                        for exp, c in mul_monomial(
                            elementary_symmetric(d, subset, n), padding
                        ).items()
                    }
                    for subset, d in generators
                    if d <= degree
                    for padding in monomials_of_degree(n, degree - d)
                ]
                assert len(monos) - matrix_rank(rows) == len(_quotient_slice(lam, degree).standard)


def _full_slice_echelon(lam, n, degree):
    """The full-slice oracle: every generator times every monomial of the
    complementary degree, in descent-order columns (column 0 = largest
    monomial), fully reduced.  Rows go in smallest leading monomial first,
    which is several times faster here than largest first."""
    monos = sorted(monomials_of_degree(n, degree), key=descent_key, reverse=True)
    col = {exp: i for i, exp in enumerate(monos)}
    rows = [
        {col[exp]: c for exp, c in mul_monomial(elementary_symmetric(d, subset, n), padding).items()}
        for subset, d in tanisaki_ideal(lam).generators
        if d <= degree
        for padding in monomials_of_degree(n, degree - d)
    ]
    echelon = Echelon()
    for row in sorted(rows, key=min, reverse=True):
        echelon.add_row(row)
        if echelon.rank == len(monos):
            break
    echelon.back_substitute()
    return monos, col, echelon


def test_quotient_slice_matches_full_slice_oracle():
    # the standard monomials are the non-pivot columns of the reduced full
    # slice, and every normal form is the oracle's reduction.  At n = 6 the
    # shapes with n(lam) > 7, (2,1,1,1,1) and (1^6), are left out: the
    # oracle multiplies every generator by every monomial of the top degrees,
    # and (2,1,1,1,1) alone takes longer than the rest of the test together,
    # (1^6) far longer.
    for n in range(1, 7):
        for lam in partitions(n):
            if n == 6 and n_stat(lam) > 7:
                continue
            for degree in range(n_stat(lam) + 2):
                monos, col, echelon = _full_slice_echelon(lam, n, degree)
                free = [exp for exp in reversed(monos) if col[exp] not in echelon.pivot_rows]
                assert _quotient_slice(lam, degree).standard == tuple(free), (lam, degree)
                for exp in monos:
                    reduced = echelon.reduce({col[exp]: 1})
                    nf = _quotient_normal_form(lam, {exp: 1})
                    assert {monos[c]: v for c, v in reduced.items()} == nf, (lam, degree, exp)
                    # every normal form here is integral, with int coefficients
                    assert all(type(c) is int for c in nf.values())


def _relation_rows(lam, n, degree):
    """Every Koszul row and every degree-``degree`` generator row of the
    slice presentation, in the columns ``(i, b)`` = ``x_i * b``, each with
    whether the row predicates of ``_quotient_slice`` keep it."""
    below = _quotient_slice(lam, degree - 1)
    column = {key: k for k, key in enumerate(itertools.product(range(n), below.standard))}

    def shift(exp, i, delta):
        return exp[:i] + (exp[i] + delta,) + exp[i + 1 :]

    def add(row, i, exp, coeff):
        # row += coeff * x_i (x) NF(exp)
        for b, v in below.normal_forms[exp].items():
            row[column[i, b]] = row.get(column[i, b], 0) + coeff * v

    rows = []
    if degree >= 2:
        for c in _quotient_slice(lam, degree - 2).standard:
            for i, j in itertools.combinations(range(n), 2):
                row = {}
                add(row, i, shift(c, j, 1), 1)
                add(row, j, shift(c, i, 1), -1)
                rows.append((_koszul_row_needed(c, j), row))
    for subset, d in tanisaki_ideal(lam).generators:
        if d == degree:
            row = {}
            for exp, coeff in elementary_symmetric(d, subset, n).items():
                i = next(k for k, e in enumerate(exp) if e)
                add(row, i, shift(exp, i, -1), coeff)
            rows.append((_generator_row_needed(lam, len(subset), d), row))
    return rows


def certify_skipped_relation_rows(max_n):
    """Assert that every relation row the predicates skip lies in the span
    of the rows they keep, for every slice of every ideal of size up to
    ``max_n``; return the numbers of kept and skipped rows."""
    kept = skipped = 0
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            for degree in range(1, n_stat(lam) + 2):
                rows = _relation_rows(lam, n, degree)
                echelon = Echelon()
                for needed, row in rows:
                    if needed:
                        echelon.add_row(row)
                for needed, row in rows:
                    if not needed:
                        assert echelon.contains(row), (lam, degree, row)
                kept += sum(needed for needed, _ in rows)
                skipped += sum(not needed for needed, _ in rows)
    return kept, skipped


def test_skipped_relation_rows_lie_in_the_span_of_the_kept_ones():
    kept, skipped = certify_skipped_relation_rows(5)
    assert kept and skipped


def test_back_substitute_keeps_the_row_space():
    rng = random.Random(7)
    for _ in range(20):
        rows = [
            {col: rng.randint(-3, 3) for col in rng.sample(range(8), rng.randint(1, 5))}
            for _ in range(rng.randint(1, 7))
        ]
        e = Echelon()
        e.add_rows(rows)
        before = [e.reduce({col: 1}) for col in range(8)]
        pivots = set(e.pivot_rows)
        e.back_substitute()
        assert set(e.pivot_rows) == pivots
        for lead, row in e.pivot_rows.items():
            assert row[lead] > 0
            assert not any(col in pivots for col in row if col != lead)
        assert [e.reduce({col: 1}) for col in range(8)] == before


def test_descent_walk_is_the_descent_order():
    for n in range(7):
        for degree in range(n * (n - 1) // 2 + 2):
            expected = sorted(monomials_of_degree(n, degree), key=descent_key)
            assert list(_descent_walk(n, degree)) == expected, (n, degree)


def test_normal_form_lookup_rejects_foreign_exponents():
    normal_forms = _quotient_slice((2, 1), 2).normal_forms
    for exp in [(2, 0), (1, 1, 0, 0), (1, 0, 0), (2, 1, 0), (3, -1, 0), (-1, 0, 3)]:
        with pytest.raises(KeyError):
            normal_forms[exp]
    for exp in [(0, 0), (1, -1, 0)]:
        with pytest.raises(KeyError):
            _quotient_slice((2, 1), 0).normal_forms[exp]
    # a negative degree is the empty slice: nothing is standard, and every
    # lookup is foreign
    assert _quotient_slice((2, 1), -1).standard == ()
    assert ideal_slice_basis((2, 1), -1) == []
    for exp in [(-1, 0, 0), (0, 0, 0), (2, -3, 0)]:
        with pytest.raises(KeyError):
            _quotient_slice((2, 1), -1).normal_forms[exp]
    with pytest.raises(KeyError):
        ideal_member((2, 1), {(-1, 0, 0): 1})
    first = normal_forms[(0, 2, 0)]
    assert type(first) is MappingProxyType
    assert normal_forms[(0, 2, 0)] is first
    assert _quotient_slice((), 0).normal_forms[()] == {(): 1}
    with pytest.raises(KeyError):
        _quotient_slice((), 1).normal_forms[()]


def test_cached_values_are_immutable():
    quotient = _quotient_slice((1, 1, 1), 2)
    assert type(quotient.standard) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        quotient.standard = ()
    with pytest.raises(TypeError):
        quotient.normal_forms[(2, 0, 0)] = {}
    with pytest.raises(TypeError):
        quotient.normal_forms[(2, 0, 0)][(0, 1, 1)] = 1
    group = _young_subgroup((2, 1))
    assert group is _young_subgroup((2, 1))
    assert type(group) is tuple and all(type(w) is tuple for w, _ in group)


def test_young_subgroup_elements_and_signs():
    assert sorted(_young_subgroup((2, 1))) == [((1, 2, 3), 1), ((2, 1, 3), -1)]
    group = _young_subgroup((3, 2))
    assert len(group) == 12 and len({w for w, _ in group}) == 12
    assert sum(sign for _, sign in group) == 0


def test_monomials_of_negative_degree():
    for n in range(5):
        assert monomials_of_degree(n, -1) == []
        assert monomials_of_degree(n, -3) == []


def test_polynomial_coefficients_are_int():
    polys = [
        elementary_symmetric(2, [1, 2, 3], 3),
        elementary_symmetric(0, [1, 2], 2),
        antisymmetrize((2, 2, 1), monomial((1, 0, 1, 0, 0))),
    ]
    for p in polys:
        assert p and all(type(c) is int for c in p.values())


def test_ideal_membership():
    e1 = elementary_symmetric(1, [1, 2, 3], 3)
    assert ideal_member((1, 1, 1), e1)
    assert ideal_member((1, 1, 1), mul(e1, e1))
    assert not ideal_member((1, 1, 1), variable(3, 1))
    assert ideal_member((3,), variable(3, 1))


def test_verify_descent_basis_small():
    for n in range(1, 5):
        for lam in partitions(n):
            report = verify_descent_basis(lam)
            assert report.basis_ok and report.leading_terms_ok
            assert sum(report.hilbert.coeffs.values()) == multinomial(lam)


def test_verify_descent_basis_shapes():
    # the single-row shape indexes the full descent basis of the coinvariants
    report = verify_descent_basis((4,))
    assert report.hilbert == q_factorial(4)
    # the single-column shape indexes the one-dimensional quotient
    report = verify_descent_basis((1, 1, 1, 1))
    assert report.hilbert == TPoly.one()


def test_verify_leading_terms_small():
    for lam in [(3,), (2, 2), (1, 1, 1)]:
        assert verify_descent_basis(lam).leading_terms_ok


def test_descent_normal_form():
    # x1 in three variables reduces to -x2 - x3
    assert descent_normal_form(variable(3, 1), 3) == frac_poly(
        {(0, 1, 0): -1, (0, 0, 1): -1}
    )
    # x1*x2 reduces against e_2 to -x1x3 - x2x3
    assert descent_normal_form(monomial((1, 1, 0)), 3) == frac_poly(
        {(1, 0, 1): -1, (0, 1, 1): -1}
    )
    # descent monomials are fixed
    assert descent_normal_form(monomial((0, 1, 1)), 3) == frac_poly({(0, 1, 1): 1})


def test_phi_worked_example():
    p = monomial((2, 1, 0, 3, 0, 1, 0))
    tensors = phi_map({2, 3, 7}, p)
    assert len(tensors) == 1
    first, second = tensors[0]
    assert first == frac_poly({(0, 1, 0): -1, (0, 0, 1): -1})
    assert second == frac_poly({(2, 3, 0, 1): 1})


def test_phi_empty_subset():
    p = monomial((1, 2))
    tensors = phi_map(set(), p)
    assert tensors == [(frac_poly({(): 1}), frac_poly({(1, 2): 1}))]


def test_tensor_reduction_triangular_example():
    # worked six-variable reduction: a = 011011, S = {1,3,6}, T = {2,4,5};
    # the coefficient of the descent monomial 011 in the first factor pairs
    # second-factor monomials with signed combinations of the original terms.
    a = (0, 1, 1, 0, 1, 1)
    S = (1, 3, 6)
    key_a = descent_key(a)
    candidates = [
        b for b in itertools.product(range(3), repeat=6) if descent_key(b) <= key_a
    ]
    assert len(candidates) == 45
    contrib: dict[tuple, dict[tuple, Fraction]] = {}
    for b in candidates:
        grouped = phi_by_descent_coordinates(S, monomial(b))
        block = grouped.get((0, 1, 1), {})
        for second_exp, coeff in block.items():
            contrib.setdefault(second_exp, {})[b] = coeff
    one = Fraction(1)
    assert contrib[(1, 0, 1)] == {(0, 1, 1, 0, 1, 1): one}
    assert contrib[(0, 1, 1)] == {(0, 0, 1, 1, 1, 1): one}
    assert contrib[(1, 0, 0)] == {(0, 1, 1, 0, 0, 1): one, (1, 1, 1, 0, 0, 0): -one}
    assert contrib[(0, 1, 0)] == {(0, 0, 1, 1, 0, 1): one, (1, 0, 1, 1, 0, 0): -one}
    assert contrib[(0, 0, 1)] == {(0, 0, 1, 0, 1, 1): one, (1, 0, 1, 0, 1, 0): -one}
    assert contrib[(0, 0, 0)] == {(0, 0, 1, 0, 0, 1): one, (1, 0, 1, 0, 0, 0): -one}


BASEX = [
    {(1, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0): -1, (0, 1, 1, 0, 0): -1, (0, 1, 0, 1, 0): 1},
    {(1, 0, 1, 0, 1): 1, (1, 0, 0, 1, 1): -1, (0, 1, 1, 0, 1): -1, (0, 1, 0, 1, 1): 1},
    {(1, 0, 2, 0, 0): 1, (1, 0, 0, 2, 0): -1, (0, 1, 2, 0, 0): -1, (0, 1, 0, 2, 0): 1},
    {(1, 0, 2, 0, 1): 1, (1, 0, 0, 2, 1): -1, (0, 1, 2, 0, 1): -1, (0, 1, 0, 2, 1): 1},
    {(1, 0, 1, 0, 2): 1, (1, 0, 0, 1, 2): -1, (0, 1, 1, 0, 2): -1, (0, 1, 0, 1, 2): 1},
]


def normalized(p):
    anchor = min(p, key=descent_key)
    scale = p[anchor]
    return frozenset((exp, coeff / scale) for exp, coeff in p.items())


def test_parabolic_basis_32_221_matches_display():
    elements = parabolic_basis_elements((3, 2), (2, 2, 1))
    assert len(elements) == 5
    produced = {normalized(p) for _, p in elements}
    expected = {normalized(frac_poly(p)) for p in BASEX}
    assert produced == expected


def test_parabolic_verification():
    report = verify_parabolic_basis((3, 2), (2, 2, 1))
    assert report.ok
    assert report.count_poly == TPoly({2: 1, 3: 2, 4: 2})
    for n in range(2, 5):
        for lam in partitions(n):
            for mu in partitions(n):
                assert verify_parabolic_basis(lam, mu).ok


def test_parabolic_trivial_mu():
    # mu = (1,...,1): the antisymmetrizer is the identity and the count is
    # the full graded family size
    report = verify_parabolic_basis((2, 1), (1, 1, 1))
    assert report.ok
    assert sum(report.count_poly.coeffs.values()) == multinomial((2, 1))


def test_parabolic_check_needs_every_degree(monkeypatch):
    # D_(2,1) without its degree-0 member cannot span the degree-0 piece,
    # although the reverse-shuffle part (taken from the untrimmed family)
    # still has it
    import gpdescent.tanisaki as tanisaki_module

    family = tanisaki_module.descent_compositions_lambda((2, 1))
    assert (0, 0, 0) in family
    untrimmed = tanisaki_module._reverse_shuffle_part((2, 1), (1, 1, 1))
    trimmed = tuple(a for a in family if sum(a))
    monkeypatch.setattr(
        tanisaki_module,
        "descent_compositions_lambda",
        lambda lam: trimmed if lam == (2, 1) else family,
    )
    monkeypatch.setattr(tanisaki_module, "_reverse_shuffle_part", lambda *_: untrimmed)
    report = verify_parabolic_basis((2, 1), (1, 1, 1))
    assert report.independent
    assert not report.spans
    assert not report.ok


def test_basis_check_fails_on_a_family_member_above_the_top_degree(monkeypatch):
    # the quotient of (2,1) is zero above degree n((2,1)) = 1, so a degree-3
    # member of the family fails both checks; no slice above the top is built
    import gpdescent.tanisaki as tanisaki_module

    family = tanisaki_module.descent_compositions_lambda((2, 1))
    built = []

    def recording_slice(lam, degree):
        built.append(degree)
        return _quotient_slice(lam, degree)

    monkeypatch.setattr(tanisaki_module, "_quotient_slice", recording_slice)
    report = verify_descent_basis((2, 1))
    assert report.basis_ok and report.leading_terms_ok
    assert sorted(built) == [0, 1]
    monkeypatch.setattr(
        tanisaki_module,
        "descent_compositions_lambda",
        lambda lam: (*family, (3, 0, 0)) if lam == (2, 1) else family,
    )
    report = verify_descent_basis((2, 1))
    assert not report.basis_ok
    assert not report.leading_terms_ok
    assert report.hilbert == TPoly({0: 1, 1: 2})


def test_parabolic_unsorted_mu():
    # Young subgroups of arbitrary compositions also work; the expansion
    # comparison only applies to partitions
    for lam in partitions(4):
        for mu in [(1, 3), (1, 2, 1), (2, 1, 1)]:
            report = verify_parabolic_basis(lam, mu)
            assert report.independent and report.spans, (lam, mu)
            assert report.matches_expansion is (None if mu != (2, 1, 1) else True)


def test_parabolic_rejects_a_negative_part():
    # a negative block length would slice from the end of the exponent
    for mu in [(-1, 4), (4, -1), (2, -1, 2)]:
        with pytest.raises(ValueError, match="negative"):
            verify_parabolic_basis((2, 1), mu)
        with pytest.raises(ValueError, match="negative"):
            parabolic_basis_elements((2, 1), mu)
    # zero parts stay allowed
    assert verify_parabolic_basis((2, 1), (0, 2, 1)).ok
    assert parabolic_basis_elements((2, 1), (2, 0, 1)) == parabolic_basis_elements((2, 1), (2, 1))


def test_antisymmetrized_monomials_sit_at_the_descent_bottom():
    # the reverse-shuffle exponent is the descent-order minimum of its
    # antisymmetrization; all other terms are strictly higher
    for n in range(2, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                assert antisymmetrized_extreme_exponents(lam, mu)


def test_phi_injective_small():
    assert verify_phi_injective((1, 1, 1))
    assert verify_phi_injective((3,))
    assert verify_phi_injective((2, 1))
    assert verify_phi_injective((2, 2))
    # the library takes no size bound; the CLI holds phi to its own
    for lam in partitions(5):
        assert verify_phi_injective(lam), lam


def test_tanimap_spot_check_small():
    assert tanimap_spot_check(3, trials_per_generator=5)
    assert tanimap_spot_check(4, trials_per_generator=5)


def test_reports_serialize():
    report = verify_descent_basis((2, 1))
    payload = report.to_json_dict()
    assert payload["lambda"] == [2, 1]
    assert payload["basis_ok"] and payload["leading_terms_ok"]
    assert payload["grading"] == "direct"
    pr = verify_parabolic_basis((2, 1), (2, 1))
    assert pr.to_json_dict()["ok"]
