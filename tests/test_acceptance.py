"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single ``ACCEPTANCE <k>: PASS`` line (visible with
``pytest -s`` or in the captured output summary) once its criterion holds.
"""

import time
from collections import Counter
from fractions import Fraction

from gpdescent import parking as pk
from gpdescent import ribbon as rb
from gpdescent.core import conjugate, multinomial, n_stat, partitions, permutations
from gpdescent.descent import (
    descent_compositions_lambda,
    descent_key,
    descent_set,
    inv,
    inversion_set,
    invt,
    maj,
    majt,
)
from gpdescent.polynomial import monomial
from gpdescent.symfunc import (
    TPoly,
    hall_littlewood_by_descents,
    hall_littlewood_by_ribbons,
    hall_littlewood_omega_by_descents,
    q_factorial,
)
from gpdescent.tanisaki import (
    hilbert_series,
    parabolic_basis_elements,
    verify_descent_basis,
    verify_parabolic_basis,
)
from lemmas import tanimap_spot_check


def _stamp(number: int, started: float) -> None:
    print(f"ACCEPTANCE {number}: PASS ({time.time() - started:.1f}s)")


def test_acceptance_1_worked_examples():
    started = time.time()
    sigma = (3, 5, 1, 2, 4)
    assert inversion_set(sigma) == {(3, 1), (3, 2), (5, 1), (5, 2), (5, 4)}
    assert descent_set(sigma) == {2}
    assert inv(sigma) == 5 and maj(sigma) == 2
    tau = (3, 4, 1, 5, 2)
    assert invt(tau) == (2, 3, 0, 0, 0)
    assert majt(tau) == (1, 0, 2, 2, 1)
    P = pk.ParkingFunction((0, 0, 1, 0, 0, 1, 2, 2, 3), (2, 4, 7, 9, 1, 5, 8, 3, 6))
    assert pk.area(P) == 9
    assert pk.dinv_pairs(P) == {(2, 4), (2, 9), (4, 9), (7, 1)}
    assert pk.dinv(P) == 4
    assert pk.doff(P, (1, 2, 6)) == 3
    from gpdescent.tanisaki import phi_map

    tensors = phi_map({2, 3, 7}, monomial((2, 1, 0, 3, 0, 1, 0)))
    assert tensors == [
        (
            {(0, 1, 0): Fraction(-1), (0, 0, 1): Fraction(-1)},
            {(2, 3, 0, 1): Fraction(1)},
        )
    ]
    assert time.time() - started < 1.0
    _stamp(1, started)


def test_acceptance_2_shape_31_families():
    started = time.time()
    expected = [
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 1, 1),
        (0, 0, 1, 2),
        (0, 1, 0, 0),
        (0, 1, 0, 1),
        (0, 1, 0, 2),
        (0, 1, 1, 0),
        (0, 1, 2, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    ]
    assert sorted(descent_compositions_lambda((3, 1))) == expected
    assert len(rb.minimal_ribbon_tuples((3, 1))) == 12
    assert time.time() - started < 1.0
    _stamp(2, started)


def test_acceptance_3_two_route_cross_check():
    started = time.time()
    for n in range(1, 7):
        for lam in partitions(n):
            assert (
                hall_littlewood_by_descents(conjugate(lam))
                == hall_littlewood_by_ribbons(lam)
            ), lam
            assert (
                hall_littlewood_omega_by_descents(conjugate(lam))
                == hall_littlewood_by_ribbons(lam, twisted=True)
            ), lam
    _stamp(3, started)


def test_acceptance_4_published_expansions():
    started = time.time()
    h = hall_littlewood_by_descents((2, 1, 1))
    assert h[(4,)] == TPoly.from_coefficient_list([1])
    assert h[(3, 1)] == TPoly.from_coefficient_list([1, 1, 1])
    assert h[(2, 2)] == TPoly.from_coefficient_list([1, 1, 2])
    assert h[(1, 1, 1, 1)] == TPoly.from_coefficient_list([1, 3, 5, 3])
    # the misprinted coefficient is computed, agreeing across both routes
    ribbon_route = hall_littlewood_by_ribbons(conjugate((2, 1, 1)))
    assert h[(2, 1, 1)] == ribbon_route[(2, 1, 1)]

    w = hall_littlewood_omega_by_descents((2, 2, 1))
    assert w[(3, 2)] == TPoly({4: 1})
    assert w[(3, 1, 1)] == TPoly({3: 1, 4: 1})
    assert w[(2, 2, 1)] == TPoly({2: 1, 3: 2, 4: 2})
    assert w[(2, 1, 1, 1)] == TPoly({1: 1, 2: 3, 3: 5, 4: 3})
    assert w[(1, 1, 1, 1, 1)] == TPoly.from_coefficient_list([1, 4, 9, 11, 5])

    w31 = hall_littlewood_omega_by_descents((3, 1))
    assert w31 == {
        (2, 1, 1): TPoly({1: 1}),
        (1, 1, 1, 1): TPoly.from_coefficient_list([1, 3]),
    }
    assert time.time() - started < 5.0
    _stamp(4, started)


def test_acceptance_5_cardinality_theorem():
    started = time.time()
    for n in range(1, 8):
        for lam in partitions(n):
            assert len(descent_compositions_lambda(lam)) == multinomial(lam), lam
    _stamp(5, started)


def test_acceptance_6_height_vector_bijection():
    started = time.time()
    for n in range(1, 7):
        for lam in partitions(n):
            family = rb.minimal_ribbon_tuples(lam)
            vectors = [rb.height_vector(t) for t in family]
            assert len(set(vectors)) == len(family), lam  # injective
            assert set(vectors) == set(descent_compositions_lambda(lam)), lam
            for tup, a in zip(family, vectors):
                assert rb.reconstruct(a, lam) == tup, (lam, a)
                assert rb.algorithm_sequence(a, lam) == rb.algorithm_tableau(tup), lam
    _stamp(6, started)


def test_acceptance_7_minimality():
    started = time.time()
    for n in range(1, 7):
        for lam in partitions(n):
            tuples = list(rb.ribbon_tuples(lam))
            values = [rb.dinv(t) + rb.doff(t) for t in tuples]
            assert min(values) == n_stat(lam), lam
            argmin = {t for t, v in zip(tuples, values) if v == n_stat(lam)}
            assert argmin == set(rb.minimal_ribbon_tuples(lam)), lam
    _stamp(7, started)


def test_acceptance_8_basis_theorem_desk_scale():
    started = time.time()
    for n in range(1, 6):
        for lam in partitions(n):
            report = verify_descent_basis(lam)
            assert report.basis_ok, lam
            assert report.leading_terms_ok, lam
            for mu in partitions(n):
                parabolic = verify_parabolic_basis(lam, mu)
                assert parabolic.independent, (lam, mu)
                assert parabolic.spans, (lam, mu)
                assert parabolic.matches_expansion, (lam, mu)
    # the five displayed antisymmetrized polynomials, up to scalar
    basex = [
        {(1, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0): -1, (0, 1, 1, 0, 0): -1, (0, 1, 0, 1, 0): 1},
        {(1, 0, 1, 0, 1): 1, (1, 0, 0, 1, 1): -1, (0, 1, 1, 0, 1): -1, (0, 1, 0, 1, 1): 1},
        {(1, 0, 2, 0, 0): 1, (1, 0, 0, 2, 0): -1, (0, 1, 2, 0, 0): -1, (0, 1, 0, 2, 0): 1},
        {(1, 0, 2, 0, 1): 1, (1, 0, 0, 2, 1): -1, (0, 1, 2, 0, 1): -1, (0, 1, 0, 2, 1): 1},
        {(1, 0, 1, 0, 2): 1, (1, 0, 0, 1, 2): -1, (0, 1, 1, 0, 2): -1, (0, 1, 0, 1, 2): 1},
    ]

    def normalized(p):
        anchor = min(p, key=descent_key)
        scale = p[anchor]
        return frozenset((exp, Fraction(c, 1) / scale) for exp, c in p.items())

    produced = {normalized(p) for _, p in parabolic_basis_elements((3, 2), (2, 2, 1))}
    assert produced == {normalized(p) for p in basex}
    _stamp(8, started)


def test_acceptance_9_mahonian_and_hilbert():
    started = time.time()
    for n in range(1, 9):
        by_maj = Counter(maj(sigma) for sigma in permutations(n))
        by_inv = Counter(inv(sigma) for sigma in permutations(n))
        assert TPoly(dict(by_maj)) == q_factorial(n)
        assert TPoly(dict(by_inv)) == q_factorial(n)
    for n in range(1, 6):
        assert hilbert_series((1,) * n) == q_factorial(n)
    assert time.time() - started < 60.0
    _stamp(9, started)


def test_acceptance_10_splitting_map_spot_check():
    started = time.time()
    for n in range(2, 6):
        assert tanimap_spot_check(n, trials_per_generator=20)
    _stamp(10, started)
