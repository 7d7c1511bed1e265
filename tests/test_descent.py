import itertools
import random
from collections import Counter

import pytest

from gpdescent.core import (
    inverse_descent_set,
    is_shuffle,
    multinomial,
    ordered_set_partitions,
    partitions,
    permutations,
)
from gpdescent.descent import (
    NotADescentComposition,
    ascent_set,
    descent_compare,
    descent_composition_witness,
    descent_compositions,
    descent_compositions_lambda,
    descent_key,
    descent_set,
    inv,
    inversion_set,
    invt,
    j_maj,
    maj,
    majt,
    majt_inverse,
    restrict,
    runs,
)
from gpdescent.symfunc import TPoly, q_factorial

D_31_LIST = [
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


def test_worked_example_35124():
    sigma = (3, 5, 1, 2, 4)
    assert inversion_set(sigma) == {(3, 1), (3, 2), (5, 1), (5, 2), (5, 4)}
    assert descent_set(sigma) == {2}
    assert inv(sigma) == 5
    assert maj(sigma) == 2


def test_tables_34152():
    sigma = (3, 4, 1, 5, 2)
    assert invt(sigma) == (2, 3, 0, 0, 0)
    assert majt(sigma) == (1, 0, 2, 2, 1)
    assert majt((3, 1, 7, 5, 4, 2, 6)) == (3, 0, 4, 1, 2, 0, 3)


def test_majt_matches_its_definition_by_runs():
    # entry v is (number of runs) - (index of the run holding v), read off
    # runs() directly rather than through majt_inverse
    for n in range(8):
        for sigma in permutations(n):
            sigma_runs = runs(sigma)
            expected = [0] * n
            for k, run in enumerate(sigma_runs, start=1):
                for v in run:
                    expected[v - 1] = len(sigma_runs) - k
            assert majt(sigma) == tuple(expected), sigma


def test_identity_and_reversal():
    identity = (1, 2, 3, 4)
    assert inversion_set(identity) == set()
    assert descent_set(identity) == set()
    assert invt(identity) == (0, 0, 0, 0)
    assert majt(identity) == (0, 0, 0, 0)
    reversal = (4, 3, 2, 1)
    assert descent_set(reversal) == {1, 2, 3}
    assert inversion_set((2, 1)) == {(2, 1)}
    assert invt((2, 1)) == (1, 0)


def test_descent_basis_element():
    from gpdescent.descent import DescentBasisElement

    element = DescentBasisElement.from_witness((3, 4, 1, 5, 2))
    assert element.exponent == (1, 0, 2, 2, 1)
    assert element.degree == maj((3, 4, 1, 5, 2)) == 6
    assert DescentBasisElement.from_exponent(element.exponent) == element
    with pytest.raises(NotADescentComposition):
        DescentBasisElement.from_exponent((1, 1, 0))


def test_maj_generating_function_s4():
    # [4]_t! = (1)(1+t)(1+t+t^2)(1+t+t^2+t^3) = 1+3t+5t^2+6t^3+5t^4+3t^5+t^6
    counter = Counter(maj(sigma) for sigma in permutations(4))
    assert TPoly(dict(counter)) == TPoly.from_coefficient_list([1, 3, 5, 6, 5, 3, 1])


def test_mahonian_up_to_8():
    for n in range(1, 9):
        by_maj = Counter(maj(sigma) for sigma in permutations(n))
        by_inv = Counter(inv(sigma) for sigma in permutations(n))
        assert TPoly(dict(by_maj)) == q_factorial(n)
        assert TPoly(dict(by_inv)) == q_factorial(n)


def test_majt_inverse_examples():
    assert majt_inverse((1, 0, 2, 2, 1)) == (3, 4, 1, 5, 2)
    assert majt_inverse((0, 0, 0)) == (1, 2, 3)
    with pytest.raises(NotADescentComposition):
        majt_inverse((1, 1, 0))


def test_majt_inverse_against_brute_search():
    # oracle: scan the symmetric group for the preimage of every
    # composition on a bounded grid, including the non-images
    for n in range(1, 7):
        by_table = {majt(sigma): sigma for sigma in permutations(n)}
        for a in itertools.product(range(n), repeat=n):
            if a in by_table:
                assert majt_inverse(a) == by_table[a]
            else:
                with pytest.raises(NotADescentComposition):
                    majt_inverse(a)


def test_majt_bijection_up_to_8():
    for n in range(1, 9):
        seen = set()
        for sigma in permutations(n):
            table = majt(sigma)
            assert majt_inverse(table) == sigma
            seen.add(table)
        assert len(seen) == len(list(permutations(n)))


def test_majt_bijection_on_sampled_permutations_of_8_to_12():
    # past the exhaustive range above, drawn the same way on every run
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
    @hypothesis.given(
        strategies.integers(8, 12).flatmap(lambda n: strategies.permutations(range(1, n + 1)))
    )
    def round_trip(sigma):
        sigma = tuple(sigma)
        assert majt_inverse(majt(sigma)) == sigma

    round_trip()


def test_tables_read_maj_and_inverse_descents():
    for n in range(1, 8):
        for sigma in permutations(n):
            table = majt(sigma)
            assert inverse_descent_set(sigma) == ascent_set(table)
            assert maj(sigma) == sum(table)


def test_descent_compositions_d3():
    assert set(descent_compositions(3)) == {
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 1),
        (0, 1, 2),
    }


def test_descent_compare_examples():
    assert descent_compare((0, 1, 1), (2, 0, 0)) == -1
    assert descent_compare((1, 0, 1), (1, 1, 0)) == -1
    assert descent_compare((1, 0, 1), (1, 0, 1)) == 0
    with pytest.raises(ValueError):
        descent_compare((1,), (1, 0))


def test_descent_order_is_total():
    vectors = list(itertools.product(range(3), repeat=4))
    keys = [descent_key(v) for v in vectors]
    assert len(set(keys)) == len(vectors)  # antisymmetry: distinct keys
    # transitivity and totality come for free from key comparison; check
    # consistency of compare with keys on a sample
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.choice(vectors), rng.choice(vectors)
        assert descent_compare(a, b) == (descent_key(a) > descent_key(b)) - (
            descent_key(a) < descent_key(b)
        )


def test_restrict():
    a = (3, 0, 4, 1, 2, 0, 3)
    assert restrict(a, {1, 3, 6}) == (3, 4, 0)
    assert restrict(a, range(1, 8)) == a
    assert restrict((0, 1, 1, 0, 1, 1), {1, 3, 6}) == (0, 1, 1)


def test_restriction_property_of_descent_order():
    # a|_S <= b|_S and a|_T <= b|_T imply a <= b, for complementary S, T
    rng = random.Random(11)
    for n in range(2, 9):
        for _ in range(60):
            a = tuple(rng.randrange(4) for _ in range(n))
            b = tuple(rng.randrange(4) for _ in range(n))
            size = rng.randrange(1, n)
            S = set(rng.sample(range(1, n + 1), size))
            T = set(range(1, n + 1)) - S
            if (
                descent_compare(restrict(a, S), restrict(b, S)) <= 0
                and descent_compare(restrict(a, T), restrict(b, T)) <= 0
            ):
                assert descent_compare(a, b) <= 0


def union_of_shuffles(lam):
    """Oracle for ``D_lam``: every ordered set partition of type ``lam``
    carrying every tuple of ``D_{lam_1} x ... x D_{lam_l}``, deduplicated."""
    parts = tuple(p for p in lam if p > 0)
    n = sum(parts)
    found = set()
    for osp in ordered_set_partitions(parts):
        for combo in itertools.product(*(descent_compositions(p) for p in parts)):
            a = [0] * n
            for block, entries in zip(osp, combo):
                for position, entry in zip(block, entries):
                    a[position - 1] = entry
            found.add(tuple(a))
    return sorted(found)


def test_d_lambda_matches_union_of_shuffles():
    shapes = [lam for n in range(8) for lam in partitions(n)]
    for lam in shapes + [(3, 0, 1), (1, 3), (2, 1, 2)]:
        assert list(descent_compositions_lambda(lam)) == union_of_shuffles(lam), lam


def test_d_lambda_31_verbatim():
    assert list(descent_compositions_lambda((3, 1))) == D_31_LIST


def test_d_lambda_degenerate():
    assert set(descent_compositions_lambda((3,))) == set(descent_compositions(3))
    assert descent_compositions_lambda((1, 1, 1)) == ((0, 0, 0),)
    # zero parts are skipped (weak compositions allowed)
    assert descent_compositions_lambda((3, 0, 1)) == descent_compositions_lambda((3, 1))
    # the family only depends on the multiset of parts
    assert descent_compositions_lambda((1, 3)) == descent_compositions_lambda((3, 1))
    assert descent_compositions_lambda((2, 1, 2)) == descent_compositions_lambda((2, 2, 1))


def test_d_lambda_subset_of_d_n_up_to_7():
    for n in range(1, 8):
        ambient = set(descent_compositions(n))
        for lam in partitions(n):
            assert set(descent_compositions_lambda(lam)) <= ambient


def test_d_lambda_cardinality_up_to_7():
    for n in range(1, 8):
        for lam in partitions(n):
            assert len(descent_compositions_lambda(lam)) == multinomial(lam)


def test_membership_and_witness():
    # 1010 closes the twelve-element list; 1100 is not even a descent
    # composition of length 4
    assert descent_composition_witness((1, 0, 1, 0), (3, 1)) is not None
    assert descent_composition_witness((1, 1, 0, 0), (3, 1)) is None
    assert descent_composition_witness((0, 1, 1, 1), (3, 1)) is None
    assert descent_composition_witness((1, 0, 0, 1), (3, 1)) is not None
    witness = descent_composition_witness((1, 0, 0, 1), (3, 1))
    assert sorted(len(block) for block in witness) == [1, 3]
    blocks = sorted(itertools.chain.from_iterable(witness))
    assert blocks == [1, 2, 3, 4]
    # membership test agrees with the enumerated family
    family = set(descent_compositions_lambda((2, 2)))
    for a in itertools.product(range(3), repeat=4):
        assert (descent_composition_witness(a, (2, 2)) is not None) == (a in family)


def test_j_maj_examples():
    assert set(j_maj((4,))) == set(permutations(4))
    assert len(j_maj((3, 1))) == 12
    # graded count of the (3,2) family, from the m_{1^5} coefficient of
    # the displayed sign-twisted expansion indexed by (2,2,1):
    # 5t^4+11t^3+9t^2+4t+1
    counter = Counter(maj(sigma) for sigma in j_maj((3, 2)))
    assert TPoly(dict(counter)) == TPoly.from_coefficient_list([1, 4, 9, 11, 5])
    assert len(j_maj((2, 2, 1))) == 10


def test_j_maj_shuffle_intersection_31():
    # hand enumeration: the (2,1,1)-shuffles inside the (3,1) family have
    # maj generating function 1 + 2t + 3t^2 + t^3
    counter = Counter(
        maj(sigma) for sigma in j_maj((3, 1)) if is_shuffle(sigma, (2, 1, 1))
    )
    assert TPoly(dict(counter)) == TPoly.from_coefficient_list([1, 2, 3, 1])
