import itertools
from math import factorial

import pytest

from gpdescent.core import (
    block_interior,
    conjugate,
    dominates,
    inverse_descent_set,
    is_partition,
    is_reverse_shuffle,
    is_shuffle,
    multinomial,
    n_stat,
    ordered_set_partitions,
    pad,
    partitions,
    permutations,
    reverse_shuffles,
    shuffles,
)

# transcription of the displayed list of the ten (3,2)-shuffles
SHUFFLES_32 = [
    (1, 2, 3, 4, 5),
    (1, 2, 4, 3, 5),
    (1, 2, 4, 5, 3),
    (1, 4, 2, 3, 5),
    (1, 4, 2, 5, 3),
    (1, 4, 5, 2, 3),
    (4, 1, 2, 3, 5),
    (4, 1, 2, 5, 3),
    (4, 1, 5, 2, 3),
    (4, 5, 1, 2, 3),
]


def compositions_of(n):
    """All compositions of n into positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            yield (first,) + rest


def test_conjugate_examples():
    assert conjugate((3, 3, 2, 1)) == (4, 3, 2)
    assert conjugate((1, 1, 1, 1)) == (4,)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_is_involution_small():
    for n in range(13):
        for lam in partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_partitions_are_valid_and_counted():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, expected in enumerate(counts):
        plist = partitions(n)
        assert len(plist) == expected
        assert all(is_partition(lam) and sum(lam) == n for lam in plist)


def test_pad():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        pad((2, 1, 1), 2)


def test_n_stat_examples():
    assert n_stat((1, 1, 1)) == 3
    # conjugate of (3,1) is (2,1,1): C(2,2) = 1
    assert n_stat((3, 1)) == 1
    # conjugate of (2,2,1) is (3,2): 3 + 1 = 4
    assert n_stat((2, 2, 1)) == 4
    assert n_stat((6, 2, 1)) == 4


def test_multinomial_examples():
    assert multinomial((3, 1)) == 12
    assert multinomial((2, 2, 1)) == 10  # 5!/(3!2!)
    assert multinomial((4,)) == 24
    assert multinomial((1, 1, 1, 1)) == 1


def test_shuffles_32_match_displayed_list():
    assert shuffles((3, 2)) == sorted(SHUFFLES_32)


def test_shuffles_degenerate():
    assert shuffles((4,)) == [(1, 2, 3, 4)]
    assert len(shuffles((1, 1, 1))) == 6
    assert reverse_shuffles((2,)) == [(2, 1)]
    assert reverse_shuffles((1, 1)) == [(1, 2), (2, 1)]


def test_reverse_shuffles_32_against_filter_oracle():
    # oracle: filter S_5 for the words containing 3,2,1 and 5,4 as subsequences
    expected = sorted(
        sigma
        for sigma in permutations(5)
        if is_reverse_shuffle(sigma, (3, 2))
    )
    assert reverse_shuffles((3, 2)) == expected
    for sigma in expected:
        pos = {v: i for i, v in enumerate(sigma)}
        assert pos[3] < pos[2] < pos[1] and pos[5] < pos[4]


def test_shuffle_counts_match_multinomial_up_to_7():
    for n in range(1, 8):
        for mu in compositions_of(n):
            target = factorial(n)
            for part in mu:
                target //= factorial(part)
            assert len(shuffles(mu)) == target
            assert len(reverse_shuffles(mu)) == target
            assert len(ordered_set_partitions(mu)) == target


def test_block_reversal_is_a_bijection_up_to_6():
    # reversing the relative order of each value block swaps the two families
    for n in range(1, 7):
        for mu in compositions_of(n):
            forward = set(shuffles(mu))
            images = set()
            for sigma in forward:
                word = list(sigma)
                blocks = []
                start = 1
                for part in mu:
                    blocks.append(set(range(start, start + part)))
                    start += part
                for block in blocks:
                    positions = [i for i, v in enumerate(word) if v in block]
                    values = [word[i] for i in positions]
                    for i, v in zip(positions, reversed(values)):
                        word[i] = v
                images.add(tuple(word))
            assert images == set(reverse_shuffles(mu))


def test_ordered_set_partitions_examples():
    assert ordered_set_partitions((1, 1)) == [((1,), (2,)), ((2,), (1,))]
    assert ordered_set_partitions((2,)) == [((1, 2),)]
    assert ordered_set_partitions((2, 1)) == [
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((2, 3), (1,)),
    ]


def test_osp_blocks_partition_the_ground_set():
    for osp in ordered_set_partitions((2, 2, 1)):
        merged = sorted(itertools.chain.from_iterable(osp))
        assert merged == [1, 2, 3, 4, 5]


def test_shuffle_membership_agrees_with_enumeration():
    for mu in [(2, 2), (3, 1), (1, 1, 2)]:
        members = set(shuffles(mu))
        for sigma in permutations(4):
            assert is_shuffle(sigma, mu) == (sigma in members)


def test_shuffle_tests_agree_with_enumeration_up_to_5():
    # every composition of n <= 5, zero parts included, against the
    # enumerated (reverse) shuffles; the tests read only the inverse descent set
    for n in range(6):
        for typ in itertools.product(range(n + 1), repeat=3):
            if sum(typ) != n:
                continue
            members, reverse_members = set(shuffles(typ)), set(reverse_shuffles(typ))
            assert block_interior(typ) == frozenset(range(1, n)) - {typ[0], typ[0] + typ[1]}
            for sigma in permutations(n):
                assert is_shuffle(sigma, typ) == (sigma in members)
                assert is_reverse_shuffle(sigma, typ) == (sigma in reverse_members)


def test_inverse_descent_set():
    assert inverse_descent_set(()) == frozenset()
    assert inverse_descent_set((1, 2, 3)) == frozenset()
    assert inverse_descent_set((3, 2, 1)) == {1, 2}
    assert inverse_descent_set((2, 4, 1, 3)) == {1, 3}


def test_dominance():
    assert dominates((4,), (2, 2))
    assert dominates((2, 2), (2, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert dominates((3, 1), (3, 1))
    with pytest.raises(ValueError):
        dominates((2,), (1,))
