from collections import Counter

import pytest

from gpdescent.core import n_stat, partitions, permutations
from gpdescent.descent import maj, majt
from gpdescent.parking import (
    NotAParkingFunction,
    ParkingFunction,
    TouchConstraintError,
    _doff_weights,
    area,
    check_valid,
    dinv,
    dinv_pairs,
    doff,
    is_valid,
    level_composition,
    minimal_parking_functions,
    parking_functions,
    parking_functions_alpha,
    perm_to_pf0,
    pf0_to_perm,
    reading_word,
    render,
    to_json_dict,
    touches,
)
from gpdescent.ribbon import minimal_ribbon_tuples, ribbon_to_parking
from lemmas import is_dinv_zero_structural

EXAMPLE = ParkingFunction((0, 0, 1, 0, 0, 1, 2, 2, 3), (2, 4, 7, 9, 1, 5, 8, 3, 6))


def test_validate_examples():
    assert is_valid(EXAMPLE)
    assert not is_valid(ParkingFunction((0, 1), (2, 1)))
    assert is_valid(ParkingFunction((0, 0), (2, 1)))
    assert not is_valid(ParkingFunction((1, 0), (1, 2)))
    assert not is_valid(ParkingFunction((0, 2), (1, 2)))
    with pytest.raises(NotAParkingFunction):
        check_valid(ParkingFunction((0, 1), (2, 1)))


def test_area_examples():
    assert area(EXAMPLE) == 9
    assert area(ParkingFunction((0, 0, 0), (3, 1, 2))) == 0
    assert area(ParkingFunction((0, 1, 2), (1, 2, 3))) == 3


def test_dinv_examples():
    assert dinv_pairs(EXAMPLE) == {(2, 4), (2, 9), (4, 9), (7, 1)}
    assert dinv(EXAMPLE) == 4
    assert dinv_pairs(ParkingFunction((0, 1, 2), (1, 2, 3))) == set()
    assert dinv_pairs(ParkingFunction((0, 0), (1, 2))) == {(1, 2)}


def test_doff_examples():
    assert doff(EXAMPLE, (1, 2, 6)) == 3
    assert doff(EXAMPLE, (9,)) == 0
    flat = ParkingFunction((0, 0, 0), (3, 2, 1))
    assert doff(flat, (1, 1, 1)) == 2 + 1 + 0
    with pytest.raises(TouchConstraintError):
        doff(EXAMPLE, (2, 7))  # row 3 has level 1, not a touch point


def test_touches():
    assert touches(EXAMPLE, (1, 2, 6))
    assert touches(EXAMPLE, (3, 6))
    assert not touches(EXAMPLE, (2, 7))


def test_parking_function_counts():
    # (n+1)^(n-1) parking functions on n rows; one, the empty one, on none
    for n in range(1, 7):
        assert sum(1 for _ in parking_functions(n)) == (n + 1) ** (n - 1)
    assert list(parking_functions(0)) == [ParkingFunction((), ())]
    with pytest.raises(ValueError):
        list(parking_functions(-1))


def test_parking_functions_2_explicit():
    assert sorted(parking_functions(2)) == [
        ParkingFunction((0, 0), (1, 2)),
        ParkingFunction((0, 0), (2, 1)),
        ParkingFunction((0, 1), (1, 2)),
    ]


def test_alpha_enumeration_respects_touches():
    pfs = list(parking_functions_alpha((1, 3)))
    assert all(touches(pf, (1, 3)) for pf in pfs)
    assert all(is_valid(pf) for pf in pfs)
    # oracle: filter the full family
    assert set(pfs) == {pf for pf in parking_functions(4) if touches(pf, (1, 3))}


def test_dinv_counts_the_dinv_pairs():
    for n in range(6):
        for pf in parking_functions(n):
            assert dinv(pf) == len(dinv_pairs(pf)), pf


def test_dinv_zero_characterization_up_to_7():
    for n in range(1, 8):
        for pf in parking_functions(n):
            assert (dinv(pf) == 0) == is_dinv_zero_structural(pf)


def test_dinv_zero_examples():
    image = perm_to_pf0((3, 1, 7, 5, 4, 2, 6))
    assert dinv(image) == 0
    assert dinv(ParkingFunction((0, 0), (1, 2))) != 0
    assert dinv(ParkingFunction((0, 0), (2, 1))) == 0


def test_pf0_bijection_displayed_chain():
    sigma = (3, 1, 7, 5, 4, 2, 6)
    pf = perm_to_pf0(sigma)
    assert pf == ParkingFunction((0, 0, 1, 2, 3, 3, 4), (6, 2, 4, 5, 7, 1, 3))
    assert level_composition(pf) == (3, 0, 4, 1, 2, 0, 3) == majt(sigma)
    assert pf0_to_perm(pf) == sigma
    assert area(pf) == maj(sigma) == 13


def test_pf0_identity():
    pf = perm_to_pf0((1, 2, 3, 4))
    assert pf.area == (0, 0, 0, 0)
    assert area(pf) == 0


def test_pf0_roundtrip_s5():
    for sigma in permutations(5):
        pf = perm_to_pf0(sigma)
        assert is_valid(pf)
        assert dinv(pf) == 0
        assert pf0_to_perm(pf) == sigma
        assert area(pf) == maj(sigma)
        assert level_composition(pf) == majt(sigma)


def test_pf0_roundtrip_on_sampled_permutations_of_6_to_9():
    # past the exhaustive range above, drawn the same way on every run
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
    @hypothesis.given(
        strategies.integers(6, 9).flatmap(lambda n: strategies.permutations(range(1, n + 1)))
    )
    def round_trip(sigma):
        sigma = tuple(sigma)
        pf = perm_to_pf0(sigma)
        assert dinv(pf) == 0
        assert area(pf) == maj(sigma)
        assert pf0_to_perm(pf) == sigma

    round_trip()


def test_pf0_to_perm_rejects_positive_dinv():
    with pytest.raises(ValueError):
        pf0_to_perm(ParkingFunction((0, 0), (1, 2)))


def test_area_distribution_over_pf0_matches_t_factorial():
    from gpdescent.symfunc import TPoly, q_factorial

    for n in range(1, 8):
        counter = Counter(
            area(pf) for pf in parking_functions(n) if dinv(pf) == 0
        )
        assert TPoly(dict(counter)) == q_factorial(n)


def test_minimal_family_1_3():
    family = minimal_parking_functions((1, 3))
    assert len(family) == 12
    counter = Counter(area(pf) for pf in family)
    from gpdescent.symfunc import TPoly

    # m_{1^4} coefficient of the expansion indexed by (2,1,1)
    assert TPoly(dict(counter)) == TPoly.from_coefficient_list([1, 3, 5, 3])


def test_minimal_family_degenerate():
    # alpha = (n): doff = 0, n(lam) = 0, so the family is the dinv-zero one
    assert len(minimal_parking_functions((4,))) == 24
    # alpha = (1,1): single element ((0,0),(2,1)), by direct search
    assert minimal_parking_functions((1, 1)) == [ParkingFunction((0, 0), (2, 1))]
    with pytest.raises(ValueError):
        minimal_parking_functions((3, 1))


def test_min_statistic_value_up_to_7():
    # dinv + doff over the touch family is minimized exactly at n(lam), and
    # the minimal family is selected by that exact value; the family is
    # valid and touching by construction, so doff is read off its weights
    for n in range(1, 8):
        for lam in partitions(n):
            alpha = tuple(reversed(lam))
            weights = _doff_weights(alpha)
            target = n_stat(lam)
            hits = []
            minimum = None
            for pf in parking_functions_alpha(alpha):
                doff_value = sum(w for w, level in zip(weights, pf.area) if level == 0)
                value = dinv(pf) + doff_value
                if minimum is None or value < minimum:
                    minimum = value
                if value == target:
                    hits.append(pf)
            assert minimum == target
            assert minimal_parking_functions(alpha) == sorted(hits), lam


def test_minimal_family_is_the_shear_of_minimal_ribbons_up_to_7():
    for n in range(8):
        for lam in partitions(n):
            alpha = tuple(reversed(lam))
            sheared = sorted(ribbon_to_parking(t) for t in minimal_ribbon_tuples(lam))
            assert minimal_parking_functions(alpha) == sheared, lam


def test_minimal_family_rejects_bad_touch_compositions():
    with pytest.raises(ValueError, match="weakly increasing"):
        minimal_parking_functions((2, 1))
    with pytest.raises(ValueError, match="positive parts"):
        minimal_parking_functions((0, 1))
    with pytest.raises(ValueError, match="positive parts"):
        minimal_parking_functions((0,))


def test_minimal_family_empty():
    assert minimal_parking_functions(()) == [ParkingFunction((), ())]


def test_render_and_json_roundtrip():
    text = render(EXAMPLE)
    assert len(text.splitlines()) == 9
    payload = to_json_dict(EXAMPLE)
    assert ParkingFunction(tuple(payload["area"]), tuple(payload["labels"])) == EXAMPLE


def test_reading_word_matches_level_order():
    pf = EXAMPLE
    word = reading_word(pf)
    assert sorted(word) == list(range(1, 10))
    # highest level first
    levels = [pf.area[pf.labels.index(v)] for v in word]
    assert levels == sorted(levels, reverse=True)


def test_searches_leave_no_reference_cycles():
    # a cycle through a recursive search would keep the family alive after
    # the caller drops it, until the cyclic collector happens to run
    import gc

    gc.collect()
    gc.disable()
    try:
        minimal_parking_functions((1, 2, 3))
        minimal_ribbon_tuples((3, 2, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()
