from collections import Counter

import pytest

from gpdescent.core import conjugate, multinomial, partitions, permutations, value_blocks
from gpdescent.descent import j_maj, maj
from gpdescent.ribbon import area, minimal_ribbon_tuples, reading_word
from gpdescent.symfunc import (
    TPoly,
    dominance_support_check,
    expansion_diff,
    expansion_json,
    expansion_lines,
    hall_littlewood_by_descents,
    hall_littlewood_by_ribbons,
    hall_littlewood_omega_by_descents,
    leading_coefficient_check,
    q_factorial,
)


def tp(*coeffs):
    return TPoly.from_coefficient_list(coeffs)


def test_tpoly_arithmetic():
    assert TPoly({0: 1, 2: -1}) + TPoly({2: 1}) == TPoly({0: 1})
    assert TPoly({1: 2}) * TPoly({1: 3}) == TPoly({2: 6})
    assert TPoly({}) == TPoly.zero()
    assert not TPoly.zero()
    assert sum(TPoly({0: 1, 1: 4}).coeffs.values()) == 5
    assert TPoly({3: 2}).degree() == 3
    assert str(TPoly({0: 1, 2: 2})) == "1 + 2t^2"
    assert TPoly({2: 1, 3: 2}).to_json_dict() == {"2": 1, "3": 2}


def test_q_factorial():
    assert q_factorial(0) == TPoly.one()
    assert q_factorial(1) == TPoly.one()
    assert q_factorial(3) == tp(1, 2, 2, 1)
    assert q_factorial(4) == tp(1, 3, 5, 6, 5, 3, 1)


def test_q_factorial_matches_maj_distribution():
    counter = Counter(maj(sigma) for sigma in permutations(4))
    assert TPoly(dict(counter)) == q_factorial(4)


def test_expansion_211_displayed_coefficients():
    h = hall_littlewood_by_descents((2, 1, 1))
    assert h[(4,)] == tp(1)
    assert h[(3, 1)] == tp(1, 1, 1)
    assert h[(2, 2)] == tp(1, 1, 2)
    assert h[(1, 1, 1, 1)] == tp(1, 3, 5, 3)
    # the remaining coefficient is computed, and cross-checked by hand
    # enumeration of the shuffle intersection: 1 + 2t + 3t^2 + t^3
    assert h[(2, 1, 1)] == tp(1, 2, 3, 1)


def test_omega_expansion_221_displayed_coefficients():
    w = hall_littlewood_omega_by_descents((2, 2, 1))
    assert w[(3, 2)] == TPoly({4: 1})
    assert w[(3, 1, 1)] == TPoly({3: 1, 4: 1})
    assert w[(2, 2, 1)] == TPoly({2: 1, 3: 2, 4: 2})
    assert w[(2, 1, 1, 1)] == TPoly({1: 1, 2: 3, 3: 5, 4: 3})
    assert w[(1, 1, 1, 1, 1)] == tp(1, 4, 9, 11, 5)


def test_omega_expansion_31():
    w = hall_littlewood_omega_by_descents((3, 1))
    assert w == {(2, 1, 1): TPoly({1: 1}), (1, 1, 1, 1): tp(1, 3)}


def test_column_shape_gives_t_factorial():
    for n in range(1, 6):
        h = hall_littlewood_by_descents((1,) * n)
        assert h[(1,) * n] == q_factorial(n)


def test_ribbon_route_small():
    # shape (3,1) ribbons produce the expansion indexed by (2,1,1)
    assert hall_littlewood_by_ribbons((3, 1)) == hall_littlewood_by_descents((2, 1, 1))
    assert hall_littlewood_by_ribbons((4,))[(1, 1, 1, 1)] == q_factorial(4)


def test_routes_agree_up_to_6():
    for n in range(1, 7):
        for lam in partitions(n):
            assert (
                hall_littlewood_by_descents(conjugate(lam))
                == hall_littlewood_by_ribbons(lam)
            )
            assert (
                hall_littlewood_omega_by_descents(conjugate(lam))
                == hall_littlewood_by_ribbons(lam, twisted=True)
            )


def test_leading_coefficient_axiom():
    assert leading_coefficient_check((2, 2, 1))
    assert leading_coefficient_check((3, 1))
    for n in range(1, 6):
        for lam in partitions(n):
            assert leading_coefficient_check(lam)


def test_dominance_support():
    for n in range(1, 7):
        for lam in partitions(n):
            assert dominance_support_check(lam)


def test_full_size_coefficient_counts_family():
    # specializing t = 1 in the m_{1^n} coefficient counts the family
    for n in range(1, 8):
        for lam in partitions(n):
            h = hall_littlewood_by_descents(conjugate(lam))
            assert sum(h[(1,) * n].coeffs.values()) == multinomial(lam)


def test_positivity():
    for n in range(1, 7):
        for lam in partitions(n):
            for coeff in hall_littlewood_by_descents(lam).values():
                assert all(c > 0 for c in coeff.coeffs.values())


def test_text_and_json_forms():
    h = hall_littlewood_omega_by_descents((2, 2, 1))
    lines = expansion_lines(h)
    assert lines[0] == "m[3,2]: t^4"
    payload = expansion_json(h)
    assert payload[0] == {"mu": [3, 2], "coeffs": {"4": 1}}


def test_expansion_diff():
    a = hall_littlewood_by_descents((2, 1))
    b = hall_littlewood_by_descents((3,))
    assert expansion_diff(a, a) == {}
    assert expansion_diff(a, b)


def _in_blocks(word, mu, reverse):
    # positional definition: each block of values appears in increasing
    # (reverse: decreasing) order
    pos = {v: i for i, v in enumerate(word)}
    for block in value_blocks(mu):
        for v in block[:-1]:
            if (pos[v] < pos[v + 1]) == reverse:
                return False
    return True


def _shuffle_oracle(n, items, statistic, word_of):
    # one membership test per item and partition
    plain = {mu: Counter() for mu in partitions(n)}
    twisted = {mu: Counter() for mu in partitions(n)}
    for item in items:
        degree, word = statistic(item), word_of(item)
        for mu in plain:
            if _in_blocks(word, mu, reverse=False):
                plain[mu][degree] += 1
            if _in_blocks(word, mu, reverse=True):
                twisted[mu][degree] += 1
    make = lambda raw: {mu: TPoly(dict(c)) for mu, c in raw.items() if c}
    return make(plain), make(twisted)


def test_expansion_matches_shuffle_oracle():
    for n in range(8):
        for lam in partitions(n):
            plain, twisted = _shuffle_oracle(n, j_maj(conjugate(lam)), maj, lambda w: w)
            assert hall_littlewood_by_descents(lam) == plain
            assert hall_littlewood_omega_by_descents(lam) == twisted
            plain, twisted = _shuffle_oracle(n, minimal_ribbon_tuples(lam), area, reading_word)
            assert hall_littlewood_by_ribbons(lam) == plain
            assert hall_littlewood_by_ribbons(lam, twisted=True) == twisted


def test_descent_route_rejects_a_non_table(monkeypatch):
    import gpdescent.symfunc as symfunc_module
    from gpdescent.descent import NotADescentComposition

    # (1, 1, 0) is the major index table of no permutation
    monkeypatch.setattr(symfunc_module, "descent_compositions_lambda", lambda lam: ((1, 1, 0),))
    with pytest.raises(NotADescentComposition):
        symfunc_module._descent_expansions.__wrapped__((3,))


def test_routes_agree_at_7():
    for lam in partitions(7):
        assert (
            hall_littlewood_by_descents(conjugate(lam))
            == hall_littlewood_by_ribbons(lam)
        )
        assert (
            hall_littlewood_omega_by_descents(conjugate(lam))
            == hall_littlewood_by_ribbons(lam, twisted=True)
        )


def test_routes_agree_on_sampled_shapes_of_8():
    # past the exhaustive range above: a few shapes of size 8, drawn the
    # same way on every run
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=5)
    @hypothesis.given(strategies.sampled_from(partitions(8)))
    def routes_agree(lam):
        assert (
            hall_littlewood_by_descents(conjugate(lam))
            == hall_littlewood_by_ribbons(lam)
        )
        assert (
            hall_littlewood_omega_by_descents(conjugate(lam))
            == hall_littlewood_by_ribbons(lam, twisted=True)
        )

    routes_agree()


def test_cached_expansions_are_read_only():
    for expand in (
        hall_littlewood_by_descents,
        hall_littlewood_omega_by_descents,
        hall_littlewood_by_ribbons,
    ):
        first = expand((2, 1))
        expected = {mu: TPoly(dict(coeff.coeffs)) for mu, coeff in first.items()}
        for coeff in first.values():
            with pytest.raises(TypeError):
                coeff.coeffs[0] = 99
        first.clear()  # the returned dict itself is the caller's copy
        assert expand((2, 1)) == expected
