import itertools
import math

import pytest

from gpdescent.core import multinomial, n_stat, ordered_set_partitions, partitions
from gpdescent.descent import descent_compositions_lambda, majt, majt_inverse
from gpdescent import parking as pk
from gpdescent.ribbon import (
    DoesNotTerminate,
    ReconstructionError,
    _ribbon,
    algorithm_sequence,
    algorithm_tableau,
    area,
    component_sizes,
    dinv,
    dinv_pairs,
    doff,
    height_vector,
    is_minimal,
    is_valid,
    is_valid_ribbon,
    minimal_ribbon_tuples,
    reading_word,
    reconstruct,
    render,
    ribbon_fillings,
    ribbon_to_parking,
    ribbon_tuples,
    to_json_dict,
    verify_minimal_ribbons,
)
from lemmas import check_patterns

# the (6,2,1)-shaped tuple mapping to the worked parking function
DOFF_TUPLE = (((1, 9), (5,), (3, 8), (6,)), ((4,), (7,)), ((2,),))

# the tuple whose height vector is (1,2,0,2,0,1,1,0,1)
ALG_TUPLE = (((3,), (1, 6, 7), (2, 4)), ((5,), (9,)), ((8,),))

# transcription of the displayed minimal tuple of shape (10,9,4), n = 23
BIG_MINIMAL = (
    ((2,), (8,), (10,), (3, 4, 7, 16), (5, 13, 23)),
    ((6,), (11,), (12, 15, 18, 21, 22), (17, 20)),
    ((9, 19), (1, 14)),
)


def test_ribbon_validity():
    assert is_valid_ribbon(((1, 9), (5,), (3, 8), (6,)))
    assert not is_valid_ribbon(((2, 1),))  # row must increase east
    assert not is_valid_ribbon(((5,), (1, 4)))  # upper row must top the lower
    assert is_valid(DOFF_TUPLE, (6, 2, 1))
    assert is_valid(BIG_MINIMAL, (10, 9, 4))


def test_ribbon_to_parking_matches_worked_example():
    pf = ribbon_to_parking(DOFF_TUPLE)
    assert pf == pk.ParkingFunction(
        (0, 0, 1, 0, 0, 1, 2, 2, 3), (2, 4, 7, 9, 1, 5, 8, 3, 6)
    )
    assert pk.dinv(pf) == dinv(DOFF_TUPLE) == 4
    assert pk.doff(pf, (1, 2, 6)) == doff(DOFF_TUPLE) == 3
    assert pk.area(pf) == area(DOFF_TUPLE) == 9
    assert pk.reading_word(pf) == reading_word(DOFF_TUPLE)


def test_single_cell():
    assert ribbon_to_parking((((1,),),)) == pk.ParkingFunction((0,), (1,))


def test_dinv_pair_orientation():
    # pairs are recorded (earlier component entry, later component entry)
    assert dinv_pairs(DOFF_TUPLE) == {(9, 4), (9, 2), (4, 2), (1, 7)}


def assert_shear_intertwines(tup, lam):
    pf = ribbon_to_parking(tup)
    alpha = tuple(reversed(lam))
    assert pk.is_valid(pf)
    assert pk.touches(pf, alpha)
    assert pk.area(pf) == area(tup)
    assert pk.dinv(pf) == dinv(tup)
    assert pk.doff(pf, alpha) == doff(tup)
    assert pk.reading_word(pf) == reading_word(tup)
    assert {frozenset(p) for p in pk.dinv_pairs(pf)} == {
        frozenset(p) for p in dinv_pairs(tup)
    }


def test_statistics_intertwine_up_to_6():
    for n in range(1, 7):
        for lam in partitions(n):
            for tup in ribbon_tuples(lam):
                assert_shear_intertwines(tup, lam)


def test_statistics_intertwine_on_sampled_tuples_of_8_and_9():
    # past the exhaustive range above: a tuple of shape lam is a permutation
    # cut into pieces of sizes lam, each piece's runs the rows of one
    # component; shapes and permutations are drawn the same way on every run
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
    @hypothesis.given(strategies.sampled_from(partitions(8) + partitions(9)), strategies.data())
    def shear(lam, data):
        word = data.draw(strategies.permutations(range(1, sum(lam) + 1)))
        cuts = list(itertools.accumulate(lam, initial=0))
        tup = tuple(_ribbon(word[start:end]) for start, end in zip(cuts, cuts[1:]))
        assert is_valid(tup, lam)
        assert_shear_intertwines(tup, lam)

    shear()


def test_parking_roundtrip_up_to_5():
    # the shear is injective: distinct tuples give distinct parking functions
    for n in range(1, 6):
        for lam in partitions(n):
            images = [ribbon_to_parking(t) for t in ribbon_tuples(lam)]
            assert len(set(images)) == len(images)


def test_fillings_count_is_factorial():
    for k in range(1, 7):
        entries = tuple(range(1, k + 1))
        fillings = list(ribbon_fillings(entries))
        assert len(fillings) == len(set(fillings))
        assert all(is_valid_ribbon(f) for f in fillings)
        assert len(fillings) == math.factorial(k)


def test_fillings_are_every_valid_split_into_sorted_rows():
    # oracle without runs: every composition of k as row sizes (bottom row
    # first), every ordered set partition of the entries into those rows,
    # kept when it is a ribbon
    for k in range(1, 6):
        compositions = [
            tuple(b - a for a, b in zip((0,) + cut, cut + (k,)))
            for size in range(k)
            for cut in itertools.combinations(range(1, k), size)
        ]
        expected = {
            rows
            for shape in compositions
            for rows in ordered_set_partitions(shape)
            if is_valid_ribbon(rows)
        }
        assert set(ribbon_fillings(range(1, k + 1))) == expected, k


def test_tuple_count_is_factorial():
    for n in range(1, 7):
        for lam in partitions(n):
            tuples = list(ribbon_tuples(lam))
            assert all(is_valid(t, lam) for t in tuples)
            assert len(set(tuples)) == len(tuples) == math.factorial(n)


def test_minimal_counts():
    assert len(minimal_ribbon_tuples((3, 1))) == 12
    assert len(minimal_ribbon_tuples((2, 2, 1))) == 10
    for n in range(1, 7):
        for lam in partitions(n):
            assert len(minimal_ribbon_tuples(lam)) == multinomial(lam)


def test_minimal_ribbon_tuples_match_brute_force():
    # the pruned search against filtering all n! tuples, order included
    for n in range(8):
        for lam in partitions(n):
            expected = sorted(filter(is_minimal, ribbon_tuples(lam)), key=height_vector)
            assert minimal_ribbon_tuples(lam) == tuple(expected), lam
    assert minimal_ribbon_tuples(()) == ((),)
    # component sizes in any order: unlike partition shapes, these have
    # branches that only the rejection of a later cell two or more rows
    # above an earlier component's top removes
    for n in range(1, 7):
        for sizes in {order for lam in partitions(n) for order in itertools.permutations(lam)}:
            expected = sorted(filter(is_minimal, ribbon_tuples(sizes)))
            assert sorted(minimal_ribbon_tuples(sizes)) == expected, sizes


def test_minimality_is_argmin_up_to_6():
    for n in range(1, 7):
        for lam in partitions(n):
            tuples = list(ribbon_tuples(lam))
            values = [dinv(t) + doff(t) for t in tuples]
            assert min(values) == n_stat(lam)
            argmin = {t for t, v in zip(tuples, values) if v == n_stat(lam)}
            assert argmin == set(minimal_ribbon_tuples(lam))


def test_verify_minimal_ribbons(monkeypatch):
    import gpdescent.ribbon as ribbon_module

    assert all(verify_minimal_ribbons(lam) for n in range(6) for lam in partitions(n))
    # a wrong minimum, a wrong argmin and a wrong count are each caught
    real_doff = ribbon_module.doff
    monkeypatch.setattr(ribbon_module, "doff", lambda t: real_doff(t) + 1)
    assert not verify_minimal_ribbons((2, 1))  # minimum is n(lam) + 1
    monkeypatch.undo()
    real_minimal = ribbon_module.minimal_ribbon_tuples
    monkeypatch.setattr(ribbon_module, "minimal_ribbon_tuples", lambda lam: real_minimal(lam)[1:])
    assert not verify_minimal_ribbons((2, 1))  # argmin differs, count short
    monkeypatch.setattr(ribbon_module, "multinomial", lambda lam: 0)
    monkeypatch.setattr(ribbon_module, "minimal_ribbon_tuples", real_minimal)
    assert not verify_minimal_ribbons((2, 1))  # count differs


def test_search_arrays_describe_each_leaf():
    # the ribbon route reads height and rank instead of the tuple, so both
    # must match the leaf's components, and comparing the ranks of v and
    # v + 1 must tell which of them the reading word has first
    from gpdescent.ribbon import _minimal_tuple_search

    for n in range(7):
        for lam in partitions(n):
            leaves = []

            def check(height, rank, components):
                tup = tuple(components)
                assert height[1:] == list(height_vector(tup))
                comp = [
                    next(i for i, c in enumerate(tup) if any(e in row for row in c))
                    for e in range(1, n + 1)
                ]
                assert rank[1:] == [height[e] * len(tup) - comp[e - 1] for e in range(1, n + 1)]
                position = {v: p for p, v in enumerate(reading_word(tup))}
                for v in range(1, n):
                    assert (rank[v + 1] > rank[v]) == (position[v + 1] < position[v]), (tup, v)
                leaves.append(tup)

            _minimal_tuple_search(lam, check)
            assert sorted(leaves) == sorted(minimal_ribbon_tuples(lam)), lam


def test_single_row_shape_counts():
    # with a single component, minimal tuples are in bijection with the
    # descent compositions via the height vector
    assert {height_vector(t) for t in minimal_ribbon_tuples((4,))} == set(
        descent_compositions_lambda((4,))
    )


def test_height_vector_example():
    assert height_vector(ALG_TUPLE) == (1, 2, 0, 2, 0, 1, 1, 0, 1)
    assert area(ALG_TUPLE) == 8
    flat = (((1, 2, 3),),)
    assert height_vector(flat) == (0, 0, 0)


def test_reading_word_example():
    assert reading_word(DOFF_TUPLE) == (6, 3, 8, 5, 7, 1, 9, 4, 2)
    # a flat row reads as the identity: its parking image carries the
    # labels in reverse, and diagonal reading undoes that
    assert reading_word((((1, 2, 3),),)) == (1, 2, 3)


def test_reading_word_matches_majt_inverse_up_to_level_order():
    # the reading word of a minimal tuple and the permutation reconstructed
    # from its height vector agree exactly for single ribbons, and always
    # share their ascent-value sets, hence every shuffle membership; this
    # is what makes the two expansion routes interchangeable.  (They can
    # differ as words: shape (3,3) has elements whose same-height entries
    # interleave across components.)
    def ascent_values(word):
        pos = {v: i for i, v in enumerate(word)}
        return {v for v in range(1, len(word)) if pos[v] < pos[v + 1]}

    from gpdescent.descent import maj

    for n in range(1, 7):
        for lam in partitions(n):
            for tup in minimal_ribbon_tuples(lam):
                word = reading_word(tup)
                rebuilt = majt_inverse(height_vector(tup))
                assert maj(rebuilt) == area(tup)
                assert ascent_values(word) == ascent_values(rebuilt)
                if len(lam) == 1:
                    assert word == rebuilt


def test_big_minimal_example():
    assert is_minimal(BIG_MINIMAL)
    assert check_patterns(BIG_MINIMAL) == []
    assert dinv(BIG_MINIMAL) + doff(BIG_MINIMAL) == n_stat((10, 9, 4))


def test_is_minimal_examples():
    assert not is_minimal(DOFF_TUPLE)
    # two single cells: bottom row must increase west to east
    assert is_minimal((((1,),), ((2,),)))
    assert not is_minimal((((2,),), ((1,),)))


def test_check_patterns_flags_bad_bottom_row():
    violations = check_patterns((((2,),), ((1,),)))
    assert any("pattern 1" in v for v in violations)


def test_patterns_empty_on_minimal_up_to_6():
    for n in range(1, 7):
        for lam in partitions(n):
            for tup in minimal_ribbon_tuples(lam):
                assert check_patterns(tup) == []


def test_algorithm_sequence_worked_example():
    blocks = algorithm_sequence((1, 2, 0, 2, 0, 1, 1, 0, 1), (6, 2, 1))
    assert blocks == ((3, 6, 1, 2, 4, 7), (5, 9), (8,))
    assert algorithm_sequence((0, 0, 0), (3,)) == ((1, 2, 3),)


def test_algorithm_tableau_matches_sequence_on_minimal():
    for n in range(1, 7):
        for lam in partitions(n):
            for tup in minimal_ribbon_tuples(lam):
                a = height_vector(tup)
                assert algorithm_sequence(a, lam) == algorithm_tableau(tup)


def test_algorithm_blocks_recover_components():
    for n in range(1, 7):
        for lam in partitions(n):
            for tup in minimal_ribbon_tuples(lam):
                blocks = algorithm_sequence(height_vector(tup), lam)
                for block, comp in zip(blocks, tup):
                    entries = {e for row in comp for e in row}
                    assert set(block) == entries


def test_recover_matches_algorithm_sequence():
    # the bucketed recovery that reconstruct and algorithm_tableau share,
    # against the scan of the periodic sequence, on every a >= 0 up to 5
    from gpdescent.ribbon import _recover

    for n in range(6):
        for lam in partitions(n):
            for a in itertools.product(range(n), repeat=n):
                unused = [[j for j in range(1, n + 1) if a[j - 1] == h] for h in range(n + 1)]
                try:
                    expected = algorithm_sequence(a, lam)
                except DoesNotTerminate:
                    with pytest.raises(DoesNotTerminate):
                        _recover(unused, lam)
                    continue
                blocks = _recover(unused, lam)
                assert tuple(tuple(picked) for picked, _ in blocks) == expected, (a, lam)
                for picked, rows in blocks:
                    assert rows == [
                        [j for j in picked if a[j - 1] == h] for h in range(len(rows))
                    ]


def test_empty_components_take_no_entries():
    # a part of size 0 gives an empty block in both algorithms, and no
    # ribbon in reconstruct
    assert algorithm_sequence((0,), (0, 1)) == ((), (1,))
    assert algorithm_tableau(((), ((1,),))) == ((), (1,))
    assert algorithm_tableau((((1,),), ())) == ((1,), ())
    with pytest.raises(ReconstructionError, match=r"invalid ribbon rows \(\)"):
        reconstruct((0,), (0, 1))
    with pytest.raises(ReconstructionError, match=r"invalid ribbon rows \(\)"):
        reconstruct((0,), (1, 0))


def test_algorithm_does_not_terminate():
    # level 1 is never reachable for the second block of (1,1) on (0,1):
    # height 1 belongs to the same index as the only level-0 start
    with pytest.raises(DoesNotTerminate):
        algorithm_sequence((1, 1), (1, 1))


def test_recovery_failures_name_the_callers_input():
    # _recover raises a bare DoesNotTerminate; algorithm_tableau re-raises it
    # with the tuple, reconstruct chains (a, lam) under its own error
    tup = (((2,), (1,)),)  # the block starts at 2, and 1 is above, not larger
    with pytest.raises(DoesNotTerminate) as info:
        algorithm_tableau(tup)
    assert info.value.args == (tup,)
    with pytest.raises(ReconstructionError, match="set recovery failed") as info:
        reconstruct((1, 1), (1, 1))  # nothing at height 0 to start from
    assert isinstance(info.value.__cause__, DoesNotTerminate)
    assert info.value.__cause__.args == (((1, 1), (1, 1)),)


def test_reconstruct_worked_example():
    tup = reconstruct((1, 2, 0, 2, 0, 1, 1, 0, 1), (6, 2, 1))
    assert tup == ALG_TUPLE
    assert reconstruct((0, 0, 0), (3,)) == (((1, 2, 3),),)


def test_reconstruct_inverts_height_vector_up_to_6():
    for n in range(1, 7):
        for lam in partitions(n):
            family = minimal_ribbon_tuples(lam)
            vectors = [height_vector(t) for t in family]
            assert len(set(vectors)) == len(family)  # injectivity
            assert set(vectors) == set(descent_compositions_lambda(lam))  # image
            for tup, a in zip(family, vectors):
                assert reconstruct(a, lam) == tup


def test_reconstruct_rejects_non_members():
    with pytest.raises(ReconstructionError):
        reconstruct((0, 1, 1, 1), (3, 1))  # descent composition, wrong shape
    with pytest.raises(ReconstructionError):
        reconstruct((1, 1, 0, 0), (3, 1))  # not a descent composition at all


def test_reconstruct_accepts_exactly_d_lambda():
    # every a in {0..n-1}^n: a tuple with height vector a iff a is in D_lam;
    # n = 0 included, where D_() = ((),) and the tuple is ()
    for n in range(6):
        for lam in partitions(n):
            members = set(descent_compositions_lambda(lam))
            for a in itertools.product(range(n), repeat=n):
                if a in members:
                    tup = reconstruct(a, lam)
                    assert is_valid(tup, lam) and is_minimal(tup)
                    assert height_vector(tup) == a
                else:
                    with pytest.raises(ReconstructionError):
                        reconstruct(a, lam)
    with pytest.raises(ReconstructionError, match="invalid tuple"):
        reconstruct((-1, 0), (2,))  # no cell for the negative entry
    with pytest.raises(ReconstructionError, match="invalid tuple"):
        reconstruct((-1, 0), (1, 1))
    with pytest.raises(ReconstructionError, match="set recovery failed"):
        reconstruct((0, 2), (2,))  # no block climbs to height n
    with pytest.raises(ValueError):
        reconstruct((0, 0), (1,))  # lengths differ


def test_reconstruct_checks_minimality(monkeypatch):
    # no a gets past every other check with a non-minimal tuple, so feed the
    # check the rows of one
    import gpdescent.ribbon as ribbon_module

    def recover(unused, sizes):
        return [
            ([e for row in comp for e in row], [list(row) for row in comp])
            for comp in DOFF_TUPLE
        ]

    monkeypatch.setattr(ribbon_module, "_recover", recover)
    with pytest.raises(ReconstructionError, match="not minimal"):
        reconstruct(height_vector(DOFF_TUPLE), (6, 2, 1))


def test_reconstruct_inverts_height_vector_on_sampled_shapes_of_8():
    # past the exhaustive ranges above: a few shapes of size 8 and some of
    # their descent compositions, drawn the same way on every run
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=5)
    @hypothesis.given(strategies.sampled_from(partitions(8)), strategies.data())
    def round_trip(lam, data):
        family = descent_compositions_lambda(lam)
        draws = strategies.lists(strategies.sampled_from(family), min_size=10, max_size=50)
        for a in data.draw(draws):
            tup = reconstruct(a, lam)
            assert height_vector(tup) == a
            assert algorithm_tableau(tup) == algorithm_sequence(a, lam)

    round_trip()


def coordinate_dinv_pairs(tup, gap):
    """Independent recomputation of the dinv pairs from absolute cell
    coordinates: same row with the bigger entry strictly west, or one row
    apart with the upper-row entry strictly east and bigger."""
    from gpdescent.ribbon import cell_coordinates

    coords = cell_coordinates(tup, gap=gap)
    pairs = set()
    entries = sorted(coords)
    for a in entries:
        xa, ya = coords[a]
        for b in entries:
            if a == b:
                continue
            xb, yb = coords[b]
            if ya == yb and xa < xb and a > b:
                pairs.add((a, b))
            if yb == ya + 1 and xb > xa and a < b:
                pairs.add((a, b))
    return pairs


def test_statistics_are_offset_independent():
    # recompute dinv geometrically under several inter-component gaps; the
    # stored representation carries no offsets, and none leak in
    for n in range(1, 6):
        for lam in partitions(n):
            for tup in ribbon_tuples(lam):
                reference = dinv_pairs(tup)
                for gap in (1, 2, 5):
                    assert coordinate_dinv_pairs(tup, gap) == reference


def test_render_and_json():
    text = render(ALG_TUPLE)
    assert "9" in text and "\n" in text
    payload = to_json_dict(ALG_TUPLE)
    rebuilt = tuple(
        tuple(tuple(row) for row in comp) for comp in payload["components"]
    )
    assert rebuilt == ALG_TUPLE
    assert component_sizes(ALG_TUPLE) == (6, 2, 1)
