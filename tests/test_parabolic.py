"""The parabolic check against its per-exponent oracle, which picks the
reverse-shuffle part by building each permutation of J^maj, and the sign
and zero rules of the Young-subgroup antisymmetrizer that let the check
antisymmetrize each block-sorted exponent once."""

import itertools
import random

from gpdescent.core import conjugate, is_reverse_shuffle, partitions
from gpdescent.descent import descent_compositions_lambda, j_maj
from gpdescent.linalg import matrix_rank
from gpdescent.polynomial import antisymmetrize, monomial
from gpdescent.symfunc import TPoly, hall_littlewood_by_descents
from gpdescent.tanisaki import (
    ParabolicReport,
    _block_sorted,
    _by_degree,
    _quotient_normal_form,
    _quotient_slice,
    _reverse_shuffle_part,
    verify_parabolic_basis,
)

# Compositions of 4 that are not partitions, zero parts included.
UNSORTED_MU = [(1, 3), (1, 2, 1), (2, 1, 1), (2, 0, 2), (0, 4), (1, 0, 2, 1)]


def ranks_by_exponent(lam, mu, family, kept) -> tuple[bool, bool]:
    """``(independent, spans)`` with every exponent of ``family`` and
    ``kept`` antisymmetrized and reduced on its own, degree by degree."""
    ideal_shape = conjugate(lam)
    family, kept = _by_degree(family), _by_degree(kept)
    independent = spans = True
    for degree in family | kept:
        standard = _quotient_slice(ideal_shape, degree).standard
        position = {b: k for k, b in enumerate(standard)}

        def row(a):
            nf = _quotient_normal_form(ideal_shape, antisymmetrize(mu, monomial(a)))
            return {position[b]: c for b, c in nf.items()}

        in_kept = kept.get(degree, [])
        if matrix_rank([row(a) for a in in_kept]) != len(in_kept):
            independent = False
        if matrix_rank([row(a) for a in family.get(degree, [])]) != len(in_kept):
            spans = False
    return independent, spans


def reverse_shuffle_part_by_permutation(lam, mu):
    """The exponents whose permutation in J^maj is a reverse shuffle of
    ``mu``, by degree, then exponent."""
    pairs = zip(descent_compositions_lambda(lam), j_maj(lam))
    kept = [a for a, tau in pairs if is_reverse_shuffle(tau, mu)]
    return sorted(kept, key=lambda a: (sum(a), a))


def parabolic_report_by_exponent(lam, mu) -> ParabolicReport:
    kept = reverse_shuffle_part_by_permutation(lam, mu)
    independent, spans = ranks_by_exponent(lam, mu, descent_compositions_lambda(lam), kept)
    count_poly = TPoly({d: len(group) for d, group in _by_degree(kept).items()})
    matches = None
    if tuple(sorted(mu, reverse=True)) == mu and all(part > 0 for part in mu):
        coeff = hall_littlewood_by_descents(conjugate(lam), twisted=True).get(mu, TPoly.zero())
        matches = coeff == count_poly
    return ParabolicReport(lam, mu, count_poly, independent, spans, matches)


def blocks(mu):
    start = 0
    for part in mu:
        yield start, start + part
        start += part


def test_parabolic_check_matches_per_exponent_oracle():
    for n in range(7):
        for lam in partitions(n):
            for mu in partitions(n) + (UNSORTED_MU if n == 4 else []):
                expected = parabolic_report_by_exponent(lam, mu)
                assert verify_parabolic_basis(lam, mu) == expected, (lam, mu)


def test_parabolic_count_is_compared_with_the_ribbon_route(monkeypatch):
    # The count and the descent route both tally D_lam, so the comparison
    # must take the other route: a wrong ribbon coefficient is a mismatch.
    import gpdescent.tanisaki as tanisaki_module

    lam, mu = (3, 2), (2, 2, 1)
    real = tanisaki_module.hall_littlewood_by_ribbons
    assert verify_parabolic_basis(lam, mu).matches_expansion is True

    def perturbed(shape, twisted=False):
        expansion = real(shape, twisted)
        expansion[mu] = expansion[mu] + TPoly.monomial(0)
        return expansion

    monkeypatch.setattr(tanisaki_module, "hall_littlewood_by_ribbons", perturbed)
    report = verify_parabolic_basis(lam, mu)
    assert report.matches_expansion is False
    assert report.independent and report.spans and not report.ok


def test_parabolic_check_matches_per_exponent_oracle_on_perturbed_families(monkeypatch):
    # Every true family passes, so perturb them: drop exponents, permute
    # some inside the blocks of mu (same image up to sign), and add members
    # of the family to the kept part (often dependent, or zero).  The
    # deduplicated check must fail exactly where the oracle fails.
    import gpdescent.tanisaki as tanisaki_module

    rng = random.Random(20240)

    def perturb(exponents, mu):
        out = []
        for a in exponents:
            if rng.random() < 0.1:
                continue
            if rng.random() < 0.3:
                a = list(a)
                for start, stop in blocks(mu):
                    a[start:stop] = rng.sample(a[start:stop], stop - start)
                a = tuple(a)
            out.append(a)
        return out

    cases = [((2, 2), (2, 1, 1)), ((3, 1), (1, 2, 1)), ((3, 2), (2, 2, 1)), ((2, 2, 1), (2, 0, 3))]
    outcomes = set()
    for lam, mu in cases:
        whole = list(descent_compositions_lambda(lam))
        for _ in range(25):
            family = perturb(whole, mu)
            kept = perturb(_reverse_shuffle_part(lam, mu), mu)
            kept += rng.sample(whole, rng.randrange(3))
            kept.sort(key=lambda a: (sum(a), a))
            monkeypatch.setattr(tanisaki_module, "descent_compositions_lambda", lambda _: family)
            monkeypatch.setattr(tanisaki_module, "_reverse_shuffle_part", lambda *_: kept)
            report = verify_parabolic_basis(lam, mu)
            expected = ranks_by_exponent(lam, mu, family, kept)
            assert (report.independent, report.spans) == expected, (lam, mu, family, kept)
            outcomes.add(expected)
    assert (True, True) in outcomes
    assert any(not independent for independent, _ in outcomes)
    assert any(not spans for _, spans in outcomes)


def test_block_sorted_exponent_antisymmetrizes_alike():
    # A_mu(x^a) = sign * A_mu(x^c) with c block-sorted, and 0 when a block
    # repeats a value; mu runs over every composition of n, and each of
    # them with a zero part inserted.
    for n in range(1, 5):
        compositions = []
        for k in range(n):
            for cuts in itertools.combinations(range(1, n), k):
                bounds = (0, *cuts, n)
                compositions.append(tuple(y - x for x, y in zip(bounds, bounds[1:])))
        mus = set(compositions)
        mus |= {mu[:k] + (0,) + mu[k:] for mu in compositions for k in range(len(mu) + 1)}
        for mu in sorted(mus):
            for a in itertools.product(range(n), repeat=n):
                image = antisymmetrize(mu, monomial(a))
                sign, c = _block_sorted(mu, a)
                repeats = any(len(set(a[x:y])) < y - x for x, y in blocks(mu))
                assert (c is None) == repeats, (mu, a)
                if c is None:
                    assert sign == 0 and image == {}, (mu, a)
                    continue
                for x, y in blocks(mu):
                    assert list(c[x:y]) == sorted(a[x:y]), (mu, a)
                expected = {exp: sign * v for exp, v in antisymmetrize(mu, monomial(c)).items()}
                assert image == expected, (mu, a)
