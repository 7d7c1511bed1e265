"""Exact sparse multivariate polynomial arithmetic.

A polynomial in ``x_1, ..., x_n`` is a dict mapping exponent tuples of
length ``n`` to nonzero coefficients; the zero polynomial is the empty
dict.  Every polynomial built here has ``int`` coefficients.  The
arithmetic helpers add and multiply whatever exact coefficients they are
given, so rational polynomials (normal forms modulo an ideal) pass through
them too.  Variables are 1-based in the API to match the rest of the
package (``x_i`` is slot ``i - 1`` of the exponent tuple).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from numbers import Rational
from typing import Iterable

Exponent = tuple[int, ...]
MPoly = dict[Exponent, Rational]


def const(n: int, value) -> MPoly:
    return {(0,) * n: value} if value else {}


def variable(n: int, i: int) -> MPoly:
    """The polynomial ``x_i`` in ``n`` variables (``1 <= i <= n``)."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    exp = [0] * n
    exp[i - 1] = 1
    return {tuple(exp): 1}


def monomial(exp: Exponent, coeff=1) -> MPoly:
    return {tuple(exp): coeff} if coeff else {}


def mul(a: MPoly, b: MPoly) -> MPoly:
    out: MPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            new = out.get(exp, 0) + ca * cb
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
    return out


def mul_monomial(a: MPoly, exp: Exponent) -> MPoly:
    """Multiply by a single monomial (no coefficient)."""
    return {tuple(x + y for x, y in zip(e, exp)): c for e, c in a.items()}


def elementary_symmetric(d: int, variables: Iterable[int], n: int) -> MPoly:
    """Sum of the squarefree degree-``d`` monomials in the listed variables
    (1-based), inside the ring with ``n`` variables.  ``e_0 = 1``; the sum
    is empty (zero) when ``d`` exceeds the number of variables.

    >>> sorted(elementary_symmetric(2, [1, 2, 3], 3))
    [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    """
    variables = sorted(variables)
    if d < 0:
        raise ValueError("degree must be non-negative")
    if d == 0:
        return const(n, 1)
    out: MPoly = {}
    for subset in itertools.combinations(variables, d):
        exp = [0] * n
        for i in subset:
            exp[i - 1] = 1
        out[tuple(exp)] = 1
    return out


@lru_cache(maxsize=None)
def _young_subgroup(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Elements of the Young subgroup of consecutive blocks ``mu``, each as
    its one-line notation and its sign."""
    elements = [((), 1)]
    start = 1
    for part in mu:
        block = range(start, start + part)
        signed = []
        for block_perm in itertools.permutations(block):
            inversions = sum(
                1
                for i in range(part)
                for j in range(i + 1, part)
                if block_perm[i] > block_perm[j]
            )
            signed.append((block_perm, -1 if inversions % 2 else 1))
        elements = [
            (word + block_perm, sign * s) for block_perm, s in signed for word, sign in elements
        ]
        start += part
    return tuple(elements)


def antisymmetrize(mu, p: MPoly) -> MPoly:
    """Signed sum over the Young subgroup of consecutive blocks ``mu`` of
    the images of ``p`` under the substitutions ``x_i -> x_{w(i)}``.

    The image of ``x^e`` under ``w`` is ``x^(e o w^-1)``; the sum reads
    ``e o w`` instead, which runs over the same terms because ``w -> w^-1``
    is a sign-preserving bijection of the subgroup.

    Reindexing the sum by ``w -> v w`` shows that permuting an exponent
    inside the blocks of ``mu`` only changes the sign: for ``v`` in the
    subgroup, ``x^(e o v)`` antisymmetrizes to ``sgn(v)`` times what ``x^e``
    does.  So a monomial whose exponent repeats a value inside one block
    antisymmetrizes to zero (a transposition fixes it), and any other is
    ``(-1)^k`` times the monomial with each block sorted ascending, where
    ``k`` counts the inversions of ``e`` inside the blocks.

    >>> result = antisymmetrize((2,), variable(2, 1))
    >>> sorted(result.items())
    [((0, 1), -1), ((1, 0), 1)]
    >>> antisymmetrize((2, 1), {(3, 3, 0): 1})
    {}
    """
    out: MPoly = {}
    for w, sign in _young_subgroup(tuple(mu)):
        for exp, coeff in p.items():
            key = tuple([exp[i - 1] for i in w])
            acc = out.get(key, 0) + sign * coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def split_exponent(exp: Exponent, positions: tuple[int, ...]) -> tuple[Exponent, Exponent]:
    """Split an exponent vector into the part supported on the 1-based
    ``positions`` (relabelled to ``x_1..x_k`` in increasing position order)
    and the complementary part (same relabelling)."""
    inside = tuple(exp[i - 1] for i in positions)
    chosen = set(positions)
    complement = tuple(exp[i] for i in range(len(exp)) if i + 1 not in chosen)
    return inside, complement


def monomials_of_degree(n: int, d: int) -> list[Exponent]:
    """All exponent tuples of total degree ``d`` in ``n`` variables,
    in decreasing lexicographic order (so ``x_1^d`` comes first); none
    when ``d`` is negative."""
    result: list[Exponent] = []

    def build(slot: int, remaining: int, prefix: tuple[int, ...]):
        if slot == n - 1:
            result.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            build(slot + 1, remaining - e, prefix + (e,))

    if d < 0:
        return []
    if n == 0:
        return [()] if d == 0 else []
    build(0, d, ())
    return result


def poly_str(p: MPoly) -> str:
    """Human-readable form with variables named x1, x2, ..."""
    if not p:
        return "0"
    terms = []
    for exp in sorted(p, reverse=True):
        coeff = p[exp]
        factors = []
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        body = "*".join(factors) if factors else "1"
        if coeff == 1 and factors:
            terms.append(body)
        elif coeff == -1 and factors:
            terms.append(f"-{body}")
        else:
            terms.append(f"{coeff}*{body}" if factors else str(coeff))
    return " + ".join(terms).replace("+ -", "- ")
