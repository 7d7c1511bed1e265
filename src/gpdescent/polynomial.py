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


def add(a: MPoly, b: MPoly) -> MPoly:
    out = dict(a)
    for exp, coeff in b.items():
        new = out.get(exp, 0) + coeff
        if new:
            out[exp] = new
        else:
            out.pop(exp, None)
    return out


def scale(a: MPoly, factor) -> MPoly:
    if not factor:
        return {}
    return {exp: coeff * factor for exp, coeff in a.items()}


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


def total_degree(exp: Exponent) -> int:
    return sum(exp)


def homogeneous_components(p: MPoly) -> dict[int, MPoly]:
    parts: dict[int, MPoly] = {}
    for exp, coeff in p.items():
        parts.setdefault(total_degree(exp), {})[exp] = coeff
    return parts


def apply_permutation(p: MPoly, w) -> MPoly:
    """Substitute ``x_i -> x_{w(i)}`` for a permutation ``w`` of ``1..n``
    in one-line notation."""
    out: MPoly = {}
    for exp, coeff in p.items():
        new = [0] * len(exp)
        for i, e in enumerate(exp):
            new[w[i] - 1] = e
        key = tuple(new)
        acc = out.get(key, 0) + coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


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


def _young_subgroup(mu) -> list[tuple[tuple[int, ...], int]]:
    """Elements of the Young subgroup of consecutive blocks ``mu`` with signs."""
    blocks = []
    start = 1
    for part in mu:
        blocks.append(list(range(start, start + part)))
        start += part
    n = start - 1

    def sign_of(perm: tuple[int, ...]) -> int:
        inversions = sum(
            1
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        return -1 if inversions % 2 else 1

    elements = [(tuple(range(1, n + 1)), 1)]
    for block in blocks:
        new_elements = []
        for block_perm in itertools.permutations(block):
            s = sign_of(block_perm)
            for word, sign in elements:
                w = list(word)
                for slot, value in zip(block, block_perm):
                    w[slot - 1] = value
                new_elements.append((tuple(w), sign * s))
        elements = new_elements
    return elements


def antisymmetrize(mu, p: MPoly) -> MPoly:
    """Signed sum over the Young subgroup of consecutive blocks ``mu`` of
    the variable-permuted images of ``p``.

    >>> result = antisymmetrize((2,), variable(2, 1))
    >>> sorted(result.items())
    [((0, 1), -1), ((1, 0), 1)]
    """
    out: MPoly = {}
    for w, sign in _young_subgroup(mu):
        out = add(out, scale(apply_permutation(p, w), sign))
    return out


def split_exponent(exp: Exponent, positions: tuple[int, ...]) -> tuple[Exponent, Exponent]:
    """Split an exponent vector into the part supported on the 1-based
    ``positions`` (relabelled to ``x_1..x_k`` in increasing position order)
    and the complementary part (same relabelling)."""
    inside = tuple(exp[i - 1] for i in positions)
    complement = tuple(
        exp[i] for i in range(len(exp)) if (i + 1) not in set(positions)
    )
    return inside, complement


def monomials_of_degree(n: int, d: int) -> list[Exponent]:
    """All exponent tuples of total degree ``d`` in ``n`` variables,
    in decreasing lexicographic order (so ``x_1^d`` comes first)."""
    result: list[Exponent] = []

    def build(slot: int, remaining: int, prefix: tuple[int, ...]):
        if slot == n - 1:
            result.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            build(slot + 1, remaining - e, prefix + (e,))

    if n == 0:
        return [()] if d == 0 else []
    build(0, d, ())
    return result


def poly_str(p: MPoly, names: list[str] | None = None) -> str:
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
