"""Exact sparse Gaussian elimination over the rationals.

Rows are dicts from column index to coefficient.  Internally every stored
pivot row is an integer vector with content 1 and positive leading entry;
incoming rows may carry ``Fraction`` entries and are cleared first.  The
column order is the integer order of the indices, so callers encode their
monomial order by the index assignment (index 0 = largest monomial, making
the pivot of a row its leading term).

Elimination works on a working row that belongs to :meth:`Echelon.add_row`
or :meth:`Echelon.back_substitute`, never to the caller, and is updated in
place.  A step scales it only when the pivot's leading entry does not
divide the row's; it is normalized (content 1, positive lead) once, when it
is stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(row: dict[int, Fraction]) -> dict[int, int]:
    """Scale a rational row to a primitive integer row, dropping zero
    entries (empty stays empty).

    >>> clear_denominators({0: Fraction(1, 2), 3: Fraction(-1, 3)})
    {0: 3, 3: -2}
    """
    if not row:
        return {}
    denominator = lcm(*(coeff.denominator for coeff in row.values()))
    scaled = {col: int(coeff * denominator) for col, coeff in row.items() if coeff}
    content = gcd(*scaled.values())
    if content > 1:
        scaled = {col: value // content for col, value in scaled.items()}
    return scaled


def _normalize(row: dict[int, int], lead: int) -> dict[int, int]:
    """A new dict: ``row`` with its content stripped and a positive entry at
    ``lead``, its leading (minimum) column."""
    content = gcd(*row.values())
    if row[lead] < 0:
        content = -content
    if content == 1:
        return dict(row)
    return {col: value // content for col, value in row.items()}


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """Clear ``col`` from the working row ``row`` with the smallest integer
    combination ``ca * row - cb * pivot`` (``pivot[col] > 0``, so ``ca > 0``).

    When ``pivot[col]`` divides ``row[col]`` (``ca == 1``, the usual case)
    ``row`` is updated in place and returned; otherwise a scaled copy is
    built and its content stripped, so the result is the combination up to
    a positive factor.  The caller owns ``row`` and normalizes it once, when
    it is stored.
    """
    g = gcd(pivot[col], row[col])
    ca, cb = pivot[col] // g, row[col] // g
    if ca != 1:
        row = {c: value * ca for c, value in row.items()}
    for c, value in pivot.items():
        new = row.get(c, 0) - value * cb
        if new:
            row[c] = new
        else:
            del row[c]
    if ca != 1:
        content = gcd(*row.values())
        if content > 1:
            row = {c: value // content for c, value in row.items()}
    return row


class Echelon:
    """Incremental row-echelon form with exact integer arithmetic.

    ``pivot_rows`` maps each pivot column to its row, in insertion order;
    every stored row is primitive (content 1) with a positive entry at its
    pivot, the row's minimum column.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add_row(self, row) -> bool:
        """Reduce ``row`` against the current pivots and insert the result.

        Returns ``True`` when the rank grew.  Accepts integer or rational
        coefficients; ``row`` itself is never changed, as the elimination
        works on a copy.
        """
        if any(type(c) is not int for c in row.values()):
            work = clear_denominators(row)
        else:
            work = {col: c for col, c in row.items() if c}
        while work:
            lead = min(work)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:
                self.pivot_rows[lead] = _normalize(work, lead)
                return True
            work = _eliminate(work, pivot, lead)
        return False

    def add_rows(self, rows) -> int:
        """Insert rows in turn, largest leading column first (on the
        parabolic slices of size 7 about twice as fast as smallest first),
        and return the rank."""
        pending = [
            {col: c for col, c in row.items() if c} for row in rows
        ]
        pending = [row for row in pending if row]
        pending.sort(key=min, reverse=True)
        for row in pending:
            self.add_row(row)
        return self.rank

    def back_substitute(self) -> None:
        """Clear every pivot column from the other pivot rows (reduced
        row-echelon form), in integers.  Each stored row is the working row
        of its own reduction, updated in place and replaced by its
        normalized copy at the end.  Rows go largest pivot first, so every
        pivot row used is already reduced and adds no pivot column."""
        for lead in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[lead]
            hit = [col for col in row if col != lead and col in self.pivot_rows]
            if not hit:
                continue
            for col in hit:
                row = _eliminate(row, self.pivot_rows[col], col)
            self.pivot_rows[lead] = _normalize(row, lead)

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """Normal form of a rational row modulo the row space: eliminate
        every pivot column.  The result is supported on non-pivot columns
        and congruent to ``row`` modulo the span of the inserted rows."""
        work = {col: Fraction(c) for col, c in row.items() if c}
        while True:
            hit = [col for col in work if col in self.pivot_rows]
            if not hit:
                return work
            col = min(hit)
            pivot = self.pivot_rows[col]
            factor = work[col] / pivot[col]
            for pcol, pval in pivot.items():
                new = work.get(pcol, Fraction(0)) - factor * pval
                if new:
                    work[pcol] = new
                else:
                    work.pop(pcol, None)

    def contains(self, row: dict[int, Fraction]) -> bool:
        """Row-space membership."""
        return not self.reduce(row)


def matrix_rank(rows) -> int:
    """Rank of a list of sparse rows (any exact coefficients).

    >>> matrix_rank([{0: 1, 1: 2}, {0: Fraction(1, 2), 1: 1}, {1: 3}])
    2
    """
    echelon = Echelon()
    return echelon.add_rows(rows)
