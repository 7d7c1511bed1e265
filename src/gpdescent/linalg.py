"""Exact sparse Gaussian elimination over the rationals.

Rows are dicts from column index to coefficient.  Internally every stored
pivot row is an integer vector with content 1 and positive leading entry;
incoming rows may carry ``Fraction`` entries and are cleared first.  The
column order is the integer order of the indices, so callers encode their
monomial order by the index assignment (index 0 = largest monomial, making
the pivot of a row its leading term).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(row: dict[int, Fraction]) -> dict[int, int]:
    """Scale a rational row to a primitive integer row (empty stays empty)."""
    if not row:
        return {}
    denominator = lcm(*(coeff.denominator for coeff in row.values()))
    scaled = {col: int(coeff * denominator) for col, coeff in row.items()}
    content = 0
    for value in scaled.values():
        content = gcd(content, value)
    if content > 1:
        scaled = {col: value // content for col, value in scaled.items()}
    return scaled


def _normalize(row: dict[int, int]) -> dict[int, int]:
    """Strip content and make the leading (minimum-column) entry positive."""
    content = 0
    for value in row.values():
        content = gcd(content, value)
    if content > 1:
        row = {col: value // content for col, value in row.items()}
    if row[min(row)] < 0:
        row = {col: -value for col, value in row.items()}
    return row


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """The smallest integer combination of ``row`` and ``pivot`` (whose
    entry at ``col`` is positive) that clears ``col``, normalized; the
    multiple of ``row`` is positive."""
    g = gcd(pivot[col], row[col])
    ca, cb = pivot[col] // g, row[col] // g
    merged = {c: value * ca for c, value in row.items()}
    for c, value in pivot.items():
        new = merged.get(c, 0) - value * cb
        if new:
            merged[c] = new
        else:
            merged.pop(c, None)
    return _normalize(merged) if merged else merged


class Echelon:
    """Incremental row-echelon form with exact integer arithmetic."""

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add_row(self, row) -> bool:
        """Reduce ``row`` against the current pivots and insert the result.

        Returns ``True`` when the rank grew.  Accepts integer or rational
        coefficients.
        """
        if any(isinstance(c, Fraction) for c in row.values()):
            work = clear_denominators(row)
        else:
            work = {col: int(c) for col, c in row.items() if c}
        while work:
            lead = min(work)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:
                self.pivot_rows[lead] = _normalize(work)
                return True
            work = _eliminate(work, pivot, lead)
        return False

    def add_rows(self, rows) -> int:
        """Insert rows in turn (sorted by leading column first, which keeps
        elimination chains short) and return the rank."""
        pending = [
            {col: c for col, c in row.items() if c} for row in rows
        ]
        pending = [row for row in pending if row]
        pending.sort(key=min)
        for row in pending:
            self.add_row(row)
        return self.rank

    def back_substitute(self) -> None:
        """Clear every pivot column from the other pivot rows (reduced
        row-echelon form), in integers with the content stripped after each
        step, which keeps the coefficients small."""
        for lead in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[lead]
            for col in [col for col in row if col != lead and col in self.pivot_rows]:
                row = _eliminate(row, self.pivot_rows[col], col)
            self.pivot_rows[lead] = row

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
    """Rank of a list of sparse rows (any exact coefficients)."""
    echelon = Echelon()
    return echelon.add_rows(rows)
