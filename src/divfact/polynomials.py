"""Sparse multivariate polynomials over the integers.

Variables are arbitrary hashable keys (coordinate matrices use (row,
column) pairs).  A monomial is a tuple of (variable, exponent) pairs
sorted by variable; terms are kept in a dict with no zero coefficients.
Terms print in graded lexicographic order with smaller variable keys
taking priority; no computation depends on an order of terms.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Mapping

Var = Hashable
Monomial = tuple[tuple[Var, int], ...]

_ONE: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out: dict[Var, int] = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _add_product(
    out: dict[Monomial, int], a: Mapping[Monomial, int], b: Mapping[Monomial, int], sign: int
) -> None:
    """Add sign * a * b, given as term dicts, into the term dict out."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + sign * c1 * c2


class Poly:
    """Immutable sparse polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        cleaned = {}
        if terms:
            for m, coeff in terms.items():
                if coeff != 0:
                    cleaned[m] = int(coeff)
        self.terms: dict[Monomial, int] = cleaned

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: int) -> "Poly":
        return cls({_ONE: value})

    @classmethod
    def variable(cls, var: Var) -> "Poly":
        return cls({((var, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            other = Poly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            other = Poly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return Poly(out)

    def __rsub__(self, other: int) -> "Poly":
        return Poly.const(other) - self

    def __mul__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            if other == 0:
                return Poly.zero()
            return Poly({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, int] = {}
        _add_product(out, self.terms, other.terms, 1)
        return Poly(out)

    __rmul__ = __mul__

    def _sorted_terms(self) -> list[tuple[Monomial, int]]:
        # graded lex: higher degree first, then the larger power of the
        # earliest variable where two monomials differ
        return sorted(
            self.terms.items(),
            key=lambda t: (-_mono_degree(t[0]), tuple((v, -e) for v, e in t[0])),
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self._sorted_terms():
            factors = "*".join(
                f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in m
            )
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            elif c == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{c}*{factors}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _as_poly(entry: "Poly | int") -> Poly:
    return Poly.const(entry) if isinstance(entry, int) else entry


def determinant(rows: list[list["Poly | int"]]) -> Poly:
    """Determinant of a square matrix of polynomials, without division.

    Laplace expansion from the bottom row up: after row i, `minors` maps
    each set of size - i columns to the minor on rows i, ..., size - 1
    and those columns (the bottom row's 1 x 1 minors are its entries), so
    every minor is computed once and its products are summed into one
    term dict.
    """
    size = len(rows)
    if size == 0 or any(len(row) != size for row in rows):
        raise ValueError("matrix must be square and nonempty")
    minors = {(j,): _as_poly(e) for j, e in enumerate(rows[-1])}
    for i in range(size - 2, -1, -1):
        row = [_as_poly(e) for e in rows[i]]
        expanded: dict[tuple[int, ...], Poly] = {}
        for cols in combinations(range(size), size - i):
            out: dict[Monomial, int] = {}
            for pos, j in enumerate(cols):
                if row[j].terms:
                    rest = minors[cols[:pos] + cols[pos + 1 :]]
                    _add_product(out, row[j].terms, rest.terms, -1 if pos % 2 else 1)
            expanded[cols] = Poly(out)
        minors = expanded
    return minors[tuple(range(size))]
