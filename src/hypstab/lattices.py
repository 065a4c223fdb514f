"""Integer normal forms, and finite-index subgroups of Z x Z.

`hermite_form` is the row Hermite normal form H = U A with U unimodular;
`diagonal_form` alternates it on A and on A^T until A is diagonal, so
that Z^width modulo the rows of A is the sum of the Z/e_j.  Both work in
Python integers, which do not overflow.

A rank-2 subgroup of Z x Z is stored by its Hermite basis

    (a, b), (0, d)      with a > 0, d > 0, 0 <= b < d,

whose index is a*d.  The x-characteristic subgroup is x(Z x Z), the one
generated by (x, 0) and (0, x); it has index x^2 and is contained in
every subgroup of index x, which is what makes characteristic coverings
gluable.  Subgroups of index m are enumerated by divisor: the count is
sigma_1(m), the sum of divisors.
"""

from __future__ import annotations

from dataclasses import dataclass


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeSubgroup:
    """Subgroup of Z^2 with Hermite-reduced row basis ((a, b), (0, d))."""

    a: int
    b: int
    d: int

    def __post_init__(self):
        if self.a <= 0 or self.d <= 0:
            raise LatticeError("zero determinant: not a finite-index subgroup")
        if not 0 <= self.b < self.d:
            raise LatticeError(f"basis not Hermite-reduced: b={self.b}, d={self.d}")

    @property
    def basis(self):
        return ((self.a, self.b), (0, self.d))


def hermite_form(rows) -> tuple:
    """(H, U), lists of int rows: H = U A for the matrix A with the given
    rows and a unimodular U.  The nonzero rows of H come first, each
    one's leading entry (its pivot) is positive and right of the pivot
    above, and every entry above a pivot lies in [0, pivot).

    Column by column, Euclid's algorithm on the rows from the next pivot
    row down leaves their gcd there; the rows above are then reduced
    modulo it.  Each row operation acts on a row of A joined to its row
    of U.
    """
    width, m = (len(rows[0]) if rows else 0), len(rows)
    a = [[int(v) for v in row] + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    r = 0
    for c in range(width):
        while live := [i for i in range(r + 1, m) if a[i][c]]:
            p = min([r, *live] if a[r][c] else live, key=lambda i: abs(a[i][c]))
            a[r], a[p] = a[p], a[r]
            for i in live:
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        if r == m or not a[r][c]:
            continue
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return [row[:width] for row in a], [row[width:] for row in a]


def diagonal_form(rows, width: int) -> tuple:
    """(e, V): U A V = diag(e) for the matrix A with the given rows, each
    `width` long, some unimodular U and the unimodular V.  Z^width modulo
    the rows of A is the sum of the Z/e_j (Z where e_j = 0), and unit
    vector i maps to row i of V.

    Each Hermite form of A^T either shrinks the first pivot or clears
    its row, so the alternation ends.
    """
    a = rows
    v = [[int(i == j) for j in range(width)] for i in range(width)]
    while True:
        a = hermite_form(a)[0]
        if all(x == 0 for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            return [a[j][j] if j < len(a) else 0 for j in range(width)], v
        h, w = hermite_form([[row[j] for row in a] for j in range(width)])  # h = w A^T
        a = [[row[i] for row in h] for i in range(len(a))]  # A w^T = h^T
        v = [[sum(x * y for x, y in zip(row, col)) for col in w] for row in v]


def x_characteristic(x: int) -> LatticeSubgroup:
    """The subgroup x(Z x Z) generated by (x, 0) and (0, x)."""
    if x < 1:
        raise LatticeError("need x >= 1")
    return LatticeSubgroup(x, 0, x)


def index(s: LatticeSubgroup) -> int:
    """|det| of the basis: the index in Z^2."""
    return s.a * s.d


def contains(s: LatticeSubgroup, other: LatticeSubgroup) -> bool:
    """Whether every element of `other` lies in `s`."""

    def member(w1, w2):
        if w1 % s.a:
            return False
        t = w2 - (w1 // s.a) * s.b
        return t % s.d == 0

    return all(member(w1, w2) for w1, w2 in other.basis)


def subgroups_of_index(m: int) -> list[LatticeSubgroup]:
    """All subgroups of Z^2 of index m; there are sigma_1(m) of them."""
    if m < 1:
        raise LatticeError("index must be positive")
    out = []
    for d in range(1, m + 1):
        if m % d:
            continue
        a = m // d
        out.extend(LatticeSubgroup(a, b, d) for b in range(d))
    return out


def sigma_1(m: int) -> int:
    """Sum of divisors, the subgroup-count oracle."""
    return sum(d for d in range(1, m + 1) if m % d == 0)
