"""Exact matrix algebra over Z/n: the Howell form of row spans, which every
modular solver reads, with the extended gcd and unit normalizer it shares
with the canonical quotients of `finmod`.

Everything is carried out over arbitrary-precision Python ints; no floating
point is used anywhere.  The Howell form keeps every entry in [0, n).  The
integer Smith normal form is a reference route and lives in `oracles`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Optional, Sequence

from .errors import InputError, InternalConsistencyError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = len(data)
        if rows == 0:
            return cls(0, 0 if cols is None else cols, ())
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise InputError("ragged rows")
        return cls(rows, width, tuple(int(x) for row in data for x in row))

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls(k, k, tuple(1 if i == j else 0 for i in range(k) for j in range(k)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matmul: dimension mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise InputError("apply: vector length mismatch")
        return [sum(self.at(i, j) * vec[j] for j in range(self.cols)) for i in range(self.rows)]

    def diagonal(self) -> tuple[int, ...]:
        return self.entries[::self.cols + 1][:min(self.rows, self.cols)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class HowellForm:
    """Reduced Howell basis of a subgroup of (Z/n)^width.

    Row k has its leading entry at column pivots[k], pivots increase, each
    leading entry divides n, entries above a leading entry lie below it, and
    every entry lies in [0, n).  The Howell property holds: the rows with
    leading column >= j span every vector of the span that vanishes before
    column j.  So the basis is unique for its span, and each member is
    sum(c_k * row_k) for exactly one choice of 0 <= c_k < n / pivot entry.
    """

    modulus: int
    width: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically lowest vector of vec + span; it is zero
        exactly when vec lies in the span."""
        n = self.modulus
        x = [int(v) % n for v in vec]
        for row, j in zip(self.rows, self.pivots):
            q = x[j] // row[j]
            if q:
                for k in range(j, self.width):
                    x[k] = (x[k] - q * row[k]) % n
        return tuple(x)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    @cached_property
    def cardinality(self) -> int:
        return prod(self.modulus // row[j] for row, j in zip(self.rows, self.pivots))

    def pivot_entry(self, j: int) -> int:
        """The leading entry at column j, or n when no row leads there."""
        for row, p in zip(self.rows, self.pivots):
            if p == j:
                return row[j]
        return self.modulus


def _unit_normalizer(a: int, n: int) -> int:
    """A unit u of Z/n with u * a == gcd(a, n) (mod n), for a != 0 mod n."""
    g, s, _ = _xgcd(a, n)
    step = n // g
    u = s % step
    while gcd(u, n) != 1:
        u += step
    return u


def howell_form(rows: Sequence[Sequence[int]], n: int, width: int) -> HowellForm:
    """Reduced Howell basis of the row span of `rows` in (Z/n)^width.

    Column by column, the rows still in play (all zero before the column)
    are merged into one leading row by unimodular extended-gcd transforms,
    its leading entry is scaled by a unit to a divisor p of n, and
    (n/p) * leading row, which vanishes in the column, stays in play: that
    keeps the Howell property (J. A. Howell, "Spans in the module (Z_m)^s",
    1986; Storjohann-Mulders, "Fast algorithms for linear algebra modulo N",
    1998).  Finally each row is reduced against the rows below it.
    """
    if n < 2:
        raise InputError("modulus must be >= 2")
    pool = []
    for r in rows:
        if len(r) != width:
            raise InputError("howell_form: row length mismatch")
        red = [int(x) % n for x in r]
        if any(red):
            pool.append(red)
    basis: list[list[int]] = []
    pivots: list[int] = []
    for j in range(width):
        lead = None
        rest = []
        for r in pool:
            b = r[j]
            if b == 0:
                rest.append(r)
            elif lead is None:
                lead = r
            else:
                a = lead[j]
                g, s, w = _xgcd(a, b)
                ag, bg = a // g, b // g
                new_lead = [(s * x + w * y) % n for x, y in zip(lead, r)]
                other = [(ag * y - bg * x) % n for x, y in zip(lead, r)]
                lead = new_lead
                if any(other):
                    rest.append(other)
        if lead is None:
            continue
        u = _unit_normalizer(lead[j], n)
        if u != 1:
            lead = [(u * x) % n for x in lead]
        p = lead[j]
        annihilated = [((n // p) * x) % n for x in lead]
        if any(annihilated):
            rest.append(annihilated)
        basis.append(lead)
        pivots.append(j)
        pool = rest
    for k, j in enumerate(pivots):
        row_k = basis[k]
        p = row_k[j]
        for i in range(k):
            q = basis[i][j] // p
            if q:
                row_i = basis[i]
                for c in range(j, width):
                    row_i[c] = (row_i[c] - q * row_k[c]) % n
    return HowellForm(n, width, tuple(tuple(r) for r in basis), tuple(pivots))


def howell_insert(form: HowellForm, rows: Sequence[Sequence[int]]) -> HowellForm:
    """Reduced Howell basis of span(form) + span(rows): what `howell_form`
    returns for form.rows + rows, built by insertion.

    Each added row is reduced against the form, and one that reduces to
    zero already lies in the span and is dropped.  The column loop of
    `howell_form` then runs from the first remainder's leading column,
    before which the form's rows are final, with the remainders in play; at
    each column the form's row leading there, if any, is the first lead.  A
    lead that no gcd transform changed is the form's row itself, and its
    annihilated row (n/p) * row is not put in play: by the form's Howell
    property it lies in the span of the form's rows after it, which stay in
    the span of the result's rows after it.  A changed lead puts its
    annihilated row in play, as `howell_form` does, so the result has the
    Howell property.  Back-reduction touches only the rows that changed and
    the entries above a changed lead; the form's other rows were already
    reduced.  The reduced Howell basis is unique for its span (Howell
    1986), so the result equals `howell_form` of all the rows, entry for
    entry.
    """
    n, width = form.modulus, form.width
    pool = []
    for r in rows:
        if len(r) != width:
            raise InputError("howell_insert: row length mismatch")
        x = form.reduce(r)
        if any(x):
            pool.append(list(x))
    if not pool:
        return form
    start = min(next(j for j, v in enumerate(x) if v) for x in pool)
    old = bisect_left(form.pivots, start)
    # the form's rows stay tuples; a changed or new row is a list
    basis: list = list(form.rows[:old])
    pivots = list(form.pivots[:old])
    new_lead = [False] * old
    for j in range(start, width):
        if not pool:
            break
        lead, changed = None, False
        if old < len(form.pivots) and form.pivots[old] == j:
            lead = form.rows[old]
            old += 1
        rest = []
        for r in pool:
            b = r[j]
            if b == 0:
                rest.append(r)
                continue
            if lead is None:
                lead, changed = r, True
                continue
            a = lead[j]
            if b % a == 0:
                q = b // a
                other = [(y - q * x) % n for x, y in zip(lead, r)]
            else:
                g, s, w = _xgcd(a, b)
                ag, bg = a // g, b // g
                other = [(ag * y - bg * x) % n for x, y in zip(lead, r)]
                lead, changed = [(s * x + w * y) % n for x, y in zip(lead, r)], True
            if any(other):
                rest.append(other)
        pool = rest
        if lead is None:
            continue
        if changed:
            u = _unit_normalizer(lead[j], n)
            if u != 1:
                lead = [(u * x) % n for x in lead]
            annihilated = [((n // lead[j]) * x) % n for x in lead]
            if any(annihilated):
                pool.append(annihilated)
        basis.append(lead)
        pivots.append(j)
        new_lead.append(changed)
    basis += form.rows[old:]
    pivots += form.pivots[old:]
    new_lead += [False] * (len(form.pivots) - old)
    dirty = [k for k, fresh in enumerate(new_lead) if fresh]
    for k, j in enumerate(pivots):
        row_k = basis[k]
        p = row_k[j]
        for i in (range(k) if new_lead[k] else [i for i in dirty if i < k]):
            row_i = basis[i]
            q = row_i[j] // p
            if q:
                if type(row_i) is tuple:
                    row_i = basis[i] = list(row_i)
                    insort(dirty, i)
                for c in range(j, width):
                    row_i[c] = (row_i[c] - q * row_k[c]) % n
    return HowellForm(n, width, tuple(map(tuple, basis)), tuple(pivots))


def graph_form(a: IntMatrix, n: int) -> HowellForm:
    """Howell form of the graph {(a x | x)} in (Z/n)^(rows + cols), spanned
    by the rows (column j of a | e_j).  It depends on a alone, so callers
    that solve many right-hand sides against one a build it once."""
    if n < 2:
        raise InputError("modulus must be >= 2")
    c = a.cols
    return howell_form([list(a.column(j)) + [1 if k == j else 0 for k in range(c)]
                        for j in range(c)], n, a.rows + c)


def graph_solution(form: HowellForm, b: Sequence[int]) -> Optional[list[int]]:
    """The lexicographically lowest x with a @ x == b, read off the graph
    form of a, whose rows count len(b).

    Reducing (-b | 0) against the graph form gives the lowest vector of
    (-b | 0) + {(a x | x)}: (0 | x) for the lowest solution x when one
    exists, a non-zero left half otherwise.
    """
    rows = len(b)
    red = form.reduce([-v for v in b] + [0] * (form.width - rows))
    if any(red[:rows]):
        return None
    return list(red[rows:])


def graph_kernel(form: HowellForm, rows: int) -> list[list[int]]:
    """Howell basis of {x : a @ x == 0}, read off the graph form of a with
    `rows` rows: the right halves of the form rows leading there."""
    return [list(row[rows:]) for row, j in zip(form.rows, form.pivots) if j >= rows]


def solve_mod(a: IntMatrix, b: Sequence[int], n: int) -> Optional[list[int]]:
    """The lexicographically lowest x in [0, n)^cols with a @ x == b (mod n),
    or None."""
    if len(b) != a.rows:
        raise InputError("solve_mod: right-hand side length mismatch")
    return graph_solution(graph_form(a, n), b)


def solution_space_mod(a: IntMatrix, n: int) -> list[list[int]]:
    """Howell basis of the solution group {x in (Z/n)^cols : a @ x == 0
    (mod n)}.  Each generator is re-verified to be annihilated by a."""
    gens = graph_kernel(graph_form(a, n), a.rows)
    for g in gens:
        if any(x % n for x in a.apply(g)):
            raise InternalConsistencyError("kernel generator fails annihilation check")
    return gens

