"""Exact matrix algebra over Z/n: the Howell form of row spans, built by
one insertion routine, and the graph forms every modular solver reads.  The
extended gcd and unit normalizer are shared with the canonical quotients of
`finmod`.

Everything is carried out over arbitrary-precision Python ints; no floating
point is used anywhere.  The Howell form keeps every entry in [0, n).  The
integer matrix type, its solver facade and the integer Smith normal form
are reference routes and live in `oracles`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Optional, Sequence

from .errors import InputError


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


def howell_insert(form: HowellForm, rows: Sequence[Sequence[int]]) -> HowellForm:
    """Reduced Howell basis of span(form) + span(rows), built by insertion:
    the one Howell column loop, which `howell_form` runs from the zero form.

    Each added row is reduced against the form, and one that reduces to
    zero already lies in the span and is dropped; when none is left, the
    result is `form` itself.  The column loop runs from the first
    remainder's leading column, before which the form's rows are final.
    Column by column, the rows still in play (all zero before the column)
    are merged into one leading row by unimodular extended-gcd transforms,
    the form's row leading there, if any, first.  A changed lead is scaled
    by a unit to a divisor p of n, and (n/p) * lead, which vanishes in the
    column, is put in play: that keeps the Howell property (J. A. Howell,
    "Spans in the module (Z_m)^s", 1986; Storjohann-Mulders, "Fast
    algorithms for linear algebra modulo N", 1998).  A lead that no
    transform changed is the form's row itself, and its annihilated row is
    not put in play: by the form's Howell property it lies in the span of
    the form's rows after it, which stay in the span of the result's rows
    after it.  Finally each row is reduced against the rows below it; that
    touches only the rows that changed and the entries above a changed
    lead, as the form's other rows were already reduced.  The reduced
    Howell basis is unique for its span (Howell 1986), so the result does
    not depend on how the rows are split between the form and `rows`.
    """
    n, width = form.modulus, form.width
    pool = []
    for r in rows:
        if len(r) != width:
            raise InputError("howell_insert: row length mismatch")
        # against the zero form, where `howell_form` starts, a row is only
        # taken mod n, and no row is final before column 0
        x = list(form.reduce(r)) if form.rows else [int(v) % n for v in r]
        if any(x):
            pool.append(x)
    if not pool:
        return form
    start = min(next(j for j, v in enumerate(x) if v) for x in pool) if form.rows else 0
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


def howell_form(rows: Sequence[Sequence[int]], n: int, width: int) -> HowellForm:
    """Reduced Howell basis of the row span of `rows` in (Z/n)^width: the
    rows inserted into the zero form."""
    if n < 2:
        raise InputError("modulus must be >= 2")
    return howell_insert(HowellForm(n, width, (), ()), rows)


def graph_form(columns: Sequence[Sequence[int]], n: int, height: int) -> HowellForm:
    """Howell form of the graph {(a x | x)} in (Z/n)^(height + len(columns))
    of the map a whose column j, the image of unknown j, is columns[j] of
    length `height`: spanned by the rows (columns[j] | e_j).  It depends on
    a alone, so callers that solve many right-hand sides against one a
    build it once."""
    c = len(columns)
    return howell_form([[*col, *(int(k == j) for k in range(c))]
                        for j, col in enumerate(columns)], n, height + c)


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
