"""Finite Z/n-modules: objects, morphisms, homs, (co)kernels, pushouts,
finite directed colimits, projectivity and purity.

A module is kept in canonical invariant-factor form d1 | d2 | ... | dk with
every di dividing the ring modulus, so isomorphism testing is list equality.
Elements are coordinate tuples, one coordinate per invariant factor.
All values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, product as _iterproduct
from math import gcd, prod
from operator import mod, mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    IllDefinedMorphismError,
    InputError,
    InternalConsistencyError,
)
from .exact_linalg import (
    HowellForm,
    _unit_normalizer,
    _xgcd,
    graph_form,
    graph_kernel,
    graph_solution,
    howell_form,
    howell_insert,
)


# Trial division runs over 2 and the odd numbers below 2^10.  What it
# leaves has no prime factor below 2^10, so a cofactor below 2^20 is 1 or
# a prime.
_TRIAL_BOUND = 1 << 10
# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson-Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# Pollard rho finds a prime factor p in about sqrt(p) steps, and every
# composite cofactor below _MR_EXACT_BELOW has one below 2^41.  The budget
# bounds the search on larger ones (about 5 s at 1.2 us a step).
_RHO_STEPS = 1 << 22


def _is_prime(m: int) -> bool:
    """Primality of m >= 2^20 with no prime factor below 2^10, by
    Miller-Rabin; InputError when m is probably prime but past the proof."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _MR_EXACT_BELOW:
        raise InputError(f"cannot prove {m} prime: moduli are factored "
                         f"only where every prime factor is below {_MR_EXACT_BELOW}")
    return True


def _rho_divisor(m: int) -> int:
    """A proper divisor of the composite m, by Brent's variant of Pollard
    rho (BIT 20 (1980)): x -> x^2 + c from 2, for c = 1, 2, ..., with the
    differences multiplied together and one gcd per batch of 128 steps."""
    steps = 0
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += 128
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise InputError(f"cannot factor {m} within {_RHO_STEPS} rho steps")
            r *= 2
        if g == m:
            # the batch overshot: step back through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g
    raise InternalConsistencyError(f"rho found no divisor of composite {m}")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((p, e), ...), ascending primes.

    Trial division below 2^10, then Brent's Pollard rho on the cofactor,
    each prime proven by Miller-Rabin.  InputError when a factor cannot be
    proven prime or found within the rho step budget.
    """
    counts: dict[int, int] = {}
    m = n
    for p in chain((2,), range(3, _TRIAL_BOUND, 2)):
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND ** 2 or _is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pending += [d, m // d]
    out = tuple(sorted(counts.items()))
    if prod(p ** e for p, e in out) != n:
        raise InternalConsistencyError(f"factorization {out} does not multiply to {n}")
    return out


@dataclass(frozen=True)
class Ring:
    """The coefficient ring Z/nZ."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InputError("ring modulus must be >= 2")

    @property
    def factorization(self) -> dict[int, int]:
        return dict(factorize(self.modulus))

    def divisors(self) -> tuple[int, ...]:
        """Every divisor of n, ascending, built from its prime powers."""
        divs = [1]
        for p, e in factorize(self.modulus):
            divs = [d * p ** k for d in divs for k in range(e + 1)]
        return tuple(sorted(divs))

    def is_semisimple(self) -> bool:
        """True iff the modulus is squarefree (then every module is projective)."""
        return all(e == 1 for e in self.factorization.values())

    def __str__(self):
        return f"Z/{self.modulus}"


@dataclass(frozen=True)
class FiniteModule:
    """A finite Z/n-module in invariant-factor form, the direct sum of
    Z/d_i with d1 | d2 | ... | dk.  The zero module has an empty factor list."""

    ring: Ring
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        n = self.ring.modulus
        prev = None
        for d in self.invariant_factors:
            if d < 2 or n % d != 0:
                raise InputError(f"invariant factor {d} invalid over {self.ring}")
            if prev is not None and d % prev != 0:
                raise InputError("invariant factors must form a divisibility chain")
            prev = d

    @classmethod
    def zero(cls, ring: Ring) -> "FiniteModule":
        return cls(ring, ())

    @classmethod
    def cyclic(cls, ring: Ring, d: int) -> "FiniteModule":
        if d == 1:
            return cls.zero(ring)
        return cls(ring, (d,))

    @classmethod
    def free(cls, ring: Ring, k: int) -> "FiniteModule":
        return cls(ring, (ring.modulus,) * k)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def cardinality(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_zero(self) -> bool:
        return not self.invariant_factors

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.rank:
            raise InputError("element has wrong coordinate count")
        return tuple(int(x) % d for x, d in zip(vec, self.invariant_factors))

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def sub(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def smul(self, c: int, x: Sequence[int]) -> tuple[int, ...]:
        return tuple((c * a) % d for a, d in zip(x, self.invariant_factors))

    def generator(self, j: int) -> tuple[int, ...]:
        return tuple(1 if i == j else 0 for i in range(self.rank))

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All elements in lexicographic coordinate order."""
        return _iterproduct(*(range(d) for d in self.invariant_factors))

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.invariant_factors)


def _combination(columns: Sequence[tuple[int, ...]], coeffs: Sequence[int],
                 factors: tuple[int, ...]) -> tuple[int, ...]:
    """sum(c * column) over the nonzero coefficients, reduced mod factors;
    a lone coefficient 1 reads its column, which is already reduced."""
    acc = None
    for c, col in zip(coeffs, columns):
        if c:
            if acc is None:
                acc, read = (col, True) if c == 1 else ([c * a for a in col], False)
            else:
                acc, read = [s + c * a for s, a in zip(acc, col)], False
    if acc is None:
        return (0,) * len(factors)
    return acc if read else tuple(map(mod, acc, factors))


@dataclass(frozen=True, init=False)
class ModuleMorphism:
    """A morphism between finite modules, stored by its columns: column j is
    the image of source generator j, reduced mod the target invariant
    factors, so equality is column equality.  Outside data enters through
    the constructor, as rows, or `from_columns`, both checking that
    d_j * column j == 0 in the target; `_trusted` builds the results that
    are well defined by construction.  `matrix` is the row view."""

    source: FiniteModule
    target: FiniteModule
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, source: FiniteModule, target: FiniteModule,
                 matrix: Sequence[Sequence[int]]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        self.__post_init__(matrix)

    def __post_init__(self, matrix):
        # the rows are read down to the first one of the wrong length, and
        # an ill-defined entry above it is the error reported
        rows, rank = tuple(matrix), self.source.rank
        short = next((i for i, row in enumerate(rows) if len(row) != rank), len(rows))
        self._check(zip(*rows[:short]) if short else ((),) * rank, len(rows))
        if short < len(rows):
            raise InputError("matrix column count must equal source rank")

    def _check(self, columns: Iterable[Sequence[int]], nrows: int) -> "ModuleMorphism":
        """Set the columns, reduced, once d_j * column j == 0 holds in the
        target; IllDefinedMorphismError names the first entry, in row-major
        order, where it does not."""
        src, tgt = self.source, self.target
        if src.ring != tgt.ring:
            raise InputError("source and target live over different rings")
        if nrows != tgt.rank:
            raise InputError("matrix row count must equal target rank")
        tfac, sfac = tgt.invariant_factors, src.invariant_factors
        cols = tuple(tuple(int(a) % e for a, e in zip(col, tfac)) for col in columns)
        bad = min(((i, j) for j, (d, col) in enumerate(zip(sfac, cols))
                   for i, (a, e) in enumerate(zip(col, tfac)) if a * d % e), default=None)
        if bad is not None:
            i, j = bad
            raise IllDefinedMorphismError(i, j, tfac[i], sfac[j], cols[j][i])
        object.__setattr__(self, "columns", cols)
        return self

    @classmethod
    def _trusted(cls, source: FiniteModule, target: FiniteModule,
                 columns: tuple[tuple[int, ...], ...]) -> "ModuleMorphism":
        """A morphism whose columns are reduced and well defined by
        construction, built unchecked: for internal results only."""
        f = object.__new__(cls)
        d = f.__dict__
        d["source"], d["target"], d["columns"] = source, target, columns
        return f

    def __hash__(self):
        # memoized: the left-factor form cache hashes the same morphism per lookup
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.source, self.target, self.columns))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def identity(cls, m: FiniteModule) -> "ModuleMorphism":
        return cls._trusted(m, m, tuple(m.generator(j) for j in range(m.rank)))

    @classmethod
    def zero_map(cls, source: FiniteModule, target: FiniteModule) -> "ModuleMorphism":
        return cls._trusted(source, target, ((0,) * target.rank,) * source.rank)

    @classmethod
    def from_columns(cls, source: FiniteModule, target: FiniteModule,
                     columns: Sequence[Sequence[int]]) -> "ModuleMorphism":
        if len(columns) != source.rank or any(len(c) != target.rank for c in columns):
            raise InputError("need one column per source generator, of the target rank")
        return cls._trusted(source, target, ())._check(columns, target.rank)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The rows, built on each read: for serialization."""
        return tuple(zip(*self.columns)) if self.columns else ((),) * self.target.rank

    def apply(self, x: Sequence[int]) -> tuple[int, ...]:
        if len(x) != self.source.rank:
            raise InputError("element has wrong coordinate count")
        return _combination(self.columns, x, self.target.invariant_factors)

    def column(self, j: int) -> tuple[int, ...]:
        return self.columns[j]

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.columns))

    def __add__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        if self.source != other.source or self.target != other.target:
            raise InputError("morphism sum needs matching source and target")
        tfac = self.target.invariant_factors
        return ModuleMorphism._trusted(self.source, self.target, tuple(
            tuple((a + b) % d for a, b, d in zip(c1, c2, tfac))
            for c1, c2 in zip(self.columns, other.columns)))

    def __neg__(self) -> "ModuleMorphism":
        tfac = self.target.invariant_factors
        return ModuleMorphism._trusted(self.source, self.target, tuple(
            tuple(-a % d for a, d in zip(col, tfac)) for col in self.columns))

    def __sub__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        return self + (-other)


def compose(g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    """g after f.  Column j is g applied to column j of f: the combination
    of g's columns by its nonzero entries."""
    if f.target != g.source:
        raise InputError("compose: domain mismatch")
    tfac = g.target.invariant_factors
    return ModuleMorphism._trusted(f.source, g.target, tuple(
        _combination(g.columns, col, tfac) for col in f.columns))


def hom_group(m: FiniteModule, n: FiniteModule) -> tuple[ModuleMorphism, ...]:
    """Generators of Hom(m, n) as an abelian group.

    Hom splits entrywise: the (i, j) slot is cyclic of order gcd(d_j, e_i),
    generated by the single-entry matrix with e_i / gcd(d_j, e_i) at (i, j).
    """
    if m.ring != n.ring:
        raise InputError("hom_group: ring mismatch")
    return tuple(_single_entry(m, n, i, j, ei // gcd(dj, ei))
                 for i, ei in enumerate(n.invariant_factors)
                 for j, dj in enumerate(m.invariant_factors) if gcd(dj, ei) > 1)


def _single_entry(source: FiniteModule, target: FiniteModule,
                  i: int, j: int, a: int) -> ModuleMorphism:
    """The morphism whose one nonzero entry, a, well defined and reduced,
    is at (i, j)."""
    zero = (0,) * target.rank
    return ModuleMorphism._trusted(source, target, (zero,) * j + (
        zero[:i] + (a,) + zero[i + 1:],) + (zero,) * (source.rank - j - 1))


# ---------------------------------------------------------------------------
# scaled coordinates and submodules
# ---------------------------------------------------------------------------

def _scaled(mod: FiniteModule, x: Sequence[int]) -> tuple[int, ...]:
    """x in (Z/n)^t through x_i -> (n/d_i) x_i, for x reduced: an injective
    map that keeps the lexicographic order of elements."""
    n = mod.ring.modulus
    return tuple((n // d) * a for a, d in zip(x, mod.invariant_factors))


def _unscaled(mod: FiniteModule, v: Sequence[int]) -> tuple[int, ...]:
    n = mod.ring.modulus
    return tuple(a // (n // d) for a, d in zip(v, mod.invariant_factors))


@dataclass(frozen=True)
class Submodule:
    """A submodule of a fixed ambient module, given by a generating set.

    Membership, cardinality and subgroup equality come from the reduced
    Howell basis of the subgroup in the scaled coordinates of `_scaled`,
    computed on first use and kept on the instance.
    """

    ambient: FiniteModule
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "generators",
            tuple(self.ambient.reduce(g) for g in self.generators))

    @classmethod
    def zero(cls, ambient: FiniteModule) -> "Submodule":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: FiniteModule) -> "Submodule":
        return cls(ambient, tuple(ambient.generator(j) for j in range(ambient.rank)))

    @classmethod
    def _reduced(cls, ambient: FiniteModule,
                 generators: tuple[tuple[int, ...], ...]) -> "Submodule":
        """A submodule whose generators are already reduced: skips the
        constructor's reduction, so it is for internal results only."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient", ambient)
        object.__setattr__(sub, "generators", generators)
        return sub

    @cached_property
    def howell(self) -> HowellForm:
        amb = self.ambient
        return howell_form([_scaled(amb, g) for g in self.generators],
                           amb.ring.modulus, amb.rank)

    def contains(self, x: Sequence[int]) -> bool:
        return self.howell.contains(_scaled(self.ambient, self.ambient.reduce(x)))

    def coset_minimum(self, x: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically lowest element of x + S: x reduced against
        the Howell basis in the scaled coordinates, which keep the order."""
        amb = self.ambient
        return _unscaled(amb, self.howell.reduce(_scaled(amb, amb.reduce(x))))

    def contains_submodule(self, other: "Submodule") -> bool:
        """Whether other <= self, in one ambient; a generator of other that
        is literally one of self's needs no reduction, and other's tuple
        being a prefix of self's, as along a filtration chain, needs no
        lookup either."""
        if other.ambient != self.ambient:
            raise InputError("contains_submodule: ambient modules differ")
        gens = other.generators
        if self.generators[:len(gens)] == gens:
            return True
        own = set(self.generators)
        return all(g in own or self.contains(g) for g in gens)

    def join(self, extra: Iterable[Sequence[int]]) -> "Submodule":
        """self with the generators extra appended.  Only they are reduced,
        and the Howell basis is self's with their scaled images inserted
        (`howell_insert`), the same basis as one built from all of them."""
        amb = self.ambient
        added = tuple(amb.reduce(g) for g in extra)
        sub = Submodule._reduced(amb, self.generators + added)
        object.__setattr__(sub, "howell", howell_insert(
            self.howell, [_scaled(amb, g) for g in added]))
        return sub

    @property
    def cardinality(self) -> int:
        return self.howell.cardinality

    @property
    def is_full(self) -> bool:
        return self.cardinality == self.ambient.cardinality


def same_subgroup(a: Submodule, b: Submodule) -> bool:
    if a.ambient != b.ambient:
        raise InputError("same_subgroup: ambient modules differ")
    return a.howell == b.howell


# ---------------------------------------------------------------------------
# canonical presentations from relation lattices
# ---------------------------------------------------------------------------

def _quotient_structure(n: int, ncoords: int, relations: Sequence[Sequence[int]] = (),
                        diagonal: Optional[Sequence[int]] = None):
    """Canonical data for (Z/n)^ncoords / <relations, d_i * e_i>.

    Returns (factors, proj_cols, lift_cols): `factors` are the nontrivial
    invariant factors, `proj_cols[i]` is the image of ambient generator i,
    and `lift_cols[k]` a preimage of canonical generator k, in [0, n).
    `diagonal`, one positive d_i per coordinate, stands for the relations
    d_i * e_i after `relations`.  The relation lattice must contain n Z^t,
    as every caller's does, so the form is computed on residues mod n.

    The relations are the rows of a matrix A.  Row operations leave their
    span alone and are not tracked; each column operation is applied to A,
    to V and, inverted, to V^-1, so A V stays a basis of the relations in
    the coordinates x V; a subtraction col_j -= q col_t changes only entry
    j of each row, column j of V and row t of V^-1.  At each step the pivot
    is the entry with the least gcd(entry, n), first in row-major order;
    its row and column are swapped into place and its row is scaled by a
    unit to that gcd.  Unimodular 2x2 column operations clear the pivot
    row, row operations clear the pivot column, and a row operation that
    lowers the pivot sends the step back to its row.  One 2x2 column
    operation per pair out of order turns the diagonal into a divisibility
    chain (Storjohann, "Algorithms for matrix canonical forms", 2000).
    Canonical generator k is then coordinate k of x V: projection column i
    is row i of V, reduced, and the lift of k is row k of V^-1.  On a
    diagonal lattice whose swap order is a divisibility chain, V is a
    permutation matrix.
    """
    a = [[x % n for x in rel] for rel in relations]
    if diagonal is not None:
        a += [[d if i == j else 0 for i in range(ncoords)] for j, d in enumerate(diagonal)]
    # v_cols[k] is column k of V, v_inv[k] row k of V^-1
    v_cols = [[int(i == k) for i in range(ncoords)] for k in range(ncoords)]
    v_inv = [row[:] for row in v_cols]

    def column_op(rows, t, j, e11, e21, e12, e22):
        # columns (t, j) <- (e11 c_t + e21 c_j, e12 c_t + e22 c_j), det 1
        for r in rows:
            x, y = r[t], r[j]
            r[t], r[j] = (e11 * x + e21 * y) % n, (e12 * x + e22 * y) % n
        x, y = v_cols[t], v_cols[j]
        v_cols[t] = [(e11 * p + e21 * q) % n for p, q in zip(x, y)]
        v_cols[j] = [(e12 * p + e22 * q) % n for p, q in zip(x, y)]
        x, y = v_inv[t], v_inv[j]
        v_inv[t] = [(e22 * p - e12 * q) % n for p, q in zip(x, y)]
        v_inv[j] = [(e11 * q - e21 * p) % n for p, q in zip(x, y)]

    def subtract(rows, t, j, q):
        # column j <- column j - q column t
        for r in rows:
            r[j] = (r[j] - q * r[t]) % n
        v_cols[j] = [(y - q * x) % n for x, y in zip(v_cols[t], v_cols[j])]
        v_inv[t] = [(x + q * y) % n for x, y in zip(v_inv[t], v_inv[j])]

    # rows before t are finished: zero but for their pivot at column t
    t = 0
    while True:
        best = None
        for i in range(t, len(a)):
            for j, x in enumerate(a[i][t:], t):
                if x:
                    g = gcd(x, n)
                    if best is None or g < best[0]:
                        best = (g, i, j)
                        if g == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        g, i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            for r in a[t:]:
                r[t], r[j] = r[j], r[t]
            v_cols[t], v_cols[j] = v_cols[j], v_cols[t]
            v_inv[t], v_inv[j] = v_inv[j], v_inv[t]
        piv = a[t]
        if piv[t] != g:
            u = _unit_normalizer(piv[t], n)
            piv[:] = [(u * x) % n for x in piv]
        while True:
            for j in range(t + 1, ncoords):
                p, b = piv[t], piv[j]
                if not b:
                    continue
                if b % p == 0:
                    subtract(a[t:], t, j, b // p)
                else:
                    g, s, w = _xgcd(p, b)
                    column_op(a[t:], t, j, s, w, -(b // g), p // g)
            p = piv[t]
            r = next((r for r in a[t + 1:] if r[t] % p), None)
            if r is None:
                break
            g, s, w = _xgcd(p, r[t])
            pg, bg = p // g, r[t] // g
            piv[:], r[:] = ([(s * x + w * y) % n for x, y in zip(piv, r)],
                            [(pg * y - bg * x) % n for x, y in zip(piv, r)])
        for r in a[t + 1:]:
            r[t] = 0
        t += 1
    diag = [a[k][k] for k in range(t)] + [n] * (ncoords - t)
    for i in range(ncoords):
        for j in range(i + 1, ncoords):
            d, e = diag[i], diag[j]
            if e % d:
                g, s, w = _xgcd(d, e)
                column_op((), i, j, s, w, -(e // g), d // g)
                diag[i], diag[j] = g, d // g * e
    kept = [k for k in range(ncoords) if diag[k] != 1]
    return (tuple(diag[k] for k in kept),
            [tuple(v_cols[k][i] % diag[k] for k in kept) for i in range(ncoords)],
            [tuple(v_inv[k]) for k in kept])


@dataclass(frozen=True)
class QuotientData:
    """A canonical quotient together with integer lifts of its generators."""

    module: FiniteModule
    projection: ModuleMorphism
    lifts: tuple[tuple[int, ...], ...]

    def induced(self, c: ModuleMorphism) -> ModuleMorphism:
        """The morphism out of the quotient induced by c, a morphism out of
        the ambient module that kills the subgroup: canonical generator k
        goes to c of its lift, the same for any lift."""
        return ModuleMorphism._trusted(self.module, c.target,
                                       tuple(c.apply(lift) for lift in self.lifts))

    def lift(self, y: Sequence[int]) -> tuple[int, ...]:
        """Some element of the ambient module projecting to y: sum(y_k * lift_k)."""
        amb = self.projection.source
        return amb.reduce(_combination(self.lifts, y, (amb.ring.modulus,) * amb.rank))


def quotient_by(ambient: FiniteModule, generators: Sequence[Sequence[int]]) -> QuotientData:
    """ambient / <generators> in canonical form with projection and lifts."""
    factors, proj_cols, lift_cols = _quotient_structure(
        ambient.ring.modulus, ambient.rank, [ambient.reduce(g) for g in generators],
        ambient.invariant_factors)
    q = FiniteModule(ambient.ring, factors)
    projection = ModuleMorphism._trusted(ambient, q, tuple(proj_cols))
    return QuotientData(q, projection, tuple(lift_cols))


def cokernel(f: ModuleMorphism) -> tuple[FiniteModule, ModuleMorphism]:
    """Cokernel with its projection, target / image(f) in canonical form."""
    qd = quotient_by(f.target, f.columns)
    return qd.module, qd.projection


def slice_generators(lower: Submodule, upper: Submodule) -> list[tuple[int, tuple[int, ...]]]:
    """Pairs (d_q, g_q), g_q in upper, such that upper / lower, for lower
    contained in upper, is the direct sum of the Z/d_q that the classes of
    the g_q generate, read off the reduced Howell rows h_1..h_r of upper,
    with leading entries p_i, so they depend on the two subgroups alone.

    By the Howell property (n/p_i) * h_i, which vanishes through its leading
    column, is sum(c_k * h_k) over the later rows; the relations
    (n/p_i) * e_i - sum(c_k * e_k) form an upper-triangular lattice of
    determinant prod(n/p_i) = |upper|, so they present upper.  Each
    generator of lower adds its coordinates, the quotients met while
    reducing it against the rows (InternalConsistencyError when it does not
    reduce to zero).  One canonical form of the lattice gives the d_q and
    lifts c_q, and g_q = sum(c_q[k] * h_k).
    """
    amb = upper.ambient
    if lower.ambient != amb:
        raise InputError("slice_generators: ambient modules differ")
    hs = upper.howell
    n = amb.ring.modulus
    scales = [n // row[j] for row, j in zip(hs.rows, hs.pivots)]
    rels = []
    for i, vec in enumerate(chain(([s * v for v in row] for s, row in zip(scales, hs.rows)),
                                  (_scaled(amb, g) for g in lower.generators))):
        x = [v % n for v in vec]
        rel = []
        for row, j in zip(hs.rows, hs.pivots):
            q = x[j] // row[j]
            rel.append(q)
            if q:
                x = [(a - q * b) % n for a, b in zip(x, row)]
        if any(x):
            raise InternalConsistencyError("vector outside the span of its Howell rows")
        if i < len(scales):
            rel = [-q for q in rel]
            rel[i] = scales[i]
        rels.append(rel)
    factors, _, lift_cols = _quotient_structure(n, len(scales), rels)
    if prod(factors) * lower.cardinality != upper.cardinality:
        raise InternalConsistencyError("slice presentation has wrong cardinality")
    return [(d, _unscaled(amb, [sum(map(mul, col, h)) % n for h in zip(*hs.rows)]))
            for d, col in zip(factors, lift_cols)]


@lru_cache(maxsize=None)
def subgroup_presentation(sub: Submodule) -> tuple[FiniteModule, ModuleMorphism]:
    """Canonical form of a generated subgroup with an injective embedding:
    its `slice_generators` over zero, so it depends on the subgroup alone."""
    pairs = slice_generators(Submodule.zero(sub.ambient), sub)
    module = FiniteModule(sub.ambient.ring, tuple(d for d, _ in pairs))
    return module, ModuleMorphism._trusted(module, sub.ambient, tuple(g for _, g in pairs))


@lru_cache(maxsize=None)
def kernel(f: ModuleMorphism) -> tuple[FiniteModule, ModuleMorphism]:
    """Kernel in canonical form with an injective embedding into the source:
    the kernel columns of f at order n (`_kernel_column_gens`), presented
    by their subgroup alone."""
    return subgroup_presentation(Submodule._reduced(
        f.source, tuple(_kernel_column_gens(f, f.source.ring.modulus))))


def image_submodule(f: ModuleMorphism) -> Submodule:
    return Submodule._reduced(f.target, f.columns)


def is_injective(f: ModuleMorphism) -> bool:
    """The image is as large as the source, read off its Howell form."""
    return image_submodule(f).cardinality == f.source.cardinality


def is_surjective(f: ModuleMorphism) -> bool:
    return image_submodule(f).is_full


def is_automorphism(f: ModuleMorphism) -> bool:
    return (f.source.invariant_factors == f.target.invariant_factors
            and is_injective(f))


# ---------------------------------------------------------------------------
# factorization solvers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lift_form(g: ModuleMorphism, dq: int) -> HowellForm:
    """Graph form (`exact_linalg.graph_form`) of the congruences on x in
    g.source, scaled to Z/n: g(x) == y, and dq * x == 0 mod each source
    factor d_p not dividing dq.  Unknown p's column is column p of g scaled
    (`_scaled`), then dq scaled in its own annihilation slot.  It does not
    depend on y, so every lift through g at order dq, and the kernel
    columns, read this one form.

    Cached by equality: retract chases and the suite's factorization checks
    lift through equal morphisms that are distinct objects."""
    src = g.source
    n = src.ring.modulus
    kept = [(p, n // d * dq) for p, d in enumerate(src.invariant_factors) if dq % d]
    return graph_form([[*_scaled(g.target, col), *(a if pp == p else 0 for pp, a in kept)]
                       for p, col in enumerate(g.columns)], n, g.target.rank + len(kept))


def _lift_column(g: ModuleMorphism, dq: int, y: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The lexicographically lowest x in g.source with g(x) == y and
    dq * x == 0, or None.

    Reduces (-scaled y | 0 | 0) against `_lift_form(g, dq)`, and checks
    every solution against both equations before returning it.  Whether a
    lift exists at all is the membership test
    `torsion_image(g, dq).contains(y)`.
    """
    src = g.source
    form = _lift_form(g, dq)
    pad = form.width - g.target.rank - src.rank  # the annihilation rows kept
    sol = graph_solution(form, _scaled(g.target, y) + (0,) * pad)
    if sol is None:
        return None
    x = src.reduce(sol)
    if g.apply(x) != y or any(src.smul(dq, x)):
        raise InternalConsistencyError("left-factor solver returned a non-solution")
    return x


def solve_left_factor(g: ModuleMorphism, psi: ModuleMorphism) -> Optional[ModuleMorphism]:
    """Some j with g o j == psi, or None.  Columns are independent, so each
    source generator of psi is lifted on its own, against the graph form of
    g at the generator's order, and `_lift_column` verifies each lift, which
    makes j well defined and g o j == psi column by column."""
    if g.target != psi.target:
        raise InputError("solve_left_factor: targets differ")
    if g.source.ring != psi.source.ring:
        raise InputError("solve_left_factor: ring mismatch")
    cols = []
    for dq, y in zip(psi.source.invariant_factors, psi.columns):
        sol = _lift_column(g, dq, y)
        if sol is None:
            return None
        cols.append(sol)
    return ModuleMorphism._trusted(psi.source, g.source, tuple(cols))


def torsion_image(g: ModuleMorphism, d: int) -> Submodule:
    """g(X[d]) as a subgroup of g.target, X = g.source and X[d] its d-torsion.

    X[d] is generated by (d_i / gcd(d_i, d)) e_i over the source factors
    d_i, so a column y lifts through g to some x with d * x == 0, the lift
    `_lift_column` reads off `_lift_form(g, d)`, exactly when y lies in this
    subgroup.  Membership decides that without building the form.
    """
    return Submodule(g.target, tuple(
        tuple(c * (di // gcd(di, d)) for c in col)
        for di, col in zip(g.source.invariant_factors, g.columns)))


def _kernel_column_gens(g: ModuleMorphism, dq: int) -> list[tuple[int, ...]]:
    """Generators of {x in g.source : g(x) == 0, dq * x == 0}: the rows of
    `_lift_form(g, dq)` leading in the x block, each re-checked."""
    src = g.source
    gens = []
    form = _lift_form(g, dq)
    for v in graph_kernel(form, form.width - src.rank):
        x = src.reduce(v)
        if any(g.apply(x)) or any(src.smul(dq, x)):
            raise InternalConsistencyError("kernel generator fails annihilation check")
        if any(x):
            gens.append(x)
    return gens


def left_factor_kernel_columns(g: ModuleMorphism, source: FiniteModule) -> list[list[tuple[int, ...]]]:
    """Per-column generating sets for {j : source -> g.source with g o j == 0}.

    Column q of such a j ranges over {x : g(x) == 0, d_q * x == 0}, which
    depends on the order d_q alone, so each distinct order is solved once
    and each of its columns gets a copy of the generators.
    """
    gens = {d: _kernel_column_gens(g, d) for d in set(source.invariant_factors)}
    return [list(gens[d]) for d in source.invariant_factors]


def invert_automorphism(j: ModuleMorphism) -> ModuleMorphism:
    inv = solve_left_factor(j, ModuleMorphism.identity(j.target))
    if inv is None or compose(inv, j) != ModuleMorphism.identity(j.source):
        raise InternalConsistencyError("morphism is not invertible")
    return inv


# ---------------------------------------------------------------------------
# direct sums, pushouts, colimits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectSum:
    module: FiniteModule
    injections: tuple[ModuleMorphism, ...]
    projections: tuple[ModuleMorphism, ...]

    def copair(self, legs: Sequence[ModuleMorphism]) -> ModuleMorphism:
        """The morphism out of the sum that is legs[i] on summand i: the sum
        of each leg after its projection."""
        return reduce(ModuleMorphism.__add__, (
            compose(leg, proj) for leg, proj in zip(legs, self.projections, strict=True)))


def direct_sum(summands: Sequence[FiniteModule]) -> DirectSum:
    """Canonical biproduct with injections and projections."""
    if not summands:
        raise InputError("direct_sum needs at least one summand")
    ring = summands[0].ring
    if any(m.ring != ring for m in summands):
        raise InputError("direct_sum: ring mismatch")
    concat = [d for m in summands for d in m.invariant_factors]
    factors, proj_cols, lift_cols = _quotient_structure(ring.modulus, len(concat),
                                                        diagonal=concat)
    module = FiniteModule(ring, factors)
    injections = []
    projections = []
    off = 0
    for m in summands:
        end = off + m.rank
        injections.append(ModuleMorphism._trusted(m, module, tuple(proj_cols[off:end])))
        projections.append(ModuleMorphism._trusted(
            module, m, tuple(m.reduce(col[off:end]) for col in lift_cols)))
        off = end
    return DirectSum(module, tuple(injections), tuple(projections))


@dataclass(frozen=True)
class Pushout:
    """Pushout of u: K -> M and v: K -> K' with the two structural maps."""

    module: FiniteModule
    u_prime: ModuleMorphism  # from v.target
    v_prime: ModuleMorphism  # from u.target
    u: ModuleMorphism
    v: ModuleMorphism
    _sum: DirectSum
    _quotient: QuotientData


def pushout(u: ModuleMorphism, v: ModuleMorphism) -> Pushout:
    """Pushout computed as the cokernel of (v, -u): K -> K' + M."""
    if u.source != v.source:
        raise InputError("pushout: the two morphisms must share their source")
    ds = direct_sum((v.target, u.target))
    w = compose(ds.injections[0], v) - compose(ds.injections[1], u)
    qd = quotient_by(ds.module, w.columns)
    u_prime = compose(qd.projection, ds.injections[0])
    v_prime = compose(qd.projection, ds.injections[1])
    if compose(u_prime, v) != compose(v_prime, u):
        raise InternalConsistencyError("pushout square does not commute")
    return Pushout(qd.module, u_prime, v_prime, u, v, ds, qd)


def pushout_mediating(po: Pushout, a: ModuleMorphism, b: ModuleMorphism) -> ModuleMorphism:
    """The unique m with m o u' == a and m o v' == b, for a commuting cone."""
    if a.source != po.v.target or b.source != po.u.target or a.target != b.target:
        raise InputError("pushout_mediating: cone legs have wrong endpoints")
    if compose(a, po.v) != compose(b, po.u):
        raise InputError("pushout_mediating: cone does not commute")
    m = po._quotient.induced(po._sum.copair((a, b)))
    if compose(m, po.u_prime) != a or compose(m, po.v_prime) != b:
        raise InternalConsistencyError("mediating morphism failed its equations")
    return m


@dataclass
class Diagram:
    """A finite chain M_0 -> M_1 -> ... -> M_(L-1) of modules: its objects
    and the L - 1 steps between consecutive ones.  A chain is functorial by
    construction, so a transition i -> j is the composite of the steps
    between and is never stored."""

    objects: Sequence[FiniteModule]
    steps: Sequence[ModuleMorphism]

    def validate(self) -> None:
        if not self.objects:
            raise InputError("a directed system needs at least one object")
        if len(self.steps) != len(self.objects) - 1:
            raise InputError("a chain needs one step fewer than objects")
        for i, g in enumerate(self.steps):
            if g.source != self.objects[i] or g.target != self.objects[i + 1]:
                raise InputError(f"step {i} does not map object {i} to object {i + 1}")


@dataclass(frozen=True)
class Colimit:
    """A finite directed colimit: the last object of the chain, with the
    transitions into it as structural maps, by position."""

    module: FiniteModule
    structural: tuple[ModuleMorphism, ...]


def directed_colimit(diagram: Diagram) -> Colimit:
    """Colimit of a finite chain: its last object."""
    diagram.validate()
    return _colimit_at_top(diagram)


def _colimit_at_top(diagram: Diagram) -> Colimit:
    """The colimit of a validated chain.  The last index t is terminal in
    the index category, so the colimit is M_t with the identity at t; each
    structural map below is the one above it after the step between, one
    compose per step."""
    structural = [ModuleMorphism.identity(diagram.objects[-1])]
    for g in reversed(diagram.steps):
        structural.append(compose(structural[-1], g))
    return Colimit(diagram.objects[-1], tuple(reversed(structural)))


def colimit_mediating(colim: Colimit, cone: Sequence[ModuleMorphism]) -> ModuleMorphism:
    """The unique morphism out of the colimit agreeing with a commuting
    cone, given by position: its leg at the top."""
    if len(cone) != len(colim.structural):
        raise InputError("colimit_mediating: cone must cover every object")
    if len({f.target for f in cone}) != 1:
        raise InputError("colimit_mediating: cone legs must share a target")
    m = cone[-1]
    for s, leg in zip(colim.structural, cone):
        if compose(m, s) != leg:
            raise InputError("colimit_mediating: cone does not commute with the diagram")
    return m


# ---------------------------------------------------------------------------
# projectivity, purity
# ---------------------------------------------------------------------------

def is_projective(m: FiniteModule) -> bool:
    """Over Z/n the projectives are sums of the full local factors Z/p^(k_p):
    every prime dividing an invariant factor must appear with full multiplicity."""
    full = m.ring.factorization
    for d in m.invariant_factors:
        for p, e in factorize(d):
            if e != full[p]:
                return False
    return True


def indecomposable_projectives(ring: Ring) -> tuple[FiniteModule, ...]:
    return tuple(FiniteModule.cyclic(ring, p ** e)
                 for p, e in sorted(ring.factorization.items()))


def _proper_prime_powers(n: int) -> tuple[int, ...]:
    """The p^k with 1 <= k < v_p(n), ascending.  The lowest divisor d of n
    with S meet d*M != d*S is always one of them: on the p-part, d acts as a
    unit times p^(v_p(d)), which is zero once v_p(d) >= v_p(n) (Fuchs,
    "Infinite Abelian Groups I", section 26)."""
    return tuple(sorted(p ** k for p, e in factorize(n) for k in range(1, e)))


@dataclass(frozen=True)
class PurityForms:
    """What the purity test of S read (`purity_forms`): for each proper
    prime power d it reached, the Howell forms of the image of S in M/d*M
    and of d*S, and the lowest d at which S is not pure, or None.  The
    forms are empty when S passed the summand certificate."""

    sub: Submodule
    forms: dict[int, tuple[HowellForm, HowellForm]]
    impure_at: Optional[int]


def purity_forms(sub: Submodule, below: Optional[PurityForms] = None) -> PurityForms:
    """The lowest proper prime power d of n with S meet d*M != d*S, decided
    from sizes as `is_pure_submodule` describes, with the forms it read.

    Both forms at d are linear images of S, of the rows
    v -> (d_i / gcd(d, d_i)) v_i and v -> d v of any generating set, and
    each is built by inserting such rows into a base form (`howell_insert`).
    When `below` holds the forms at d of a submodule whose generators are a
    prefix of S's, the base is below's forms and the rows are the images of
    S's other generators; at any other d, and for any other `below`, the
    base is the zero form, where `howell_form` starts, and the rows are the
    images of S's Howell rows.  A chain walk hands each step the forms of
    the step below and keeps no others.  Where the image has S's size, S
    meets d*M in zero, so d*S is zero: its form is known without building
    one."""
    amb = sub.ambient
    n = amb.ring.modulus
    t = amb.rank
    factors = amb.invariant_factors
    hs = sub.howell
    if all(row[j] == n // factors[j] for row, j in zip(hs.rows, hs.pivots)):
        return PurityForms(sub, {}, None)
    added = None
    if below is not None and below.forms and below.sub.ambient == amb:
        prefix = below.sub.generators
        if sub.generators[:len(prefix)] == prefix:
            added = [_scaled(amb, g) for g in sub.generators[len(prefix):]]
    card = hs.cardinality
    zero = HowellForm(n, t, (), ())
    forms: dict[int, tuple[HowellForm, HowellForm]] = {}
    for d in _proper_prime_powers(n):
        kill = [dd // gcd(d, dd) for dd in factors]
        prior = None if added is None else below.forms.get(d)
        base, rows = ((zero, zero), hs.rows) if prior is None else (prior, added)
        image = howell_insert(base[0], [[k * x for k, x in zip(kill, row)] for row in rows])
        if image.cardinality == card:
            dsub = zero
        else:
            dsub = howell_insert(base[1], [[d * x for x in row] for row in rows])
        forms[d] = (image, dsub)
        if image.cardinality * dsub.cardinality != card:
            return PurityForms(sub, forms, d)
    return PurityForms(sub, forms, None)


def is_pure_submodule(sub: Submodule) -> bool:
    """Bounded-exponent purity: S meets d*M in d*S for every divisor d of n,
    decided from sizes read off Howell bases; no witness is searched.

    Certificate: if every reduced Howell row of S leads at its column j with
    n/d_j, the scaled 1 of Z/d_j, the entries above each lead are 0, so S
    projects onto the sum of Z/d_j over its lead columns, bijectively as |S|
    is their product: S is a direct summand, so pure, and no form is built.
    Otherwise, at each proper prime power d (`_proper_prime_powers`), S meet
    d*M is the kernel on S of M -> M/d*M, v_i -> (d_i / gcd(d, d_i)) v_i,
    and contains d*S: S is pure at d iff |S| = |image in M/d*M| * |d*S|,
    two Howell forms of width t.  The tests and the suite cross-check this
    over every divisor (enumeration, witness search,
    `oracles.is_direct_summand`).
    """
    return purity_forms(sub).impure_at is None


def impurity(sub: Submodule) -> Optional[tuple[int, tuple[int, ...]]]:
    """Why S is not pure: the lowest proper prime power d of n at which it
    fails and the lexicographically lowest witness s in (S meet d*M) \\ d*S,
    or None when S is pure."""
    d = purity_forms(sub).impure_at
    if d is None:
        return None
    s = _purification_witness(sub, d)
    if s is None:
        raise InternalConsistencyError("purity sizes differ but no witness was found")
    return d, s


def pure_closure(sub: Submodule) -> Submodule:
    """A pure submodule containing the given one; see pure_closure_counted."""
    return pure_closure_counted(sub)[0]


def _purification_witness(sub: Submodule, d: int) -> Optional[tuple[int, ...]]:
    """The lexicographically lowest s in (S meet d*M) \\ d*S, or None.

    Read off the Howell bases of A = S meet d*M and B = d*S <= A in the
    scaled coordinates.  A and B agree on the vectors vanishing before
    column j iff their leading entries agree at every column >= j.  At the
    largest column j where they differ, the lowest element of A \\ B
    vanishes before j, carries A's leading entry there, and is the lowest
    vector of its coset modulo the part of A vanishing through j: the
    reduced Howell row of A leading at j.
    """
    amb = sub.ambient
    n = amb.ring.modulus
    t = amb.rank
    hs = sub.howell
    # S meet d*M is the kernel on S of v -> (d_i / gcd(d, d_i)) v_i: the
    # rows of the Howell basis of {(D v | v)} leading in the second half
    kill = [dd // gcd(d, dd) for dd in amb.invariant_factors]
    stacked = howell_form([[k * x for k, x in zip(kill, row)] + list(row)
                           for row in hs.rows], n, 2 * t)
    lower = [k for k, j in enumerate(stacked.pivots) if j >= t]
    inter = HowellForm(n, t, tuple(stacked.rows[k][t:] for k in lower),
                       tuple(stacked.pivots[k] - t for k in lower))
    ds = howell_form([[d * x for x in row] for row in hs.rows], n, t)
    for j in reversed(range(t)):
        if inter.pivot_entry(j) != ds.pivot_entry(j):
            return _unscaled(amb, inter.rows[inter.pivots.index(j)])
    return None


def _lowest_scalar_preimage(amb: FiniteModule, d: int,
                            s: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically lowest m with d * m == s.  The kernel of d* is
    the coordinate subgroup of multiples of e_i / gcd(d, e_i), so coordinate
    i is the lowest solution of d * m_i == s_i (mod e_i)."""
    out = []
    for si, e in zip(s, amb.invariant_factors):
        g = gcd(d, e)
        if si % g:
            raise InternalConsistencyError("witness has no preimage under multiplication")
        step = e // g
        out.append((si // g) * pow(d // g, -1, step) % step)
    return tuple(out)


def pure_closure_counted(sub: Submodule) -> tuple[Submodule, int]:
    """Deterministic purification: for the lowest divisor d of n with a
    witness, adjoin the lexicographically lowest m with d*m == s, s the
    lexicographically lowest witness in (S meet d*M) \\ d*S; repeat.
    Terminates by strict growth.

    Each round decides purity from sizes first (`is_pure_submodule`); they
    also name the lowest failing d, and only then is a witness searched, at
    that d alone (`impurity`).  The last round searches for none.

    Returns the purified submodule and the number of adjoined witnesses.
    """
    amb = sub.ambient
    cur = sub
    witnesses = 0
    while True:
        found = impurity(cur)
        if found is None:
            return cur, witnesses
        cur = cur.join([_lowest_scalar_preimage(amb, *found)])
        witnesses += 1
