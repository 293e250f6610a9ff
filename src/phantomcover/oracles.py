"""Brute-force reference computations used by the verification suite and the
test oracles.  Everything here proceeds by enumeration, determinant
arithmetic or a second route to the same answer, and deliberately avoids
the production algorithm it checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .approx import module_classes
from .errors import InputError, InternalConsistencyError
from .exact_linalg import IntMatrix, _xgcd, solve_mod
from .finmod import (
    Diagram,
    DirectSum,
    FiniteModule,
    ModuleMorphism,
    Pushout,
    QuotientData,
    Submodule,
    compose,
    direct_sum,
    hom_group,
    indecomposable_projectives,
    quotient_by,
    subgroup_presentation,
)
from .ideals import ProjectiveFactorization, factors_through_projective, free_cover_epi


def determinant(a: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise InputError("determinant: matrix must be square")
    k = a.rows
    if k == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for t in range(k - 1):
        if m[t][t] == 0:
            swap = next((i for i in range(t + 1, k) if m[i][t] != 0), None)
            if swap is None:
                return 0
            m[t], m[swap] = m[swap], m[t]
            sign = -sign
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
            m[i][t] = 0
        prev = m[t][t]
    return sign * m[k - 1][k - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ... >= 0.

    U^-1 is tracked beside U.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def _min_abs_pivot(d: list[list[int]], t: int, m: int, n: int) -> Optional[tuple[int, int]]:
    best = None
    best_abs = None
    for i in range(t, m):
        di = d[i]
        for j in range(t, n):
            x = di[j]
            if x != 0:
                a = -x if x < 0 else x
                if best_abs is None or a < best_abs:
                    best_abs = a
                    best = (i, j)
                    if a == 1:
                        return best
    return best


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Integer Smith normal form with deterministic minimum-absolute-value
    pivoting, ties broken by lowest (row, col), so decompositions are
    reproducible.  The reference for `finmod._quotient_structure`, which
    computes the canonical form over Z/n instead.

    Entries are cleared by unimodular 2x2 extended-gcd transforms, which
    reach the gcd in one step per entry and keep intermediate growth tame.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = [[0] * m for _ in range(m)]
    uinv = [[0] * m for _ in range(m)]
    for i in range(m):
        u[i][i] = uinv[i][i] = 1
    v = [[0] * n for _ in range(n)]
    for j in range(n):
        v[j][j] = 1
    # row ops act on the rows of d and u and, inverted, on the columns of
    # uinv; column ops act on the columns of d and v
    row_mats = (d, u)
    col_mats = (d, v)

    def swap_rows(i, j):
        for mat in row_mats:
            mat[i], mat[j] = mat[j], mat[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for mat in col_mats:
            for r in mat:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src; the inverse is a column op on uinv
        for mat in row_mats:
            mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]
        for r in uinv:
            r[src] -= q * r[dst]

    def add_col(dst, src, q):
        for mat in col_mats:
            for r in mat:
                r[dst] += q * r[src]

    def row_gcd_transform(t, i, e11, e12, e21, e22):
        # rows (t, i) <- E * rows (t, i) with det(E) == 1
        for mat in row_mats:
            rt, ri = mat[t], mat[i]
            mat[t] = [e11 * x + e12 * y for x, y in zip(rt, ri)]
            mat[i] = [e21 * x + e22 * y for x, y in zip(rt, ri)]
        # uinv <- uinv * E^-1, E^-1 = [[e22, -e12], [-e21, e11]]
        for r in uinv:
            x, y = r[t], r[i]
            r[t] = e22 * x - e21 * y
            r[i] = -e12 * x + e11 * y

    def col_gcd_transform(t, j, f11, f21, f12, f22):
        # cols (t, j) <- cols (t, j) * F, F = [[f11, f12], [f21, f22]], det 1
        for mat in col_mats:
            for r in mat:
                x, y = r[t], r[j]
                r[t] = x * f11 + y * f21
                r[j] = x * f12 + y * f22

    def negate_row(i):
        for mat in row_mats:
            mat[i] = [-x for x in mat[i]]
        for r in uinv:
            r[i] = -r[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = _min_abs_pivot(d, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if d[t][t] < 0:
            negate_row(t)
        while True:
            refill = False
            for i in range(t + 1, m):
                b = d[i][t]
                if b == 0:
                    continue
                p = d[t][t]
                if b % p == 0:
                    add_row(i, t, -(b // p))
                else:
                    g, s, w = _xgcd(p, b)
                    row_gcd_transform(t, i, s, w, -(b // g), p // g)
                    refill = True  # row t changed; its row entries need re-clearing
            for j in range(t + 1, n):
                b = d[t][j]
                if b == 0:
                    continue
                p = d[t][t]
                if b % p == 0:
                    add_col(j, t, -(b // p))
                else:
                    g, s, w = _xgcd(p, b)
                    col_gcd_transform(t, j, s, w, -(b // g), p // g)
                    refill = True  # column t was refilled below row t
            if refill:
                continue
            offender = None
            pivot = d[t][t]
            for i in range(t + 1, m):
                di = d[i]
                for j in range(t + 1, n):
                    if di[j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull a non-divisible entry into row t; the next pass strictly
            # divides the pivot down, so this terminates
            add_row(t, offender, 1)
        t += 1

    def pack(rows, width):
        return IntMatrix(len(rows), width, tuple(chain.from_iterable(rows)))

    return SmithDecomposition(u=pack(u, m), d=pack(d, n), v=pack(v, n),
                              u_inv=pack(uinv, m))


def _element_system(n: int, moduli: Sequence[int], columns: Sequence[Sequence[int]],
                    rhs: Sequence[int]) -> tuple[IntMatrix, list[int]]:
    """The congruences sum_j x_j * columns[j][k] == rhs[k] (mod moduli[k]),
    each modulus dividing n, as one system over Z/n: row k is scaled by
    n / moduli[k].  Every solver route's congruence system goes through here."""
    rows = []
    b = []
    for k, m in enumerate(moduli):
        s = n // m
        rows.append([s * col[k] for col in columns])
        b.append(s * rhs[k])
    return IntMatrix.from_rows(rows, cols=len(columns)), b


def element_preimage(f: ModuleMorphism, y: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The lexicographically lowest x with f(x) == y, or None, from one
    `solve_mod` system."""
    y = f.target.reduce(y)
    n = f.source.ring.modulus
    sol = solve_mod(*_element_system(n, f.target.invariant_factors, f.columns, y), n)
    if sol is None:
        return None
    return f.source.reduce(sol)


def mediating_by_solver(po: Pushout, a: ModuleMorphism,
                        b: ModuleMorphism) -> Optional[ModuleMorphism]:
    """A second route to `pushout_mediating`: solve the hom-level system
    row by row with the modular solver, or None when a row has no solution."""
    x = po.module
    c_mod = a.target
    n = x.ring.modulus
    # unknown q is entry q of a row of m: m o u' == a and m o v' == b on
    # that row, and the row kills d_q * e_q
    cols = [ur + vr + tuple(dq if qq == q else 0 for qq in range(x.rank))
            for q, (dq, ur, vr) in enumerate(zip(x.invariant_factors, po.u_prime.matrix,
                                                po.v_prime.matrix))]
    rows_out = []
    for ci, ar, br in zip(c_mod.invariant_factors, a.matrix, b.matrix):
        rhs = ar + br + (0,) * x.rank
        sol = solve_mod(*_element_system(n, [ci] * len(rhs), cols, rhs), n)
        if sol is None:
            return None
        rows_out.append(sol)
    return ModuleMorphism(x, c_mod, tuple(tuple(r) for r in rows_out))


@dataclass(frozen=True)
class GluedColimit:
    """A directed colimit presented as the direct sum of every object modulo
    the gluing relations, with its structural maps by position."""

    module: FiniteModule
    structural: tuple[ModuleMorphism, ...]
    _sum: DirectSum
    _quotient: QuotientData

    def mediating(self, cone: Sequence[ModuleMorphism]) -> ModuleMorphism:
        """The map out of the quotient induced by the copairing of the cone."""
        if len(cone) != len(self.structural):
            raise InputError("mediating: cone must cover every object")
        m = self._quotient.induced(self._sum.copair(cone))
        for s, leg in zip(self.structural, cone):
            if compose(m, s) != leg:
                raise InputError("mediating: cone does not commute with the diagram")
        return m


def colimit_by_gluing(diagram: Diagram) -> GluedColimit:
    """A second route to `directed_colimit`: the direct sum of all objects
    modulo the relations (x at i) - (g_i(x) at i + 1) along each step g_i,
    through `quotient_by`.  They span the relations along every composite:
    (x at i) - (g(x) at j) telescopes into step relations."""
    diagram.validate()
    ds = direct_sum(diagram.objects)
    inj = ds.injections
    rels = [ds.module.sub(x, inj[i + 1].apply(y))
            for i, g in enumerate(diagram.steps) for x, y in zip(inj[i].columns, g.columns)]
    qd = quotient_by(ds.module, rels)
    structural = tuple(compose(qd.projection, j) for j in inj)
    for i, g in enumerate(diagram.steps):
        if compose(structural[i + 1], g) != structural[i]:
            raise InternalConsistencyError("colimit structural maps do not commute")
    return GluedColimit(qd.module, structural, ds, qd)


def is_direct_summand(sub: Submodule) -> Optional[ModuleMorphism]:
    """A retraction r with r o embedding == id onto the canonical presentation
    of the submodule, or None.  Rows of r are solved independently.  Over
    Z/n a submodule is pure exactly when it is a direct summand, so this is
    the second route to `finmod.is_pure_submodule`."""
    amb = sub.ambient
    k, emb = subgroup_presentation(sub)
    if k.rank == 0:
        return ModuleMorphism.zero_map(amb, k)
    n = amb.ring.modulus
    t = amb.rank
    # unknown q is entry q of a row of r: r o emb == id on that row, and
    # the row kills d_q * e_q
    cols = [row + tuple(dq if qq == q else 0 for qq in range(t))
            for q, (dq, row) in enumerate(zip(amb.invariant_factors, emb.matrix))]
    rows_out = []
    for i, ki in enumerate(k.invariant_factors):
        rhs = [1 if l == i else 0 for l in range(k.rank)] + [0] * t
        sol = solve_mod(*_element_system(n, [ki] * (k.rank + t), cols, rhs), n)
        if sol is None:
            return None
        rows_out.append(sol)
    r = ModuleMorphism(amb, k, tuple(tuple(row) for row in rows_out))
    if compose(r, emb) != ModuleMorphism.identity(k):
        raise InternalConsistencyError("retraction failed its defining equation")
    return r


def multiplication_map(m: FiniteModule, d: int) -> ModuleMorphism:
    """Multiplication by the scalar d as an endomorphism."""
    return ModuleMorphism(m, m, tuple(
        tuple(d if i == j else 0 for j in range(m.rank)) for i in range(m.rank)))


def minor_gcd_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """Smith diagonal from the minor-gcd formula: d_k is the gcd of all k x k
    minors divided by the gcd of all (k-1) x (k-1) minors."""
    limit = min(a.rows, a.cols)
    out = []
    prev = 1
    for k in range(1, limit + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                sub = IntMatrix.from_rows(
                    [[a.at(i, j) for j in cols] for i in rows], cols=k)
                g = gcd(g, determinant(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0 or prev == 0:
            out.append(0)
            prev = 0
        else:
            out.append(g // prev)
            prev = g
    return tuple(out)


def integer_kernel_basis(a: IntMatrix) -> list[list[int]]:
    """Basis of the lattice {x in Z^cols : a @ x == 0}, read off the column
    transform V of the full Smith form: its columns past the rank.  The
    cross-check of `finmod.kernel`, which solves over Z/n instead."""
    s = smith_normal_form(a)
    c = a.cols
    return [list(s.v.entries[k::c]) for k in range(s.rank, c)]


def _partial_images(rows: list[list[int]], n: int, lo: int, hi: int):
    """Every x over columns lo..hi-1, in lexicographic order, with the image
    of x under those columns of the rows, mod n."""
    part = [row[lo:hi] for row in rows]
    for x in product(range(n), repeat=hi - lo):
        yield x, tuple([sum(map(mul, r, x)) % n for r in part])


def _tails_by_image(rows: list[list[int]], n: int, h: int, cols: int) -> dict:
    """Image of the tail columns h.. -> every tail with that image, lowest first."""
    tails: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for tail, v in _partial_images(rows, n, h, cols):
        tails.setdefault(v, []).append(tail)
    return tails


def exhaustive_solve_mod(a: IntMatrix, b: list[int], n: int) -> Optional[list[int]]:
    """First solution of a @ x == b (mod n) in lexicographic order, or None.

    Meet in the middle (Horowitz-Sahni): x splits into a head x[:h] and a
    tail x[h:] with h = cols // 2.  The first head in lexicographic order
    whose remainder b - A_head x_head is the image of some tail, joined to
    the lowest such tail, is the lowest whole solution.
    """
    rows = a.to_rows()
    target = [bi % n for bi in b]
    h = a.cols // 2
    tails = _tails_by_image(rows, n, h, a.cols)
    for head, v in _partial_images(rows, n, 0, h):
        hit = tails.get(tuple([(t - s) % n for t, s in zip(target, v)]))
        if hit:
            return list(head + hit[0])
    return None


def exhaustive_kernel_mod(a: IntMatrix, n: int) -> set[tuple[int, ...]]:
    """Every x with a @ x == 0 (mod n): heads joined to the tails of opposite image."""
    rows = a.to_rows()
    h = a.cols // 2
    tails = _tails_by_image(rows, n, h, a.cols)
    return {head + tail
            for head, v in _partial_images(rows, n, 0, h)
            for tail in tails.get(tuple([-s % n for s in v]), ())}


def _span(gens, mods: list[int]) -> set[tuple[int, ...]]:
    """Subgroup generated by flat vectors, slot i taken mod mods[i].  Each
    generator g grows the span S to S + <g>: the cosets S + k*g for k = 1, 2, ...
    up to the first k with k*g in S, one list comprehension per coset."""
    span = {tuple([0] * len(mods))}
    for g in gens:
        base = list(span)
        y = tuple([c % m for c, m in zip(g, mods)])
        while y not in span:
            span.update([tuple([(a + b) % m for a, b, m in zip(x, y, mods)])
                         for x in base])
            y = tuple([(a + b) % m for a, b, m in zip(y, g, mods)])
    return span


def additive_closure_mod(gens: list[list[int]], dim: int, n: int) -> set[tuple[int, ...]]:
    """Subgroup of (Z/n)^dim generated by the given vectors."""
    return _span(gens, [n] * dim)


def exhaustive_homs(m: FiniteModule, n: FiniteModule) -> list[ModuleMorphism]:
    """Every morphism m -> n, by direct enumeration of well-defined matrices.

    Valid (i, j) entries are exactly the multiples of e_i / gcd(d_j, e_i);
    the product of those choices walks the full hom set once.
    """
    choices = []
    for i, ei in enumerate(n.invariant_factors):
        for dj in m.invariant_factors:
            g = gcd(dj, ei)
            step = ei // g
            choices.append([step * c for c in range(g)])
    homs = []
    for flat in product(*choices):
        rows = []
        idx = 0
        for _ in range(n.rank):
            rows.append(tuple(flat[idx:idx + m.rank]))
            idx += m.rank
        homs.append(ModuleMorphism(m, n, tuple(rows)))
    return homs


def hom_count(m: FiniteModule, n: FiniteModule) -> int:
    total = 1
    for ei in n.invariant_factors:
        for dj in m.invariant_factors:
            total *= gcd(dj, ei)
    return total


def right_minimal_by_enumeration(phi: ModuleMorphism) -> bool:
    """Every j in End(phi.source) with phi o j == phi is an automorphism,
    by walking the whole endomorphism ring and testing injectivity on the
    elements."""
    x = phi.source
    elts = list(x.elements())
    return all(len({j.apply(e) for e in elts}) == len(elts)
               for j in exhaustive_homs(x, x) if compose(phi, j) == phi)


def phantom_probes(m: FiniteModule) -> tuple[ModuleMorphism, ...]:
    """Probe maps into m: generators of Hom(Z/d, m) for each divisor d of n,
    plus the identity.  Sums of probes are covered because maps that factor
    through projectives form a subgroup."""
    probes = [ModuleMorphism.identity(m)]
    for d in m.ring.divisors():
        if d == 1:
            continue
        probes.extend(hom_group(FiniteModule.cyclic(m.ring, d), m))
    return tuple(probes)


def phantom_by_probes(f: ModuleMorphism) -> bool:
    """Phantom by the definition's quantifier: every composite of f with a
    probe into its source (the identity and generators of Hom(Z/d, source))
    lifts through the free cover of the target."""
    return all(factors_through_projective(compose(f, g)) is not None
               for g in phantom_probes(f.source))


def economical_projective_factorization(f: ModuleMorphism) -> Optional[ProjectiveFactorization]:
    """Factorization through a free module of rank equal to the source rank,
    with the through-image generated by one element per source generator.

    Column q of f must lie in (n / d_q) * target, where d_q is the q-th
    source invariant factor; this holds iff f factors through any projective
    at all, so existence agrees with `ideals.is_phantom` and
    `ideals.factors_through_projective`; the suite cross-checks all three.
    """
    src, tgt = f.source, f.target
    n = src.ring.modulus
    middle = FiniteModule.free(src.ring, src.rank)
    into_cols = []
    through_cols = []
    for q, dq in enumerate(src.invariant_factors):
        scale = n // dq
        into_cols.append([scale if p == q else 0 for p in range(src.rank)])
        w = element_preimage(multiplication_map(tgt, scale), f.column(q))
        if w is None:
            return None
        through_cols.append(w)
    into = ModuleMorphism.from_columns(src, middle, into_cols)
    through = ModuleMorphism.from_columns(middle, tgt, through_cols)
    if compose(through, into) != f:
        raise InternalConsistencyError("economical factorization does not compose to f")
    return ProjectiveFactorization(middle, into, through)


def phantom_probe_set_by_composition(m: FiniteModule,
                                     size_bound: int = 256) -> list[ModuleMorphism]:
    """The bounded phantom probe sweep by composition: pi o t for the
    free-cover epi pi and every generator t of Hom(cls, pi.source) per
    source class, then the generators of Hom(P, m) for the indecomposable
    projectives P.  `approx.phantom_probe_set` writes the same list in
    closed form."""
    pi = free_cover_epi(m)
    probes = []
    for cls in module_classes(m.ring, size_bound):
        for t in hom_group(cls, pi.source):
            probes.append(compose(pi, t))
    for p in indecomposable_projectives(m.ring):
        probes.extend(hom_group(p, m))
    return probes


def subgroup_elements(sub: Submodule) -> frozenset[tuple[int, ...]]:
    """Every element of a generated subgroup, by closure under addition."""
    return frozenset(_span(sub.generators, list(sub.ambient.invariant_factors)))


def lowest_non_member(sub: Submodule) -> Optional[tuple[int, ...]]:
    """First element of the ambient module, in lexicographic order, outside
    the subgroup; None when the subgroup is everything."""
    elts = subgroup_elements(sub)
    return next((x for x in sub.ambient.elements() if x not in elts), None)


def lowest_purification_witness(sub: Submodule, d: int) -> Optional[tuple[int, ...]]:
    """Lowest s in (S meet d*M) \\ d*S in lexicographic order, or None."""
    amb = sub.ambient
    elts = subgroup_elements(sub)
    dm = {amb.smul(d, x) for x in amb.elements()}
    ds = {amb.smul(d, x) for x in elts}
    return min((s for s in elts if s in dm and s not in ds), default=None)
