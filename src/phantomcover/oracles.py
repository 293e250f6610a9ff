"""Brute-force reference computations used by the verification suite and the
test oracles.  Everything here proceeds by enumeration, determinant
arithmetic or a second route to the same answer, and deliberately avoids
the production algorithm it checks."""

from __future__ import annotations

from itertools import combinations, product
from math import gcd
from operator import mul
from typing import Optional

from .approx import module_classes
from .errors import InternalConsistencyError
from .exact_linalg import IntMatrix, determinant, smith_normal_form
from .finmod import (
    FiniteModule,
    ModuleMorphism,
    Submodule,
    compose,
    element_preimage,
    hom_group,
    indecomposable_projectives,
    multiplication_map,
)
from .ideals import ProjectiveFactorization, factors_through_projective, free_cover_epi


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
