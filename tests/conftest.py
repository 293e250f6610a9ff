"""Shared hypothesis strategies for modules, morphisms and submodules, and
shared fixtures."""

from math import gcd

import hypothesis.strategies as st
import pytest

from phantomcover.finmod import Diagram, FiniteModule, ModuleMorphism, Ring, Submodule, factorize

MODULI = [2, 3, 4, 6, 8, 9, 12]


@st.composite
def rings(draw, moduli=tuple(MODULI)):
    return Ring(draw(st.sampled_from(list(moduli))))


@st.composite
def modules(draw, ring, max_card=64, max_rank=4):
    divs = sorted(d for d in ring.divisors() if d >= 2)
    picks = draw(st.lists(st.sampled_from(divs), max_size=max_rank))
    factors = []
    card = 1
    for d in picks:
        if factors:
            d = d * factors[-1] // gcd(d, factors[-1])
        if ring.modulus % d != 0 or card * d > max_card:
            continue
        factors.append(d)
        card *= d
    return FiniteModule(ring, tuple(factors))


@st.composite
def elements(draw, module):
    return tuple(draw(st.integers(0, d - 1)) for d in module.invariant_factors)


@st.composite
def morphisms(draw, source, target):
    rows = []
    for ei in target.invariant_factors:
        row = []
        for dj in source.invariant_factors:
            g = gcd(dj, ei)
            row.append((ei // g) * draw(st.integers(0, g - 1)))
        rows.append(tuple(row))
    return ModuleMorphism(source, target, tuple(rows))


@st.composite
def endomorphisms(draw, max_card=64):
    ring = draw(rings())
    m = draw(modules(ring, max_card=max_card))
    return draw(morphisms(m, m))


@st.composite
def arbitrary_morphisms(draw, max_card=64, ring=None):
    if ring is None:
        ring = draw(rings())
    src = draw(modules(ring, max_card=max_card))
    tgt = draw(modules(ring, max_card=max_card))
    return draw(morphisms(src, tgt))


@st.composite
def submodules(draw, ambient, max_gens=3):
    gens = draw(st.lists(elements(ambient), max_size=max_gens))
    return Submodule(ambient, tuple(gens))


@st.composite
def modules_with_submodule(draw, max_card=64):
    ring = draw(rings())
    m = draw(modules(ring, max_card=max_card))
    return m, draw(submodules(m))


def projective_divisors(ring):
    """Divisors of n that are products of full local factors p^(v_p(n))."""
    full = ring.factorization
    return [d for d in ring.divisors()
            if d >= 2 and all(e == full[p] for p, e in factorize(d))]


@st.composite
def projective_modules(draw, ring, max_card=64, max_rank=3):
    divs = projective_divisors(ring)
    picks = draw(st.lists(st.sampled_from(divs), max_size=max_rank))
    factors = []
    card = 1
    for d in picks:
        if factors:
            d = d * factors[-1] // gcd(d, factors[-1])
        if ring.modulus % d != 0 or card * d > max_card:
            continue
        factors.append(d)
        card *= d
    return FiniteModule(ring, tuple(factors))


@st.composite
def phantom_morphisms(draw, ring, max_card=64):
    """A morphism factoring through a projective: every phantom arises so."""
    from phantomcover.finmod import compose

    src = draw(modules(ring, max_card=max_card))
    mid = draw(projective_modules(ring, max_card=max_card))
    tgt = draw(modules(ring, max_card=max_card))
    return compose(draw(morphisms(mid, tgt)), draw(morphisms(src, mid)))


@st.composite
def automorphisms(draw, m, max_steps=4):
    """Random automorphism built from elementary invertible operations."""
    from phantomcover.finmod import compose

    cur = ModuleMorphism.identity(m)
    k = m.rank
    if k == 0:
        return cur
    fac = m.invariant_factors
    for _ in range(draw(st.integers(0, max_steps))):
        kind = draw(st.sampled_from(["unit", "transvection", "swap"]))
        rows = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
        if kind == "unit":
            i = draw(st.integers(0, k - 1))
            units = [u for u in range(1, fac[i]) if gcd(u, fac[i]) == 1]
            rows[i][i] = draw(st.sampled_from(units))
        elif kind == "transvection" and k >= 2:
            i = draw(st.integers(0, k - 1))
            j = draw(st.integers(0, k - 1).filter(lambda x: x != i))
            g = gcd(fac[j], fac[i])
            rows[i][j] = (fac[i] // g) * draw(st.integers(0, g - 1))
        elif kind == "swap" and k >= 2:
            pairs = [(a, b) for a in range(k) for b in range(a + 1, k)
                     if fac[a] == fac[b]]
            if not pairs:
                continue
            a, b = draw(st.sampled_from(pairs))
            rows[a][a] = rows[b][b] = 0
            rows[a][b] = rows[b][a] = 1
        cur = compose(ModuleMorphism(m, m, tuple(tuple(r) for r in rows)), cur)
    return cur


@st.composite
def pure_monos_from(draw, k, max_extra_card=16):
    """A pure monomorphism out of k: inject into k + T, then twist by an
    automorphism of the target (purity of the image is preserved)."""
    from phantomcover.finmod import compose, direct_sum

    t = draw(modules(k.ring, max_card=max_extra_card))
    ds = direct_sum((k, t))
    alpha = draw(automorphisms(ds.module))
    return compose(alpha, ds.injections[0])


@st.composite
def nonphantom_morphisms(draw, ring, max_card=16):
    """Guaranteed non-phantom morphism over a non-semisimple ring.

    The identity on Z/p with p ramified in n never factors through a
    projective, and direct-summing with anything preserves that.
    """
    from phantomcover.finmod import compose, direct_sum

    p = next(p for p, e in sorted(ring.factorization.items()) if e >= 2)
    zp = FiniteModule.cyclic(ring, p)
    src = draw(modules(ring, max_card=max_card))
    tgt = draw(modules(ring, max_card=max_card))
    g = draw(morphisms(src, tgt))
    a = direct_sum((zp, src))
    b = direct_sum((zp, tgt))
    return (compose(b.injections[0],
                    compose(ModuleMorphism.identity(zp), a.projections[0]))
            + compose(b.injections[1], compose(g, a.projections[1])))


@pytest.fixture
def diagram_validate_calls(monkeypatch):
    """The diagrams `Diagram.validate` is called on, in call order."""
    calls = []
    real = Diagram.validate

    def counted(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(Diagram, "validate", counted)
    return calls
