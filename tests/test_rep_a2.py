import random
from math import gcd, prod

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import elements, modules, morphisms, phantom_morphisms, rings
from phantomcover import rep_a2
from phantomcover.errors import InputError, InternalConsistencyError
from phantomcover.exact_linalg import howell_form
from phantomcover.finmod import (
    FiniteModule,
    ModuleMorphism,
    Ring,
    Submodule,
    _scaled,
    compose,
    direct_sum,
    is_automorphism,
    pure_closure,
    quotient_by,
    same_subgroup,
    slice_generators,
)
from phantomcover.ideals import MorphismIdeal, is_phantom
from phantomcover.rep_a2 import (
    ExtensionCounterexample,
    RepA2,
    RepDiagram,
    RepMorphism,
    SubRep,
    compose_rep,
    extension_counterexample,
    in_ideal_class,
    is_pure_subrep,
    quotient_rep,
    rep_colimit,
    restrict_rep,
    slice_is_phantom,
    slice_phantom_witness,
)

Z4 = Ring(4)


def mod(ring, *factors):
    return FiniteModule(ring, tuple(factors))


def morph(src, tgt, rows):
    return ModuleMorphism(src, tgt, tuple(tuple(r) for r in rows))


def double_rep():
    m = mod(Z4, 4)
    return RepA2(m, m, morph(m, m, [[2]]))


def test_rep_cardinality_is_disjoint_union():
    assert double_rep().cardinality == 8
    assert RepA2.zero(Z4).cardinality == 2


def test_in_ideal_class_examples():
    phant = MorphismIdeal.phantom(Z4)
    assert in_ideal_class(phant, double_rep())
    assert in_ideal_class(phant, RepA2.zero(Z4))
    two = mod(Z4, 2)
    bad = RepA2(two, two, ModuleMorphism.identity(two))
    assert not in_ideal_class(phant, bad)
    assert in_ideal_class(MorphismIdeal.full_hom(Z4), bad)


def test_rep_morphism_square_enforced():
    rep = double_rep()
    with pytest.raises(InputError):
        RepMorphism(rep, RepA2(rep.m1, rep.m2, ModuleMorphism.identity(rep.m1)),
                    ModuleMorphism.identity(rep.m1), ModuleMorphism.identity(rep.m2))


def test_subrep_extending_checks_only_new_generators(monkeypatch):
    # over Z/8 with f the identity: f(2) lies in <2>, f(1) does not
    z8 = Ring(8)
    m = mod(z8, 8)
    rep = RepA2(m, m, ModuleMorphism.identity(m))
    prev = SubRep(rep, Submodule(m, ((2,),)), Submodule(m, ((2,),)))
    applied = []
    real = ModuleMorphism.apply

    def recording(self, x):
        applied.append(tuple(x))
        return real(self, x)

    monkeypatch.setattr(ModuleMorphism, "apply", recording)
    grown = SubRep.extending(prev, ((2,), (4,)), ((2,), (1,)))
    assert applied == [(4,)]
    assert grown == SubRep(rep, grown.s1, grown.s2)
    # the second new generator escapes <2>, whatever the first does
    with pytest.raises(InputError, match="does not carry"):
        SubRep.extending(prev, ((2,), (4,), (1,)), ((2,),))
    # not a prefix in the second component: the old generator 2 escapes <4>
    del applied[:]
    with pytest.raises(InputError, match="does not carry"):
        SubRep.extending(prev, ((2,),), ((4,),))
    assert applied == [(2,)]
    # not a prefix in the first component: every generator is checked
    del applied[:]
    SubRep.extending(prev, ((4,), (2,)), ((2,),))
    assert applied == [(4,), (2,)]
    # an unreduced prefix is not a prefix: 10 is 2 in Z/8, but checked again
    del applied[:]
    SubRep.extending(prev, ((10,), (4,)), ((2,),))
    assert applied == [(2,), (4,)]
    # the generators are read in prev's ambients on the prefix route too
    with pytest.raises(InputError, match="coordinate count"):
        SubRep.extending(SubRep.zero(rep), ((1, 0),), ())
    # and the constructor checks the components' ambients
    with pytest.raises(InputError, match="wrong modules"):
        SubRep(rep, Submodule.zero(mod(z8, 2, 8)), Submodule.zero(m))


def test_contains_submodule_needs_one_ambient():
    # same rank, other factors: no silent reduction into the wrong module
    z8 = Ring(8)
    a, b = mod(z8, 8, 8), mod(z8, 4, 8)
    with pytest.raises(InputError, match="ambient"):
        Submodule.full(a).contains_submodule(Submodule(b, ((1, 1),)))
    rep_a = RepA2(a, a, ModuleMorphism.identity(a))
    rep_b = RepA2(b, b, ModuleMorphism.identity(b))
    with pytest.raises(InputError, match="ambient"):
        SubRep.full(rep_a).contains(SubRep.zero(rep_b))


def test_contains_submodule_reduces_only_unlisted_generators(monkeypatch):
    z8 = Ring(8)
    m = mod(z8, 8, 8)
    big = Submodule(m, ((2, 0), (0, 4)))
    reduced = []
    real = Submodule.contains

    def recording(self, x):
        reduced.append(tuple(x))
        return real(self, x)

    monkeypatch.setattr(Submodule, "contains", recording)
    assert big.contains_submodule(Submodule(m, ((0, 4), (2, 0))))
    assert reduced == []
    assert big.contains_submodule(Submodule(m, ((2, 0), (4, 4))))
    assert reduced == [(4, 4)]
    assert not big.contains_submodule(Submodule(m, ((2, 0), (0, 2))))
    # a listed generator given unreduced is the same element
    assert big.contains_submodule(Submodule(m, ((10, 0),)))
    assert reduced == [(4, 4), (0, 2)]
    # a prefix of big's generators, the zero submodule included, needs
    # no reduction
    assert big.contains_submodule(Submodule(m, ((2, 0),)))
    assert big.contains_submodule(Submodule.zero(m))
    assert reduced == [(4, 4), (0, 2)]
    assert not Submodule(m, ((2, 0),)).contains_submodule(big)


def test_subrep_validation():
    rep = double_rep()
    with pytest.raises(InputError):
        # f carries 1 to 2, which is outside the zero second component
        SubRep(rep, Submodule.full(rep.m1), Submodule.zero(rep.m2))
    good = SubRep(rep, Submodule.full(rep.m1), Submodule(rep.m2, ((2,),)))
    assert good.cardinality == 4 + 2


def test_is_pure_subrep_examples():
    rep = double_rep()
    assert is_pure_subrep(SubRep.full(rep))
    assert is_pure_subrep(SubRep.zero(rep))
    impure = SubRep(rep, Submodule(rep.m1, ((2,),)), Submodule(rep.m2, ((2,),)))
    assert not is_pure_subrep(impure)


def test_quotient_rep_trivial_cases():
    rep = double_rep()
    q, proj = quotient_rep(SubRep.zero(rep))
    assert q.m1.invariant_factors == rep.m1.invariant_factors
    assert q.f == rep.f  # canonical coordinates are preserved here
    q, _ = quotient_rep(SubRep.full(rep))
    assert q.is_zero


def test_quotient_rep_derived_example():
    # F = (*2 on Z/4), S = ({0,2}, {0,2}): induced map on Z/2 -> Z/2 is zero
    rep = double_rep()
    s = SubRep(rep, Submodule(rep.m1, ((2,),)), Submodule(rep.m2, ((2,),)))
    q, proj = quotient_rep(s)
    assert q.m1.invariant_factors == (2,)
    assert q.m2.invariant_factors == (2,)
    assert q.f.is_zero
    assert compose(proj.s, rep.f) == compose(q.f, proj.d)


def test_restrict_rep_embedding():
    rep = double_rep()
    s = SubRep(rep, Submodule(rep.m1, ((2,),)), Submodule(rep.m2, ((2,),)))
    inner, emb = restrict_rep(s)
    assert inner.m1.invariant_factors == (2,)
    assert compose(emb.s, inner.f) == compose(rep.f, emb.d)


def test_rep_colimit_constant():
    rep = double_rep()
    d = RepDiagram([rep, rep], [RepMorphism.identity(rep)])
    col = rep_colimit(d)
    assert col.rep.m1.invariant_factors == rep.m1.invariant_factors
    assert col.rep.m2.invariant_factors == rep.m2.invariant_factors
    assert is_automorphism(col.structural[0].d)


def test_rep_colimit_chain_of_subreps_reaches_top():
    rep = double_rep()
    sub = SubRep(rep, Submodule(rep.m1, ((2,),)), Submodule(rep.m2, ((2,),)))
    inner, emb = restrict_rep(sub)
    d = RepDiagram([inner, rep], [emb])
    col = rep_colimit(d)
    assert col.rep.m1.invariant_factors == rep.m1.invariant_factors
    assert is_automorphism(col.structural[1].d)
    assert is_automorphism(col.structural[1].s)


def test_rep_colimit_is_the_top_representation():
    # the top representation itself, with R1's own map: a gluing quotient
    # could present the same colimit through an automorphism of B
    ring = Ring(3)
    a, b = mod(ring, 3), mod(ring, 3, 3)
    r0 = RepA2(a, a, morph(a, a, [[0]]))
    r1 = RepA2(b, b, morph(b, b, [[0, 1], [0, 0]]))
    t = RepMorphism(r0, r1, morph(a, b, [[0], [0]]), morph(a, b, [[2], [0]]))
    col = rep_colimit(RepDiagram([r0, r1], [t]))
    assert col.rep == r1
    assert col.structural == (t, RepMorphism.identity(r1))


def test_rep_colimit_validates_each_component_diagram_once(diagram_validate_calls):
    rep = double_rep()
    rep_colimit(RepDiagram([rep, rep, rep], [RepMorphism.identity(rep)] * 2))
    assert len(diagram_validate_calls) == 2


def test_rep_diagram_validate_alone_checks_its_components(diagram_validate_calls):
    # validate alone checks both component chains; where both check out, a
    # step between representations with a different map is still caught
    m = mod(Z4, 4)
    ident = ModuleMorphism.identity(m)
    rep = RepA2(m, m, ident)
    zero = RepA2(m, m, morph(m, m, [[0]]))
    d = RepDiagram([rep, rep], [RepMorphism.identity(rep)])
    d.validate()
    assert len(diagram_validate_calls) == 2
    with pytest.raises(InputError, match="representation step 0 does not map object 0 to"):
        RepDiagram([rep, zero], [RepMorphism.identity(rep)]).validate()
    with pytest.raises(InputError, match="representation step 1 does not map object 1 to"):
        rep_colimit(RepDiagram([rep, rep, zero], [RepMorphism.identity(rep)] * 2))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_rep_colimit_of_phantom_chain_stays_phantom(data):
    ring = data.draw(rings())
    f1 = data.draw(phantom_morphisms(ring, max_card=16))
    rep1 = RepA2.from_morphism(f1)
    # extend by a commuting scalar square, which always exists
    c = data.draw(st.integers(0, ring.modulus - 1))
    scal1 = ModuleMorphism(rep1.m1, rep1.m1, tuple(
        tuple(c if i == j else 0 for j in range(rep1.m1.rank))
        for i in range(rep1.m1.rank)))
    scal2 = ModuleMorphism(rep1.m2, rep1.m2, tuple(
        tuple(c if i == j else 0 for j in range(rep1.m2.rank))
        for i in range(rep1.m2.rank)))
    step = RepMorphism(rep1, rep1, scal1, scal2)
    col = rep_colimit(RepDiagram([rep1, rep1], [step]))
    assert is_phantom(col.rep.f)


def test_rep_morphism_composition_associative():
    rep = double_rep()
    ident = RepMorphism.identity(rep)
    assert compose_rep(ident, compose_rep(ident, ident)) == compose_rep(
        compose_rep(ident, ident), ident)


def test_extension_counterexample_frozen():
    two = mod(Z4, 2)
    result = extension_counterexample(
        MorphismIdeal.phantom(Z4), ModuleMorphism.identity(two))
    assert isinstance(result, ExtensionCounterexample)
    assert result.middle.m1.invariant_factors == (2, 2)
    assert result.middle.f.matrix == ((0, 1), (0, 0))
    assert not result.middle_in_class
    assert result.sub_in_class and result.quotient_in_class


def test_extension_counterexample_zero_ideal():
    two = mod(Z4, 2)
    four = mod(Z4, 4)
    f = morph(two, four, [[2]])
    result = extension_counterexample(MorphismIdeal.zero(Z4), f)
    assert not result.middle_in_class
    assert result.sub_in_class and result.quotient_in_class


def test_extension_counterexample_refusals():
    two = mod(Z4, 2)
    with pytest.raises(InputError):
        extension_counterexample(MorphismIdeal.full_hom(Z4),
                                 ModuleMorphism.identity(two))
    with pytest.raises(InputError):
        extension_counterexample(MorphismIdeal.phantom(Z4),
                                 ModuleMorphism.zero_map(two, two))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_extension_counterexample_property(data):
    from conftest import nonphantom_morphisms

    ring = data.draw(rings(moduli=(4, 8, 9, 12)))
    f = data.draw(nonphantom_morphisms(ring, max_card=16))
    assert not is_phantom(f)
    result = extension_counterexample(MorphismIdeal.phantom(ring), f)
    assert not result.middle_in_class
    assert result.sub_in_class and result.quotient_in_class


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_quotient_by_pure_subrep_of_phantom_is_phantom(data):
    # pure subrepresentations of phantom representations have phantom quotients
    ring = data.draw(rings())
    f = data.draw(phantom_morphisms(ring, max_card=32))
    rep = RepA2.from_morphism(f)
    s1 = pure_closure(Submodule(rep.m1, tuple(
        data.draw(st.lists(st.sampled_from(sorted(rep.m1.elements())), max_size=1)))))
    seed2 = [rep.f.apply(g) for g in s1.generators]
    s2 = pure_closure(Submodule(rep.m2, tuple(seed2)))
    sub = SubRep(rep, s1, s2)
    assume(is_pure_subrep(sub))
    q, _ = quotient_rep(sub)
    assert is_phantom(q.f)


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_quotient_rep_induced_map_matches_the_per_generator_route(data):
    # one composite projection o f, applied to the lifts, gives the columns
    # that applying f and then the projection to each lift gives
    ring = data.draw(rings())
    m1, m2 = (data.draw(modules(ring, max_card=64, max_rank=3)) for _ in range(2))
    f = data.draw(morphisms(m1, m2))
    gens1 = data.draw(st.lists(elements(m1), max_size=2))
    gens2 = data.draw(st.lists(elements(m2), max_size=2)) + [f.apply(g) for g in gens1]
    sub = SubRep(RepA2(m1, m2, f), Submodule(m1, tuple(gens1)), Submodule(m2, tuple(gens2)))
    q, square = quotient_rep(sub)
    q1, q2 = quotient_by(m1, gens1), quotient_by(m2, gens2)
    assert (q.m1, q.m2) == (q1.module, q2.module)
    assert (square.d, square.s) == (q1.projection, q2.projection)
    assert q.f == ModuleMorphism.from_columns(q1.module, q2.module, [
        q2.projection.apply(f.apply(m1.reduce(lift))) for lift in q1.lifts])


SLICE_MODULI = (2, 4, 6, 8, 9, 12, 16, 18, 24, 27, 36, 72)


def _random_module(rng, ring):
    divs = ring.divisors()[1:]
    return direct_sum([FiniteModule.cyclic(ring, rng.choice(divs))
                       for _ in range(rng.randint(1, 3))]).module


def _random_element(rng, m):
    return tuple(rng.randrange(d) for d in m.invariant_factors)


def _random_slice(rng):
    """A representation over a modulus up to 72, often not phantom, with
    subrepresentations lower <= upper whose components are rarely pure;
    lower is zero or equal to upper now and then."""
    ring = Ring(rng.choice(SLICE_MODULI))
    m1, m2 = _random_module(rng, ring), _random_module(rng, ring)
    f = ModuleMorphism(m1, m2, tuple(
        tuple(ei // gcd(ei, dj) * rng.randrange(gcd(ei, dj)) for dj in m1.invariant_factors)
        for ei in m2.invariant_factors))
    rep = RepA2(m1, m2, f)
    kind = rng.randrange(4)
    s = [] if kind == 0 else [_random_element(rng, m1) for _ in range(rng.randint(0, 2))]
    t = [] if kind == 0 else [_random_element(rng, m2) for _ in range(rng.randint(0, 2))]
    t += [f.apply(g) for g in s]
    s_up = s + ([] if kind == 1 else [_random_element(rng, m1) for _ in range(rng.randint(1, 2))])
    t_up = t + [f.apply(g) for g in s_up] + (
        [] if kind == 1 else [_random_element(rng, m2) for _ in range(rng.randint(0, 1))])
    lower = SubRep(rep, Submodule(m1, tuple(s)), Submodule(m2, tuple(t)))
    upper = SubRep(rep, Submodule(m1, tuple(s_up)), Submodule(m2, tuple(t_up)))
    return rep, lower, upper


def _quotient_witness(rep, proj, lower, upper):
    """The first slice generator (d, g) whose image in M2 / T lies outside
    (n/d) * (T' / T), decided in rep / lower through its projection proj."""
    n = rep.ring.modulus
    images = [proj.s.apply(t) for t in upper.s2.generators]
    for d, g in slice_generators(lower.s1, upper.s1):
        scaled = Submodule(proj.s.target, tuple(proj.s.target.smul(n // d, t) for t in images))
        if not scaled.contains(proj.s.apply(rep.f.apply(g))):
            return d, g
    return None


def test_slice_matches_quotient_then_restriction():
    # the verdict and both sizes agree with forming upper / lower inside
    # rep / lower, presenting it, and testing its map column by column, and
    # the witness with deciding each slice generator there, for generators
    # of order n (read against T' itself) and below
    rng = random.Random(20261019)
    seen = {"non_phantom": 0, "impure": 0, "zero": 0, "equal": 0,
            "order_n": 0, "order_below_n": 0}
    for _ in range(1000):
        rep, lower, upper = _random_slice(rng)
        quot, proj = quotient_rep(lower)
        assert (slice_phantom_witness(lower, upper)
                == _quotient_witness(rep, proj, lower, upper))
        orders = [d for d, _ in slice_generators(lower.s1, upper.s1)]
        seen["order_n"] += orders.count(rep.ring.modulus)
        seen["order_below_n"] += len(orders) - orders.count(rep.ring.modulus)
        inner, _ = restrict_rep(SubRep(
            quot,
            Submodule(quot.m1, tuple(proj.d.apply(g) for g in upper.s1.generators)),
            Submodule(quot.m2, tuple(proj.s.apply(g) for g in upper.s2.generators))))
        verdict = slice_is_phantom(lower, upper)
        assert verdict == is_phantom(inner.f)
        assert upper.s1.cardinality // lower.s1.cardinality == inner.m1.cardinality
        assert upper.s2.cardinality // lower.s2.cardinality == inner.m2.cardinality
        seen["non_phantom"] += not verdict
        seen["impure"] += not (is_pure_subrep(lower) and is_pure_subrep(upper))
        seen["zero"] += lower.cardinality == 2
        seen["equal"] += lower.contains(upper)
    assert min(seen.values()) >= 100, seen


def test_full_order_slice_reads_the_upper_form():
    # for a slice generator of order n, (n/n) * T' + T is T' itself, and
    # its reduced Howell basis is the one T' already holds
    rng = random.Random(20261019)
    seen, moduli = 0, set()
    for _ in range(1000):
        rep, lower, upper = _random_slice(rng)
        n = rep.ring.modulus
        top, bottom = upper.s2.howell, lower.s2.howell
        for d, _ in slice_generators(lower.s1, upper.s1):
            if d == n:
                assert howell_form(list(top.rows) + list(bottom.rows), n, rep.m2.rank) == top
                seen += 1
                moduli.add(n)
    assert seen >= 100 and len(moduli) >= 12, (seen, moduli)


def test_slice_generators_decompose_the_quotient():
    # the classes of g_q have orders dividing d_q, generate upper / lower,
    # and the d_q multiply to its size, so upper / lower is their direct sum
    rng = random.Random(7)
    for _ in range(300):
        rep, lower, upper = _random_slice(rng)
        s, s_up = lower.s1, upper.s1
        pairs = slice_generators(s, s_up)
        assert all(d > 1 and rep.ring.modulus % d == 0 for d, _ in pairs)
        assert all(s_up.contains(g) and s.contains(rep.m1.smul(d, g)) for d, g in pairs)
        assert same_subgroup(s.join(g for _, g in pairs), s_up)
        assert prod(d for d, _ in pairs) * s.cardinality == s_up.cardinality


def test_slice_witness_is_a_certificate():
    # the witness (d, g): g lies in S', d * g in S, and f(g) lies outside
    # (n/d) * T' + T, each re-checked through submodule membership
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        rep, lower, upper = _random_slice(rng)
        witness = slice_phantom_witness(lower, upper)
        if witness is None:
            continue
        found += 1
        d, g = witness
        n = rep.ring.modulus
        assert upper.s1.contains(g) and lower.s1.contains(rep.m1.smul(d, g))
        target = Submodule(rep.m2, tuple(rep.m2.smul(n // d, t) for t in upper.s2.generators)
                           + lower.s2.generators)
        assert not target.contains(rep.f.apply(g))
    assert found >= 30


def _decomposition_witness(rep, lower, upper):
    """The first (d, g) of `slice_generators` with f(g) outside
    (n/d) * T' + T, that form built from scratch for every d."""
    n = rep.ring.modulus
    for d, g in slice_generators(lower.s1, upper.s1):
        target = howell_form([[n // d * x for x in row] for row in upper.s2.howell.rows]
                             + list(lower.s2.howell.rows), n, rep.m2.rank)
        if not target.contains(_scaled(rep.m2, rep.f.apply(g))):
            return d, g
    return None


def test_cyclic_slice_matches_the_decomposition_route(monkeypatch):
    # upper.s1 extends lower.s1 by one generator g: the witness is the
    # decomposition route's, read from the order e = |S'| / |S| and f(g)
    # alone unless f(g) is outside.  The same subgroups listed with g first
    # are no prefix and take the decomposition route.  At e = n, f(g) lies
    # in T' for every checked pair, so the pair is also tried with T' = T
    # and its generator check skipped: there f(g) outside T is a witness
    rng = random.Random(20261020)
    decomposed = []
    real = rep_a2.slice_generators
    monkeypatch.setattr(rep_a2, "slice_generators",
                        lambda *args: decomposed.append(args) or real(*args))
    seen = {"order_n": 0, "order_below_n": 0, "non_phantom": 0, "reordered": 0,
            "unchecked_order_n": 0}
    for _ in range(2500):
        rep, lower, upper = _random_slice(rng)
        below, gens = lower.s1.generators, upper.s1.generators
        if len(gens) != len(below) + 1:
            continue
        n = rep.ring.modulus
        e = upper.s1.cardinality // lower.s1.cardinality
        expected = _decomposition_witness(rep, lower, upper)
        del decomposed[:]
        assert slice_phantom_witness(lower, upper) == expected
        assert (decomposed != []) == (expected is not None)
        seen["order_n"] += e == n
        seen["order_below_n"] += 1 < e < n
        seen["non_phantom"] += expected is not None
        if (gens[-1:] + below)[:len(below)] != below:
            reordered = SubRep(rep, Submodule(rep.m1, gens[-1:] + below), upper.s2)
            del decomposed[:]
            assert slice_phantom_witness(lower, reordered) == expected
            assert decomposed == [(lower.s1, reordered.s1)]
            seen["reordered"] += expected is not None
        if e == n:
            unchecked = SubRep(rep, upper.s1, lower.s2, len(gens))
            expected = _decomposition_witness(rep, lower, unchecked)
            assert slice_phantom_witness(lower, unchecked) == expected
            seen["unchecked_order_n"] += expected is not None
    assert min(seen["order_n"], seen["order_below_n"]) >= 100, seen
    assert min(seen["non_phantom"], seen["reordered"], seen["unchecked_order_n"]) >= 30, seen


def test_slice_outside_upper_raises():
    m = mod(Z4, 4)
    rep = RepA2(m, m, morph(m, m, [[2]]))
    full, zero = SubRep.full(rep), SubRep.zero(rep)
    with pytest.raises(InternalConsistencyError):
        slice_is_phantom(full, zero)
    with pytest.raises(InternalConsistencyError):
        slice_generators(full.s1, zero.s1)
    # first components nested, second ones not
    s2_only = SubRep(rep, Submodule.zero(m), Submodule.full(m))
    with pytest.raises(InternalConsistencyError):
        slice_is_phantom(s2_only, SubRep(rep, Submodule.zero(m), Submodule(m, ((2,),))))
