import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import modules, morphisms, rings
from phantomcover.errors import InputError
from phantomcover.finmod import (
    Diagram,
    FiniteModule,
    ModuleMorphism,
    Ring,
    compose,
    is_projective,
)
from phantomcover.ideals import (
    MorphismIdeal,
    _hom_subgroup_contains,
    SystemMorphism,
    closed_under_direct_limits_check,
    factors_through_projective,
    free_cover_epi,
    ideal_membership,
    induced_colimit_morphism,
    is_phantom,
    projective_identity_ideal,
)
from phantomcover.oracles import _solve_element_system, exhaustive_homs, phantom_by_probes

Z4 = Ring(4)


def mod(ring, *factors):
    return FiniteModule(ring, tuple(factors))


def morph(src, tgt, rows):
    return ModuleMorphism(src, tgt, tuple(tuple(r) for r in rows))


def test_factors_through_projective_projective_source():
    p = mod(Z4, 4)
    f = morph(p, mod(Z4, 2), [[1]])
    fact = factors_through_projective(f)
    assert fact is not None
    assert is_projective(fact.middle)
    assert compose(fact.through, fact.into) == f


def test_factors_through_projective_zero():
    f = ModuleMorphism.zero_map(mod(Z4, 2), mod(Z4, 2))
    assert factors_through_projective(f) is not None


def test_factors_through_projective_negative_matches_exhaustion():
    # id on Z/2 over Z/4: every composite Z/2 -> (Z/4)^k -> Z/2 is zero
    two = mod(Z4, 2)
    ident = ModuleMorphism.identity(two)
    assert factors_through_projective(ident) is None
    free = mod(Z4, 4)
    assert all(compose(h, g).is_zero
               for g in exhaustive_homs(two, free)
               for h in exhaustive_homs(free, two))


def test_is_phantom_examples():
    m = mod(Z4, 4)
    assert is_phantom(morph(m, m, [[2]]))
    assert not is_phantom(ModuleMorphism.identity(mod(Z4, 2)))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_projective_source_is_phantom(data):
    # flat (= projective here) first components always land in the class
    from conftest import projective_modules

    ring = data.draw(rings())
    p = data.draw(projective_modules(ring, max_card=32))
    n = data.draw(modules(ring, max_card=32))
    f = data.draw(morphisms(p, n))
    assert is_phantom(f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_phantom_matches_factorization_oracle(data):
    ring = data.draw(rings())
    src = data.draw(modules(ring, max_card=64, max_rank=3))
    tgt = data.draw(modules(ring, max_card=64, max_rank=3))
    f = data.draw(morphisms(src, tgt))
    assert is_phantom(f) == (factors_through_projective(f) is not None)
    assert is_phantom(f) == phantom_by_probes(f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_phantom_ideal_axioms(data):
    from conftest import projective_modules

    ring = data.draw(rings())
    src = data.draw(modules(ring, max_card=32))
    tgt = data.draw(modules(ring, max_card=32))
    p1 = data.draw(projective_modules(ring, max_card=32))
    p2 = data.draw(projective_modules(ring, max_card=32))
    f = compose(data.draw(morphisms(p1, tgt)), data.draw(morphisms(src, p1)))
    g = compose(data.draw(morphisms(p2, tgt)), data.draw(morphisms(src, p2)))
    assert is_phantom(f + g)
    a = data.draw(modules(ring, max_card=16))
    b = data.draw(modules(ring, max_card=16))
    t = data.draw(morphisms(a, src))
    h = data.draw(morphisms(tgt, b))
    assert is_phantom(compose(h, compose(f, t)))


def test_ideal_membership_examples():
    two = mod(Z4, 2)
    four = mod(Z4, 4)
    zero_ideal = MorphismIdeal.zero(Z4)
    assert ideal_membership(zero_ideal, ModuleMorphism.zero_map(two, four))
    assert not ideal_membership(zero_ideal, ModuleMorphism.identity(two))

    f = morph(four, two, [[1]])
    assert ideal_membership(MorphismIdeal.generated_by([f]), f)

    gen4 = MorphismIdeal.generated_by([ModuleMorphism.identity(four)])
    assert not ideal_membership(gen4, ModuleMorphism.identity(two))

    assert ideal_membership(MorphismIdeal.full_hom(Z4), ModuleMorphism.identity(two))


def _hom_contains_by_solver(span, f):
    """Membership by one congruence system over the span's matrices: the
    route `_hom_subgroup_contains` took before it read a Howell form."""
    n = f.source.ring.modulus
    moduli = [ei for ei in f.target.invariant_factors for _ in range(f.source.rank)]
    cols = [[x for row in g.matrix for x in row] for g in span]
    rhs = [x for row in f.matrix for x in row]
    return _solve_element_system(n, moduli, cols, rhs) is not None


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hom_subgroup_membership_matches_the_solver(data):
    # f is drawn freely or as a combination of the span, so both verdicts
    # occur; an empty span holds only the zero map
    ring = data.draw(rings(moduli=(2, 3, 4, 6, 8, 9, 12, 16, 18, 36)))
    src = data.draw(modules(ring, max_card=64, max_rank=3))
    tgt = data.draw(modules(ring, max_card=64, max_rank=3))
    span = data.draw(st.lists(morphisms(src, tgt), max_size=4))
    f = data.draw(morphisms(src, tgt))
    if span and data.draw(st.booleans()):
        f = ModuleMorphism.zero_map(src, tgt)
        for g in span:
            c = data.draw(st.integers(0, ring.modulus - 1))
            f = f + ModuleMorphism(src, tgt, tuple(
                tuple(c * x for x in row) for row in g.matrix))
    assert _hom_subgroup_contains(span, f) == _hom_contains_by_solver(span, f)


def test_ideal_membership_ring_mismatch():
    with pytest.raises(InputError):
        ideal_membership(MorphismIdeal.zero(Ring(6)), ModuleMorphism.identity(mod(Z4, 2)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_phantom_tag_agrees_with_projective_identities(data):
    ring = data.draw(rings())
    src = data.draw(modules(ring, max_card=32, max_rank=2))
    tgt = data.draw(modules(ring, max_card=32, max_rank=2))
    f = data.draw(morphisms(src, tgt))
    phant = MorphismIdeal.phantom(ring)
    proj = projective_identity_ideal(ring)
    assert ideal_membership(phant, f) == ideal_membership(proj, f)


def _constant_system(f):
    return SystemMorphism(Diagram([f.source], []), Diagram([f.target], []), [f])


def test_direct_limits_one_object():
    f = morph(mod(Z4, 4), mod(Z4, 4), [[2]])
    ok, induced = closed_under_direct_limits_check(
        MorphismIdeal.phantom(Z4), _constant_system(f))
    assert ok
    assert induced.source.invariant_factors == (4,)


def test_direct_limits_chain_of_phantoms():
    free = mod(Z4, 4)
    double = morph(free, free, [[2]])
    src = Diagram([free, free], [double])
    tgt = Diagram([free, free], [double])
    ok, induced = closed_under_direct_limits_check(
        MorphismIdeal.phantom(Z4), SystemMorphism(src, tgt, [double, double]))
    assert ok and is_phantom(induced)


def test_direct_limits_constant_nonmember_is_witnessed():
    # the colimit of a constant system is the object itself, so a non-member
    # component surfaces as a False verdict with itself as the witness
    f = ModuleMorphism.identity(mod(Z4, 2))
    ok, induced = closed_under_direct_limits_check(
        MorphismIdeal.zero(Z4), _constant_system(f))
    assert not ok
    assert induced.source.invariant_factors == (2,) and not induced.is_zero


def test_direct_limits_witness_for_zero_ideal():
    f = ModuleMorphism.zero_map(mod(Z4, 2), mod(Z4, 4))
    ok, induced = closed_under_direct_limits_check(
        MorphismIdeal.zero(Z4), _constant_system(f))
    assert ok and induced.is_zero


def test_induced_colimit_morphism_validates_each_system_once(diagram_validate_calls):
    free = mod(Z4, 4)
    double = morph(free, free, [[2]])
    system = SystemMorphism(Diagram([free, free], [double]),
                            Diagram([free, free], [double]),
                            [double, double])
    induced, src_col, tgt_col = induced_colimit_morphism(system)
    assert len(diagram_validate_calls) == 2
    assert induced == double
    assert src_col.structural == tgt_col.structural == (double, ModuleMorphism.identity(free))


def test_system_morphism_validate_alone_checks_both_systems():
    # a step Z/2 -> Z/4 placed between two copies of Z/4 breaks either chain
    m, two = mod(Z4, 4), mod(Z4, 2)
    ident = ModuleMorphism.identity(m)
    bad = Diagram([m, m], [morph(two, m, [[2]])])
    good = Diagram([m, m], [ident])
    for src, tgt in ((bad, good), (good, bad)):
        system = SystemMorphism(src, tgt, [ident, ident])
        with pytest.raises(InputError, match="step 0 does not map object 0 to object 1"):
            system.validate()
        with pytest.raises(InputError, match="step 0 does not map"):
            induced_colimit_morphism(system)


def test_system_morphism_checks_components_and_squares_by_position():
    m = mod(Z4, 4)
    ident = ModuleMorphism.identity(m)
    three = morph(m, m, [[3]])
    chain = Diagram([m, m, m], [ident, ident])
    with pytest.raises(InputError, match="one component per position"):
        SystemMorphism(chain, chain, [ident, ident]).validate()
    with pytest.raises(InputError, match="component 1 has wrong endpoints"):
        SystemMorphism(chain, chain, [ident, morph(mod(Z4, 2), m, [[2]]), ident]).validate()
    with pytest.raises(InputError, match="square at step 1 does not commute"):
        SystemMorphism(chain, chain, [ident, ident, three]).validate()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_direct_limits_closure_on_sampled_ladders(data):
    # a chain of phantom maps between free modules, with multiplication
    # transitions: all squares commute and every component stays phantom
    ring = data.draw(rings())
    free = FiniteModule.free(ring, data.draw(st.integers(1, 2)))
    c1 = data.draw(st.integers(0, ring.modulus - 1))
    c2 = data.draw(st.integers(0, ring.modulus - 1))
    fmap = data.draw(morphisms(free, free))
    scalar1 = ModuleMorphism(free, free, tuple(
        tuple(c1 if i == j else 0 for j in range(free.rank)) for i in range(free.rank)))
    scalar2 = ModuleMorphism(free, free, tuple(
        tuple(c2 if i == j else 0 for j in range(free.rank)) for i in range(free.rank)))
    src = Diagram([free, free], [scalar1])
    tgt = Diagram([free, free], [scalar2])
    lower = compose(scalar2, fmap)
    upper = compose(fmap, scalar1)
    assume(lower == upper)
    ok, induced = closed_under_direct_limits_check(
        MorphismIdeal.phantom(ring), SystemMorphism(src, tgt, [fmap, fmap]))
    assert ok and is_phantom(induced)


def test_free_cover_epi_shape():
    m = mod(Z4, 2, 4)
    pi = free_cover_epi(m)
    assert pi.source.invariant_factors == (4, 4)
    assert pi.apply((1, 0)) == (1, 0)
