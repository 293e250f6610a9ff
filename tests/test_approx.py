import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from conftest import (
    arbitrary_morphisms,
    elements,
    modules,
    morphisms,
    pure_monos_from,
    rings,
)
from phantomcover import approx, finmod
from phantomcover.approx import (
    extract_retract,
    is_cover,
    is_precover,
    module_classes,
    phantom_cover,
    phantom_probe_set,
    projective_cover,
    pushout_transport,
    universal_maps,
)
from phantomcover.errors import InputError
from phantomcover.finmod import (
    FiniteModule,
    ModuleMorphism,
    Ring,
    compose,
    direct_sum,
    hom_group,
    is_automorphism,
    is_projective,
    is_surjective,
    kernel,
    solve_left_factor,
    torsion_image,
)
from phantomcover.ideals import MorphismIdeal, is_phantom
from phantomcover.oracles import (
    hom_count,
    phantom_probe_set_by_composition,
    right_minimal_by_enumeration,
    subgroup_elements,
)

Z4 = Ring(4)
Z8 = Ring(8)
Z12 = Ring(12)


def mod(ring, *factors):
    return FiniteModule(ring, tuple(factors))


def morph(src, tgt, rows):
    return ModuleMorphism(src, tgt, tuple(tuple(r) for r in rows))


def test_module_classes_bounded_and_complete():
    classes = module_classes(Z4, 16)
    cards = sorted(m.cardinality for m in classes)
    assert cards[0] == 1 and max(cards) <= 16
    factor_sets = {m.invariant_factors for m in classes}
    assert (2,) in factor_sets and (4, 4) in factor_sets and (2, 2, 4) in factor_sets
    assert (2, 4, 4) not in factor_sets  # cardinality 32


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_phantom_probe_set_matches_composition(data):
    ring = data.draw(rings(moduli=(2, 3, 4, 6, 8, 9, 12, 16)))
    m = data.draw(st.one_of(st.just(FiniteModule.zero(ring)), modules(ring)))
    bound = data.draw(st.sampled_from((1, 16, 64, 256)))

    def entries(probes):
        return [(p.source, p.target, p.matrix) for p in probes]

    assert entries(phantom_probe_set(m, size_bound=bound)) == entries(
        phantom_probe_set_by_composition(m, size_bound=bound))


def test_precover_trivial_probes():
    phi = projective_cover(mod(Z4, 2))
    phant = MorphismIdeal.phantom(Z4)
    assert is_precover(phant, phi, [phi]).holds
    assert is_precover(phant, phi, [ModuleMorphism.zero_map(mod(Z4, 4), phi.target)]).holds


def test_projective_cover_is_phantom_precover():
    m = mod(Z4, 2)
    phi = projective_cover(m)
    probes = phantom_probe_set(m, size_bound=16)
    res = is_precover(MorphismIdeal.phantom(Z4), phi, probes)
    assert res.holds


def test_cover_identity():
    m = mod(Z4, 2, 4)
    phant = MorphismIdeal.phantom(Z4)
    assert is_cover(phant, ModuleMorphism.identity(m), [ModuleMorphism.identity(m)]) is True


def test_precover_but_not_cover():
    # (x, y) -> x mod 2 out of Z/4 + Z/4: the probe family factors, but the
    # endomorphism killing the second summand also satisfies phi o j == phi
    big = mod(Z4, 4, 4)
    two = mod(Z4, 2)
    phi = morph(big, two, [[1, 0]])
    phant = MorphismIdeal.phantom(Z4)
    probes = phantom_probe_set(two, size_bound=16)
    assert is_precover(phant, phi, probes).holds
    assert is_cover(phant, phi, probes) is False


def test_projective_cover_is_cover():
    m = mod(Z4, 2)
    phi = projective_cover(m)
    probes = phantom_probe_set(m, size_bound=16)
    assert is_cover(MorphismIdeal.phantom(Z4), phi, probes) is True


def test_cover_rejects_non_radical_self_factorization():
    # h = (x, y) -> (0, y) has phi o h == 0 and entry (1, 1) a unit between
    # equal-exponent summands, so id - h is a non-injective self-factorization
    big = mod(Z4, 4, 4)
    phi = morph(big, mod(Z4, 2), [[1, 0]])
    assert is_cover(MorphismIdeal.phantom(Z4), phi, [phi]) is False


@pytest.mark.parametrize("ideal, cover_of, orders", [
    # the phantom cover of a rank-24 module over Z/8 has every source
    # factor 8; the identity of the module is its own hom-ideal cover
    (MorphismIdeal.phantom(Z8), phantom_cover, 1),
    (MorphismIdeal.full_hom(Z8), ModuleMorphism.identity, 3),
])
def test_cover_solves_the_kernel_columns_once_per_source_order(monkeypatch, ideal,
                                                               cover_of, orders):
    # column q of an h with phi o h == 0 depends on the order d_q alone,
    # so the radical test solves each distinct source order once
    m = mod(Z8, *([2] * 8 + [4] * 8 + [8] * 8))
    phi = cover_of(m)
    real = finmod._kernel_column_gens
    calls = []

    def counted(g, dq):
        calls.append(dq)
        return real(g, dq)

    monkeypatch.setattr(finmod, "_kernel_column_gens", counted)
    assert is_cover(ideal, phi, universal_maps(ideal, m)) is True
    assert len(calls) == orders == len(set(phi.source.invariant_factors))
    assert finmod.left_factor_kernel_columns(phi, phi.source) == \
        [real(phi, d) for d in phi.source.invariant_factors]


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(arbitrary_morphisms(max_card=16))
@example(morph(mod(Z4, 4, 4), mod(Z4, 2), [[1, 0]]))
@example(morph(mod(Z4, 4), mod(Z4, 2), [[1]]))
@example(morph(mod(Z8, 2, 8), mod(Z8, 2, 4), [[0, 0], [2, 1]]))
def test_cover_radical_test_matches_enumeration(phi):
    # with phi itself as the only probe the precover half holds, so is_cover
    # is the radical test alone; in the last example a kernel direction has
    # a unit entry between summands of different exponent, which is radical
    assume(hom_count(phi.source, phi.source) <= 4096)
    hom = MorphismIdeal.full_hom(phi.source.ring)
    assert is_cover(hom, phi, [phi]) == right_minimal_by_enumeration(phi)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_precover_membership_matches_the_solver(data):
    # probe columns come from a small pool holding an element of phi's
    # image, so one column recurs at several orders and one (order, column)
    # pair recurs across probes: the verdicts must be keyed on both
    ring = data.draw(rings(moduli=(2, 3, 4, 6, 8, 9, 12, 16)))
    x = data.draw(modules(ring, max_card=64, max_rank=3))
    m = data.draw(modules(ring, max_card=64, max_rank=3))
    phi = data.draw(morphisms(x, m))
    pool = [(0,) * m.rank, phi.apply(data.draw(elements(x))),
            data.draw(elements(m)), data.draw(elements(m))]
    probes = []
    for _ in range(data.draw(st.integers(0, 5))):
        src = data.draw(modules(ring, max_card=64, max_rank=3))
        cols = [data.draw(st.sampled_from([y for y in pool if not any(m.smul(d, y))]))
                for d in src.invariant_factors]
        probes.append(ModuleMorphism.from_columns(src, m, cols))
    first_failure = next((p for p in probes if solve_left_factor(phi, p) is None), None)
    result = is_precover(MorphismIdeal.full_hom(ring), phi, probes)
    assert result.holds == (first_failure is None)
    assert result.failing_probe is first_failure
    for d in ring.divisors():
        torsion = (e for e in x.elements() if not any(x.smul(d, e)))
        assert subgroup_elements(torsion_image(phi, d)) == {phi.apply(e) for e in torsion}


def _copies(probes):
    """Distinct, equal copies of each listed probe."""
    return [ModuleMorphism(p.source, p.target, p.matrix) for p in probes]


def test_precover_repeated_probe_objects_match_distinct_copies():
    # phi has image 2*Z/4: `lifts` factors through it, `fails` does not
    four, two = mod(Z4, 4), mod(Z4, 2)
    phi = morph(four, four, [[2]])
    lifts = morph(four, four, [[2]])
    fails = ModuleMorphism.identity(four)
    zero = ModuleMorphism.zero_map(two, four)
    hom = MorphismIdeal.full_hom(Z4)
    for probes, first_failure in [
            ([lifts, lifts, zero, zero], None),
            ([zero, lifts, zero, lifts], None),
            ([lifts, lifts, fails, fails], 2),
            ([fails, lifts, fails], 0),
            ([zero, fails, zero, fails, fails], 1)]:
        for listed in (probes, _copies(probes)):
            result = is_precover(hom, phi, listed)
            assert result.holds == (first_failure is None)
            expected = None if first_failure is None else listed[first_failure]
            assert result.failing_probe is expected


def test_precover_foreign_target_before_and_after_the_first_failure():
    four, two = mod(Z4, 4), mod(Z4, 2)
    phi = morph(four, four, [[2]])
    lifts = morph(four, four, [[2]])
    fails = ModuleMorphism.identity(four)
    foreign = ModuleMorphism.identity(two)
    hom = MorphismIdeal.full_hom(Z4)
    for probes in ([lifts, lifts, foreign, fails], [foreign, foreign, fails]):
        with pytest.raises(InputError, match="target"):
            is_precover(hom, phi, probes)
    for probes in ([fails, foreign], [lifts, lifts, fails, fails, foreign]):
        result = is_precover(hom, phi, probes)
        assert not result.holds and result.failing_probe is fails


@pytest.mark.parametrize("n, factors", [
    (16, (2, 4, 8)), (8, (2, 2, 2)), (12, (4, 4, 4)), (12, (2, 6)), (9, (3,))])
def test_phantom_probe_set_shares_one_zero_map_per_source_class(n, factors):
    m = mod(Ring(n), *factors)
    classes = module_classes(m.ring, 256)
    probes = phantom_probe_set(m, size_bound=256)
    closed_form = probes[:sum(m.rank * cls.rank for cls in classes)]
    zero_maps = {}
    for probe in closed_form:
        if probe.is_zero:
            assert zero_maps.setdefault(probe.source, probe) is probe
    assert zero_maps


def test_probe_sweep_verdicts_match_universal_maps_on_cover_shapes():
    # every class of rank at most 3 and cardinality at most 64 over the
    # moduli of the cover benchmark; besides the cover, a map that is a
    # precover but not a cover (a spare free summand sent to 0) and, for
    # m != 0, the zero map, which is no precover
    for n in (4, 6, 8, 9, 12, 16):
        ring = Ring(n)
        phant = MorphismIdeal.phantom(ring)
        for m in module_classes(ring, 64):
            if m.rank > 3:
                continue
            probes = phantom_probe_set(m, size_bound=256)
            universal = universal_maps(phant, m)
            cover = phantom_cover(m)
            zero = ModuleMorphism.zero_map(cover.source, m)
            spare = ModuleMorphism(
                FiniteModule(ring, cover.source.invariant_factors + (n,)), m,
                tuple(row + (0,) for row in cover.matrix))
            for phi in (cover, zero, spare):
                assert is_precover(phant, phi, probes).holds == is_precover(
                    phant, phi, universal).holds, (m, phi)
                assert is_cover(phant, phi, probes) == is_cover(phant, phi, universal), (m, phi)
            assert is_cover(phant, cover, probes) is True
            assert is_precover(phant, zero, probes).holds == m.is_zero
            assert is_precover(phant, spare, probes).holds
            assert is_cover(phant, spare, probes) is False


def _sweep(ideal, m, bound):
    """Generators of every member of the ideal into m from the module
    classes of cardinality at most bound."""
    if ideal.kind == "phantom":
        return phantom_probe_set(m, size_bound=bound)
    classes = module_classes(m.ring, bound)
    if ideal.kind == "hom":
        return [h for x in classes for h in hom_group(x, m)]
    return [compose(h, compose(g, t)) for g in ideal.generators for x in classes
            for t in hom_group(x, g.source) for h in hom_group(g.target, m)]


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_universal_maps_match_the_sweep(data):
    ring = data.draw(rings(moduli=(2, 3, 4, 6, 8)))
    m = data.draw(modules(ring, max_card=8, max_rank=2))
    assume(not m.is_zero)
    g = data.draw(morphisms(data.draw(modules(ring, max_card=8, max_rank=2)), m))
    ideals = [MorphismIdeal.phantom(ring), MorphismIdeal.full_hom(ring),
              MorphismIdeal.zero(ring), MorphismIdeal.generated_by([g])]
    # the sweep reaches the sources of the universal maps
    bound = max(ring.modulus ** m.rank, g.source.cardinality)
    y = data.draw(modules(ring, max_card=8, max_rank=2))
    phi = data.draw(st.one_of(morphisms(y, m), st.just(projective_cover(m))))
    for ideal in ideals:
        exact = is_precover(ideal, phi, universal_maps(ideal, m)).holds
        assert exact == is_precover(ideal, phi, _sweep(ideal, m, bound)).holds, ideal


def test_projective_cover_examples():
    p = mod(Z4, 4)
    assert projective_cover(p) == ModuleMorphism.identity(p)

    phi = projective_cover(mod(Z4, 2))
    assert phi.source.invariant_factors == (4,)
    assert phi.matrix == ((1,),)
    assert is_surjective(phi)

    # Z/2 + Z/3 over Z/12 is Z/6 in canonical form; its cover is Z/12
    m = mod(Z12, 6)
    phi = projective_cover(m)
    assert phi.source.invariant_factors == (12,)
    assert is_surjective(phi) and is_projective(phi.source)


def test_projective_cover_kernel_superfluous():
    # no proper submodule of the cover source surjects onto the target
    m = mod(Z4, 2)
    phi = projective_cover(m)
    images = {phi.apply(x) for x in phi.source.elements()}
    assert len(images) == m.cardinality
    for sub_gen in [(2,)]:
        small = {phi.apply((a * sub_gen[0] % 4,)) for a in range(4)}
        assert len(small) < m.cardinality


def test_phantom_cover_examples():
    p = mod(Z4, 4)
    assert phantom_cover(p) == ModuleMorphism.identity(p)
    phi = phantom_cover(mod(Z4, 2))
    assert phi.source.invariant_factors == (4,)
    z = FiniteModule.zero(Z4)
    phi = phantom_cover(z)
    assert phi.source.is_zero and phi.target.is_zero


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_phantom_cover_is_surjective_phantom_cover(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=16, max_rank=2))
    phi = phantom_cover(m)
    assert is_surjective(phi)
    assert is_phantom(phi)
    probes = phantom_probe_set(m, size_bound=16)
    phant = MorphismIdeal.phantom(ring)
    assert is_precover(phant, phi, probes).holds
    assert is_cover(phant, phi, probes) is True


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_cover_uniqueness_up_to_isomorphism(data):
    from conftest import automorphisms

    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=16, max_rank=2))
    phi1 = phantom_cover(m)
    alpha = data.draw(automorphisms(phi1.source))
    phi2 = compose(phi1, alpha)  # a second cover of the same module
    j = solve_left_factor(phi2, phi1)
    j_back = solve_left_factor(phi1, phi2)
    assert j is not None and j_back is not None
    assert is_automorphism(compose(j_back, j))
    assert is_automorphism(compose(j, j_back))


def test_pushout_transport_identity():
    phi = phantom_cover(mod(Z4, 2))
    k, _ = kernel(phi)
    res = pushout_transport(phi, ModuleMorphism.identity(k))
    assert res.module.invariant_factors == phi.source.invariant_factors
    assert is_phantom(res.phi_prime)
    assert compose(res.phi_prime, res.v_prime) == phi
    assert compose(res.phi_prime, res.u_prime).is_zero


def test_pushout_transport_derived_example():
    phi = phantom_cover(mod(Z4, 2))  # kernel {0, 2} = Z/2
    k, _ = kernel(phi)
    assert k.invariant_factors == (2,)
    ds = direct_sum((k, mod(Z4, 2)))
    v = ds.injections[0]
    res = pushout_transport(phi, v)
    assert is_phantom(res.phi_prime)
    assert is_surjective(res.phi_prime)


def test_pushout_transport_zero_module():
    z = FiniteModule.zero(Z4)
    phi = ModuleMorphism.zero_map(z, z)
    k, _ = kernel(phi)
    res = pushout_transport(phi, ModuleMorphism.identity(k))
    assert res.phi_prime.is_zero


def test_pushout_transport_rejects_bad_inputs():
    m = mod(Z4, 4)
    non_epi = morph(m, m, [[2]])
    k, _ = kernel(non_epi)
    with pytest.raises(InputError):
        pushout_transport(non_epi, ModuleMorphism.identity(k))

    phi = phantom_cover(mod(Z4, 2))
    k, _ = kernel(phi)
    impure = morph(k, m, [[2]])  # image {0,2} is not pure in Z/4
    with pytest.raises(InputError):
        pushout_transport(phi, impure)


@pytest.mark.parametrize("chase", [pushout_transport, extract_retract])
def test_chase_input_errors(chase):
    phi = phantom_cover(mod(Z4, 2))
    k, _ = kernel(phi)  # Z/2
    four = mod(Z4, 4)
    cases = [
        (morph(four, four, [[2]]), ModuleMorphism.identity(mod(Z4, 2)),
         "surjective morphism"),
        (ModuleMorphism.identity(mod(Z4, 2)), ModuleMorphism.identity(mod(Z4)),
         "phantom morphism"),
        (phi, ModuleMorphism.identity(four), "canonical kernel presentation"),
        (phi, ModuleMorphism.zero_map(k, four), "v must be injective"),
        (phi, morph(k, four, [[2]]), "v must have pure image"),
    ]
    for f, v, message in cases:
        with pytest.raises(InputError, match=message):
            chase(f, v)


@pytest.mark.parametrize("chase", [pushout_transport, extract_retract])
def test_chase_reads_one_kernel_and_one_image(monkeypatch, chase):
    phi = phantom_cover(mod(Z4, 2))
    k, _ = kernel(phi)
    v = direct_sum((k, mod(Z4, 4))).injections[0]
    calls = []
    for name in ("kernel", "image_submodule"):
        real = getattr(approx, name)
        monkeypatch.setattr(approx, name, lambda f, real=real, name=name: (
            calls.append(name), real(f))[1])
    chase(phi, v)
    assert sorted(calls) == ["image_submodule", "kernel"]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pushout_transport_preserves_phantom(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=16, max_rank=2))
    phi = phantom_cover(m)
    k, _ = kernel(phi)
    v = data.draw(pure_monos_from(k, max_extra_card=8))
    res = pushout_transport(phi, v)
    assert is_phantom(res.phi_prime)


def test_extract_retract_identity():
    phi = phantom_cover(mod(Z4, 2))
    k, _ = kernel(phi)
    r = extract_retract(phi, ModuleMorphism.identity(k))
    assert compose(r, ModuleMorphism.identity(k)) == ModuleMorphism.identity(k)


def test_extract_retract_derived_example():
    phi = phantom_cover(mod(Z4, 2))
    k, _ = kernel(phi)
    ds = direct_sum((k, mod(Z4, 4)))
    v = ds.injections[0]
    r = extract_retract(phi, v)
    assert compose(r, v) == ModuleMorphism.identity(k)


def test_extract_retract_flags_cover_violation():
    # (x, y) -> x mod 2 is a precover but not a cover: the chase detects the
    # violated cover property as an internal consistency failure
    from phantomcover.errors import InternalConsistencyError

    big = mod(Z4, 4, 4)
    phi = morph(big, mod(Z4, 2), [[1, 0]])
    k, _ = kernel(phi)
    with pytest.raises(InternalConsistencyError):
        extract_retract(phi, ModuleMorphism.identity(k))


def test_extract_retract_zero_kernel():
    p = mod(Z4, 4)
    phi = phantom_cover(p)  # identity, kernel 0
    k, _ = kernel(phi)
    assert k.is_zero
    x = mod(Z4, 2, 4)
    v = ModuleMorphism.zero_map(k, x)
    r = extract_retract(phi, v)
    assert r.source == x and r.target == k


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cover_kernels_are_pure_injective(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=16, max_rank=2))
    phi = phantom_cover(m)
    k, _ = kernel(phi)
    v = data.draw(pure_monos_from(k, max_extra_card=8))
    r = extract_retract(phi, v)
    assert compose(r, v) == ModuleMorphism.identity(k)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_phantom_cover_matches_projective_cover(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=16, max_rank=2))
    pc = phantom_cover(m)
    jc = projective_cover(m)
    j = solve_left_factor(pc, jc)
    j_back = solve_left_factor(jc, pc)
    assert j is not None and j_back is not None
    assert is_automorphism(compose(j_back, j))
