import random
import sys
import time
from itertools import product
from math import lcm
from operator import mul

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import elements, modules, modules_with_submodule, morphisms, rings, submodules
from phantomcover import approx, finmod, ideals, oracles, rep_a2
from phantomcover.errors import IllDefinedMorphismError, InputError, InternalConsistencyError
from phantomcover.exact_linalg import graph_form, graph_kernel, graph_solution
from phantomcover.filtration import FiltrationConfig, build_filtration
from phantomcover.finmod import (
    Diagram,
    FiniteModule,
    ModuleMorphism,
    Ring,
    Submodule,
    cokernel,
    colimit_mediating,
    compose,
    direct_sum,
    directed_colimit,
    hom_group,
    image_submodule,
    invert_automorphism,
    is_automorphism,
    is_injective,
    is_projective,
    is_pure_submodule,
    is_surjective,
    kernel,
    left_factor_kernel_columns,
    pure_closure,
    pushout,
    pushout_mediating,
    quotient_by,
    same_subgroup,
    solve_left_factor,
    subgroup_presentation,
)
from phantomcover.oracles import (
    additive_closure_mod,
    colimit_by_gluing,
    exhaustive_homs,
    hom_count,
    integer_kernel_basis,
    is_direct_summand,
    lowest_purification_witness,
    smith_normal_form,
    subgroup_elements,
)
from phantomcover.samplers import random_phantom_rep
from phantomcover.verify import _random_phantom_ladder

Z4 = Ring(4)
Z12 = Ring(12)


def mod(ring, *factors):
    return FiniteModule(ring, tuple(factors))


def morph(src, tgt, rows):
    return ModuleMorphism(src, tgt, tuple(tuple(r) for r in rows))


# --- modules and morphisms ------------------------------------------------

def test_module_validation():
    with pytest.raises(InputError):
        mod(Z4, 3)  # 3 does not divide 4
    with pytest.raises(InputError):
        mod(Z12, 4, 6)  # 4 does not divide 6
    with pytest.raises(InputError):
        mod(Z4, 1)
    assert mod(Z4).is_zero
    assert mod(Z12, 2, 6, 12).cardinality == 144


def test_divisors_match_the_scan():
    for n in range(2, 3001):
        assert Ring(n).divisors() == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_divisors_of_a_large_modulus():
    n = 2 ** 20 * 3 ** 10
    divs = Ring(n).divisors()
    assert len(divs) == 21 * 11
    assert list(divs) == sorted(set(divs))
    assert divs[0] == 1 and divs[-1] == n
    assert all(n % d == 0 for d in divs)


def _trial_division(n):
    out, p, m = [], 2, n
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return tuple(out + [(m, 1)] if m > 1 else out)


def test_factorize_matches_trial_division():
    # the uncached function, so the test leaves no cache entries behind
    for n in range(2, 10 ** 5 + 1):
        assert finmod.factorize.__wrapped__(n) == _trial_division(n)


@pytest.mark.parametrize("n, expected", [
    (2 ** 61 - 1, ((2 ** 61 - 1, 1),)),
    ((10 ** 9 + 7) * (10 ** 9 + 9), ((10 ** 9 + 7, 1), (10 ** 9 + 9, 1))),
    (2 ** 64 + 1, ((274177, 1), (67280421310721, 1))),
    (1000003 * 1000033 * 1000037, ((1000003, 1), (1000033, 1), (1000037, 1))),
    # past the Miller-Rabin bound, but each prime factor below it
    ((2 ** 31 - 1) * (2 ** 61 - 1), ((2 ** 31 - 1, 1), (2 ** 61 - 1, 1))),
    (2 ** 100 * 3, ((2, 100), (3, 1))),
])
def test_factorize_large_moduli(n, expected):
    assert finmod.factorize.__wrapped__(n) == expected


def test_factorize_rejects_what_it_cannot_prove(monkeypatch):
    with pytest.raises(InputError, match="cannot prove 618970019642690137449562111 prime"):
        finmod.factorize.__wrapped__(2 ** 89 - 1)
    monkeypatch.setattr(finmod, "_RHO_STEPS", 64)
    with pytest.raises(InputError, match="rho steps"):
        finmod.factorize.__wrapped__((10 ** 9 + 7) * (10 ** 9 + 9))


def test_morphism_congruence_witness():
    src = mod(Z4, 2)
    tgt = mod(Z4, 4)
    with pytest.raises(IllDefinedMorphismError) as err:
        morph(src, tgt, [[1]])  # 1 * 2 != 0 mod 4
    assert (err.value.row, err.value.col) == (0, 0)
    assert (err.value.target_factor, err.value.source_factor) == (4, 2)


def test_morphism_entries_reduced():
    f = morph(mod(Z4, 2), mod(Z4, 4), [[6]])
    assert f.matrix == ((2,),)


def test_zero_module_operations():
    z = mod(Z4)
    assert list(z.elements()) == [()]
    assert z.cardinality == 1
    idz = ModuleMorphism.identity(z)
    assert idz.is_zero
    assert kernel(idz)[0].is_zero
    assert cokernel(idz)[0].is_zero


# --- hom groups -----------------------------------------------------------

def test_hom_group_examples():
    # Hom(Z/2, Z/4): of the 4 candidate 1x1 matrices only 0 and 2 are
    # well-defined, so the group has order 2 and is generated by (1 -> 2)
    gens = hom_group(mod(Z4, 2), mod(Z4, 4))
    assert len(gens) == 1 and gens[0].matrix == ((2,),)
    assert hom_count(mod(Z4, 2), mod(Z4, 4)) == 2

    assert hom_group(mod(Z4, 4), mod(Z4)) == ()
    gens = hom_group(mod(Z4, 4), mod(Z4, 4))
    assert len(gens) == 1 and gens[0] == ModuleMorphism.identity(mod(Z4, 4))
    assert hom_count(mod(Z4, 4), mod(Z4, 4)) == 4


def test_hom_group_ring_mismatch():
    with pytest.raises(InputError):
        hom_group(mod(Z4, 2), mod(Z12, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hom_group_generates_exhaustive_homs(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=16, max_rank=2))
    n = data.draw(modules(ring, max_card=16, max_rank=2))
    if hom_count(m, n) > 512:
        return
    everything = {f.matrix for f in exhaustive_homs(m, n)}
    gens = hom_group(m, n)
    dim = n.rank * m.rank
    nn = ring.modulus
    flat = [[a for row in g.matrix for a in row] for g in gens]
    span = additive_closure_mod(flat, dim, nn)
    spanned = set()
    for vec in span:
        rows = tuple(tuple(vec[i * m.rank + j] % n.invariant_factors[i]
                           for j in range(m.rank)) for i in range(n.rank))
        spanned.add(rows)
    assert spanned == everything


# --- composition ----------------------------------------------------------

def test_compose_laws():
    f = morph(mod(Z4, 2), mod(Z4, 4), [[2]])
    assert compose(ModuleMorphism.identity(f.target), f) == f
    assert compose(f, ModuleMorphism.identity(f.source)) == f
    z = ModuleMorphism.zero_map(f.target, mod(Z4, 2))
    assert compose(z, f).is_zero


def test_compose_derived_example():
    # (Z/2 -> Z/4, 1->2) then (Z/4 -> Z/2, 1->1): composite 1 -> 2 = 0 mod 2
    f = morph(mod(Z4, 2), mod(Z4, 4), [[2]])
    g = morph(mod(Z4, 4), mod(Z4, 2), [[1]])
    assert compose(g, f).is_zero


def test_compose_domain_mismatch():
    f = morph(mod(Z4, 2), mod(Z4, 4), [[2]])
    with pytest.raises(InputError):
        compose(f, f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_associative_and_bilinear(data):
    ring = data.draw(rings())
    a = data.draw(modules(ring, max_card=16, max_rank=2))
    b = data.draw(modules(ring, max_card=16, max_rank=2))
    c = data.draw(modules(ring, max_card=16, max_rank=2))
    d = data.draw(modules(ring, max_card=16, max_rank=2))
    f = data.draw(morphisms(a, b))
    g = data.draw(morphisms(b, c))
    h = data.draw(morphisms(c, d))
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)
    g2 = data.draw(morphisms(b, c))
    assert compose(g + g2, f) == compose(g, f) + compose(g2, f)
    assert compose(h, g + g2) == compose(h, g) + compose(h, g2)


# --- kernel / cokernel ----------------------------------------------------

def test_kernel_examples():
    m = mod(Z4, 4)
    assert kernel(ModuleMorphism.identity(m))[0].is_zero

    z = ModuleMorphism.zero_map(m, mod(Z4, 2))
    k, emb = kernel(z)
    assert k.invariant_factors == m.invariant_factors
    assert is_injective(emb) and is_surjective(emb)

    double = morph(m, m, [[2]])
    k, emb = kernel(double)
    assert k.invariant_factors == (2,)
    assert emb.column(0) == (2,)  # embedded as {0, 2}


def test_cokernel_examples():
    m = mod(Z4, 4)
    assert cokernel(ModuleMorphism.identity(m))[0].is_zero
    z = ModuleMorphism.zero_map(mod(Z4), m)
    q, proj = cokernel(z)
    assert q.invariant_factors == (4,) and is_automorphism(proj)
    q, proj = cokernel(morph(m, m, [[2]]))
    assert q.invariant_factors == (2,)
    assert is_surjective(proj)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_cokernel_against_element_counts(data):
    ring = data.draw(rings())
    src = data.draw(modules(ring, max_card=32, max_rank=3))
    tgt = data.draw(modules(ring, max_card=32, max_rank=3))
    f = data.draw(morphisms(src, tgt))
    k, emb = kernel(f)
    kernel_set = {x for x in src.elements() if not any(f.apply(x))}
    assert k.cardinality == len(kernel_set)
    assert {emb.apply(x) for x in k.elements()} == kernel_set
    q, proj = cokernel(f)
    image = {f.apply(x) for x in src.elements()}
    assert q.cardinality * len(image) == tgt.cardinality
    assert is_surjective(proj)
    assert all(not any(proj.apply(y)) for y in image)


# --- subgroup presentation ------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(modules_with_submodule(max_card=32))
def test_subgroup_presentation_roundtrip(mw):
    m, sub = mw
    k, emb = subgroup_presentation(sub)
    assert is_injective(emb)
    assert {emb.apply(x) for x in k.elements()} == subgroup_elements(sub)


PRESENTATION_MODULI = (2, 3, 4, 6, 8, 9, 12, 16, 36)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subgroup_presentation_depends_on_the_subgroup_alone(data):
    ring = data.draw(rings(PRESENTATION_MODULI))
    m = data.draw(modules(ring, max_card=256))
    sub = data.draw(submodules(m, max_gens=4))
    gens = list(sub.generators)
    again = data.draw(st.permutations(gens))
    if gens:
        again += data.draw(st.lists(st.sampled_from(gens), max_size=3))
    k, emb = subgroup_presentation(sub)
    assert subgroup_presentation(Submodule(m, tuple(again))) == (k, emb)
    assert is_injective(emb)
    assert same_subgroup(image_submodule(emb), sub)
    assert k.cardinality == sub.cardinality


def test_subgroup_presentation_ignores_the_generator_order():
    m = mod(Z4, 4, 4)
    first = subgroup_presentation(Submodule(m, ((0, 1), (2, 1))))
    assert subgroup_presentation(Submodule(m, ((2, 1), (0, 1)))) == first
    assert first == (mod(Z4, 2, 4), morph(mod(Z4, 2, 4), m, [[2, 0], [0, 1]]))


def _check_kernel(f):
    """The image of kernel(f)'s embedding against the integer kernel lattice of
    [f | diag(target factors)] and against enumeration."""
    src, tgt = f.source, f.target
    wide = oracles.IntMatrix.from_rows(
        [list(row) + [e if i == l else 0 for l in range(tgt.rank)]
         for i, (row, e) in enumerate(zip(f.matrix, tgt.invariant_factors))],
        cols=src.rank + tgt.rank)
    lattice = Submodule(src, tuple(tuple(v[:src.rank]) for v in integer_kernel_basis(wide)))
    ker = image_submodule(kernel(f)[1])
    assert same_subgroup(ker, lattice)
    assert ker.cardinality == sum(1 for x in src.elements() if not any(f.apply(x)))


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_matches_the_integer_lattice_and_enumeration(data):
    ring = data.draw(rings(PRESENTATION_MODULI))
    src = data.draw(modules(ring, max_card=128, max_rank=3))
    tgt = data.draw(modules(ring, max_card=128, max_rank=3))
    _check_kernel(data.draw(morphisms(src, tgt)))


@pytest.mark.parametrize("src, tgt", [
    (mod(Z12), mod(Z12, 2, 6)),
    (mod(Z12, 2, 6), mod(Z12)),
    (mod(Z12), mod(Z12)),
])
def test_kernel_with_rank_zero_ends(src, tgt):
    _check_kernel(ModuleMorphism.zero_map(src, tgt))


# --- pushout ----------------------------------------------------------------

def test_pushout_along_identity():
    m = mod(Z4, 4)
    k = mod(Z4, 2)
    u = morph(k, m, [[2]])
    po = pushout(u, ModuleMorphism.identity(k))
    assert po.module.invariant_factors == m.invariant_factors
    assert is_automorphism(po.v_prime)
    po = pushout(ModuleMorphism.identity(k), u)
    assert po.module.invariant_factors == m.invariant_factors
    assert is_automorphism(po.u_prime)


def test_pushout_derived_cardinality():
    # K = Z/2 into Z/4 as {0,2} and diagonally into the first Z/2 coordinate:
    # |X| = |Z/2+Z/2| * |Z/4| / |Z/2| = 8
    k = mod(Z4, 2)
    m = mod(Z4, 4)
    kk = mod(Z4, 2, 2)
    u = morph(k, m, [[2]])
    v = morph(k, kk, [[1], [0]])
    po = pushout(u, v)
    assert po.module.cardinality == 8
    assert compose(po.u_prime, v) == compose(po.v_prime, u)


def test_pushout_source_mismatch():
    k = mod(Z4, 2)
    u = morph(k, mod(Z4, 4), [[2]])
    with pytest.raises(InputError):
        pushout(u, ModuleMorphism.identity(mod(Z4, 4)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pushout_universal_property(data):
    ring = data.draw(rings())
    k = data.draw(modules(ring, max_card=8, max_rank=2))
    m = data.draw(modules(ring, max_card=16, max_rank=2))
    kp = data.draw(modules(ring, max_card=16, max_rank=2))
    u = data.draw(morphisms(k, m))
    v = data.draw(morphisms(k, kp))
    po = pushout(u, v)
    assert compose(po.u_prime, v) == compose(po.v_prime, u)
    # a sampled commuting cone: build it from a map out of the pushout so
    # commutativity is guaranteed, then recover the mediating morphism
    c = data.draw(modules(ring, max_card=16, max_rank=2))
    w = data.draw(morphisms(po.module, c))
    a = compose(w, po.u_prime)
    b = compose(w, po.v_prime)
    med = pushout_mediating(po, a, b)
    assert med == w
    # uniqueness: the structural maps are jointly epic, so a morphism out of
    # the pushout is pinned down by its values on their images
    x = po.module
    gens = [po.u_prime.column(j) for j in range(po.u_prime.source.rank)]
    gens += [po.v_prime.column(j) for j in range(po.v_prime.source.rank)]
    assert Submodule(x, tuple(gens)).cardinality == x.cardinality


# --- directed colimits ------------------------------------------------------

def test_colimit_single_object():
    m = mod(Z4, 2, 4)
    d = Diagram([m], [])
    col = directed_colimit(d)
    assert col.module.invariant_factors == m.invariant_factors
    assert is_automorphism(col.structural[0])


def test_colimit_identity_chain():
    m = mod(Z4, 4)
    d = Diagram([m, m, m],
                [ModuleMorphism.identity(m), ModuleMorphism.identity(m)])
    col = directed_colimit(d)
    assert col.module.invariant_factors == m.invariant_factors


def test_colimit_chain_with_top():
    # Z/2 --(*2)--> Z/4 over Z/4: the colimit of a two-object chain is its top
    a = mod(Z4, 2)
    b = mod(Z4, 4)
    d = Diagram([a, b], [morph(a, b, [[2]])])
    col = directed_colimit(d)
    assert col.module.invariant_factors == (4,)
    assert col.structural[-1] == ModuleMorphism.identity(b)


def test_colimit_of_an_automorphism_chain_is_its_top_object():
    # Z/3 --(*2)--> Z/3: the colimit is the top object itself, with the
    # identity there and the transition as the other structural map
    m = mod(Ring(3), 3)
    two = morph(m, m, [[2]])
    col = directed_colimit(Diagram([m, m], [two]))
    assert col.module == m
    assert col.structural == (two, ModuleMorphism.identity(m))


def test_colimit_structural_maps_are_the_composites_of_the_steps():
    # Z/8 --(*2)--> Z/8 --(*3)--> Z/8 --(*5)--> Z/8: the map from position
    # i is the product of the scalars above it
    m = mod(Ring(8), 8)
    col = directed_colimit(Diagram([m] * 4, [morph(m, m, [[c]]) for c in (2, 3, 5)]))
    assert col.structural == tuple(morph(m, m, [[c]]) for c in (30 % 8, 15, 5, 1))


def test_colimit_of_no_objects_is_an_input_error():
    with pytest.raises(InputError, match="at least one object"):
        directed_colimit(Diagram([], []))


def test_diagram_validation_names_the_offending_step():
    a, b = mod(Z4, 2), mod(Z4, 4)
    up = morph(a, b, [[2]])
    one = ModuleMorphism.identity(b)
    with pytest.raises(InputError, match="one step fewer than objects"):
        Diagram([a, b], []).validate()
    with pytest.raises(InputError, match="step 0 does not map object 0 to object 1"):
        Diagram([b, b], [up]).validate()
    with pytest.raises(InputError, match="step 1 does not map object 1 to object 2"):
        directed_colimit(Diagram([a, b, b], [up, up]))
    Diagram([a, b, b], [up, one]).validate()


def test_colimit_mediating_checks_the_cone():
    m = mod(Z4, 4)
    two = morph(m, m, [[2]])
    one = ModuleMorphism.identity(m)
    col = directed_colimit(Diagram([m, m], [two]))
    assert colimit_mediating(col, [two, one]) == one
    with pytest.raises(InputError, match="cover every object"):
        colimit_mediating(col, [one])
    with pytest.raises(InputError, match="share a target"):
        colimit_mediating(col, [morph(m, mod(Z4, 2), [[1]]), one])
    with pytest.raises(InputError, match="does not commute"):
        colimit_mediating(col, [one, one])


def test_long_chains_cost_a_constant_number_of_composes_per_step(monkeypatch):
    # 256 objects of Z/2 + Z/8 with *3 steps and *2 components: a colimit,
    # a representation colimit and an induced morphism each compose a
    # bounded number of times per position, wherever compose is called from
    L = 256
    real = finmod.compose
    calls = 0

    def counted(g, f):
        nonlocal calls
        calls += 1
        return real(g, f)

    for name, module in list(sys.modules.items()):
        if name.startswith("phantomcover.") and getattr(module, "compose", None) is real:
            monkeypatch.setattr(module, "compose", counted)
    m = mod(Ring(8), 2, 8)
    three = morph(m, m, [[3, 0], [0, 3]])
    two = morph(m, m, [[2, 0], [0, 2]])
    chain = Diagram([m] * L, [three] * (L - 1))
    col = directed_colimit(chain)
    rep = rep_a2.RepA2(m, m, two)
    rep_col = rep_a2.rep_colimit(rep_a2.RepDiagram(
        [rep] * L, [rep_a2.RepMorphism(rep, rep, three, three)] * (L - 1)))
    induced, _, _ = ideals.induced_colimit_morphism(
        ideals.SystemMorphism(chain, chain, [two] * L))
    assert calls <= 16 * L
    # 3 * 3 == 1 mod 8, so the composites into the top alternate
    assert col.structural == (three, ModuleMorphism.identity(m)) * (L // 2)
    assert rep_col.rep == rep and rep_col.structural[0].d == three
    assert induced == two


def _assert_gluing_agrees(diagram, cone):
    """The top object against the gluing route: the same module, with the
    gluing route's structural maps the top route's followed by
    a = glued.structural[top], an automorphism, and the mediating maps of
    the cone related by the same a."""
    col = directed_colimit(diagram)
    glued = colimit_by_gluing(diagram)
    assert glued.module == col.module
    a = glued.structural[-1]
    assert is_automorphism(a)
    for g, s in zip(glued.structural, col.structural, strict=True):
        assert g == compose(a, s)
    assert compose(glued.mediating(cone), a) == colimit_mediating(col, cone)
    return a


def _filtration_chain(rep, ring):
    """The chain of a representation's filtration steps, with the inclusions
    read back as left factors."""
    filt = build_filtration(rep, FiltrationConfig(kappa=ring.modulus))
    inner = [rep_a2.restrict_rep(s) for s in filt.steps]
    reps = [r for r, _ in inner]
    steps = [rep_a2.RepMorphism(reps[i], reps[i + 1],
                                solve_left_factor(inner[i + 1][1].d, inner[i][1].d),
                                solve_left_factor(inner[i + 1][1].s, inner[i][1].s))
             for i in range(len(reps) - 1)]
    return rep_a2.RepDiagram(reps, steps)


GLUING_RINGS = (2, 3, 4, 6, 8, 9, 12, 16, 36)


def test_top_object_matches_the_gluing_route_on_phantom_ladders():
    # `moved` counts the cases where the gluing route presents the colimit
    # through a non-identity automorphism, the ones that tell the routes apart
    moved = 0
    for n in GLUING_RINGS:
        ring = Ring(n)
        for k in range(12):
            system = _random_phantom_ladder(random.Random(7000 * n + k), ring)
            tgt = directed_colimit(system.target)
            cone = [compose(s, f) for s, f in zip(tgt.structural, system.components)]
            for a in (_assert_gluing_agrees(system.source, cone),
                      _assert_gluing_agrees(system.target, tgt.structural)):
                moved += a != ModuleMorphism.identity(a.source)
    assert moved


def test_top_object_matches_the_gluing_route_on_filtration_chains():
    moved = 0
    for n in GLUING_RINGS:
        ring = Ring(n)
        for k in range(12):
            rep = random_phantom_rep(random.Random(7000 * n + k).getrandbits(63), ring, 32)
            diagram = _filtration_chain(rep, ring)
            d1, d2 = diagram.component_diagrams()
            col2 = directed_colimit(d2)
            cone = [compose(s, r.f) for s, r in zip(col2.structural, diagram.objects)]
            for a in (_assert_gluing_agrees(d1, cone), _assert_gluing_agrees(d2, col2.structural)):
                moved += a != ModuleMorphism.identity(a.source)
            assert rep_a2.rep_colimit(diagram).rep == diagram.objects[-1]
    assert moved


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_colimit_constant_diagram_and_joint_epi(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=16, max_rank=2))
    idm = ModuleMorphism.identity(m)
    d = Diagram([m, m], [idm])
    col = directed_colimit(d)
    assert col.module.invariant_factors == m.invariant_factors
    gens = []
    for s in col.structural:
        gens.extend(s.column(j) for j in range(s.source.rank))
    assert Submodule(col.module, tuple(gens)).cardinality == col.module.cardinality
    # mediating morphism against the cone of the original identities
    cone = [compose(data.draw(morphisms(m, m)), s) for s in col.structural]
    if cone[0] == cone[1]:
        med = colimit_mediating(col, cone)
        for s, leg in zip(col.structural, cone):
            assert compose(med, s) == leg


# --- projectivity -----------------------------------------------------------

def test_is_projective_examples():
    assert is_projective(mod(Z4, 4))
    assert not is_projective(mod(Z4, 2))
    assert is_projective(mod(Z12, 12))
    # canonical form of Z/4 + Z/3 over Z/12 is Z/12, a full local product
    assert is_projective(mod(Z12, 2, 12)) is False
    assert is_projective(FiniteModule.zero(Z4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projective_iff_free_cover_splits(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=32, max_rank=3))
    free = FiniteModule.free(ring, m.rank)
    pi = ModuleMorphism(free, m, tuple(
        tuple(1 if i == j else 0 for j in range(m.rank)) for i in range(m.rank)))
    section = solve_left_factor(pi, ModuleMorphism.identity(m))
    assert is_projective(m) == (section is not None)


# --- purity and summands ----------------------------------------------------

def test_purity_examples():
    m = mod(Z4, 4)
    imp = Submodule(m, ((2,),))
    assert not is_pure_submodule(imp)
    assert is_direct_summand(imp) is None

    m2 = mod(Z4, 2, 4)
    first = Submodule(m2, ((1, 0),))
    assert is_pure_submodule(first)
    r = is_direct_summand(first)
    assert r is not None

    assert is_pure_submodule(Submodule.zero(m))
    assert is_pure_submodule(Submodule.full(m))


def test_pure_closure_examples():
    m = mod(Z4, 4)
    s = Submodule(m, ((2,),))
    closed = pure_closure(s)
    assert same_subgroup(closed, Submodule.full(m))

    already = Submodule(mod(Z4, 2, 4), ((1, 0),))
    assert pure_closure(already) == already

    z = Submodule.zero(m)
    assert pure_closure(z) == z


@settings(max_examples=60, deadline=None)
@given(modules_with_submodule(max_card=64))
def test_purity_iff_summand(mw):
    _, sub = mw
    assert is_pure_submodule(sub) == (is_direct_summand(sub) is not None)


@settings(max_examples=40, deadline=None)
@given(modules_with_submodule(max_card=32))
def test_pure_closure_is_pure_and_contains(mw):
    _, sub = mw
    closed = pure_closure(sub)
    assert is_pure_submodule(closed)
    assert closed.contains_submodule(sub)
    assert pure_closure(closed) == closed


@settings(max_examples=40, deadline=None)
@given(modules_with_submodule(max_card=32))
def test_purity_matches_exhaustive_intersection(mw):
    m, sub = mw
    sub_elts = subgroup_elements(sub)
    expected = True
    for d in m.ring.divisors():
        dm = {m.smul(d, x) for x in m.elements()}
        ds = {m.smul(d, x) for x in sub_elts}
        if (sub_elts & dm) != ds:
            expected = False
            break
    assert is_pure_submodule(sub) == expected


@pytest.mark.parametrize("n, powers", [
    (2, ()), (6, ()), (8, (2, 4)), (12, (2,)), (16, (2, 4, 8)), (72, (2, 3, 4)),
])
def test_proper_prime_powers(n, powers):
    assert finmod._proper_prime_powers(n) == powers
    assert list(powers) == sorted(powers)


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_purity_at_proper_prime_powers_matches_every_divisor(data):
    ring = data.draw(rings((4, 8, 9, 12, 16, 18, 36)))
    m = data.draw(modules(ring, max_card=128))
    sub = data.draw(submodules(m))
    every = ring.divisors()[1:]

    def witness(s):
        """The lowest divisor d > 1 with a purification witness, and it."""
        for d in every:
            w = finmod._purification_witness(s, d)
            if w is not None:
                return d, w
        return None

    assert is_pure_submodule(sub) == (witness(sub) is None)
    cur, witnesses = sub, 0
    found = witness(cur) if m.rank else None
    while found is not None:
        cur = cur.join([finmod._lowest_scalar_preimage(m, *found)])
        witnesses += 1
        found = witness(cur)
    closed, count = finmod.pure_closure_counted(sub)
    assert closed.generators == cur.generators
    assert count == witnesses


def _certified(sub):
    """Every reduced Howell row of sub leads at its column j with n/d_j."""
    n = sub.ambient.ring.modulus
    factors = sub.ambient.invariant_factors
    hs = sub.howell
    return all(row[j] == n // factors[j] for row, j in zip(hs.rows, hs.pivots))


@st.composite
def certified_submodules(draw, m):
    """One generator e_j + sum (d_k/d_j) r_k e_k per chosen column j, the sum
    over the later unchosen columns k: each has order d_j, and its Howell row
    leads at j with n/d_j and is zero at every other chosen column."""
    factors = m.invariant_factors
    chosen = draw(st.sets(st.sampled_from(range(m.rank)))) if m.rank else set()
    gens = []
    for j in sorted(chosen):
        g = [0] * m.rank
        g[j] = 1
        for k in range(j + 1, m.rank):
            if k not in chosen:
                g[k] = (factors[k] // factors[j]) * draw(st.integers(0, factors[j] - 1))
        gens.append(tuple(g))
    return Submodule(m, tuple(gens))


@seed(20261019)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_summand_certificate_gives_a_retraction(data):
    ring = data.draw(rings((4, 8, 9, 12, 16, 18, 36)))
    m = data.draw(modules(ring, max_card=128))
    built = data.draw(st.booleans())
    sub = data.draw(certified_submodules(m) if built else submodules(m))
    assert _certified(sub) or not built
    if _certified(sub):
        assert is_direct_summand(sub) is not None
        assert is_pure_submodule(sub)
        assert finmod.impurity(sub) is None


@seed(20261019)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_purity_on_scaled_generators_matches_the_witness_oracle(data):
    # generators times a proper divisor of n are mostly impure
    ring = data.draw(rings((8, 16, 27, 36, 72)))
    n = ring.modulus
    m = data.draw(modules(ring, max_card=128))
    proper = [d for d in ring.divisors() if 1 < d < n]
    gens = []
    for g in data.draw(st.lists(elements(m), max_size=3)):
        gens.append(m.smul(data.draw(st.sampled_from(proper)), g))
    sub = Submodule(m, tuple(gens))
    witnesses = [(d, lowest_purification_witness(sub, d)) for d in ring.divisors()]
    failing = [(d, w) for d, w in witnesses if w is not None]
    assert is_pure_submodule(sub) == (not failing)
    assert finmod.impurity(sub) == (failing[0] if failing else None)


def _record_howell_widths(monkeypatch):
    widths = []
    real = finmod.howell_form

    def recording(rows, n, width):
        widths.append(width)
        return real(rows, n, width)

    monkeypatch.setattr(finmod, "howell_form", recording)
    return widths


@seed(20261019)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_purity_builds_at_most_two_narrow_forms_per_prime_power(data):
    ring = data.draw(rings((4, 8, 12, 16, 36, 72)))
    m = data.draw(modules(ring, max_card=128))
    built = data.draw(st.booleans())
    sub = data.draw(certified_submodules(m) if built else submodules(m))
    sub.howell  # the subgroup's own form, cached on it
    with pytest.MonkeyPatch.context() as mp:
        widths = _record_howell_widths(mp)
        is_pure_submodule(sub)
    if _certified(sub):
        assert widths == []
    else:
        assert len(widths) <= 2 * len(finmod._proper_prime_powers(ring.modulus))
        assert all(w == m.rank for w in widths)


def test_purity_sizes_without_a_certificate():
    # 2 * (Z/4) in Z/4 fails at d = 2: |S| = 2, its image in M/2M is 0, 2S = 0
    m = mod(Z4, 4)
    assert finmod.impurity(Submodule(m, ((2,),))) == (2, (2,))
    # (1, 1) in Z/2 + Z/4 spans a summand, complemented by (1, 0), but its
    # Howell basis (2, 1), (0, 2) leads at column 1 with 2, not 1: no
    # certificate, and pure by sizes
    pure = Submodule(mod(Z4, 2, 4), ((1, 1),))
    assert not _certified(pure)
    assert finmod.impurity(pure) is None
    assert is_direct_summand(pure) is not None


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_injective_and_surjective_match_the_presentations(data):
    # the Howell-cardinality deciders against the (co)kernel presentations,
    # on a drawn morphism and on the maps from and to the rank-0 module
    ring = data.draw(rings())
    f = data.draw(morphisms(data.draw(modules(ring)), data.draw(modules(ring))))
    zero = FiniteModule.zero(ring)
    for g in (f, ModuleMorphism.zero_map(zero, f.target),
              ModuleMorphism.zero_map(f.source, zero)):
        assert is_injective(g) == kernel(g)[0].is_zero
        assert is_surjective(g) == cokernel(g)[0].is_zero


# --- canonicalization -------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.data())
def test_canonicalization_consistent(data):
    ring = data.draw(rings())
    m = data.draw(modules(ring, max_card=32, max_rank=3))
    gens = [data.draw(elements(m)) for _ in range(data.draw(st.integers(0, 3)))]
    q1 = quotient_by(m, gens)
    q2 = quotient_by(m, list(reversed(gens)) + gens)
    assert q1.module == q2.module  # same subgroup, same canonical form


def test_solve_left_factor_and_inverse():
    m = mod(Z4, 2, 4)
    aut = morph(m, m, [[1, 1], [2, 3]])
    assert is_automorphism(aut)
    inv = invert_automorphism(aut)
    assert compose(inv, aut) == ModuleMorphism.identity(m)
    assert compose(aut, inv) == ModuleMorphism.identity(m)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trusted_morphisms_pass_the_checking_constructor(data):
    # every site that builds a morphism without the congruence check: the
    # checking constructor must accept each result, read back from its
    # rows, unchanged, and the memoized hash must agree with the rebuilt one
    ring = data.draw(rings(moduli=(2, 3, 4, 6, 8, 9, 12, 16)))
    a, b, c = (data.draw(modules(ring, max_card=32, max_rank=3)) for _ in range(3))
    f, f2 = data.draw(morphisms(a, b)), data.draw(morphisms(a, b))
    g = data.draw(morphisms(b, c))
    psi = compose(g, f)
    j = solve_left_factor(g, psi)
    assert j is not None and compose(g, j) == psi  # f itself is a solution
    ds = direct_sum((a, b))
    qd = quotient_by(b, data.draw(submodules(b)).generators)
    out = data.draw(morphisms(qd.module, c))
    induced = qd.induced(compose(out, qd.projection))
    assert induced == out
    built = [psi, f + f2, -f, f - f2, j, *hom_group(a, b), *ds.injections, *ds.projections,
             ModuleMorphism.identity(a), ModuleMorphism.zero_map(a, b), ideals.free_cover_epi(b),
             approx.projective_cover(b), qd.projection, induced, cokernel(f)[1],
             subgroup_presentation(data.draw(submodules(b)))[1], kernel(g)[1],
             *approx.phantom_probe_set(b, size_bound=16)]
    other = solve_left_factor(g, data.draw(morphisms(a, c)))
    if other is not None:
        built.append(other)
    for h in built:
        rebuilt = ModuleMorphism(h.source, h.target, h.matrix)
        assert rebuilt.columns == h.columns
        assert rebuilt == h and hash(rebuilt) == hash(h) == hash(h)


def _assert_compose_is_elementwise(g, f):
    h = compose(g, f)
    assert ModuleMorphism(f.source, g.target, h.matrix) == h
    for j in range(f.source.rank):
        assert h.column(j) == g.apply(f.apply(f.source.generator(j)))


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_matches_elementwise_application(data):
    ring = data.draw(rings(moduli=(2, 3, 4, 6, 8, 9, 12, 16)))
    a, b, c = (data.draw(modules(ring, max_card=32, max_rank=3)) for _ in range(3))
    _assert_compose_is_elementwise(data.draw(morphisms(b, c)), data.draw(morphisms(a, b)))


@pytest.mark.parametrize("a, b, c, f_rows, g_rows", [
    ((), (2, 4), (4,), [[], []], [[2, 1]]),           # rank-0 source
    ((2, 4), (4,), (), [[2, 1]], []),                 # rank-0 target
    ((4,), (), (2, 4), [], [[], []]),                 # rank-0 middle
    ((), (), (), [], []),
])
def test_compose_through_a_zero_module(a, b, c, f_rows, g_rows):
    f = morph(mod(Z4, *a), mod(Z4, *b), f_rows)
    g = morph(mod(Z4, *b), mod(Z4, *c), g_rows)
    _assert_compose_is_elementwise(g, f)


@pytest.mark.parametrize("source, target, rows, fake", [
    # identity of Z/4: x = 0 misses g(x) == y
    ((4,), (4,), [[1]], [0]),
    # Z/4 onto Z/2 against the identity of Z/2: x = 1 meets g(x) == y but
    # 2 * 1 != 0 in Z/4, so the lift would be ill defined (none exists)
    ((4,), (2,), [[1]], [1]),
])
def test_left_factor_lift_is_checked(monkeypatch, source, target, rows, fake):
    g = morph(mod(Z4, *source), mod(Z4, *target), rows)
    psi = ModuleMorphism.identity(g.target)
    finmod._lift_form.cache_clear()
    monkeypatch.setattr(finmod, "graph_solution", lambda form, b: list(fake))
    with pytest.raises(InternalConsistencyError, match="non-solution"):
        solve_left_factor(g, psi)


@pytest.mark.parametrize("target, rows, order, fake", [
    # identity of Z/4: x = 1 is not in the kernel of g
    ((4,), [[1]], 4, [1]),
    # zero map Z/4 -> Z/2 at order 2: g(1) == 0 but 2 * 1 != 0 in Z/4
    ((2,), [[0]], 2, [1]),
])
def test_left_factor_kernel_is_checked(monkeypatch, target, rows, order, fake):
    g = morph(mod(Z4, 4), mod(Z4, *target), rows)
    monkeypatch.setattr(finmod, "graph_kernel", lambda form, width: [list(fake)])
    with pytest.raises(InternalConsistencyError, match="annihilation"):
        left_factor_kernel_columns(g, mod(Z4, order))


def _untrimmed_left_factor_system(g, dq, y):
    """x in g.source with g(x) == y and dq * x == 0, with one annihilation
    row for every source factor, the zero rows of factors dividing dq kept."""
    src = g.source
    cols = [g.column(p) + tuple(dq if pp == p else 0 for pp in range(src.rank))
            for p in range(src.rank)]
    return oracles._element_system(src.ring.modulus,
                                  g.target.invariant_factors + src.invariant_factors,
                                  cols, tuple(y) + (0,) * src.rank)


def _lift_by_one_system_per_column(g, psi):
    n = g.source.ring.modulus
    cols = []
    for q, d in enumerate(psi.source.invariant_factors):
        system, rhs = _untrimmed_left_factor_system(g, d, psi.column(q))
        sol = graph_solution(graph_form(system, n, len(rhs)), rhs)
        if sol is None:
            return None
        cols.append(g.source.reduce(sol))
    return ModuleMorphism.from_columns(psi.source, g.source, cols)


def _kernel_by_one_system_per_column(g, source):
    n = g.source.ring.modulus
    out = []
    for d in source.invariant_factors:
        system, rhs = _untrimmed_left_factor_system(g, d, (0,) * g.target.rank)
        basis = graph_kernel(graph_form(system, n, len(rhs)), len(rhs))
        gens = (g.source.reduce(v) for v in basis)
        out.append([x for x in gens if any(x)])
    return out


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lifts_from_the_cached_form_match_one_system_per_column(data):
    # the cached graph form of g at each order answers as one fresh
    # untrimmed graph form per column did: for drawn maps
    # psi, and for every column of every order into g's target
    ring = data.draw(rings(moduli=(2, 3, 4, 6, 8, 9, 12, 16)))
    a, b, c = (data.draw(modules(ring, max_card=32, max_rank=3)) for _ in range(3))
    g = data.draw(morphisms(b, c))
    psis = [compose(g, data.draw(morphisms(a, b))), data.draw(morphisms(a, c))]
    sources = [a]
    for d in ring.divisors()[1:]:
        cyclic = FiniteModule.cyclic(ring, d)
        sources.append(cyclic)
        psis.extend(ModuleMorphism.from_columns(cyclic, c, [y])
                    for y in c.elements() if not any(c.smul(d, y)))
    for psi in psis:
        assert solve_left_factor(g, psi) == _lift_by_one_system_per_column(g, psi)
    for source in sources:
        assert (left_factor_kernel_columns(g, source)
                == _kernel_by_one_system_per_column(g, source))
    # the cached form keeps only the annihilation rows of the source
    # factors that do not divide the order
    for d in ring.divisors():
        kept = sum(1 for dp in b.invariant_factors if d % dp)
        assert finmod._lift_form(g, d).width == c.rank + kept + b.rank


def test_lift_form_drops_the_zero_annihilation_rows():
    # the phantom cover (Z/8)^3 -> Z/2 + Z/4 + Z/8 at order 8: every source
    # factor divides 8, so the form is the bare graph of g, of width 6
    z8 = Ring(8)
    g = morph(mod(z8, 8, 8, 8), mod(z8, 2, 4, 8), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert finmod._lift_form(g, 8).width == 6
    assert finmod._lift_form(g, 4).width == 9
    system, rhs = oracles._element_system(8, g.target.invariant_factors, g.columns, (1, 1, 1))
    assert finmod._lift_form(g, 8) == graph_form(system, 8, 3) and rhs == [4, 2, 1]
    assert solve_left_factor(g, g) == ModuleMorphism.identity(g.source)
    for order in (mod(z8, 8), mod(z8, 4, 8)):
        assert (left_factor_kernel_columns(g, order)
                == _kernel_by_one_system_per_column(g, order))
    assert left_factor_kernel_columns(g, mod(z8, 8)) == [[(2, 0, 0), (0, 4, 0)]]


def test_image_and_kernel_submodules():
    m = mod(Z4, 4)
    double = morph(m, m, [[2]])
    img = image_submodule(double)
    ker = image_submodule(kernel(double)[1])
    assert same_subgroup(img, ker)  # both are {0, 2}


# --- canonical quotients over Z/n ---------------------------------------------

def _smith_factors(n, ncoords, relations):
    """The invariant factors other than 1 of Z^t / <relations, n * e_i>,
    off the integer Smith form of the oracle."""
    rels = [*relations, *([n if i == j else 0 for i in range(ncoords)] for j in range(ncoords))]
    w = oracles.IntMatrix.from_rows([[rel[i] for rel in rels] for i in range(ncoords)],
                                    cols=len(rels))
    return tuple(d for d in smith_normal_form(w).diagonal() if d != 1)


def _checked_quotient_structure(n, t, relations=(), diagonal=None):
    """`_quotient_structure` with the properties that make it a canonical
    quotient: its factors are the Smith oracle's, each projection row kills
    every relation and the diagonal, and lift k projects to e_k.  Returns
    the projection by rows, one per factor, in place of its columns."""
    factors, proj_cols, lift_cols = finmod._quotient_structure(n, t, relations, diagonal)
    assert len(proj_cols) == t and all(len(col) == len(factors) for col in proj_cols)
    proj_rows = [tuple(col[k] for col in proj_cols) for k in range(len(factors))]
    rels = [*relations, *([d if i == j else 0 for i in range(t)]
                          for j, d in enumerate(diagonal or ()))]
    assert factors == _smith_factors(n, t, rels)
    assert len(proj_rows) == len(lift_cols) == len(factors)
    for f, row in zip(factors, proj_rows):
        assert all(0 <= x < f for x in row)
        assert all(sum(map(mul, row, rel)) % f == 0 for rel in rels)
    for k, lift in enumerate(lift_cols):
        assert all(0 <= x < n for x in lift)
        assert [sum(map(mul, row, lift)) % f for f, row in zip(factors, proj_rows)] == \
            [int(q == k) for q in range(len(factors))]
    return factors, proj_rows, lift_cols


QUOTIENT_MODULI = (2, 3, 4, 6, 8, 9, 12, 16, 18, 36, 72)


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_structure_is_the_smith_quotient(data):
    # relations with negative and unreduced entries, on their own or over a
    # diagonal of divisors of n
    n = data.draw(st.sampled_from(QUOTIENT_MODULI))
    t = data.draw(st.integers(0, 4))
    rels = data.draw(st.lists(st.lists(st.integers(-2 * n, 2 * n), min_size=t, max_size=t),
                              max_size=3))
    diagonal = data.draw(st.none() | st.lists(st.sampled_from(Ring(n).divisors()[1:]),
                                              min_size=t, max_size=t))
    factors, _, _ = _checked_quotient_structure(n, t, rels, diagonal)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


MONOMIAL_MODULI = (6, 12, 36)


@st.composite
def monomial_lattices(draw, n):
    """Relations of a full-rank monomial lattice in Z^t: each coordinate
    gets a divisor of n, some get repeated, unreduced (plus a multiple of
    n) or further entries, and zero relations and the order are drawn."""
    divs = Ring(n).divisors()
    t = draw(st.integers(0, 5))
    rels = []
    for i in range(t):
        entries = [draw(st.sampled_from(divs))]
        entries += draw(st.lists(st.sampled_from(divs), max_size=2))
        entries += [e + n * draw(st.integers(1, 2)) for e in
                    draw(st.lists(st.sampled_from(entries), max_size=1))]
        entries += draw(st.lists(st.sampled_from(entries), max_size=1))
        rels += [[e if k == i else 0 for k in range(t)] for e in entries]
    rels += [[0] * t] * draw(st.integers(0, 2))
    return t, draw(st.permutations(rels))


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_quotient_structure_matches_the_smith_form(data):
    n = data.draw(st.sampled_from(MONOMIAL_MODULI))
    t, rels = data.draw(monomial_lattices(n))
    factors, _, _ = _checked_quotient_structure(n, t, rels)
    assert list(factors) == sorted(factors)


def _swap_order(diagonal):
    """The coordinates in the order the pivot search takes them on a
    diagonal lattice: at each position the first least entry among the
    positions left, swapped into place."""
    order = list(range(len(diagonal)))
    for t in range(len(order)):
        pick = min(range(t, len(order)), key=lambda p: diagonal[order[p]])
        order[t], order[pick] = order[pick], order[t]
    return order


def _chain_diagonals():
    for n in (8, 12, 36):
        divs = Ring(n).divisors()[1:]
        for t in range(4):
            for diagonal in product(divs, repeat=t):
                order = _swap_order(diagonal)
                if all(diagonal[b] % diagonal[a] == 0 for a, b in zip(order, order[1:])):
                    yield n, diagonal, order
    yield 8, (8, 4, 4, 2), [3, 1, 2, 0]


def test_chain_diagonals_give_the_permutation_of_their_swap_order():
    # a diagonal lattice whose entries in swap order form a divisibility
    # chain is presented by permuting its coordinates: V is a permutation
    # matrix, so each projection row and each lift is a unit vector
    cases = 0
    for n, diagonal, order in _chain_diagonals():
        t = len(diagonal)
        units = [tuple(int(i == c) for i in range(t)) for c in order]
        assert _checked_quotient_structure(n, t, diagonal=diagonal) == \
            (tuple(diagonal[c] for c in order), units, units)
        cases += 1
    assert cases > 200


@pytest.mark.parametrize("t, rels, factors, order", [
    # ties go to the first relation in row-major order, and each swap
    # reorders the rest
    (3, [[0, 0, 2], [0, 4, 0], [4, 0, 0]], (2, 4, 4), (2, 1, 0)),
    (3, [[4, 0, 0], [0, 4, 0], [0, 0, 2]], (2, 4, 4), (2, 1, 0)),
    # the pivot is the gcd of a coordinate's entries, below its least one
    (3, [[6, 0, 0], [4, 0, 0], [0, 8, 0], [0, 0, 1]], (2, 8), (0, 1)),
    # repeated, unreduced and zero relations
    (2, [[0, 36], [0, 0], [24, 0], [0, 12], [72, 0], [0, 12]], (12, 24), (1, 0)),
])
def test_monomial_quotient_structure_examples(t, rels, factors, order):
    # over n the exponent of the quotient, its largest factor, and over a
    # multiple of it, where the relations reduce differently
    units = [tuple(1 if i == c else 0 for i in range(t)) for c in order]
    for n in (factors[-1], 2 * factors[-1]):
        assert _checked_quotient_structure(n, t, rels) == (factors, units, units)


@pytest.mark.parametrize("n, diagonal, expected", [
    # Z/2 + Z/3 is Z/6: one 2x2 column operation merges the coordinates
    (6, (2, 3), ((6,), [(3, 2)], [(5, 5)])),
    (6, (3, 2), ((6,), [(2, 3)], [(5, 5)])),
    (12, (4, 3, 2), ((2, 12), [(1, 0, 1), (3, 8, 6)], [(2, 9, 9), (1, 11, 11)])),
    (36, (4, 9), ((36,), [(27, 4)], [(35, 34)])),
])
def test_off_chain_diagonals_merge_in_one_column_operation(n, diagonal, expected):
    assert _checked_quotient_structure(n, len(diagonal), diagonal=diagonal) == expected


@pytest.mark.parametrize("diagonal", [
    (2, 3), (3, 2), (3, 3, 2),           # n = 6
    (4, 6), (4, 3, 2), (2, 12, 3),       # n = 12
    (4, 9), (12, 18), (9, 4, 36),        # n = 36
])
def test_monomial_lattices_off_a_chain_fall_back_to_the_smith_form(diagonal):
    # off a chain the factors are still the Smith form's, and a 2x2 column
    # operation merges coordinates, so some projection row is no unit vector
    n = lcm(*diagonal)
    _, proj_rows, _ = _checked_quotient_structure(n, len(diagonal), diagonal=diagonal)
    assert any(sorted(row) != [0] * (len(row) - 1) + [1] for row in proj_rows)


@pytest.mark.parametrize("t, rels", [
    (2, [[-2, 0], [0, 4]]),                # a negative entry
    (2, [[2, 2], [0, 4], [4, 0]]),         # a relation on two coordinates
    (2, [[0, 36], [9, 0], [0, 0], [0, 8]]),  # gcds 9 and 4 are not a chain
    (2, [[2, 0], [3, 3]]),                 # a row operation lowers the pivot
])
def test_quotient_structure_off_the_closed_form_is_the_smith_form(t, rels):
    # over the exponent of the quotient and over a multiple of it
    w = oracles.IntMatrix.from_rows([[rel[i] for rel in rels] for i in range(t)],
                                    cols=len(rels))
    exponent = smith_normal_form(w).diagonal()[-1]
    for n in (exponent, 2 * exponent):
        _checked_quotient_structure(n, t, rels)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_direct_sum_matches_the_smith_form(data):
    ring = data.draw(rings(MONOMIAL_MODULI + (8,)))
    summands = data.draw(st.lists(modules(ring, max_card=216, max_rank=3),
                                  min_size=1, max_size=3))
    concat = [d for m in summands for d in m.invariant_factors]
    factors, proj_rows, lift_cols = _checked_quotient_structure(
        ring.modulus, len(concat), diagonal=concat)
    ds = direct_sum(summands)
    assert ds.module == FiniteModule(ring, factors)
    off = 0
    for m, inj, proj in zip(summands, ds.injections, ds.projections):
        assert inj == ModuleMorphism.from_columns(
            m, ds.module, [[row[off + q] for row in proj_rows] for q in range(m.rank)])
        assert proj == ModuleMorphism.from_columns(
            ds.module, m, [col[off:off + m.rank] for col in lift_cols])
        off += m.rank
    for i, inj in enumerate(ds.injections):
        for j, proj in enumerate(ds.projections):
            assert compose(proj, inj) == (ModuleMorphism.identity(summands[i]) if i == j
                                          else ModuleMorphism.zero_map(summands[i], summands[j]))
    assert ds.copair(ds.injections) == ModuleMorphism.identity(ds.module)


def _dense_automorphism(ring, k, rng):
    """A unipotent lower times a unipotent upper triangular matrix, with
    random entries: an automorphism of (Z/n)^k with no zero entry pattern."""
    n = ring.modulus
    lower = [[int(i == j) or (rng.randrange(n) if i > j else 0) for j in range(k)]
             for i in range(k)]
    upper = [[int(i == j) or (rng.randrange(n) if i < j else 0) for j in range(k)]
             for i in range(k)]
    free = FiniteModule.free(ring, k)
    return morph(free, free, [[sum(map(mul, row, col)) % n for col in zip(*upper)]
                              for row in lower])


@pytest.mark.parametrize("n", [8, 36])
def test_dense_rank_24_cokernel_and_pushout_stay_modulo_n(n):
    # dense rank-24 quotients: the integer Smith form took over 300 s on
    # the pushout; over Z/n both end within the time bound
    ring, k = Ring(n), 24
    rng = random.Random(n)
    free = FiniteModule.free(ring, k)
    f = morph(free, free, [[rng.randrange(n) for _ in range(k)] for _ in range(k)])
    u = morph(free, free, [[rng.randrange(n) for _ in range(k)] for _ in range(k)])
    a = _dense_automorphism(ring, k, rng)
    assert is_automorphism(a)
    start = time.process_time()
    q, proj = cokernel(f)
    po = pushout(u, a)
    assert time.process_time() - start < 2.0
    assert is_surjective(proj) and compose(proj, f).is_zero
    assert q.cardinality * image_submodule(f).cardinality == free.cardinality
    # pushing out along an automorphism gives an automorphism
    assert po.module == free and is_automorphism(po.v_prime)
