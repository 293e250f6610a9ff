"""Cross-checks of the Howell-form subgroup routes against the enumeration
oracles: membership, cardinality, subgroup equality, the filtration's lowest
fresh element and lowest preimages, the purification witness with its lowest
preimage, and the lowest solutions of the element and left-factor solvers."""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import elements, modules, morphisms, rings, submodules
from phantomcover.exact_linalg import howell_form, howell_insert
from phantomcover.filtration import _fresh_element, _lowest_preimage
from phantomcover.finmod import (
    FiniteModule,
    ModuleMorphism,
    Ring,
    Submodule,
    _lowest_scalar_preimage,
    _purification_witness,
    compose,
    pure_closure_counted,
    quotient_by,
    same_subgroup,
    solve_left_factor,
)
from phantomcover.oracles import (
    additive_closure_mod,
    element_preimage,
    lowest_non_member,
    lowest_purification_witness,
    subgroup_elements,
)
from phantomcover.rep_a2 import RepA2, SubRep

MODULI = (2, 3, 4, 6, 8, 9, 12, 16)


@st.composite
def modules_with_submodule(draw, max_card=64):
    """A generated submodule S, or in about half the draws c * S for a
    divisor c, which is far from pure: its purification witnesses then
    differ from d * S at several columns."""
    m = draw(modules(draw(rings(moduli=MODULI)), max_card=max_card))
    sub = draw(submodules(m))
    c = draw(st.one_of(st.just(1), st.sampled_from(m.ring.divisors())))
    return m, Submodule(m, tuple(m.smul(c, g) for g in sub.generators))


INSERT_MODULI = (2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 36, 72, 100)


@st.composite
def insertions(draw):
    """(n, width, base rows, added rows): the added rows mix fresh rows with
    zero rows, repeats, members of the span and scaled rows."""
    n = draw(st.sampled_from(INSERT_MODULI))
    width = draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-n, 2 * n - 1), st.sampled_from(Ring(n).divisors()),
                      st.just(0))
    row = st.lists(entry, min_size=width, max_size=width)
    base = draw(st.lists(row, max_size=6))
    added = draw(st.lists(row, max_size=4))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "member", "scaled")),
                              max_size=4)):
        if kind == "zero":
            added.append([0] * width)
        elif kind == "repeat" and added:
            added.append(list(draw(st.sampled_from(added))))
        elif kind == "member" and base:
            coeffs = draw(st.lists(st.integers(0, n - 1), min_size=len(base),
                                   max_size=len(base)))
            added.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(width)])
        elif kind == "scaled" and base + added:
            c = draw(st.sampled_from(Ring(n).divisors()))
            added.append([c * x for x in draw(st.sampled_from(base + added))])
    order = draw(st.permutations(range(len(added))))
    return n, width, base, [added[i] for i in order]


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(insertions())
def test_howell_insert_matches_howell_form(case):
    n, width, base, added = case
    form = howell_form(base, n, width)
    whole = howell_form(base + added, n, width)
    assert howell_insert(form, added) == whole
    # one row at a time, as a chain of steps inserts them
    for row in added:
        form = howell_insert(form, [row])
    assert form == whole
    # rows already in the span leave the form as it is
    assert howell_insert(whole, base + added) is whole


def test_howell_insert_example():
    # <(2, 1)> in (Z/4)^2 is <(2, 1), (0, 2)>; inserting (0, 1) changes the
    # lead at column 1 from 2 to 1, which reduces the entry above it
    form = howell_form([[2, 1]], 4, 2)
    grown = howell_insert(form, [[0, 1]])
    assert grown.rows == ((2, 0), (0, 1)) and grown.pivots == (0, 1)
    assert grown == howell_form([[2, 1], [0, 1]], 4, 2)
    assert howell_insert(form, [[0, 2], [2, 3]]) is form


def test_howell_form_example():
    # <(2, 2)> in (Z/4)^2 is {0, (2, 2)}: leading entry 2, and 2 * (2, 2) = 0
    h = howell_form([[2, 2]], 4, 2)
    assert h.rows == ((2, 2),) and h.pivots == (0,)
    assert h.cardinality == 2
    # <(2, 1)> in (Z/4)^2: 2 * (2, 1) = (0, 2) must join the basis
    h = howell_form([[2, 1]], 4, 2)
    assert h.rows == ((2, 1), (0, 2)) and h.cardinality == 4
    assert h.contains((0, 2)) and not h.contains((0, 1))
    assert h.reduce((3, 3)) == (1, 0)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_howell_form_matches_closure(data):
    n = data.draw(st.sampled_from(MODULI))
    width = data.draw(st.integers(0, 3 if n <= 6 else 2))
    rows = data.draw(st.lists(st.lists(st.integers(-n, 2 * n), min_size=width,
                                       max_size=width), max_size=4))
    h = howell_form(rows, n, width)
    span = additive_closure_mod([[x % n for x in r] for r in rows], width, n)
    assert h.cardinality == len(span)
    vectors = sorted(additive_closure_mod(
        [[int(i == j) for j in range(width)] for i in range(width)], width, n))
    for x in vectors:
        assert h.contains(x) == (x in span)
        coset = {tuple((a + b) % n for a, b in zip(x, s)) for s in span}
        assert h.reduce(x) == min(coset)
    # the basis is unique for its span
    assert howell_form(sorted(span), n, width) == h


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(modules_with_submodule())
def test_contains_and_cardinality_match_oracle(mw):
    m, sub = mw
    elts = subgroup_elements(sub)
    assert sub.cardinality == len(elts)
    assert sub.is_full == (len(elts) == m.cardinality)
    for x in m.elements():
        assert sub.contains(x) == (x in elts)


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_same_subgroup_matches_oracle(data):
    m, a = data.draw(modules_with_submodule())
    b = data.draw(submodules(m))
    assert same_subgroup(a, b) == (subgroup_elements(a) == subgroup_elements(b))
    # the same subgroup from a different generating set
    shuffled = Submodule(m, tuple(reversed(a.generators)) + a.generators)
    assert same_subgroup(a, shuffled)


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fresh_element_matches_oracle(data):
    ring = data.draw(rings(moduli=MODULI))
    m1 = data.draw(modules(ring, max_card=64, max_rank=3))
    m2 = data.draw(modules(ring, max_card=64, max_rank=3))
    rep = RepA2.from_morphism(ModuleMorphism.zero_map(m1, m2))
    cur = SubRep(rep, data.draw(submodules(m1)), data.draw(submodules(m2)))
    expected = None
    for component, sub in ((1, cur.s1), (2, cur.s2)):
        x = lowest_non_member(sub)
        if x is not None:
            expected = (component, x)
            break
    assert _fresh_element(rep, cur) == expected


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(modules_with_submodule())
def test_purification_witness_matches_oracle(mw):
    m, sub = mw
    for d in m.ring.divisors():
        assert _purification_witness(sub, d) == lowest_purification_witness(sub, d)


def test_purification_witness_is_read_at_the_last_differing_column():
    # S = 2 * (Z/4)^2: S meet 2M = S and 2S = 0 differ at both columns,
    # and the lowest witness vanishes at the first
    m = FiniteModule(Ring(4), (4, 4))
    sub = Submodule(m, ((2, 0), (0, 2)))
    assert _purification_witness(sub, 2) == (0, 2)
    assert _lowest_scalar_preimage(m, 2, (0, 2)) == (0, 1)


def test_lowest_scalar_preimage_on_every_cyclic_module():
    for n in MODULI:
        ring = Ring(n)
        for e in ring.divisors()[1:]:
            m = FiniteModule(ring, (e,))
            for d in ring.divisors():
                for s in {m.smul(d, x) for x in m.elements()}:
                    lowest = min(x for x in m.elements() if m.smul(d, x) == s)
                    assert _lowest_scalar_preimage(m, d, s) == lowest


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lowest_scalar_preimage_matches_oracle(data):
    m = data.draw(modules(data.draw(rings(moduli=MODULI)), max_card=64))
    d = data.draw(st.sampled_from(m.ring.divisors()))
    s = m.smul(d, data.draw(elements(m)))
    lowest = min(x for x in m.elements() if m.smul(d, x) == s)
    assert _lowest_scalar_preimage(m, d, s) == lowest


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(modules_with_submodule(max_card=32))
def test_pure_closure_makes_the_oracle_choices(mw):
    m, sub = mw
    cur, witnesses = sub, 0
    while True:
        found = None
        for d in m.ring.divisors()[1:]:
            s = lowest_purification_witness(cur, d)
            if s is not None:
                found = d, s
                break
        if found is None:
            break
        d, s = found
        cur = cur.join([min(x for x in m.elements() if m.smul(d, x) == s)])
        witnesses += 1
    assert pure_closure_counted(sub) == (cur, witnesses)


def test_fresh_element_on_full_and_zero_steps():
    ring = Ring(4)
    m = FiniteModule(ring, (2, 4))
    rep = RepA2.from_morphism(ModuleMorphism.identity(m))
    assert _fresh_element(rep, SubRep.full(rep)) is None
    assert _fresh_element(rep, SubRep.zero(rep)) == (1, (0, 1))


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solvers_return_the_lowest_solution(data):
    ring = data.draw(rings(moduli=MODULI))
    src = data.draw(modules(ring, max_card=64))
    tgt = data.draw(modules(ring, max_card=64))
    f = data.draw(morphisms(src, tgt))
    # half the draws are solvable by construction
    solvable = data.draw(st.booleans())
    y = f.apply(data.draw(elements(src))) if solvable else data.draw(elements(tgt))
    lowest = next((x for x in src.elements() if f.apply(x) == y), None)
    assert element_preimage(f, y) == lowest

    q = data.draw(modules(ring, max_card=16, max_rank=2))
    if solvable:
        psi = compose(f, data.draw(morphisms(q, src)))
    else:
        psi = data.draw(morphisms(q, tgt))
    columns = [next((x for x in src.elements()
                     if f.apply(x) == psi.column(k) and not any(src.smul(dk, x))), None)
               for k, dk in enumerate(q.invariant_factors)]
    j = solve_left_factor(f, psi)
    if None in columns:
        assert j is None
    else:
        assert [j.column(k) for k in range(q.rank)] == columns


def test_lowest_lift_is_killed_by_the_column_order():
    ring = Ring(4)
    two = FiniteModule(ring, (2,))
    # Z/2 + Z/4 onto Z/2 by (1, 1): (0, 1) is the lowest preimage of 1,
    # but 2 * (0, 1) != 0, so the lowest lift of the identity of Z/2 is (1, 0)
    g = ModuleMorphism(FiniteModule(ring, (2, 4)), two, ((1, 1),))
    assert element_preimage(g, (1,)) == (0, 1)
    assert solve_left_factor(g, ModuleMorphism.identity(two)).matrix == ((1,), (0,))
    # Z/4 onto Z/2: 1 and 3 map to 1 and neither is killed by 2, so no lift
    g = ModuleMorphism(FiniteModule(ring, (4,)), two, ((1,),))
    assert element_preimage(g, (1,)) == (1,)
    assert solve_left_factor(g, ModuleMorphism.identity(two)) is None


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coset_minimum_preimages_match_the_element_solver(data):
    # the filtration pulls quotient generators back by the lowest element
    # of a lift's coset; it is the lowest preimage element_preimage solves for
    ring = data.draw(rings(moduli=MODULI))
    m = data.draw(modules(ring, max_card=64))
    sub = data.draw(submodules(m, max_gens=3))
    x = data.draw(elements(m))
    assert sub.coset_minimum(x) == min(m.add(x, s) for s in subgroup_elements(sub))
    qd = quotient_by(m, sub.generators)
    for y in qd.module.elements():
        assert qd.projection.apply(qd.lift(y)) == y
        assert _lowest_preimage(qd, sub, y) == element_preimage(qd.projection, y)
