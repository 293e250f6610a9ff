from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import phantom_morphisms, rings
from phantomcover import filtration, manifest, rep_a2
from phantomcover.exact_linalg import howell_form
from phantomcover.errors import InputError
from phantomcover.filtration import (
    Filtration,
    FiltrationConfig,
    build_filtration,
    phantom_pure_subrep,
    pure_subrep_containing,
    verify_filtration,
)
from phantomcover.finmod import (
    FiniteModule,
    ModuleMorphism,
    Ring,
    Submodule,
    _scaled,
    is_automorphism,
    same_subgroup,
    slice_generators,
    solve_left_factor,
)
from phantomcover.ideals import is_phantom
from phantomcover.rep_a2 import (
    RepA2,
    RepDiagram,
    RepMorphism,
    SubRep,
    is_pure_subrep,
    rep_colimit,
    restrict_rep,
    subrep_purity,
)
from phantomcover.samplers import random_phantom_rep

Z4 = Ring(4)


def mod(ring, *factors):
    return FiniteModule(ring, tuple(factors))


def morph(src, tgt, rows):
    return ModuleMorphism(src, tgt, tuple(tuple(r) for r in rows))


def doubling_rep(copies):
    m = mod(Z4, *([4] * copies))
    rows = [[2 if i == j else 0 for j in range(copies)] for i in range(copies)]
    return RepA2(m, m, morph(m, m, rows))


CFG = FiltrationConfig(kappa=4)


def test_config_requires_kappa_at_least_ring_size():
    with pytest.raises(InputError):
        pure_subrep_containing(doubling_rep(1), [], [], FiltrationConfig(kappa=3))


def test_pure_subrep_containing_zero_seeds():
    res = pure_subrep_containing(doubling_rep(2), [], [], CFG)
    assert res.subrep.s1.cardinality == 1
    assert res.subrep.s2.cardinality == 1
    assert res.witnesses == 0


def test_pure_subrep_containing_full_seeds():
    rep = doubling_rep(2)
    res = pure_subrep_containing(
        rep,
        [rep.m1.generator(j) for j in range(rep.m1.rank)],
        [rep.m2.generator(j) for j in range(rep.m2.rank)],
        FiltrationConfig(kappa=16),
    )
    assert res.subrep.is_full


def test_pure_subrep_containing_purifies_image():
    # map (x, y) -> 2x + 2y out of Z/4 + Z/4 into Z/4: the seed (1, 0) spans a
    # pure first component, its image {0, 2} is impure and purifies to Z/4
    m1 = mod(Z4, 4, 4)
    m2 = mod(Z4, 4)
    rep = RepA2(m1, m2, morph(m1, m2, [[2, 2]]))
    res = pure_subrep_containing(rep, [(1, 0)], [], FiltrationConfig(kappa=4))
    assert same_subgroup(res.subrep.s1, Submodule(m1, ((1, 0),)))
    assert same_subgroup(res.subrep.s2, Submodule.full(m2))
    assert res.witnesses == 1
    assert is_pure_subrep(res.subrep)


def test_phantom_pure_subrep_trivial_cases():
    rep = doubling_rep(2)
    res = phantom_pure_subrep(rep, [], [], CFG)
    assert res.subrep.cardinality == 2  # zero subrepresentation

    res = phantom_pure_subrep(
        rep,
        [rep.m1.generator(j) for j in range(rep.m1.rank)],
        [rep.m2.generator(j) for j in range(rep.m2.rank)],
        FiltrationConfig(kappa=16),
    )
    assert res.subrep.is_full


def test_phantom_pure_subrep_restricted_map_is_phantom():
    rep = doubling_rep(2)
    res = phantom_pure_subrep(rep, [rep.m1.generator(0)], [], CFG)
    inner, _ = restrict_rep(res.subrep)
    assert is_phantom(inner.f)
    assert is_pure_subrep(res.subrep)
    assert res.subrep.s1.contains(rep.m1.generator(0))


def test_phantom_pure_subrep_rejects_nonphantom():
    two = mod(Z4, 2)
    rep = RepA2(two, two, ModuleMorphism.identity(two))
    with pytest.raises(InputError):
        phantom_pure_subrep(rep, [], [], CFG)


def test_build_filtration_small_is_single_step():
    rep = doubling_rep(1)  # cardinality 8
    filt = build_filtration(rep, FiltrationConfig(kappa=8))
    assert filt.length == 1
    assert verify_filtration(filt).ok


def test_build_filtration_zero_rep():
    filt = build_filtration(RepA2.zero(Z4), CFG)
    assert filt.length == 0
    assert verify_filtration(filt).ok


def test_build_filtration_three_copies():
    rep = doubling_rep(3)
    filt = build_filtration(rep, CFG)
    assert filt.length >= 3
    report = verify_filtration(filt, CFG)
    assert report.ok, report.lines()
    for i in range(filt.length):
        assert is_pure_subrep(filt.steps[i])


def test_verify_filtration_catches_impure_step():
    rep = doubling_rep(1)
    impure = SubRep(rep, Submodule(rep.m1, ((2,),)), Submodule(rep.m2, ((2,),)))
    filt = Filtration(rep, (SubRep.zero(rep), impure, SubRep.full(rep)), ())
    report = verify_filtration(filt, CFG)
    assert not report.ok
    assert not report.conditions["purity"].ok
    detail = report.conditions["purity"].detail
    assert "index 1" in detail
    # 2 lies in S1 meet 2*M1 but not in 2*S1 = 0
    assert detail.endswith("s1 fails at d=2, witness (2)")


def test_verify_filtration_names_the_impure_component():
    rep = doubling_rep(2)
    # s1 = <(1, 0)> is a summand; s2 = <(1, 0), (0, 2)> fails at d = 2 with
    # witness (0, 2)
    step = SubRep(rep, Submodule(rep.m1, ((1, 0),)), Submodule(rep.m2, ((1, 0), (0, 2))))
    filt = Filtration(rep, (SubRep.zero(rep), step, SubRep.full(rep)), ())
    detail = verify_filtration(filt, CFG).conditions["purity"].detail
    assert detail == "impure step at index 1: s2 fails at d=2, witness (0,2)"


def _record_calls(monkeypatch, name, module=filtration):
    """Wrap module.<name> so that each call's arguments are recorded."""
    calls = []
    real = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def _count_step_quotients(monkeypatch):
    return _record_calls(monkeypatch, "slice_phantom_witness")


def test_verify_filtration_builds_each_step_quotient_once(monkeypatch):
    filt = build_filtration(doubling_rep(3), CFG)
    calls = _count_step_quotients(monkeypatch)
    assert verify_filtration(filt, CFG).ok
    assert calls == list(zip(filt.steps, filt.steps[1:]))


def test_verify_filtration_builds_no_quotient_off_a_chain(monkeypatch):
    rep = doubling_rep(1)
    # the second step does not contain the first
    first = SubRep(rep, Submodule.zero(rep.m1), Submodule.full(rep.m2))
    second = SubRep(rep, Submodule(rep.m1, ((2,),)), Submodule(rep.m2, ((2,),)))
    filt = Filtration(rep, (SubRep.zero(rep), first, second, SubRep.full(rep)), ())
    calls = _count_step_quotients(monkeypatch)
    report = verify_filtration(filt, CFG)
    assert report.conditions["continuity"].detail == "chain containment fails"
    assert not report.conditions["quotient_phantom"].ok
    assert not report.conditions["size_bounds"].ok
    assert calls == []


def test_verify_filtration_catches_wrong_base_and_union():
    rep = doubling_rep(1)
    filt = Filtration(rep, (SubRep.full(rep),), ())
    report = verify_filtration(filt, CFG)
    assert not report.conditions["zero_base"].ok
    filt = Filtration(rep, (SubRep.zero(rep),), ())
    report = verify_filtration(filt, CFG)
    assert not report.conditions["continuity"].ok


def test_verify_filtration_trivial_chain():
    rep = doubling_rep(1)
    filt = Filtration(rep, (SubRep.zero(rep), SubRep.full(rep)), ())
    report = verify_filtration(filt, FiltrationConfig(kappa=8))
    assert report.ok, report.lines()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_build_filtration_property(data):
    ring = data.draw(rings())
    f = data.draw(phantom_morphisms(ring, max_card=32))
    rep = RepA2.from_morphism(f)
    kappa = data.draw(st.sampled_from(
        [ring.modulus, 2 * ring.modulus, max(ring.modulus, rep.cardinality)]))
    cfg = FiltrationConfig(kappa=kappa)
    filt = build_filtration(rep, cfg)
    report = verify_filtration(filt, cfg)
    assert report.ok, report.lines()


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_filtration_colimit_recovers_target(data):
    # the representation is the directed union of its own chain
    ring = data.draw(rings())
    f = data.draw(phantom_morphisms(ring, max_card=16))
    rep = RepA2.from_morphism(f)
    cfg = FiltrationConfig(kappa=ring.modulus)
    filt = build_filtration(rep, cfg)
    inner = [restrict_rep(s) for s in filt.steps]
    reps = [r for r, _ in inner]
    steps = []
    for i in range(len(reps) - 1):
        d = solve_left_factor(inner[i + 1][1].d, inner[i][1].d)
        s = solve_left_factor(inner[i + 1][1].s, inner[i][1].s)
        assert d is not None and s is not None
        steps.append(RepMorphism(reps[i], reps[i + 1], d, s))
    col = rep_colimit(RepDiagram(reps, steps))
    assert col.rep.m1.invariant_factors == rep.m1.invariant_factors
    assert col.rep.m2.invariant_factors == rep.m2.invariant_factors
    top = col.structural[-1]
    assert is_automorphism(top.d) and is_automorphism(top.s)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pure_subrep_containing_idempotent(data):
    ring = data.draw(rings())
    f = data.draw(phantom_morphisms(ring, max_card=16))
    rep = RepA2.from_morphism(f)
    cfg = FiltrationConfig(kappa=max(ring.modulus, rep.cardinality))
    seeds1 = [next(iter(rep.m1.elements()))] if rep.m1.rank else []
    res = pure_subrep_containing(rep, seeds1, [], cfg)
    assert is_pure_subrep(res.subrep)
    again = pure_subrep_containing(
        rep, res.subrep.s1.generators, res.subrep.s2.generators, cfg)
    assert same_subgroup(again.subrep.s1, res.subrep.s1)
    assert same_subgroup(again.subrep.s2, res.subrep.s2)


def _ladder(k):
    # (Z/8)^k -> Z/2 + (Z/4)^(k-1) + Z/8: each coordinate to its own factor
    # and their sum to Z/8, after the source automorphism x_j += x_(j+1)
    ring = Ring(8)
    src = mod(ring, *([8] * k))
    tgt = mod(ring, 2, *([4] * (k - 1)), 8)
    rows = [[int(j in (i - 1, i)) for j in range(k)] for i in range(k)]
    rows.append([1] + [2] * (k - 1))
    return RepA2(src, tgt, morph(src, tgt, rows))


def test_build_filtration_ladder_forms_no_quotient(monkeypatch):
    calls = _record_calls(monkeypatch, "_quotient_rep_data")
    cfg = FiltrationConfig(kappa=8)
    filt = build_filtration(_ladder(8), cfg)
    assert calls == []
    assert all(r.witnesses == 0 for r in filt.reports)
    assert verify_filtration(filt, cfg).ok


def test_build_filtration_quotient_only_for_witnesses(monkeypatch):
    # step 0 of this sample adjoins two purification witnesses
    rep = random_phantom_rep(11, Ring(8), 64)
    calls = _record_calls(monkeypatch, "_quotient_rep_data")
    filt = build_filtration(rep, FiltrationConfig(kappa=8))
    assert calls == [(filt.steps[0],)]
    assert [r.witnesses for r in filt.reports] == [2, 0]
    assert filt.steps[1].s1.generators == ((1,),)
    assert filt.steps[1].s2.generators == ((0, 4), (0, 2), (0, 1))
    assert (filt.reports[0].bound_m1, filt.reports[0].bound_m2) == (8, 512)


def test_build_filtration_ambient_steps_match_quotient_route(monkeypatch):
    # every step but a jump to the top, rebuilt in the quotient from the
    # step before it, has the same generators and report; exactly the steps
    # that adjoin witnesses were built there
    routed = _record_calls(monkeypatch, "_quotient_rep_data")
    ambient = witness = 0
    for n in (4, 8, 9, 12, 16, 36, 72):
        cfg = FiltrationConfig(kappa=n)
        for seed in range(1, 41):
            for size in (64, 4096):
                rep = random_phantom_rep(seed, Ring(n), size)
                del routed[:]
                filt = build_filtration(rep, cfg)
                assert routed == [(cur,) for cur, r in zip(filt.steps, filt.reports)
                                  if r.witnesses]
                for cur, nxt, report in zip(filt.steps, filt.steps[1:], filt.reports):
                    if (rep.m1.cardinality // cur.s1.cardinality <= n
                            and rep.m2.cardinality // cur.s2.cardinality <= n):
                        continue
                    component, x = filtration._fresh_element(rep, cur)
                    again, again_report = filtration._quotient_step(
                        cur, component, x, cfg)
                    assert again.s1.generators == nxt.s1.generators
                    assert again.s2.generators == nxt.s2.generators
                    assert again_report == report
                    if report.witnesses:
                        witness += 1
                    else:
                        ambient += 1
    assert ambient >= 100 and witness >= 20


def test_verify_filtration_ladder_builds_no_slice_form(monkeypatch):
    # every ladder slice generator has order n, so each slice is tested
    # against the upper step's own Howell form: no form is built for it
    cfg = FiltrationConfig(kappa=8)
    filt = build_filtration(_ladder(8), cfg)
    orders = [d for low, up in zip(filt.steps, filt.steps[1:])
              for d, _ in slice_generators(low.s1, up.s1)]
    assert orders == [8] * 8
    built = _record_calls(monkeypatch, "howell_form", rep_a2)
    assert verify_filtration(filt, cfg).ok
    assert built == []


def test_verify_filtration_ladder_decomposes_only_the_jump_to_the_top(monkeypatch):
    # each ladder step below the top extends the one below by one
    # generator of S1, so its slice is read from its order and one
    # membership test; only the jump to the top, whose generators are M1's
    # own, is no prefix and is decomposed
    cfg = FiltrationConfig(kappa=8)
    filt = build_filtration(_ladder(8), cfg)
    low, top = filt.steps[-2:]
    assert top.s1.generators[:len(low.s1.generators)] != low.s1.generators
    calls = _record_calls(monkeypatch, "slice_generators", rep_a2)
    assert verify_filtration(filt, cfg).ok
    assert calls == [(low.s1, top.s1)]


def test_build_filtration_ladder_fresh_scans_resume(monkeypatch):
    # each scan resumes at the e_j where the one before it stopped, so the
    # walk's scans test each position once, plus one re-test a step
    rep = _ladder(8)
    tests, inside = [], []
    real_fresh, real_contains = filtration._fresh_element, Submodule.contains

    def fresh(*args):
        inside.append(True)
        try:
            return real_fresh(*args)
        finally:
            inside.pop()

    def contains(self, x):
        if inside:
            tests.append(x)
        return real_contains(self, x)

    monkeypatch.setattr(filtration, "_fresh_element", fresh)
    monkeypatch.setattr(Submodule, "contains", contains)
    filt = build_filtration(rep, FiltrationConfig(kappa=8))
    assert 0 < len(tests) <= rep.m1.rank + rep.m2.rank + filt.length


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from((4, 8, 9, 12, 16)), st.integers(1, 10**6))
def test_fresh_element_resumes_at_any_passed_start(n, sample):
    # the scan positions, m1's e_j from the top down and then m2's: a scan
    # started at any position the full scan passes, its answer included,
    # returns the full scan's answer, and the builder's start, where the
    # scan of the step below stopped, is always one of them
    rep = random_phantom_rep(sample, Ring(n), 4096)
    positions = ([(1, j) for j in reversed(range(rep.m1.rank))]
                 + [(2, j) for j in reversed(range(rep.m2.rank))])
    start = None
    for cur in build_filtration(rep, FiltrationConfig(kappa=n)).steps:
        full = filtration._fresh_element(rep, cur)
        passed = positions if full is None else positions[:positions.index(
            (full[0], full[1].index(1))) + 1]
        assert start is None or start in passed
        for p in passed:
            assert filtration._fresh_element(rep, cur, p) == full
        if full is not None:
            start = (full[0], full[1].index(1))


def test_build_filtration_steps_pass_the_full_subrep_check():
    # the builder checks each step against the one before it; the full
    # constructor, which trusts no earlier step, accepts every one
    checked = 0
    for n in (4, 8, 9, 12, 16, 36):
        for seed in range(1, 21):
            rep = random_phantom_rep(seed, Ring(n), 4096)
            for step in build_filtration(rep, FiltrationConfig(kappa=n)).steps:
                assert SubRep(rep, step.s1, step.s2) == step
                checked += 1
    assert checked >= 300


def test_build_filtration_checks_each_generator_once(monkeypatch):
    # on the ladder the SubRep checks apply f once to each S1 generator a
    # step adds, and to M1's generators once at the jump to the top
    applied, inside = [], []
    real_check, real_apply = SubRep.__post_init__, ModuleMorphism.apply

    def check(self, *args):
        inside.append(True)
        try:
            return real_check(self, *args)
        finally:
            inside.pop()

    def apply(self, x):
        if inside:
            applied.append(tuple(x))
        return real_apply(self, x)

    monkeypatch.setattr(SubRep, "__post_init__", check)
    monkeypatch.setattr(ModuleMorphism, "apply", apply)
    filt = build_filtration(_ladder(8), FiltrationConfig(kappa=8))
    below = [g for step in filt.steps[:-1] for g in step.s1.generators]
    distinct = list(dict.fromkeys(below))
    assert applied == distinct + list(filt.steps[-1].s1.generators)
    assert len(applied) == 16 < len(below) + 8


LADDER_24 = Path(__file__).parent / "data" / "ladder_n8_k24.txt"


def _ladder_24():
    """The rank-24 ladder instance (n = 8), with the manifest it came from."""
    man = manifest.parse(LADDER_24.read_text(encoding="utf-8"))
    return man, man.reps["F"]


def _record_purity(monkeypatch):
    """Wrap the walks' `subrep_purity` so that each (step, below, result)
    is recorded."""
    seen = []

    def recording(step, below=None):
        result = subrep_purity(step, below)
        seen.append((step, below, result))
        return result

    monkeypatch.setattr(filtration, "subrep_purity", recording)
    return seen


def _scratch_howell(sub):
    amb = sub.ambient
    return howell_form([_scaled(amb, g) for g in sub.generators],
                       amb.ring.modulus, amb.rank)


def _assert_carried_forms_match_scratch(seen):
    """Every purity result a walk computed equals the one computed with no
    step below; returns how many were read off forms of the step below."""
    inserted = 0
    for step, below, result in seen:
        assert result == subrep_purity(step)
        if below is not None and result is not None:
            prefix = below[1].sub.generators
            if below[1].forms and step.s2.generators[:len(prefix)] == prefix:
                inserted += 1
    return inserted


def test_ladder_chain_forms_match_forms_from_scratch(monkeypatch):
    # every Howell basis of a built or parsed step, and every purity form a
    # builder or verifier walk carries, equals the form built from all of
    # the step's generators
    man, rep = _ladder_24()
    cfg = FiltrationConfig(kappa=8)
    seen = _record_purity(monkeypatch)
    built = build_filtration(rep, cfg)
    assert _assert_carried_forms_match_scratch(seen) >= 20
    _, parsed, _ = manifest.parse_filtration(manifest.serialize_filtration(man, built, cfg))
    assert parsed.steps == built.steps
    for step in built.steps + parsed.steps:
        for sub in (step.s1, step.s2):
            assert sub.howell == _scratch_howell(sub)
    del seen[:]
    assert verify_filtration(parsed, cfg).ok
    assert [step for step, _, _ in seen] == list(parsed.steps)
    assert _assert_carried_forms_match_scratch(seen) >= 20


def test_verify_filtration_carried_forms_fall_back(monkeypatch):
    _, rep = _ladder_24()
    cfg = FiltrationConfig(kappa=8)
    filt = build_filtration(rep, cfg)
    expected = verify_filtration(filt, cfg).lines()
    seen = _record_purity(monkeypatch)
    # step 5 with its generators reversed: the same subgroups, so the same
    # verdict, but neither step 5 nor step 6 extends the step below by
    # prefix, and both build their forms from scratch
    steps = list(filt.steps)
    five = steps[5]
    steps[5] = SubRep(rep, Submodule(rep.m1, five.s1.generators[::-1]),
                      Submodule(rep.m2, five.s2.generators[::-1]))
    reordered = Filtration(rep, tuple(steps), filt.reports)
    assert verify_filtration(reordered, cfg).lines() == expected
    _assert_carried_forms_match_scratch(seen)
    # step 10 with 2 * e_3 adjoined in the second component: impure at
    # d = 2, found from the forms of step 9, with the detail a from-scratch
    # test gives
    del seen[:]
    steps = list(filt.steps)
    ten = steps[10]
    steps[10] = SubRep(rep, ten.s1, Submodule(
        rep.m2, ten.s2.generators + (rep.m2.smul(2, rep.m2.generator(3)),)))
    impure = Filtration(rep, tuple(steps), filt.reports)
    assert verify_filtration(impure, cfg).conditions["purity"].detail == (
        "impure step at index 10: s2 fails at d=2, "
        "witness (0,0,0,0,0,0,0,2,2,0,0,0,0,0,2,0,0,2,0,0,2,0,0,2,0)")
    step, below, result = seen[-1]
    assert step is steps[10] and result is None and below[1].forms
    _assert_carried_forms_match_scratch(seen)


def test_verify_filtration_after_a_certificate_step(monkeypatch):
    # in M2 = Z/2 + Z/4 + Z/4 over Z/4, <(0, 1, 0)> passes the summand
    # certificate and builds no purity form, so the step above it builds
    # its own: <(0, 1, 0), (1, 0, 1)> is pure by sizes, and
    # <(0, 1, 0), (0, 0, 2)> fails at d = 2
    ring = Ring(4)
    zero, m2 = FiniteModule.zero(ring), mod(ring, 2, 4, 4)
    rep = RepA2(zero, m2, ModuleMorphism.zero_map(zero, m2))
    cfg = FiltrationConfig(kappa=4)

    def step(*gens):
        return SubRep(rep, Submodule.zero(zero), Submodule(m2, gens))

    seen = _record_purity(monkeypatch)
    certified = step((0, 1, 0))
    for top, ok, detail in (((1, 0, 1), True, ""),
                            ((0, 0, 2), False,
                             "impure step at index 2: s2 fails at d=2, witness (0,0,2)")):
        del seen[:]
        chain = (SubRep.zero(rep), certified, step((0, 1, 0), top), SubRep.full(rep))
        report = verify_filtration(Filtration(rep, chain, ()), cfg)
        assert report.conditions["purity"] == filtration.ConditionReport(ok, detail)
        assert seen[1][2][1].forms == {}
        assert seen[2][1] is seen[1][2]
        _assert_carried_forms_match_scratch(seen)
