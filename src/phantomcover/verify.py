"""Seeded property suite behind the `verify-suite` command.

Every invariant of every module is expressed as a named property that runs a
fixed number of seeded samples over one ring and reports failures with a
serialized counterexample manifest.  All sampling is deterministic in
(seed, property, ring, sample index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import approx as _approx
from . import filtration as _filtration
from . import ideals as _ideals
from . import manifest as _manifest
from . import oracles as _oracles
from . import rep_a2 as _rep_a2
from . import samplers as _s
from .errors import InputError
from .finmod import (
    Diagram,
    FiniteModule,
    ModuleMorphism,
    Ring,
    Submodule,
    _proper_prime_powers,
    _purification_witness,
    compose,
    direct_sum,
    directed_colimit,
    factorize,
    hom_group,
    is_automorphism,
    is_pure_submodule,
    is_surjective,
    kernel,
    pure_closure,
    solve_left_factor,
    subgroup_presentation,
)

DEFAULT_MODULI = (2, 3, 4, 6, 8, 9, 12)


@dataclass
class Failure:
    module: str
    prop: str
    ring: int
    seed: int
    sample: int
    message: str
    counterexample: str = ""


@dataclass
class PropertyOutcome:
    module: str
    prop: str
    ring: int
    samples: int
    vacuous: int
    failures: list[Failure]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class SuiteReport:
    outcomes: list[PropertyOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def failures(self) -> list[Failure]:
        return [f for o in self.outcomes for f in o.failures]


def _manifest_for(ring: Ring, **objects) -> str:
    man = _manifest.Manifest(ring)
    for name, obj in objects.items():
        if isinstance(obj, FiniteModule):
            man.add_module(name, obj)
        elif isinstance(obj, ModuleMorphism):
            man.add_morphism(name, obj)
        elif isinstance(obj, _rep_a2.RepA2):
            man.add_rep(name, obj)
    return _manifest.serialize(man)


class _Check:
    """Per-sample collector: call fail() to record, with context attached."""

    def __init__(self, module, prop, ring, seed, sample):
        self.module = module
        self.prop = prop
        self.ring = ring
        self.seed = seed
        self.sample = sample
        self.failures: list[Failure] = []

    def fail(self, message: str, **objects) -> None:
        self.failures.append(Failure(
            self.module, self.prop, self.ring.modulus, self.seed, self.sample,
            message, _manifest_for(self.ring, **objects) if objects else ""))

    def ensure(self, cond: bool, message: str, **objects) -> bool:
        if not cond:
            self.fail(message, **objects)
        return cond


# --- exact_linalg -----------------------------------------------------------

def _random_int_matrix(rng, max_dim=6, lo=-20, hi=20) -> _oracles.IntMatrix:
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    return _oracles.IntMatrix.from_rows(
        [[rng.randrange(lo, hi + 1) for _ in range(c)] for _ in range(r)])


def prop_snf_minor_gcd(chk, rng, ring):
    a = _random_int_matrix(rng)
    s = _oracles.smith_normal_form(a)
    chk.ensure(s.u @ a @ s.v == s.d, f"U*A*V != D for {a.entries}")
    chk.ensure(all(abs(_oracles.determinant(t)) == 1 for t in (s.u, s.v)),
               "transforms are not unimodular")
    diag = s.diagonal()
    for i in range(len(diag) - 1):
        if diag[i]:
            chk.ensure(diag[i + 1] % diag[i] == 0, "divisibility chain broken")
    chk.ensure(diag == _oracles.minor_gcd_diagonal(a),
               f"SNF diagonal {diag} disagrees with minor-gcd oracle on {a.entries}")


def prop_solve_mod_exhaustive(chk, rng, ring):
    n = ring.modulus
    a = _random_int_matrix(rng, max_dim=4, lo=-8, hi=8)
    b = [rng.randrange(n) for _ in range(a.rows)]
    got = _oracles.solve_mod(a, b, n)
    brute = _oracles.exhaustive_solve_mod(a, b, n)
    chk.ensure(got == brute,
               f"solver gave {got}, lowest solution is {brute}, "
               f"on {a.entries} = {b} mod {n}")


def prop_solution_space_exhaustive(chk, rng, ring):
    n = ring.modulus
    a = _random_int_matrix(rng, max_dim=4, lo=-8, hi=8)
    gens = _oracles.solution_space_mod(a, n)
    closure = _oracles.additive_closure_mod(gens, a.cols, n)
    chk.ensure(closure == _oracles.exhaustive_kernel_mod(a, n),
               f"kernel generators wrong for {a.entries} mod {n}")


# --- finmod ------------------------------------------------------------------

def prop_canonicalization(chk, rng, ring):
    from .finmod import quotient_by

    m = _s.random_module(rng, ring, 32)
    gens = [_s.random_element(rng, m) for _ in range(rng.randrange(4))]
    q1 = quotient_by(m, gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    q2 = quotient_by(m, shuffled + gens)
    chk.ensure(q1.module == q2.module,
               "same subgroup canonicalized differently", ambient=m)
    chk.ensure(subgroup_presentation(Submodule(m, tuple(gens)))
               == subgroup_presentation(Submodule(m, tuple(shuffled + gens))),
               "same subgroup presented differently", ambient=m)


def prop_purity_summand_equivalence(chk, rng, ring):
    m = _s.random_module(rng, ring, 256)
    sub = _s.random_submodule(rng, m)
    pure = is_pure_submodule(sub)
    retraction = _oracles.is_direct_summand(sub)
    chk.ensure(pure == (retraction is not None),
               f"purity={pure} but summand={retraction is not None}", ambient=m)


def prop_pushout_universal(chk, rng, ring):
    from .finmod import pushout, pushout_mediating

    k = _s.random_module(rng, ring, 8)
    u = _s.random_morphism(rng, k, _s.random_module(rng, ring, 16))
    v = _s.random_morphism(rng, k, _s.random_module(rng, ring, 16))
    po = pushout(u, v)
    chk.ensure(compose(po.u_prime, v) == compose(po.v_prime, u),
               "pushout square does not commute", u=u, v=v)
    c = _s.random_module(rng, ring, 16)
    w = _s.random_morphism(rng, po.module, c)
    a, b = compose(w, po.u_prime), compose(w, po.v_prime)
    med = pushout_mediating(po, a, b)
    chk.ensure(med == w, "mediating morphism is not unique", u=u, v=v)
    solved = _oracles.mediating_by_solver(po, a, b)
    chk.ensure(solved == med, "solver route found a different mediating morphism",
               u=u, v=v)
    gens = po.u_prime.columns + po.v_prime.columns
    chk.ensure(Submodule(po.module, gens).cardinality == po.module.cardinality,
               "structural maps are not jointly epic", u=u, v=v)


def prop_colimit_constant(chk, rng, ring):
    m = _s.random_module(rng, ring, 16)
    ident = ModuleMorphism.identity(m)
    col = directed_colimit(Diagram([m, m, m], [ident, ident]))
    chk.ensure(col.module == m, "constant colimit is not the object", obj=m)
    gens = [x for s in col.structural for x in s.columns]
    chk.ensure(Submodule(col.module, tuple(gens)).cardinality == col.module.cardinality,
               "structural maps not jointly epic", obj=m)


def prop_hom_group_exhaustive(chk, rng, ring):
    m = _s.random_module(rng, ring, 64, max_rank=3)
    n = _s.random_module(rng, ring, 64, max_rank=3)
    count = _oracles.hom_count(m, n)
    if count > 4096:
        return "vacuous"
    # the span of well-defined matrices is a subgroup of Hom, so spanning is
    # exactly a cardinality match against the closed-form hom count; matrices
    # are flat row-major tuples, entry (i, j) taken mod the target's e_i
    mods = [e for e in n.invariant_factors for _ in range(m.rank)]
    span = _oracles._span(
        [[c for row in g.matrix for c in row] for g in hom_group(m, n)], mods)
    chk.ensure(len(span) == count, "hom generators do not span Hom", src=m, tgt=n)


# --- ideals ------------------------------------------------------------------

def prop_phantom_ideal_axioms(chk, rng, ring):
    src = _s.random_module(rng, ring, 32)
    tgt = _s.random_module(rng, ring, 32)
    mid1 = _s.random_projective(rng, ring, 32)
    mid2 = _s.random_projective(rng, ring, 32)
    f = compose(_s.random_morphism(rng, mid1, tgt), _s.random_morphism(rng, src, mid1))
    g = compose(_s.random_morphism(rng, mid2, tgt), _s.random_morphism(rng, src, mid2))
    chk.ensure(_ideals.is_phantom(f + g), "sum of phantoms is not phantom", f=f, g=g)
    a = _s.random_module(rng, ring, 16)
    b = _s.random_module(rng, ring, 16)
    t = _s.random_morphism(rng, a, src)
    h = _s.random_morphism(rng, tgt, b)
    chk.ensure(_ideals.is_phantom(compose(h, compose(f, t))),
               "two-sided composite of a phantom is not phantom", f=f, t=t, h=h)


def prop_phantom_oracle_equivalence(chk, rng, ring):
    src = _s.random_module(rng, ring, 256)
    tgt = _s.random_module(rng, ring, 256)
    f = _s.random_morphism(rng, src, tgt)
    via_columns = _ideals.is_phantom(f)
    routes = (("probes", _oracles.phantom_by_probes(f)),
              ("free-cover lift", _ideals.factors_through_projective(f) is not None),
              ("economical", _oracles.economical_projective_factorization(f) is not None))
    for route, verdict in routes:
        chk.ensure(via_columns == verdict,
                   f"is_phantom={via_columns} but {route}={verdict}", f=f)


def prop_phantom_tag_matches_projective_identities(chk, rng, ring):
    src = _s.random_module(rng, ring, 32)
    tgt = _s.random_module(rng, ring, 32)
    f = _s.random_morphism(rng, src, tgt)
    phant = _ideals.MorphismIdeal.phantom(ring)
    proj = _ideals.projective_identity_ideal(ring)
    chk.ensure(_ideals.ideal_membership(phant, f) == _ideals.ideal_membership(proj, f),
               "phantom tag disagrees with projective-identity ideal", f=f)


def _random_phantom_ladder(rng, ring):
    """A chain-indexed morphism of systems with phantom components, built from
    scalar squares and direct-sum extensions so naturality always holds."""
    f0 = _s.random_phantom_morphism(rng, ring, 16)
    sources = [f0.source]
    targets = [f0.target]
    comps = [f0]
    src_steps = []
    tgt_steps = []
    for _ in range(rng.randrange(1, 3)):
        prev_f = comps[-1]
        if rng.random() < 0.5:
            c = rng.randrange(ring.modulus)
            src_steps.append(_oracles.multiplication_map(prev_f.source, c))
            tgt_steps.append(_oracles.multiplication_map(prev_f.target, c))
            sources.append(prev_f.source)
            targets.append(prev_f.target)
            comps.append(prev_f)
        else:
            g = _s.random_phantom_morphism(rng, ring, 8)
            ds_src = direct_sum((prev_f.source, g.source))
            ds_tgt = direct_sum((prev_f.target, g.target))
            block = (compose(ds_tgt.injections[0], compose(prev_f, ds_src.projections[0]))
                     + compose(ds_tgt.injections[1], compose(g, ds_src.projections[1])))
            src_steps.append(ds_src.injections[0])
            tgt_steps.append(ds_tgt.injections[0])
            sources.append(ds_src.module)
            targets.append(ds_tgt.module)
            comps.append(block)
    return _ideals.SystemMorphism(Diagram(sources, src_steps),
                                  Diagram(targets, tgt_steps), comps)


def prop_closed_under_direct_limits(chk, rng, ring):
    system = _random_phantom_ladder(rng, ring)
    ok, induced = _ideals.closed_under_direct_limits_check(
        _ideals.MorphismIdeal.phantom(ring), system)
    chk.ensure(ok, "induced colimit morphism is not phantom", induced=induced)


# --- rep_a2 ------------------------------------------------------------------

def prop_extension_counterexample(chk, rng, ring):
    f = _s.random_nonphantom_morphism(rng, ring, 16)
    if f is None:
        return "vacuous"  # semisimple ring: every morphism is phantom
    result = _rep_a2.extension_counterexample(_ideals.MorphismIdeal.phantom(ring), f)
    chk.ensure(not result.middle_in_class, "middle representation is in the class", f=f)
    chk.ensure(result.sub_in_class and result.quotient_in_class,
               "sub or quotient left the class", f=f)


def prop_chain_union_top(chk, rng, ring):
    rep = _s.random_phantom_rep(rng.getrandbits(63), ring, 32)
    cfg = _filtration.FiltrationConfig(kappa=ring.modulus)
    filt = _filtration.build_filtration(rep, cfg)
    inner = [_rep_a2.restrict_rep(s) for s in filt.steps]
    reps = [r for r, _ in inner]
    steps = []
    for i in range(len(reps) - 1):
        d = solve_left_factor(inner[i + 1][1].d, inner[i][1].d)
        s = solve_left_factor(inner[i + 1][1].s, inner[i][1].s)
        if d is None or s is None:
            chk.fail("chain embeddings do not factor", target=rep)
            return
        steps.append(_rep_a2.RepMorphism(reps[i], reps[i + 1], d, s))
    col = _rep_a2.rep_colimit(_rep_a2.RepDiagram(reps, steps))
    top = col.structural[-1]
    chk.ensure(col.rep.m1 == rep.m1 and col.rep.m2 == rep.m2
               and is_automorphism(top.d) and is_automorphism(top.s),
               "directed union of the chain is not the representation", target=rep)


def prop_rep_morphism_associativity(chk, rng, ring):
    rep = _s.random_phantom_rep(rng.getrandbits(63), ring, 16)
    squares = []
    for _ in range(3):
        c = rng.randrange(ring.modulus)
        squares.append(_rep_a2.RepMorphism(
            rep, rep, _oracles.multiplication_map(rep.m1, c),
            _oracles.multiplication_map(rep.m2, c)))
    a, b, c = squares
    left = _rep_a2.compose_rep(c, _rep_a2.compose_rep(b, a))
    right = _rep_a2.compose_rep(_rep_a2.compose_rep(c, b), a)
    chk.ensure(left == right, "representation morphism composition not associative")


# --- approx ------------------------------------------------------------------

def prop_phantom_cover_full(chk, rng, ring, probe_bound=256):
    m = _s.random_module(rng, ring, 64)
    phi = _approx.phantom_cover(m)
    chk.ensure(is_surjective(phi), "phantom cover is not surjective", target=m)
    chk.ensure(_ideals.is_phantom(phi), "phantom cover is not phantom", target=m)
    probes = _approx.phantom_probe_set(m, size_bound=probe_bound)
    phant = _ideals.MorphismIdeal.phantom(ring)
    pre = _approx.is_precover(phant, phi, probes)
    if not pre.holds:
        chk.fail("a phantom probe does not factor through the cover",
                 target=m, probe=pre.failing_probe)
        return
    universal = _approx.universal_maps(phant, m)
    if not _approx.is_precover(phant, phi, universal).holds:
        chk.fail("the universal-map precover verdict disagrees with the probe sweep",
                 target=m)
        return
    verdict = _approx.is_cover(phant, phi, universal)
    chk.ensure(verdict is True, f"cover verdict {verdict}", target=m)


def prop_cover_uniqueness(chk, rng, ring):
    m = _s.random_module(rng, ring, 32)
    phi1 = _approx.phantom_cover(m)
    alpha = _s.random_automorphism(rng, phi1.source)
    phi2 = compose(phi1, alpha)
    j = solve_left_factor(phi2, phi1)
    j_back = solve_left_factor(phi1, phi2)
    if j is None or j_back is None:
        chk.fail("covers of the same module do not factor through each other",
                 target=m)
        return
    chk.ensure(is_automorphism(compose(j_back, j))
               and is_automorphism(compose(j, j_back)),
               "mutual factorizations are not inverse automorphisms", target=m)


def prop_pushout_transport_phantom(chk, rng, ring):
    m = _s.random_module(rng, ring, 32)
    phi = _approx.phantom_cover(m)
    k, _ = kernel(phi)
    v = _s.random_pure_mono_from(rng, k, max_extra_card=8)
    res = _approx.pushout_transport(phi, v)
    chk.ensure(_ideals.is_phantom(res.phi_prime),
               "transported morphism is not phantom", phi=phi, v=v)


def prop_kernel_pure_injective(chk, rng, ring):
    m = _s.random_module(rng, ring, 32)
    phi = _approx.phantom_cover(m)
    k, _ = kernel(phi)
    v = _s.random_pure_mono_from(rng, k, max_extra_card=max(2, 256 // max(k.cardinality, 1)))
    r = _approx.extract_retract(phi, v)
    chk.ensure(compose(r, v) == ModuleMorphism.identity(k),
               "extracted retraction fails r o v == id", phi=phi, v=v)


def prop_phantom_equals_projective_cover(chk, rng, ring):
    m = _s.random_module(rng, ring, 64)
    pc = _approx.phantom_cover(m)
    jc = _approx.projective_cover(m)
    j = solve_left_factor(pc, jc)
    j_back = solve_left_factor(jc, pc)
    ok = (j is not None and j_back is not None
          and is_automorphism(compose(j_back, j)))
    chk.ensure(ok, "phantom cover and projective cover are not isomorphic over M",
               target=m)


# --- filtration --------------------------------------------------------------

def _filtration_size(rng) -> int:
    return rng.choice((16, 16, 32, 32, 64, 64, 128, 256, 512, 1024, 4096))


def prop_filtration_builds_and_verifies(chk, rng, ring):
    rep = _s.random_phantom_rep(rng.getrandbits(63), ring, _filtration_size(rng))
    kappa = rng.choice((ring.modulus, 2 * ring.modulus,
                        max(ring.modulus, rep.cardinality)))
    cfg = _filtration.FiltrationConfig(kappa=kappa)
    filt = _filtration.build_filtration(rep, cfg)
    report = _filtration.verify_filtration(filt, cfg)
    if not report.ok:
        chk.fail("filtration conditions failed: "
                 + "; ".join(report.lines()), target=rep)


def prop_quotient_phantom_transport(chk, rng, ring):
    rep = _s.random_phantom_rep(rng.getrandbits(63), ring, 64)
    cfg = _filtration.FiltrationConfig(kappa=max(ring.modulus, rep.cardinality))
    seeds1 = [_s.random_element(rng, rep.m1)] if rep.m1.rank else []
    res = _filtration.phantom_pure_subrep(rep, seeds1, [], cfg)
    q, _ = _rep_a2.quotient_rep(res.subrep)
    chk.ensure(_ideals.is_phantom(q.f),
               "quotient by a pure phantom subrepresentation is not phantom",
               target=rep)


def prop_filtration_directed_union(chk, rng, ring):
    rep = _s.random_phantom_rep(rng.getrandbits(63), ring, 32)
    cfg = _filtration.FiltrationConfig(kappa=ring.modulus)
    filt = _filtration.build_filtration(rep, cfg)
    union1 = Submodule(rep.m1, tuple(
        g for s in filt.steps for g in s.s1.generators))
    union2 = Submodule(rep.m2, tuple(
        g for s in filt.steps for g in s.s2.generators))
    chk.ensure(union1.cardinality == rep.m1.cardinality
               and union2.cardinality == rep.m2.cardinality,
               "union of the chain misses part of the representation", target=rep)


def prop_purification_properties(chk, rng, ring):
    m = _s.random_module(rng, ring, 64)
    sub = _s.random_submodule(rng, m)
    closed = pure_closure(sub)
    chk.ensure(is_pure_submodule(closed), "pure closure is not pure", ambient=m)
    # the closure stops on the size test of is_pure_submodule; the witness
    # search does not share that argument
    chk.ensure(all(_purification_witness(closed, d) is None
                   for d in _proper_prime_powers(ring.modulus)),
               "pure closure has a purification witness", ambient=m)
    chk.ensure(closed.contains_submodule(sub),
               "pure closure does not contain its seed", ambient=m)
    chk.ensure(pure_closure(closed) == closed, "pure closure is not idempotent",
               ambient=m)


# --- cli ---------------------------------------------------------------------

def prop_manifest_roundtrip(chk, rng, ring):
    man = _manifest.Manifest(ring)
    for i in range(rng.randrange(1, 4)):
        man.add_module(f"mod{i}", _s.random_module(rng, ring, 64))
    names = sorted(man.modules)
    for i in range(rng.randrange(0, 3)):
        src = man.modules[rng.choice(names)]
        tgt = man.modules[rng.choice(names)]
        man.add_morphism(f"mor{i}", _s.random_morphism(rng, src, tgt))
    for i, mor in enumerate(sorted(man.morphisms)):
        if rng.random() < 0.5:
            man.add_rep(f"rep{i}", _rep_a2.RepA2.from_morphism(man.morphisms[mor]))
    text = _manifest.serialize(man)
    back = _manifest.parse(text)
    chk.ensure(back == man, "parse(serialize(m)) != m")
    chk.ensure(_manifest.serialize(back) == text, "round-trip is not bit-exact")


def prop_sampler_determinism(chk, rng, ring):
    seed = rng.getrandbits(63)
    bound = rng.choice((1, 8, 32, 64))
    r1 = _s.random_phantom_rep(seed, ring, bound)
    r2 = _s.random_phantom_rep(seed, ring, bound)
    chk.ensure(r1 == r2, "sampler is not deterministic in its seed")
    chk.ensure(_ideals.is_phantom(r1.f), "sampled representation is not phantom")
    chk.ensure(r1.cardinality <= max(bound, 2), "sampled representation too big")


PROPERTIES: dict[str, tuple[str, Callable]] = {
    "snf_minor_gcd": ("exact_linalg", prop_snf_minor_gcd),
    "solve_mod_exhaustive": ("exact_linalg", prop_solve_mod_exhaustive),
    "solution_space_exhaustive": ("exact_linalg", prop_solution_space_exhaustive),
    "canonicalization": ("finmod", prop_canonicalization),
    "purity_summand_equivalence": ("finmod", prop_purity_summand_equivalence),
    "pushout_universal": ("finmod", prop_pushout_universal),
    "colimit_constant": ("finmod", prop_colimit_constant),
    "hom_group_exhaustive": ("finmod", prop_hom_group_exhaustive),
    "phantom_ideal_axioms": ("ideals", prop_phantom_ideal_axioms),
    "phantom_oracle_equivalence": ("ideals", prop_phantom_oracle_equivalence),
    "phantom_tag_matches_projective_identities":
        ("ideals", prop_phantom_tag_matches_projective_identities),
    "closed_under_direct_limits": ("ideals", prop_closed_under_direct_limits),
    "extension_counterexample": ("rep_a2", prop_extension_counterexample),
    "chain_union_top": ("rep_a2", prop_chain_union_top),
    "rep_morphism_associativity": ("rep_a2", prop_rep_morphism_associativity),
    "phantom_cover_full": ("approx", prop_phantom_cover_full),
    "cover_uniqueness": ("approx", prop_cover_uniqueness),
    "pushout_transport_phantom": ("approx", prop_pushout_transport_phantom),
    "kernel_pure_injective": ("approx", prop_kernel_pure_injective),
    "phantom_equals_projective_cover": ("approx", prop_phantom_equals_projective_cover),
    "filtration_builds_and_verifies": ("filtration", prop_filtration_builds_and_verifies),
    "quotient_phantom_transport": ("filtration", prop_quotient_phantom_transport),
    "filtration_directed_union": ("filtration", prop_filtration_directed_union),
    "purification_properties": ("filtration", prop_purification_properties),
    "manifest_roundtrip": ("cli", prop_manifest_roundtrip),
    "sampler_determinism": ("cli", prop_sampler_determinism),
}


def run_property(name: str, seed: int, ring: Ring, samples: int) -> PropertyOutcome:
    module, fn = PROPERTIES[name]
    failures: list[Failure] = []
    vacuous = 0
    for i in range(samples):
        rng = _s.rng_for(seed, name, ring.modulus, i)
        chk = _Check(module, name, ring, seed, i)
        try:
            if fn(chk, rng, ring) == "vacuous":
                vacuous += 1
        except Exception as exc:
            # one raising sample is a failure of that sample, not of the suite
            chk.fail(f"raised {type(exc).__name__}: {exc}")
        failures.extend(chk.failures)
    return PropertyOutcome(module, name, ring.modulus, samples, vacuous, failures)


def run_suite(seed: int, samples: int,
              moduli=DEFAULT_MODULI,
              properties: Optional[list[str]] = None) -> SuiteReport:
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    names = properties if properties is not None else list(PROPERTIES)
    unknown = [n for n in names if n not in PROPERTIES]
    if unknown:
        raise InputError(f"unknown properties: {', '.join(unknown)}")
    for kind, values in (("property", names), ("modulus", moduli)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise InputError(f"repeated {kind} {repeated[0]}")
    rings = [Ring(n) for n in moduli]
    for ring in rings:
        # a modulus that cannot be factored is an input error, not a
        # failure of every sample
        factorize(ring.modulus)
    report = SuiteReport()
    for name in names:
        for ring in rings:
            report.outcomes.append(run_property(name, seed, ring, samples))
    return report
