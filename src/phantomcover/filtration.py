"""Filtrations of phantom representations: purification of subrepresentations
with size accounting, extraction of pure phantom subrepresentations, and the
chain builder realizing deconstructibility at finite scale.

The builder adjoins each fresh element in the ambient representation and
keeps the result when it is already pure; only a step that needs
purification witnesses is built in the quotient by the current step.

Size budgets: a purification step is allowed kappa * n^w where w counts the
growth events actually performed (generators adjoined beyond the first and
purification witnesses).  Reports surface the true bound; no step ever
claims a size it cannot guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InputError, InternalConsistencyError
from .finmod import PurityForms, QuotientData, Submodule, impurity, pure_closure_counted
from .ideals import MorphismIdeal
from .rep_a2 import (
    RepA2,
    SubRep,
    _quotient_rep_data,
    in_ideal_class,
    slice_is_phantom,
    slice_phantom_witness,
    subrep_purity,
)


@dataclass(frozen=True)
class FiltrationConfig:
    """Per-step size budget for quotient slices, at least the ring size."""

    kappa: int

    def check(self, rep: RepA2) -> None:
        if self.kappa < rep.ring.modulus:
            raise InputError("kappa must be at least the ring modulus")


@dataclass(frozen=True)
class PurificationResult:
    subrep: SubRep
    witnesses: int
    growth_events_m1: int
    growth_events_m2: int
    bound_m1: int
    bound_m2: int


def _events(generators_used: int, witnesses: int) -> int:
    return max(0, generators_used + witnesses - 1)


def pure_subrep_containing(rep: RepA2, x1_seeds: Sequence[Sequence[int]],
                           x2_seeds: Sequence[Sequence[int]],
                           cfg: FiltrationConfig) -> PurificationResult:
    """Smallest-effort pure subrepresentation containing the seeds: purify the
    first component, close the second under the image of the first, purify.

    Every growth event multiplies the worst-case size by at most n, so the
    components obey |S_c| <= kappa * n^events: a component generated by g
    seeds and w witnesses has at most n^(g+w) elements, and kappa >= n
    (`FiltrationConfig.check`) makes the bound at least that, or 1 when
    g + w = 0.  Exceeding it is an InternalConsistencyError.
    """
    cfg.check(rep)
    n = rep.ring.modulus
    s1_raw = Submodule(rep.m1, tuple(tuple(g) for g in x1_seeds))
    s1, w1 = pure_closure_counted(s1_raw)
    t_gens = tuple(tuple(g) for g in x2_seeds) + tuple(
        rep.f.apply(g) for g in s1.generators)
    s2, w2 = pure_closure_counted(Submodule(rep.m2, t_gens))
    events1 = _events(len(s1_raw.generators), w1)
    events2 = _events(len(t_gens), w2)
    bound1 = cfg.kappa * n ** events1
    bound2 = cfg.kappa * n ** events2
    if s1.cardinality > bound1 or s2.cardinality > bound2:
        raise InternalConsistencyError(
            f"purified components of sizes {s1.cardinality}, {s2.cardinality} "
            f"exceed bounds {bound1}, {bound2}")
    return PurificationResult(SubRep(rep, s1, s2), w1 + w2, events1, events2,
                              bound1, bound2)


def phantom_pure_subrep(rep: RepA2, x1_seeds: Sequence[Sequence[int]],
                        x2_seeds: Sequence[Sequence[int]],
                        cfg: FiltrationConfig) -> PurificationResult:
    """Pure subrepresentation containing the seeds whose restricted map is
    phantom.

    Purity is enough: S2 is pure in M2 and contains f(S1), and f is phantom,
    so column q of the restriction lies in S2 meet (n / d_q) * M2, which is
    (n / d_q) * S2 (Herzog, "The phantom cover of a module", 2007).  The
    closing phantom test re-checks that.
    """
    if not in_ideal_class(MorphismIdeal.phantom(rep.ring), rep):
        raise InputError("phantom_pure_subrep needs a phantom representation")
    res = pure_subrep_containing(rep, x1_seeds, x2_seeds, cfg)
    if not slice_is_phantom(SubRep.zero(rep), res.subrep):
        raise InternalConsistencyError("purified subrepresentation is not phantom")
    return res


# the purity forms of a step's two components
_StepForms = tuple[PurityForms, PurityForms]


@dataclass(frozen=True)
class StepReport:
    witnesses: int
    quotient_card_m1: int
    quotient_card_m2: int
    bound_m1: int
    bound_m2: int


@dataclass(frozen=True)
class Filtration:
    """A chain of subrepresentations from zero to the whole target, with the
    per-step size reports produced by the builder."""

    target: RepA2
    steps: tuple[SubRep, ...]
    reports: tuple[StepReport, ...]

    @property
    def length(self) -> int:
        return len(self.steps) - 1


def _fresh_element(rep: RepA2, cur: SubRep, start: Optional[tuple[int, int]] = None):
    """Lowest element of m1 then m2, in lexicographic order, outside the
    current step; None when the step is already everything.

    The elements below the generator e_j are those supported after
    position j, so the lowest non-member is e_j for the largest j with
    e_j outside the step.  The scan runs over m1's e_j from the top down,
    then m2's; start = (component, j) begins it at that e_j, for a caller
    that knows every e_j the scan meets before it lies in cur, so that the
    answer is the full scan's.  The default is the full scan.
    """
    c0, j0 = start or (1, rep.m1.rank - 1)
    for component, sub in ((1, cur.s1), (2, cur.s2))[c0 - 1:]:
        for j in range(j0 if component == c0 else sub.ambient.rank - 1, -1, -1):
            e = sub.ambient.generator(j)
            if not sub.contains(e):
                return component, e
    return None


def _lowest_preimage(qd: QuotientData, sub: Submodule, y) -> tuple[int, ...]:
    """The lexicographically lowest x with qd.projection(x) == y, for qd the
    quotient by sub: the preimages are the coset of any lift modulo sub."""
    x = sub.coset_minimum(qd.lift(y))
    if qd.projection.apply(x) != y:
        raise InternalConsistencyError("coset minimum does not project to the generator")
    return x


def _quotient_step(cur: SubRep, component: int, x,
                   cfg: FiltrationConfig) -> tuple[SubRep, StepReport]:
    """The step after cur around the fresh element x of the given component,
    built in the quotient: extract a pure phantom subrepresentation of
    rep / cur around the image of x and pull its generators back to their
    lowest preimages.  The only route that adjoins purification witnesses,
    each the lowest in the quotient's canonical coordinates."""
    quot, proj, q1, q2 = _quotient_rep_data(cur)
    if component == 1:
        seeds1, seeds2 = [proj.d.apply(x)], []
    else:
        seeds1, seeds2 = [], [proj.s.apply(x)]
    res = phantom_pure_subrep(quot, seeds1, seeds2, cfg)
    gens1 = cur.s1.generators + tuple(
        _lowest_preimage(q1, cur.s1, g) for g in res.subrep.s1.generators)
    gens2 = cur.s2.generators + tuple(
        _lowest_preimage(q2, cur.s2, g) for g in res.subrep.s2.generators)
    nxt = SubRep.extending(cur, gens1, gens2)
    return nxt, StepReport(res.witnesses, res.subrep.s1.cardinality,
                           res.subrep.s2.cardinality, res.bound_m1, res.bound_m2)


def _ambient_candidate(cur: SubRep, component: int, x) -> SubRep:
    """cur with the fresh element x adjoined and closed under f, each new
    generator the lowest of its coset modulo cur: what the quotient step
    pulls back when it adjoins no witness.  x is already its coset's
    minimum, since every element below it lies in cur."""
    rep = cur.ambient
    gens1, gens2 = cur.s1.generators, cur.s2.generators
    if component == 1:
        gens1 += (x,)
        gens2 += (cur.s2.coset_minimum(rep.f.apply(x)),)
    else:
        gens2 += (x,)
    return SubRep.extending(cur, gens1, gens2)


def build_filtration(rep: RepA2, cfg: FiltrationConfig) -> Filtration:
    """Chain 0 = S_0 < S_1 < ... < S_len = rep of pure subrepresentations
    with phantom quotient steps of bounded size.

    A step whose quotient fits the budget in both components, read off the
    Howell cardinalities, goes straight to the whole representation.  Any
    other step takes the lowest fresh element x and first adjoins it in the
    ambient, with f of it, as coset minima modulo the current step.  For S
    pure in M and S <= P, P is pure in M exactly when P/S is pure in M/S
    (Fuchs, *Infinite Abelian Groups I*, Lemma 26.1), so when that
    candidate is pure the quotient route would adjoin no witness and pull
    back the same generators; its slice is cyclic, of order at most
    n <= kappa, and is re-checked phantom.  Only an impure candidate takes
    the quotient route, `_quotient_step`.

    Each candidate and each step is built by `SubRep.extending` from the
    step below, so its Howell bases and purity forms are the step below's
    with the new generators inserted.  The walk hands each step's purity
    forms to the next candidate and keeps no others.

    Each fresh-element scan resumes at the e_j where the one before it
    stopped (`_fresh_element`'s start): the steps only grow, so every e_j
    an earlier scan passed over as a member is still one, and the scans
    of the whole walk test at most rank(m1) + rank(m2) + steps elements.
    A candidate's slice is cyclic, so `slice_is_phantom` decides it from
    its order and one membership test.
    """
    cfg.check(rep)
    if not in_ideal_class(MorphismIdeal.phantom(rep.ring), rep):
        raise InputError("build_filtration needs a phantom representation")
    steps = [SubRep.zero(rep)]
    reports: list[StepReport] = []
    forms: Optional[_StepForms] = None  # of steps[-1], where the walk read them
    start: Optional[tuple[int, int]] = None  # where the last fresh-element scan stopped
    while not steps[-1].is_full:
        cur = steps[-1]
        c1 = rep.m1.cardinality // cur.s1.cardinality
        c2 = rep.m2.cardinality // cur.s2.cardinality
        if c1 <= cfg.kappa and c2 <= cfg.kappa:
            steps.append(SubRep.full(rep))
            reports.append(StepReport(0, c1, c2, cfg.kappa, cfg.kappa))
            continue
        fresh = _fresh_element(rep, cur, start)
        if fresh is None:
            raise InternalConsistencyError("no fresh element in a proper step")
        component, x = fresh
        start = (component, x.index(1))  # x is the unit vector e_j
        nxt = _ambient_candidate(cur, component, x)
        nxt_forms = subrep_purity(nxt, forms)
        if nxt_forms is not None:
            if not slice_is_phantom(cur, nxt):
                raise InternalConsistencyError("purified subrepresentation is not phantom")
            report = StepReport(
                0, nxt.s1.cardinality // cur.s1.cardinality,
                nxt.s2.cardinality // cur.s2.cardinality, cfg.kappa, cfg.kappa)
        else:
            nxt, report = _quotient_step(cur, component, x, cfg)
            nxt_forms = subrep_purity(nxt, forms)
            if nxt_forms is None:
                raise InternalConsistencyError("pulled-back step lost purity")
        steps.append(nxt)
        reports.append(report)
        forms = nxt_forms
    return Filtration(rep, tuple(steps), tuple(reports))


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class FiltrationReport:
    conditions: dict[str, ConditionReport]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions.values())

    def lines(self) -> list[str]:
        return [f"{'ok' if c.ok else 'FAIL'} {name}"
                + (f" ({c.detail})" if c.detail else "")
                for name, c in self.conditions.items()]


def _is_budget(bound: int, kappa: int, n: int) -> bool:
    """Whether bound == kappa * n^e for an integer e >= 0."""
    if kappa < 1 or bound < kappa or bound % kappa:
        return False
    e = bound // kappa
    while e % n == 0:
        e //= n
    return e == 1


def _impurity_detail(step: SubRep, index: int) -> str:
    """Why an impure step is impure: its first impure component, the lowest
    proper prime power d of n at which it fails, and the lowest witness s in
    (S meet d*M) \\ d*S."""
    for name in ("s1", "s2"):
        found = impurity(getattr(step, name))
        if found is not None:
            d, s = found
            return (f"impure step at index {index}: {name} fails at d={d}, "
                    f"witness ({','.join(map(str, s))})")
    raise InternalConsistencyError("impure step with pure components")


def verify_filtration(filtration: Filtration, cfg: FiltrationConfig) -> FiltrationReport:
    """Independently re-check every filtration condition: zero base, purity of
    every step, chain containment with the union reaching the target, phantom
    quotient steps, the surfaced size bounds, and strict growth below the top.

    Chain containment reduces only the generators of S_i that S_(i+1) does
    not list literally, so a step that re-lists the one below it costs no
    reduction.  Each slice S_(i+1)/S_i is decided once, and only when the
    chain is contained: its sizes are quotients of the steps' Howell
    cardinalities, and the phantom check and the size check both read it.
    A slice element of order n is tested against T_(i+1) itself, any other
    order d against the span joined for it.  A non-phantom
    slice names the order d and the element g of S_(i+1) whose image lies
    outside (n/d) * T_(i+1) + T_i.  The size check fails when a report
    records other quotient sizes, a bound below them, or a bound that is not
    kappa * n^e; a step with no report is held to kappa.

    Purity is walked up the chain, and each step carries the purity forms
    the walk computed for the step below it, never forms the builder left.
    A step that extends the step below by prefix builds its forms by
    inserting its new generators into those (`subrep_purity`).  Any other
    step inserts its Howell rows into the zero form, as does a step above
    one that passed the summand certificate.  The walk stops at the first
    impure step, whose detail is the from-scratch `impurity`.
    """
    steps = filtration.steps
    conditions: dict[str, ConditionReport] = {}

    base = steps[0]
    base_ok = base.s1.cardinality == 1 and base.s2.cardinality == 1
    conditions["zero_base"] = ConditionReport(
        base_ok, "" if base_ok else "first step is not the zero subrepresentation")

    bad = None
    forms: Optional[_StepForms] = None
    for i, step in enumerate(steps):
        forms = subrep_purity(step, forms)
        if forms is None:
            bad = i
            break
    conditions["purity"] = ConditionReport(
        bad is None, "" if bad is None else _impurity_detail(steps[bad], bad))

    chain_ok = all(steps[i + 1].contains(steps[i]) for i in range(len(steps) - 1))
    union_ok = steps[-1].is_full
    detail = "" if chain_ok and union_ok else (
        "chain containment fails" if not chain_ok else "union is not the target")
    conditions["continuity"] = ConditionReport(chain_ok and union_ok, detail)

    slices = [(up.s1.cardinality // low.s1.cardinality,
               up.s2.cardinality // low.s2.cardinality,
               slice_phantom_witness(low, up))
              for low, up in zip(steps, steps[1:])] if chain_ok else []
    phantom_fail = next(
        (i for i, (_, _, w) in enumerate(slices) if w is not None), None)
    phantom_detail = ""
    if phantom_fail is not None:
        d, g = slices[phantom_fail][2]
        phantom_detail = (f"non-phantom quotient at step {phantom_fail}: "
                          f"d={d}, element ({','.join(map(str, g))})")
    conditions["quotient_phantom"] = ConditionReport(
        chain_ok and phantom_fail is None, phantom_detail)

    sizes_ok = True
    size_detail = []
    if chain_ok:
        n = filtration.target.ring.modulus
        for i, (c1, c2, _) in enumerate(slices):
            report = filtration.reports[i] if i < len(filtration.reports) else None
            b1, b2 = ((cfg.kappa, cfg.kappa) if report is None
                      else (report.bound_m1, report.bound_m2))
            line = f"step {i}: |q1|={c1} |q2|={c2} bounds {b1},{b2}"
            if c1 > b1 or c2 > b2:
                sizes_ok = False
            if report is not None:
                recorded = (report.quotient_card_m1, report.quotient_card_m2)
                if recorded != (c1, c2):
                    sizes_ok = False
                    line += f" recorded q1={recorded[0]} q2={recorded[1]}"
                if not (_is_budget(b1, cfg.kappa, n) and _is_budget(b2, cfg.kappa, n)):
                    sizes_ok = False
                    line += " bounds not of the form kappa*n^e"
            size_detail.append(line)
    else:
        sizes_ok = False
    conditions["size_bounds"] = ConditionReport(sizes_ok, "; ".join(size_detail))

    growth_fail = None
    for i in range(len(steps) - 1):
        if not steps[i].is_full and steps[i + 1].cardinality <= steps[i].cardinality:
            growth_fail = i
            break
    conditions["strict_growth"] = ConditionReport(
        growth_fail is None,
        "" if growth_fail is None else f"no growth at step {growth_fail}")

    return FiltrationReport(conditions)
