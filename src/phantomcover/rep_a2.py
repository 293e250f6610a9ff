"""Representations of the two-vertex arrow quiver: objects are single module
morphisms, morphisms are commuting squares.  Includes subrepresentations,
purity, quotients, directed colimits, the ideal-to-class correspondence and
the split extension showing ideal classes are not closed under extensions.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

from .errors import InputError, InternalConsistencyError
from .finmod import (
    Diagram,
    FiniteModule,
    ModuleMorphism,
    PurityForms,
    QuotientData,
    Ring,
    Submodule,
    _colimit_at_top,
    colimit_mediating,
    compose,
    direct_sum,
    image_submodule,
    purity_forms,
    quotient_by,
    slice_generators,
    solve_left_factor,
    subgroup_presentation,
)
from .ideals import MorphismIdeal, ideal_membership


@dataclass(frozen=True)
class RepA2:
    """An object of the arrow category: a single morphism m1 -> m2."""

    m1: FiniteModule
    m2: FiniteModule
    f: ModuleMorphism

    def __post_init__(self):
        if self.f.source != self.m1 or self.f.target != self.m2:
            raise InputError("representation map must run m1 -> m2")

    @classmethod
    def from_morphism(cls, f: ModuleMorphism) -> "RepA2":
        return cls(f.source, f.target, f)

    @classmethod
    def zero(cls, ring: Ring) -> "RepA2":
        z = FiniteModule.zero(ring)
        return cls(z, z, ModuleMorphism.zero_map(z, z))

    @property
    def ring(self) -> Ring:
        return self.m1.ring

    @property
    def cardinality(self) -> int:
        """Cardinality of the disjoint union of the two component modules."""
        return self.m1.cardinality + self.m2.cardinality

    @property
    def is_zero(self) -> bool:
        return self.m1.is_zero and self.m2.is_zero


@dataclass(frozen=True)
class RepMorphism:
    """A commuting square (d, s) from one representation to another."""

    source: RepA2
    target: RepA2
    d: ModuleMorphism  # m1 -> n1
    s: ModuleMorphism  # m2 -> n2

    def __post_init__(self):
        if self.d.source != self.source.m1 or self.d.target != self.target.m1:
            raise InputError("first component has wrong endpoints")
        if self.s.source != self.source.m2 or self.s.target != self.target.m2:
            raise InputError("second component has wrong endpoints")
        if compose(self.target.f, self.d) != compose(self.s, self.source.f):
            raise InputError("square does not commute")

    @classmethod
    def identity(cls, rep: RepA2) -> "RepMorphism":
        return cls(rep, rep, ModuleMorphism.identity(rep.m1),
                   ModuleMorphism.identity(rep.m2))


def compose_rep(b: RepMorphism, a: RepMorphism) -> RepMorphism:
    if a.target != b.source:
        raise InputError("compose_rep: domain mismatch")
    return RepMorphism(a.source, b.target, compose(b.d, a.d), compose(b.s, a.s))


@dataclass(frozen=True)
class SubRep:
    """A subrepresentation: submodules of both components with f(s1) <= s2."""

    ambient: RepA2
    s1: Submodule
    s2: Submodule
    # the generators of s1 before this index are known to map into s2
    _checked: InitVar[int] = 0

    def __post_init__(self, _checked):
        if self.s1.ambient != self.ambient.m1 or self.s2.ambient != self.ambient.m2:
            raise InputError("subrepresentation components live in the wrong modules")
        f = self.ambient.f
        for g in self.s1.generators[_checked:]:
            if not self.s2.contains(f.apply(g)):
                raise InputError("f does not carry the first component into the second")

    @classmethod
    def extending(cls, prev: "SubRep", gens1: Sequence[tuple[int, ...]],
                  gens2: Sequence[tuple[int, ...]]) -> "SubRep":
        """The subrepresentation of prev's representation generated by gens1
        in m1 and gens2 in m2, checked step-wise against prev.  When prev's
        generator tuples are prefixes of gens1 and gens2, each component is
        prev's joined with the generators beyond (`Submodule.join`): only
        those are reduced, the Howell basis is prev's with them inserted,
        and f is applied only to those of gens1, since the older ones map
        into prev.s2, which lies in s2.  Any other pair, a prefix listed
        unreduced included, is built and checked from scratch.  The errors
        are the constructor's."""
        g1, g2 = prev.s1.generators, prev.s2.generators
        gens1, gens2 = tuple(gens1), tuple(gens2)
        rep = prev.ambient
        if gens1[:len(g1)] == g1 and gens2[:len(g2)] == g2:
            return cls(rep, prev.s1.join(gens1[len(g1):]),
                       prev.s2.join(gens2[len(g2):]), len(g1))
        return cls(rep, Submodule(rep.m1, gens1), Submodule(rep.m2, gens2))

    @classmethod
    def zero(cls, rep: RepA2) -> "SubRep":
        return cls(rep, Submodule.zero(rep.m1), Submodule.zero(rep.m2))

    @classmethod
    def full(cls, rep: RepA2) -> "SubRep":
        return cls(rep, Submodule.full(rep.m1), Submodule.full(rep.m2))

    @property
    def cardinality(self) -> int:
        return self.s1.cardinality + self.s2.cardinality

    @property
    def is_full(self) -> bool:
        return self.s1.is_full and self.s2.is_full

    def contains(self, other: "SubRep") -> bool:
        return (self.s1.contains_submodule(other.s1)
                and self.s2.contains_submodule(other.s2))


def in_ideal_class(ideal: MorphismIdeal, rep: RepA2) -> bool:
    """A representation lies in the ideal's class iff its map is in the ideal."""
    if rep.ring != ideal.ring:
        raise InputError("in_ideal_class: ring mismatch")
    return ideal_membership(ideal, rep.f)


def subrep_purity(sub: SubRep, below: Optional[tuple[PurityForms, PurityForms]] = None
                  ) -> Optional[tuple[PurityForms, PurityForms]]:
    """The purity forms of sub's components (`purity_forms`), each built by
    insertion into below's where sub's component extends the one below's
    forms were read from; None when sub is not pure.  The second component
    is tested only when the first is pure."""
    p1 = purity_forms(sub.s1, None if below is None else below[0])
    if p1.impure_at is not None:
        return None
    p2 = purity_forms(sub.s2, None if below is None else below[1])
    return None if p2.impure_at is not None else (p1, p2)


def is_pure_subrep(sub: SubRep) -> bool:
    return subrep_purity(sub) is not None


def restrict_rep(sub: SubRep) -> tuple[RepA2, RepMorphism]:
    """Present a subrepresentation as a representation in its own right,
    with the embedding square into the ambient one."""
    k1, e1 = subgroup_presentation(sub.s1)
    k2, e2 = subgroup_presentation(sub.s2)
    restricted = solve_left_factor(e2, compose(sub.ambient.f, e1))
    if restricted is None:
        raise InternalConsistencyError("restriction escaped the second component")
    rep = RepA2(k1, k2, restricted)
    return rep, RepMorphism(rep, sub.ambient, e1, e2)


def slice_phantom_witness(lower: SubRep,
                          upper: SubRep) -> Optional[tuple[int, tuple[int, ...]]]:
    """Why the slice upper / lower is not phantom: the first (d, g) of
    `slice_generators(S, S')` with f(g) outside (n/d) * T' + T, for S, T the
    components of lower and S', T' those of upper; None when it is phantom.
    `is_phantom`'s column test holds for any cyclic decomposition of S'/S,
    and (n/d) * (T'/T) is ((n/d) * T' + T) / T: one `Submodule` per d, T
    joined with (n/d) times the generators of T'.  For d = n that span is
    T' itself, as T <= T' is checked first (`contains_submodule`), so the
    test asks T' and builds none.

    When S's generator tuple is a prefix of S''s and S' adds at most one
    generator g, S'/S is cyclic, generated by the class of g, of order
    e = |S'| / |S| read off the two Howell cardinalities; its one-summand
    decomposition is phantom iff f(g) lies in (n/e) * T' + T, since any
    generator of S'/S is c * g plus an element of S, whose image lies in
    T.  So e = 1 or f(g) inside returns None with no decomposition, and
    only f(g) outside takes the general route, which names the same
    (d, g) as for any other pair (InternalConsistencyError if it finds
    none)."""
    if lower.ambient != upper.ambient:
        raise InputError("slice: subrepresentations of different representations")
    rep = upper.ambient
    n = rep.ring.modulus
    if not upper.s2.contains_submodule(lower.s2):
        raise InternalConsistencyError("slice: lower second component is not in the upper one")
    spans = {n: upper.s2}

    def outside(d: int, g: tuple[int, ...]) -> bool:
        if d not in spans:
            spans[d] = lower.s2.join(rep.m2.smul(n // d, h) for h in upper.s2.generators)
        return not spans[d].contains(rep.f.apply(g))

    below, gens = lower.s1.generators, upper.s1.generators
    cyclic = len(gens) <= len(below) + 1 and gens[:len(below)] == below
    if cyclic:
        e = upper.s1.cardinality // lower.s1.cardinality
        if e == 1 or not outside(e, gens[-1]):
            return None
    for d, g in slice_generators(lower.s1, upper.s1):
        if outside(d, g):
            return d, g
    if cyclic:
        raise InternalConsistencyError("cyclic slice generator outside, but no witness found")
    return None


def slice_is_phantom(lower: SubRep, upper: SubRep) -> bool:
    """Whether the slice upper / lower, lower <= upper, is phantom."""
    return slice_phantom_witness(lower, upper) is None


def quotient_rep(sub: SubRep) -> tuple[RepA2, RepMorphism]:
    """Componentwise quotient with the induced map and projection square."""
    rep, square, _, _ = _quotient_rep_data(sub)
    return rep, square


def _quotient_rep_data(sub: SubRep) -> tuple[RepA2, RepMorphism, QuotientData, QuotientData]:
    """`quotient_rep` with the two component quotients it is built from.

    The induced map sends canonical generator k of M1/S1 to the image of
    its lift under the projection after f, one composite for all k: the
    projection kills f(S1), so any lift gives the same column."""
    amb = sub.ambient
    q1 = quotient_by(amb.m1, sub.s1.generators)
    q2 = quotient_by(amb.m2, sub.s2.generators)
    rep = RepA2(q1.module, q2.module, q1.induced(compose(q2.projection, amb.f)))
    return rep, RepMorphism(amb, rep, q1.projection, q2.projection), q1, q2


@dataclass
class RepDiagram:
    """A finite chain R_0 -> ... -> R_(L-1) of representations: its objects
    and the L - 1 commuting squares between consecutive ones."""

    objects: Sequence[RepA2]
    steps: Sequence[RepMorphism]

    def component_diagrams(self) -> tuple[Diagram, Diagram]:
        return (Diagram([r.m1 for r in self.objects], [t.d for t in self.steps]),
                Diagram([r.m2 for r in self.objects], [t.s for t in self.steps]))

    def validate(self) -> None:
        d1, d2 = self.component_diagrams()
        d1.validate()
        d2.validate()
        for i, t in enumerate(self.steps):
            if t.source != self.objects[i] or t.target != self.objects[i + 1]:
                raise InputError(
                    f"representation step {i} does not map object {i} to object {i + 1}")


@dataclass(frozen=True)
class RepColimit:
    rep: RepA2
    structural: tuple[RepMorphism, ...]


def rep_colimit(diagram: RepDiagram) -> RepColimit:
    """Componentwise directed colimit; the connecting morphism mediates the
    cone of each f_i followed by the second component's structural map."""
    diagram.validate()
    d1, d2 = diagram.component_diagrams()
    col1 = _colimit_at_top(d1)
    col2 = _colimit_at_top(d2)
    connecting = colimit_mediating(col1, [
        compose(s2, r.f) for s2, r in zip(col2.structural, diagram.objects)])
    rep = RepA2(col1.module, col2.module, connecting)
    structural = tuple(RepMorphism(r, rep, s1, s2) for r, s1, s2
                       in zip(diagram.objects, col1.structural, col2.structural))
    return RepColimit(rep, structural)


@dataclass(frozen=True)
class ExtensionCounterexample:
    """The split extension A+A -> B+B of the zero representation by itself
    whose middle map is t1 o f o p2; it leaves the ideal class whenever f does."""

    middle: RepA2
    sub: SubRep
    quotient: RepA2
    middle_in_class: bool
    sub_in_class: bool
    quotient_in_class: bool


def extension_counterexample(ideal: MorphismIdeal,
                             f: ModuleMorphism) -> ExtensionCounterexample:
    """Build the middle representation A+A -> B+B with map t1 o f o p2 and
    verify that sub and quotient lie in the class while the middle does not.

    Refuses when f already belongs to the ideal.
    """
    if ideal_membership(ideal, f):
        raise InputError("extension_counterexample needs a morphism outside the ideal")
    a, b = f.source, f.target
    aa = direct_sum((a, a))
    bb = direct_sum((b, b))
    mid_map = compose(bb.injections[0], compose(f, aa.projections[1]))
    middle = RepA2(aa.module, bb.module, mid_map)
    sub = SubRep(middle, image_submodule(aa.injections[0]), image_submodule(bb.injections[0]))
    sub_rep, _ = restrict_rep(sub)
    quot_rep, _ = quotient_rep(sub)
    result = ExtensionCounterexample(
        middle=middle,
        sub=sub,
        quotient=quot_rep,
        middle_in_class=in_ideal_class(ideal, middle),
        sub_in_class=in_ideal_class(ideal, sub_rep),
        quotient_in_class=in_ideal_class(ideal, quot_rep),
    )
    if result.middle_in_class or not result.sub_in_class or not result.quotient_in_class:
        raise InternalConsistencyError("extension counterexample verdicts are wrong")
    return result
