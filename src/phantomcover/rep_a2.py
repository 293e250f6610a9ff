"""Representations of the two-vertex arrow quiver: objects are single module
morphisms, morphisms are commuting squares.  Includes subrepresentations,
purity, quotients, directed colimits, the ideal-to-class correspondence and
the split extension showing ideal classes are not closed under extensions.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional

from .errors import InputError, InternalConsistencyError
from .exact_linalg import howell_form
from .finmod import (
    Diagram,
    FiniteModule,
    ModuleMorphism,
    QuotientData,
    Ring,
    Submodule,
    _scaled,
    compose,
    direct_sum,
    directed_colimit,
    is_pure_submodule,
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
    def extending(cls, prev: "SubRep", s1: Submodule, s2: Submodule) -> "SubRep":
        """The subrepresentation (s1, s2) of prev's representation, checked
        step-wise against prev.  When prev's generator tuples are prefixes
        of s1's and s2's, f is applied only to the generators of s1 beyond
        prev's: the older ones map into prev.s2, which lies in s2.  Any other
        pair goes through the full check.  The ambients are checked either
        way, and the errors are the constructor's."""
        g1, g2 = prev.s1.generators, prev.s2.generators
        prefix = s1.generators[:len(g1)] == g1 and s2.generators[:len(g2)] == g2
        return cls(prev.ambient, s1, s2, len(g1) if prefix else 0)

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


def is_pure_subrep(sub: SubRep) -> bool:
    return is_pure_submodule(sub.s1) and is_pure_submodule(sub.s2)


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
    and (n/d) * (T'/T) is ((n/d) * T' + T) / T: one Howell form per d.
    For d = n that span is T' itself, as T <= T' is checked first, and the
    reduced Howell basis is unique for its span, so the test reads the
    form T' already holds and builds none."""
    if lower.ambient != upper.ambient:
        raise InputError("slice: subrepresentations of different representations")
    rep = upper.ambient
    n = rep.ring.modulus
    top, bottom = upper.s2.howell, lower.s2.howell
    if not all(top.contains(row) for row in bottom.rows):
        raise InternalConsistencyError("slice: lower second component is not in the upper one")
    forms = {n: top}
    for d, g in slice_generators(lower.s1, upper.s1):
        if d not in forms:
            forms[d] = howell_form([[n // d * x for x in row] for row in top.rows]
                                   + list(bottom.rows), n, rep.m2.rank)
        if not forms[d].contains(_scaled(rep.m2, rep.f.apply(g))):
            return d, g
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
    pf = compose(q2.projection, amb.f)
    cols = [pf.apply(lift) for lift in q1.lifts]
    induced = ModuleMorphism.from_columns(q1.module, q2.module, cols)
    rep = RepA2(q1.module, q2.module, induced)
    return rep, RepMorphism(amb, rep, q1.projection, q2.projection), q1, q2


@dataclass
class RepDiagram:
    """A finite directed poset of representations with commuting-square maps."""

    objects: dict[str, RepA2]
    maps: dict[tuple[str, str], RepMorphism]

    def component_diagrams(self) -> tuple[Diagram, Diagram]:
        d1 = Diagram({nm: r.m1 for nm, r in self.objects.items()},
                     {k: rm.d for k, rm in self.maps.items()})
        d2 = Diagram({nm: r.m2 for nm, r in self.objects.items()},
                     {k: rm.s for k, rm in self.maps.items()})
        return d1, d2

    def validate(self) -> None:
        for (i, j), rm in self.maps.items():
            if rm.source != self.objects[i] or rm.target != self.objects[j]:
                raise InputError(f"representation map ({i}, {j}) has wrong endpoints")
        d1, d2 = self.component_diagrams()
        d1.validate()
        d2.validate()

    @classmethod
    def chain(cls, reps, steps) -> "RepDiagram":
        if len(steps) != len(reps) - 1:
            raise InputError("chain needs one step fewer than objects")
        names = [f"n{i}" for i in range(len(reps))]
        objects = dict(zip(names, reps))
        maps: dict[tuple[str, str], RepMorphism] = {}
        for i in range(len(reps)):
            acc = None
            for j in range(i + 1, len(reps)):
                acc = steps[j - 1] if acc is None else compose_rep(steps[j - 1], acc)
                maps[(names[i], names[j])] = acc
        return cls(objects, maps)


@dataclass(frozen=True)
class RepColimit:
    rep: RepA2
    structural: dict[str, RepMorphism]


def rep_colimit(diagram: RepDiagram) -> RepColimit:
    """Componentwise directed colimit with the induced connecting morphism."""
    diagram.validate()
    d1, d2 = diagram.component_diagrams()
    col1 = directed_colimit(d1)
    col2 = directed_colimit(d2)
    # connecting map: push each canonical generator of the first colimit
    # through the summand it lifts into
    c = None
    names = col1._order
    for idx, nm in enumerate(names):
        leg = compose(col2.structural[nm],
                      compose(diagram.objects[nm].f, col1._sum.projections[idx]))
        c = leg if c is None else c + leg
    cols = [c.apply(col1._quotient.lift_element(k)) for k in range(col1.module.rank)]
    connecting = ModuleMorphism.from_columns(col1.module, col2.module, cols)
    rep = RepA2(col1.module, col2.module, connecting)
    structural = {}
    for nm in names:
        structural[nm] = RepMorphism(diagram.objects[nm], rep,
                                     col1.structural[nm], col2.structural[nm])
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
    sub = SubRep(
        middle,
        Submodule(aa.module, tuple(aa.injections[0].column(j) for j in range(a.rank))),
        Submodule(bb.module, tuple(bb.injections[0].column(j) for j in range(b.rank))),
    )
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
