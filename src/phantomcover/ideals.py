"""Ideals of morphisms: the phantom ideal, factor-through-projective tests,
set-generated ideals with decidable membership, and direct-limit closure.

Over Z/n every finite module is finitely presented, so a morphism is phantom
exactly when it factors through a projective module (Herzog, "The phantom
cover of a module", 2007).  `is_phantom` decides this by a closed-form column
test and reaches no solver; the free-cover lift builds the certificate, and
the cyclic-probe definition and the economical factorization live on in
`oracles` as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .errors import InputError
from .finmod import (
    Colimit,
    Diagram,
    FiniteModule,
    ModuleMorphism,
    Ring,
    Submodule,
    _colimit_at_top,
    colimit_mediating,
    compose,
    hom_group,
    indecomposable_projectives,
    solve_left_factor,
)


@dataclass(frozen=True)
class ProjectiveFactorization:
    """A witness f == through o into with a projective middle module."""

    middle: FiniteModule
    into: ModuleMorphism
    through: ModuleMorphism


def free_cover_epi(m: FiniteModule) -> ModuleMorphism:
    """The canonical epimorphism (Z/n)^rank -> m, generator to generator."""
    free = FiniteModule.free(m.ring, m.rank)
    return ModuleMorphism._trusted(free, m, ModuleMorphism.identity(m).columns)


def factors_through_projective(f: ModuleMorphism) -> Optional[ProjectiveFactorization]:
    """A factorization of f through a projective module, or None.

    f factors through some projective iff it lifts along the fixed free
    presentation of its target, since any map out of a projective lifts
    along that epimorphism.
    """
    pi = free_cover_epi(f.target)
    j = solve_left_factor(pi, f)
    if j is None:
        return None
    return ProjectiveFactorization(pi.source, j, pi)


def is_phantom(f: ModuleMorphism) -> bool:
    """Phantom test by columns: f factors through a projective iff column q
    lies in (n / d_q) * target for every source invariant factor d_q.  In the
    cyclic coordinate Z/e_i that multiple is gcd(n / d_q, e_i) * Z/e_i, so
    the test is one divisibility per matrix entry.
    """
    n = f.source.ring.modulus
    tfac = f.target.invariant_factors
    return all(a % gcd(n // dq, ei) == 0
               for dq, col in zip(f.source.invariant_factors, f.columns)
               for a, ei in zip(col, tfac))


_GENERATED = "generated"
_PHANTOM = "phantom"
_HOM = "hom"


@dataclass(frozen=True)
class MorphismIdeal:
    """A two-sided ideal of morphisms.  Either one of the distinguished tags
    (phantom ideal, full Hom ideal) or generated by a finite set; the empty
    generating set is the zero ideal."""

    ring: Ring
    kind: str = _GENERATED
    generators: tuple[ModuleMorphism, ...] = ()

    def __post_init__(self):
        if self.kind not in (_GENERATED, _PHANTOM, _HOM):
            raise InputError(f"unknown ideal kind {self.kind!r}")
        for g in self.generators:
            if g.source.ring != self.ring:
                raise InputError("ideal generator over the wrong ring")

    @classmethod
    def phantom(cls, ring: Ring) -> "MorphismIdeal":
        return cls(ring, kind=_PHANTOM)

    @classmethod
    def full_hom(cls, ring: Ring) -> "MorphismIdeal":
        return cls(ring, kind=_HOM)

    @classmethod
    def zero(cls, ring: Ring) -> "MorphismIdeal":
        return cls(ring, kind=_GENERATED, generators=())

    @classmethod
    def generated_by(cls, morphisms) -> "MorphismIdeal":
        morphisms = tuple(morphisms)
        if not morphisms:
            raise InputError("generated_by needs at least one morphism; use zero()")
        return cls(morphisms[0].source.ring, kind=_GENERATED, generators=morphisms)

    def __str__(self):
        if self.kind == _PHANTOM:
            return f"Phant({self.ring})"
        if self.kind == _HOM:
            return f"Hom({self.ring})"
        return f"<{len(self.generators)} generators>"


def projective_identity_ideal(ring: Ring) -> MorphismIdeal:
    """The ideal generated by the identities of the indecomposable projectives;
    its members are exactly the maps factoring through projectives."""
    return MorphismIdeal.generated_by(
        ModuleMorphism.identity(p) for p in indecomposable_projectives(ring))


def ideal_membership(ideal: MorphismIdeal, f: ModuleMorphism) -> bool:
    """Decide f in I.

    For a generated ideal this is subgroup membership in the finite group
    Hom(source, target) against the span of the elementary composites
    h o g o t, with t and h running over hom-group generators; two-sided
    spans over generators suffice because composition is biadditive.
    """
    if f.source.ring != ideal.ring:
        raise InputError("ideal_membership: ring mismatch")
    if ideal.kind == _HOM:
        return True
    if ideal.kind == _PHANTOM:
        return is_phantom(f)
    if f.is_zero:
        return True
    span = []
    for g in ideal.generators:
        ts = hom_group(f.source, g.source)
        hs = hom_group(g.target, f.target)
        for t in ts:
            gt = compose(g, t)
            for h in hs:
                span.append(compose(h, gt))
    return _hom_subgroup_contains(span, f)


def _hom_subgroup_contains(span: list[ModuleMorphism], f: ModuleMorphism) -> bool:
    """Is f in the subgroup of Hom(source, target) generated by span?  Hom
    embeds in the sum of rank(source) copies of each target factor e_i, in
    order, so the factors still form a chain, a morphism going to its
    entries row by row; f is in the subgroup exactly when the `Submodule`
    the span's images generate contains its image."""
    tgt = f.target
    hom = FiniteModule(tgt.ring, tuple(e for e in tgt.invariant_factors
                                       for _ in range(f.source.rank)))

    def flat(g: ModuleMorphism) -> tuple[int, ...]:
        return tuple(x for row in zip(*g.columns) for x in row)

    return Submodule(hom, tuple(flat(g) for g in span)).contains(flat(f))


@dataclass(frozen=True)
class SystemMorphism:
    """A morphism between two chains of the same length: one component per
    position, natural along each step."""

    source: Diagram
    target: Diagram
    components: Sequence[ModuleMorphism]

    def validate(self) -> None:
        self.source.validate()
        self.target.validate()
        if not len(self.components) == len(self.source.objects) == len(self.target.objects):
            raise InputError("system morphism needs one component per position of both chains")
        for i, f in enumerate(self.components):
            if f.source != self.source.objects[i] or f.target != self.target.objects[i]:
                raise InputError(f"component {i} has wrong endpoints")
        for i, (g, h) in enumerate(zip(self.source.steps, self.target.steps)):
            if compose(self.components[i + 1], g) != compose(h, self.components[i]):
                raise InputError(f"component square at step {i} does not commute")


def induced_colimit_morphism(system: SystemMorphism) -> tuple[ModuleMorphism, Colimit, Colimit]:
    """The morphism between colimits induced by a morphism of systems."""
    system.validate()
    src_col = _colimit_at_top(system.source)
    tgt_col = _colimit_at_top(system.target)
    cone = [compose(s, f) for s, f in zip(tgt_col.structural, system.components)]
    return colimit_mediating(src_col, cone), src_col, tgt_col


def closed_under_direct_limits_check(
        ideal: MorphismIdeal, system: SystemMorphism) -> tuple[bool, ModuleMorphism]:
    """Compute the induced morphism between the colimits and test membership;
    the induced morphism is returned as the witness either way.

    Callers guarantee every component lies in the ideal; the check itself
    only evaluates the induced morphism, so feeding it a constant system on
    a non-member simply reports False with that morphism as witness.
    """
    induced, _, _ = induced_colimit_morphism(system)
    return ideal_membership(ideal, induced), induced
