"""Precovers and covers with respect to an ideal, projective covers over Z/n,
phantom covers, pushout transport of phantom epimorphisms along pure
monomorphisms, and the retract extraction showing cover kernels are
pure injective.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional, Sequence

from .errors import InputError, InternalConsistencyError
from .finmod import (
    FiniteModule,
    ModuleMorphism,
    Ring,
    Submodule,
    _single_entry,
    compose,
    factorize,
    hom_group,
    image_submodule,
    indecomposable_projectives,
    invert_automorphism,
    is_injective,
    is_pure_submodule,
    is_surjective,
    kernel,
    left_factor_kernel_columns,
    pushout,
    pushout_mediating,
    solve_left_factor,
    torsion_image,
)
from .ideals import _HOM, _PHANTOM, MorphismIdeal, free_cover_epi, is_phantom


def _factor_chains(divs: Sequence[int], factors: tuple[int, ...], card: int,
                   max_card: int) -> Iterator[tuple[int, ...]]:
    """Depth first, every divisor chain extending factors whose product
    stays at most max_card."""
    for d in divs:
        if factors and d % factors[-1] != 0:
            continue
        if card * d > max_card:
            continue
        chain = factors + (d,)
        yield chain
        yield from _factor_chains(divs, chain, card * d, max_card)


def module_classes(ring: Ring, max_card: int) -> list[FiniteModule]:
    """Every isomorphism class of module with cardinality at most max_card,
    in a fixed deterministic order; the source classes of the bounded probe
    sweep.  The recursion is a module-level generator so that no reference
    cycle keeps the classes alive until the cyclic collector runs."""
    divs = [d for d in ring.divisors() if d >= 2]
    return [FiniteModule.zero(ring)] + [
        FiniteModule(ring, chain) for chain in _factor_chains(divs, (), 1, max_card)]


def phantom_probe_set(m: FiniteModule, size_bound: int = 256) -> list[ModuleMorphism]:
    """The bounded probe sweep: maps covering every phantom map into m from
    sources of cardinality at most size_bound.

    No CLI verdict uses it: it cross-checks `universal_maps` in the suite
    and the tests.  Phantom maps into m are the composites pi o t through
    the free cover pi: (Z/n)^r -> m, t over the entrywise generators of
    Hom(cls, (Z/n)^r) for each source class cls; pi is generator to
    generator, so for target factor e_i and source factor d_j the probe is
    the single-entry matrix with (n / d_j) mod e_i at (i, j), or the zero
    map, one shared object per class that `is_precover` decides once.
    Generators of Hom(P, m), P indecomposable projective, follow as a guard.
    `oracles.phantom_probe_set_by_composition` builds the same list.
    """
    n = m.ring.modulus
    probes = []
    for cls in module_classes(m.ring, size_bound):
        zero_map = ModuleMorphism.zero_map(cls, m)
        for i, ei in enumerate(m.invariant_factors):
            for j, dj in enumerate(cls.invariant_factors):
                entry = (n // dj) % ei
                probes.append(_single_entry(cls, m, i, j, entry) if entry else zero_map)
    for p in indecomposable_projectives(m.ring):
        probes.extend(hom_group(p, m))
    return probes


def universal_maps(ideal: MorphismIdeal, m: FiniteModule) -> list[ModuleMorphism]:
    """Maps into m through which every member of the ideal into m factors.

    Maps factoring through a fixed morphism form a subgroup closed under
    precomposition, so a morphism is an ideal-precover of m exactly when
    these maps factor through it: the free-cover epi for the phantom ideal,
    the identity for the hom ideal, and b o g over the generators g and the
    generators b of Hom(g.target, m) for a generated ideal (none for zero).
    """
    if ideal.kind == _PHANTOM:
        return [free_cover_epi(m)]
    if ideal.kind == _HOM:
        return [ModuleMorphism.identity(m)]
    return [compose(b, g) for g in ideal.generators for b in hom_group(g.target, m)]


@dataclass(frozen=True)
class PrecoverResult:
    holds: bool
    failing_probe: Optional[ModuleMorphism] = None


def is_precover(ideal: MorphismIdeal, phi: ModuleMorphism,
                probes: Sequence[ModuleMorphism]) -> PrecoverResult:
    """Does every probe into phi's target factor through phi?  The first
    probe that does not is returned.

    Callers guarantee phi and the probes lie in the ideal.  Columns factor
    independently: a column y of order d lifts through phi exactly when y
    lies in `torsion_image(phi, d)`, so the test is subgroup membership and
    no factorization is built.  The subgroup for each order and the verdict
    for each (order, column) pair are memoized for this call only.  Probes
    built in closed form share phi's target object, so targets compare by
    identity before equality.  A probe that is the same object as the one
    just before it is already decided and is skipped after its target
    check; `phantom_probe_set` lists its shared zero maps in such runs.
    """
    images: dict[int, Submodule] = {}
    verdicts: dict[tuple[int, tuple[int, ...]], bool] = {}
    prev = None
    for probe in probes:
        if probe.target is not phi.target and probe.target != phi.target:
            raise InputError("probe does not land in the morphism's target")
        if probe is prev:
            continue
        prev = probe
        for d, y in zip(probe.source.invariant_factors, probe.columns):
            if not any(y):
                continue
            lifts = verdicts.get((d, y))
            if lifts is None:
                if d not in images:
                    images[d] = torsion_image(phi, d)
                lifts = verdicts[d, y] = images[d].contains(y)
            if not lifts:
                return PrecoverResult(False, probe)
    return PrecoverResult(True)


def is_cover(ideal: MorphismIdeal, phi: ModuleMorphism,
             probes: Sequence[ModuleMorphism]) -> bool:
    """Cover test: a precover whose self-factorizations are automorphisms.

    The j with phi o j == phi are 1 + h with phi o h == 0, and those h form
    a right ideal of End(X), X = phi.source.  Every such 1 + h is invertible
    exactly when every such h lies in the Jacobson radical of End(X)
    (Auslander-Reiten-Smalo I.2; Krause-Saorin 1998).  For X = sum Z/d_i, h
    is radical iff p divides entry (i, q) for every prime p and every pair
    with v_p(d_i) == v_p(d_q) >= 1; the test is linear in each column, so
    the column generators of {h : phi o h == 0} decide it.
    """
    if not is_precover(ideal, phi, probes).holds:
        return False
    valuations = [dict(factorize(d)) for d in phi.source.invariant_factors]
    for q, gens in enumerate(left_factor_kernel_columns(phi, phi.source)):
        for p, vq in valuations[q].items():
            rows = [i for i, v in enumerate(valuations) if v.get(p) == vq]
            if any(g[i] % p for g in gens for i in rows):
                return False
    return True


def projective_cover(m: FiniteModule) -> ModuleMorphism:
    """The minimal projective approximation: each invariant factor d is
    covered by the product of the full local factors p^(v_p(n)) over the
    primes dividing d, mapping generator to generator."""
    full = m.ring.factorization
    p_mod = FiniteModule(m.ring, tuple(prod(p ** full[p] for p, _ in factorize(d))
                                       for d in m.invariant_factors))
    return ModuleMorphism._trusted(p_mod, m, ModuleMorphism.identity(m).columns)


def phantom_cover(m: FiniteModule) -> ModuleMorphism:
    """A surjective phantom cover of m.

    At this scale phantom maps are the maps factoring through projectives,
    so the projective cover is the phantom cover; the cover and precover
    properties are re-verified independently by the test suite.
    """
    phi = projective_cover(m)
    if not is_phantom(phi):
        raise InternalConsistencyError("projective cover is not phantom")
    if not is_surjective(phi):
        raise InternalConsistencyError("projective cover is not surjective")
    return phi


@dataclass(frozen=True)
class TransportResult:
    """Pushout of a phantom epi along a pure mono on its kernel."""

    module: FiniteModule
    u_prime: ModuleMorphism    # v.target -> module
    v_prime: ModuleMorphism    # phi.source -> module
    phi_prime: ModuleMorphism  # module -> phi.target


def pushout_transport(phi: ModuleMorphism, v: ModuleMorphism) -> TransportResult:
    """Push a surjective phantom phi out along a pure mono v on its kernel;
    the induced map to the original target is again phantom."""
    return _transport(phi, v, *kernel(phi))


def _transport(phi: ModuleMorphism, v: ModuleMorphism, k: FiniteModule,
               u: ModuleMorphism) -> TransportResult:
    """`pushout_transport` given the kernel presentation (k, u) of phi."""
    if not is_surjective(phi):
        raise InputError("pushout_transport needs a surjective morphism")
    if not is_phantom(phi):
        raise InputError("pushout_transport needs a phantom morphism")
    if v.source != k:
        raise InputError("v must start at the canonical kernel presentation")
    image = image_submodule(v)
    if image.cardinality != k.cardinality:
        raise InputError("v must be injective")
    if not is_pure_submodule(image):
        raise InputError("v must have pure image")
    po = pushout(u, v)
    phi_prime = pushout_mediating(
        po, ModuleMorphism.zero_map(v.target, phi.target), phi)
    if not is_phantom(phi_prime):
        raise InternalConsistencyError("transported morphism lost phantomness")
    return TransportResult(po.module, po.u_prime, po.v_prime, phi_prime)


def extract_retract(phi: ModuleMorphism, v: ModuleMorphism) -> ModuleMorphism:
    """Retraction r with r o v == id, for a pure mono v out of the kernel of
    a phantom cover phi.

    Runs the cover chase: push out along v, factor the transported morphism
    back through the cover, restrict to v's target and invert the resulting
    automorphism of the kernel.  A non-invertible restriction contradicts
    the cover property and is raised as an internal consistency violation.
    """
    k, u = kernel(phi)
    if v.source != k:
        raise InputError("v must start at the canonical kernel presentation")
    transported = _transport(phi, v, k, u)
    t = solve_left_factor(phi, transported.phi_prime)
    if t is None:
        raise InternalConsistencyError(
            "transported morphism does not factor through the cover")
    w = compose(t, transported.u_prime)  # v.target -> phi.source, lands in ker
    w_tilde = solve_left_factor(u, w)
    if w_tilde is None:
        raise InternalConsistencyError("restriction does not land in the kernel")
    wv = compose(w_tilde, v)
    if not is_injective(wv):
        raise InternalConsistencyError(
            "kernel self-map is not an automorphism; cover property violated")
    r = compose(invert_automorphism(wv), w_tilde)
    if compose(r, v) != ModuleMorphism.identity(k):
        raise InternalConsistencyError("retraction failed r o v == id")
    return r
