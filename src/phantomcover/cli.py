"""Command-line driver.

Commands operate on manifest files and print machine-readable key=value
records to stdout; objects produced by a command are written as a manifest
to --output when given, before any record is printed, so a failed write
leaves nothing on stdout.  Exit codes: 0 ok, 1 property/verification failure,
2 input error, 3 internal consistency violation or any other unexpected
exception.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import approx as _approx
from . import filtration as _filtration
from . import manifest as _manifest
from . import rep_a2 as _rep_a2
from . import verify as _verify
from .errors import InputError, InternalConsistencyError
from .finmod import ModuleMorphism, Ring, is_surjective
from .ideals import (
    MorphismIdeal,
    factors_through_projective,
    ideal_membership,
    is_phantom,
)
from .samplers import random_phantom_rep

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; a file that cannot be read or
    decoded is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _read_manifest(path: str) -> _manifest.Manifest:
    return _manifest.parse(_read_text(path))


def _write_output(path: Optional[str], text: str) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise InputError(f"no {kind} named {name!r} in the input manifest")
    return table[name]


def _ideal_from_flag(ring: Ring, name: str) -> MorphismIdeal:
    if name == "phantom":
        return MorphismIdeal.phantom(ring)
    if name == "hom":
        return MorphismIdeal.full_hom(ring)
    if name == "zero":
        return MorphismIdeal.zero(ring)
    raise InputError(f"unknown ideal {name!r} (expected phantom, hom or zero)")


def _matrix_field(f: ModuleMorphism) -> str:
    return _manifest._serialize_matrix(f)


def cmd_check_phantom(args) -> int:
    """Decided by `is_phantom`; the lift through the free cover is built only
    as the certificate of a phantom morphism."""
    man = _read_manifest(args.input)
    f = _lookup(man.morphisms, args.morphism, "morphism")
    if not is_phantom(f):
        print(f"command=check-phantom morphism={args.morphism}")
        print("phantom=false")
        print("certificate=no-lift-through-free-cover "
              f"free_cover_rank={f.target.rank}")
        return EXIT_OK
    fact = factors_through_projective(f)
    if fact is None:
        raise InternalConsistencyError("phantom morphism has no lift through the free cover")
    out = _manifest.Manifest(man.ring)
    out.add_morphism("into", fact.into)
    out.add_morphism("through", fact.through)
    _write_output(args.output, _manifest.serialize(out))
    print(f"command=check-phantom morphism={args.morphism}")
    print("phantom=true")
    print(f"middle_factors={','.join(str(d) for d in fact.middle.invariant_factors)}")
    return EXIT_OK


def cmd_precover(args) -> int:
    man = _read_manifest(args.input)
    phi = _lookup(man.morphisms, args.morphism, "morphism")
    ideal = _ideal_from_flag(man.ring, args.ideal)
    if not ideal_membership(ideal, phi):
        raise InputError("the candidate morphism is not in the ideal")
    probes = _approx.universal_maps(ideal, phi.target)
    res = _approx.is_precover(ideal, phi, probes)
    print(f"command=precover morphism={args.morphism} probes={len(probes)}")
    print(f"precover={'true' if res.holds else 'false'}")
    if not res.holds:
        print(f"failing_probe_rows={_matrix_field(res.failing_probe)}")
        print("failing_probe_source="
              + ",".join(str(d) for d in res.failing_probe.source.invariant_factors))
        return EXIT_FAILURE
    return EXIT_OK


def cmd_cover(args) -> int:
    man = _read_manifest(args.input)
    phi = _lookup(man.morphisms, args.morphism, "morphism")
    ideal = _ideal_from_flag(man.ring, args.ideal)
    if not ideal_membership(ideal, phi):
        raise InputError("the candidate morphism is not in the ideal")
    probes = _approx.universal_maps(ideal, phi.target)
    verdict = _approx.is_cover(ideal, phi, probes)
    print(f"command=cover morphism={args.morphism} probes={len(probes)}")
    print(f"cover={'true' if verdict else 'false'}")
    return EXIT_OK if verdict else EXIT_FAILURE


def cmd_phantom_cover(args) -> int:
    man = _read_manifest(args.input)
    m = _lookup(man.modules, args.module, "module")
    phi = _approx.phantom_cover(m)
    out = _manifest.Manifest(man.ring)
    out.add_morphism("phantom_cover", phi)
    _write_output(args.output, _manifest.serialize(out))
    print(f"command=phantom-cover module={args.module}")
    print("cover_source="
          + ",".join(str(d) for d in phi.source.invariant_factors))
    print(f"cover_rows={_matrix_field(phi)}")
    print(f"surjective={'true' if is_surjective(phi) else 'false'}")
    return EXIT_OK


def cmd_pushout_transport(args) -> int:
    man = _read_manifest(args.input)
    phi = _lookup(man.morphisms, args.phi, "morphism")
    v = _lookup(man.morphisms, args.mono, "morphism")
    res = _approx.pushout_transport(phi, v)
    out = _manifest.Manifest(man.ring)
    out.add_morphism("phi_prime", res.phi_prime)
    out.add_morphism("u_prime", res.u_prime)
    out.add_morphism("v_prime", res.v_prime)
    _write_output(args.output, _manifest.serialize(out))
    print(f"command=pushout-transport phi={args.phi} v={args.mono}")
    print("pushout_factors="
          + ",".join(str(d) for d in res.module.invariant_factors))
    print(f"phi_prime_rows={_matrix_field(res.phi_prime)}")
    print("phantom=true")
    return EXIT_OK


def cmd_retract(args) -> int:
    man = _read_manifest(args.input)
    phi = _lookup(man.morphisms, args.phi, "morphism")
    v = _lookup(man.morphisms, args.mono, "morphism")
    r = _approx.extract_retract(phi, v)
    out = _manifest.Manifest(man.ring)
    out.add_morphism("retraction", r)
    _write_output(args.output, _manifest.serialize(out))
    print(f"command=retract phi={args.phi} v={args.mono}")
    print(f"retraction_rows={_matrix_field(r)}")
    print("retraction_check=ok")
    return EXIT_OK


def cmd_filtrate(args) -> int:
    man = _read_manifest(args.input)
    rep = _lookup(man.reps, args.rep, "rep")
    cfg = _filtration.FiltrationConfig(kappa=args.kappa)
    filt = _filtration.build_filtration(rep, cfg)
    _write_output(args.output, _manifest.serialize_filtration(man, filt, cfg))
    print(f"command=filtrate rep={args.rep} kappa={args.kappa}")
    print(f"length={filt.length}")
    for i, report in enumerate(filt.reports):
        print(f"step={i} q1={report.quotient_card_m1} q2={report.quotient_card_m2} "
              f"witnesses={report.witnesses} b1={report.bound_m1} b2={report.bound_m2}")
    return EXIT_OK


def cmd_verify_filtration(args) -> int:
    _, filt, cfg = _manifest.parse_filtration(_read_text(args.input))
    report = _filtration.verify_filtration(filt, cfg)
    print(f"command=verify-filtration steps={len(filt.steps)}")
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_counterexample_ext(args) -> int:
    man = _read_manifest(args.input)
    f = _lookup(man.morphisms, args.morphism, "morphism")
    ideal = _ideal_from_flag(man.ring, args.ideal)
    res = _rep_a2.extension_counterexample(ideal, f)
    out = _manifest.Manifest(man.ring)
    out.add_rep("middle", res.middle)
    out.add_rep("quotient", res.quotient)
    _write_output(args.output, _manifest.serialize(out))
    print(f"command=counterexample-ext morphism={args.morphism} ideal={args.ideal}")
    print(f"middle_rows={_matrix_field(res.middle.f)}")
    print(f"middle_in_class={'true' if res.middle_in_class else 'false'}")
    print(f"sub_in_class={'true' if res.sub_in_class else 'false'}")
    print(f"quotient_in_class={'true' if res.quotient_in_class else 'false'}")
    return EXIT_OK


def cmd_colimit(args) -> int:
    man = _read_manifest(args.input)
    rep_names = args.chain.split(",")
    map_names = args.maps.split(",") if args.maps else []
    reps = [_lookup(man.reps, nm, "rep") for nm in rep_names]
    steps = [_lookup(man.repmaps, nm, "repmap") for nm in map_names]
    col = _rep_a2.rep_colimit(_rep_a2.RepDiagram(reps, steps))
    out = _manifest.Manifest(man.ring)
    out.add_rep("colimit", col.rep)
    _write_output(args.output, _manifest.serialize(out))
    print(f"command=colimit chain={args.chain}")
    print("m1_factors=" + ",".join(str(d) for d in col.rep.m1.invariant_factors))
    print("m2_factors=" + ",".join(str(d) for d in col.rep.m2.invariant_factors))
    print(f"f_rows={_matrix_field(col.rep.f)}")
    return EXIT_OK


def cmd_random_rep(args) -> int:
    ring = Ring(args.ring)
    rep = random_phantom_rep(args.seed, ring, args.size_bound)
    out = _manifest.Manifest(ring)
    out.add_rep("sampled", rep)
    _write_output(args.output, _manifest.serialize(out))
    print(f"command=random-rep seed={args.seed} ring={args.ring} "
          f"size_bound={args.size_bound}")
    print(f"cardinality={rep.cardinality}")
    return EXIT_OK


def cmd_verify_suite(args) -> int:
    moduli = tuple(args.ring) if args.ring else _verify.DEFAULT_MODULI
    names = args.property if args.property else None
    report = _verify.run_suite(args.seed, args.samples, moduli=moduli,
                               properties=names)
    for out in report.outcomes:
        status = "ok" if out.ok else "FAIL"
        extra = f" vacuous={out.vacuous}" if out.vacuous else ""
        print(f"{status} {out.module}.{out.prop} ring={out.ring} "
              f"samples={out.samples}{extra}")
    for f in report.failures():
        print(f"failure module={f.module} property={f.prop} ring={f.ring} "
              f"seed={f.seed} sample={f.sample}")
        print(f"  message: {f.message}")
        if f.counterexample:
            for line in f.counterexample.rstrip("\n").splitlines():
                print(f"  | {line}")
    print(f"suite={'ok' if report.ok else 'FAIL'} "
          f"properties={len(report.outcomes)} failures={len(report.failures())}")
    return EXIT_OK if report.ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phantomcover",
        description="Exact computer algebra for finite Z/n-modules: phantom "
                    "morphisms, covers and filtrations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(p, output=True):
        p.add_argument("--input", required=True, help="input manifest file")
        if output:
            p.add_argument("--output", help="write produced objects here")

    p = sub.add_parser("check-phantom", help="decide phantomness of a morphism")
    with_io(p)
    p.add_argument("--morphism", required=True)

    ignored = "accepted and ignored: the verdict is exact"

    p = sub.add_parser("precover", help="test the precover property")
    with_io(p, output=False)
    p.add_argument("--morphism", required=True)
    p.add_argument("--ideal", default="phantom")
    p.add_argument("--size-bound", type=int, help=ignored)

    p = sub.add_parser("cover", help="test the cover property")
    with_io(p, output=False)
    p.add_argument("--morphism", required=True)
    p.add_argument("--ideal", default="phantom")
    p.add_argument("--size-bound", type=int, help=ignored)
    p.add_argument("--endo-limit", type=int, help=ignored)

    p = sub.add_parser("phantom-cover", help="construct the phantom cover")
    with_io(p)
    p.add_argument("--module", required=True)

    p = sub.add_parser("pushout-transport",
                       help="push a phantom epi out along a pure mono")
    with_io(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--mono", required=True)

    p = sub.add_parser("retract", help="extract the pure-injectivity retraction")
    with_io(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--mono", required=True)

    p = sub.add_parser("filtrate", help="build the filtration of a phantom rep")
    with_io(p)
    p.add_argument("--rep", required=True)
    p.add_argument("--kappa", type=int, required=True)

    p = sub.add_parser("verify-filtration", help="re-check a filtration file")
    p.add_argument("--input", required=True)

    p = sub.add_parser("counterexample-ext",
                       help="split extension leaving the ideal class")
    with_io(p)
    p.add_argument("--morphism", required=True)
    p.add_argument("--ideal", default="phantom")

    p = sub.add_parser("colimit", help="colimit of a chain of representations")
    with_io(p)
    p.add_argument("--chain", required=True, help="comma-separated rep names")
    p.add_argument("--maps", default="", help="comma-separated repmap names")

    p = sub.add_parser("random-rep", help="sample a deterministic phantom rep")
    p.add_argument("--ring", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size-bound", type=int, default=64)
    p.add_argument("--output")

    p = sub.add_parser("verify-suite", help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--ring", type=int, action="append",
                   help="restrict to this modulus (repeatable)")
    p.add_argument("--property", action="append",
                   help="restrict to this property (repeatable)")

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; the parser is built once, the handler found by name."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except InputError as exc:
        print(f"error=input detail={exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        print(f"error=internal-consistency detail={exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # any other exception is a defect too; keep the record format
        print(f"error=unexpected detail={type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
