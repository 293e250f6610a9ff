"""Line-oriented manifest format for rings, modules, morphisms and
representations, plus the filtration file layout used by the CLI.

Every record is a single line: a bracketed section header followed by
key=value fields.  Round-tripping is bit-exact: serialize(parse(text))
reproduces text produced by this module, and parse(serialize(m)) == m.

    [manifest] version=1
    [ring] n=4
    [module M] factors=2,4
    [morphism f] from=M to=N rows=1,0;2,1
    [rep F] f=f
    [repmap t] from=F to=G d=f1 s=f2
    [filtration] target=F kappa=4
    [step 0] s1= s2=
    [stepreport 0] witnesses=0 q1=1 q2=1 b1=4 b2=4
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import IllDefinedMorphismError, InputError
from .filtration import Filtration, FiltrationConfig, StepReport
from .finmod import FiniteModule, ModuleMorphism, Ring
from .rep_a2 import RepA2, RepMorphism, SubRep

FORMAT_VERSION = 1

_NAME = re.compile(r"^[A-Za-z0-9_.:-]+$")
_HEADER = re.compile(r"^\[([a-z]+)(?:\s+([^\]]+))?\]\s*(.*)$")
_DECIMAL = re.compile(r"-?[0-9]+")
_DECIMAL_LIST = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


@dataclass
class Manifest:
    ring: Ring
    format_version: int = FORMAT_VERSION
    modules: dict[str, FiniteModule] = field(default_factory=dict)
    morphisms: dict[str, ModuleMorphism] = field(default_factory=dict)
    reps: dict[str, RepA2] = field(default_factory=dict)
    repmaps: dict[str, RepMorphism] = field(default_factory=dict)

    def _check_name(self, name: str) -> None:
        if not _NAME.match(name):
            raise InputError(f"invalid object name {name!r}")
        if (name in self.modules or name in self.morphisms
                or name in self.reps or name in self.repmaps):
            raise InputError(f"duplicate object name {name!r}")

    def add_module(self, name: str, m: FiniteModule) -> str:
        if m.ring != self.ring:
            raise InputError("module over the wrong ring")
        self._check_name(name)
        self.modules[name] = m
        return name

    def module_name(self, m: FiniteModule) -> Optional[str]:
        return _name_of(self.modules, m)

    def ensure_module(self, m: FiniteModule, hint: str = "m") -> str:
        return _ensure(self.modules, self.add_module, m, hint)

    def add_morphism(self, name: str, f: ModuleMorphism) -> str:
        self._check_name(name)
        self.ensure_module(f.source)
        self.ensure_module(f.target)
        self.morphisms[name] = f
        return name

    def morphism_name(self, f: ModuleMorphism) -> Optional[str]:
        return _name_of(self.morphisms, f)

    def ensure_morphism(self, f: ModuleMorphism, hint: str = "f") -> str:
        return _ensure(self.morphisms, self.add_morphism, f, hint)

    def add_rep(self, name: str, rep: RepA2) -> str:
        self._check_name(name)
        self.ensure_morphism(rep.f)
        self.reps[name] = rep
        return name

    def rep_name(self, rep: RepA2) -> Optional[str]:
        return _name_of(self.reps, rep)

    def ensure_rep(self, rep: RepA2, hint: str = "rep") -> str:
        return _ensure(self.reps, self.add_rep, rep, hint)

    def add_repmap(self, name: str, rm: RepMorphism) -> str:
        self._check_name(name)
        self.ensure_rep(rm.source)
        self.ensure_rep(rm.target)
        self.ensure_morphism(rm.d)
        self.ensure_morphism(rm.s)
        self.repmaps[name] = rm
        return name


def _name_of(table: dict, value) -> Optional[str]:
    """The first name in table whose object equals value, or None."""
    return next((name for name, val in table.items() if val == value), None)


def _ensure(table: dict, add, value, hint: str) -> str:
    """value's name in table, or the first free name hint0, hint1, ...
    under which add registers it."""
    name = _name_of(table, value)
    if name is not None:
        return name
    idx = 0
    while f"{hint}{idx}" in table:
        idx += 1
    return add(f"{hint}{idx}", value)


def _at_line(exc: InputError, lineno: int) -> InputError:
    """exc with its line named once: a message that already names the line
    is kept as it is."""
    if str(exc).startswith(f"line {lineno}:"):
        return exc
    return InputError(f"line {lineno}: {exc}")


def _int(text: Optional[str], what: str, lineno: int) -> int:
    """An ASCII decimal integer; int() alone would also take '1_0', '+8'
    and non-ASCII digits."""
    if text is None or not _DECIMAL.fullmatch(text):
        raise InputError(f"line {lineno}: malformed {what} {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's int/str conversion digit limit
        raise InputError(f"line {lineno}: malformed {what}: {len(text)} digits is past "
                         "the integer conversion limit") from None


def _ints(text: str, what: str, lineno: int) -> list[int]:
    """A comma list of `_int` entries, matched as a whole; a list that does
    not match, or holds an entry past the digit limit, goes entry by entry,
    so the first bad entry names the error."""
    if text == "":
        return []
    if _DECIMAL_LIST.fullmatch(text):
        try:
            return list(map(int, text.split(",")))
        except ValueError:
            pass
    return [_int(x, what, lineno) for x in text.split(",")]


def _vectors(text: str, lineno: int) -> list[tuple[int, ...]]:
    if text == "":
        return []
    return [tuple(_ints(chunk, "vector", lineno)) for chunk in text.split(";")]


def _serialize_matrix(f: ModuleMorphism) -> str:
    return ";".join(",".join(str(a) for a in row) for row in f.matrix) if f.columns else ""


def _fields(rest: str, lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for chunk in rest.split():
        if "=" not in chunk:
            raise InputError(f"line {lineno}: expected key=value, got {chunk!r}")
        key, _, value = chunk.partition("=")
        if key in out:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _require(fields: dict[str, str], keys: list[str], lineno: int) -> None:
    """Every record defines its exact key set: a missing key and a key the
    record does not define are both input errors."""
    for key in keys:
        if key not in fields:
            raise InputError(f"line {lineno}: missing field {key!r}")
    for key in fields:
        if key not in keys:
            raise InputError(f"line {lineno}: unknown field {key!r}")


def serialize(manifest: Manifest) -> str:
    lines = [f"[manifest] version={manifest.format_version}",
             f"[ring] n={manifest.ring.modulus}"]
    for name in sorted(manifest.modules):
        m = manifest.modules[name]
        lines.append(f"[module {name}] factors="
                     + ",".join(str(d) for d in m.invariant_factors))
    for name in sorted(manifest.morphisms):
        f = manifest.morphisms[name]
        src = manifest.module_name(f.source)
        tgt = manifest.module_name(f.target)
        if src is None or tgt is None:
            raise InputError(f"morphism {name!r} references unregistered modules")
        lines.append(f"[morphism {name}] from={src} to={tgt} rows="
                     + _serialize_matrix(f))
    for name in sorted(manifest.reps):
        fname = manifest.morphism_name(manifest.reps[name].f)
        if fname is None:
            raise InputError(f"rep {name!r} references an unregistered morphism")
        lines.append(f"[rep {name}] f={fname}")
    for name in sorted(manifest.repmaps):
        rm = manifest.repmaps[name]
        lines.append(f"[repmap {name}] from={manifest.rep_name(rm.source)} "
                     f"to={manifest.rep_name(rm.target)} "
                     f"d={manifest.morphism_name(rm.d)} "
                     f"s={manifest.morphism_name(rm.s)}")
    return "\n".join(lines) + "\n"


def _record(lineno: int, line: str) -> tuple[str, Optional[str], dict[str, str]]:
    """The kind, name and fields of one stripped record line."""
    m = _HEADER.match(line)
    if m is None:
        raise InputError(f"line {lineno}: expected a [section] record")
    return m.group(1), m.group(2), _fields(m.group(3), lineno)


def _parse_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield (lineno, *_record(lineno, line))


def parse(text: str) -> Manifest:
    """Parse a manifest; errors carry the offending line number, and an
    ill-defined morphism is rejected with its congruence witness."""
    manifest: Optional[Manifest] = None
    version = FORMAT_VERSION
    for lineno, kind, name, fields in _parse_lines(text):
        if kind == "manifest":
            _require(fields, ["version"], lineno)
            version = _int(fields["version"], "version", lineno)
            if version != FORMAT_VERSION:
                raise InputError(f"line {lineno}: unsupported version {version}")
        elif kind == "ring":
            _require(fields, ["n"], lineno)
            if manifest is not None:
                raise InputError(f"line {lineno}: duplicate ring section")
            modulus = _int(fields["n"], "modulus", lineno)
            try:
                manifest = Manifest(Ring(modulus), format_version=version)
            except InputError as exc:
                raise InputError(f"line {lineno}: bad ring: {exc}") from None
        elif kind in ("module", "morphism", "rep", "repmap"):
            if manifest is None:
                raise InputError(f"line {lineno}: [{kind}] before [ring]")
            if name is None:
                raise InputError(f"line {lineno}: [{kind}] needs a name")
            _parse_object(manifest, kind, name, fields, lineno)
        elif kind in ("filtration", "step", "stepreport"):
            raise InputError(
                f"line {lineno}: [{kind}] sections belong to filtration files")
        else:
            raise InputError(f"line {lineno}: unknown section [{kind}]")
    if manifest is None:
        raise InputError("manifest has no [ring] section")
    return manifest


def _parse_object(manifest: Manifest, kind: str, name: str,
                  fields: dict[str, str], lineno: int) -> None:
    try:
        _parse_object_inner(manifest, kind, name, fields, lineno)
    except InputError as exc:
        raise _at_line(exc, lineno) from None


def _parse_object_inner(manifest: Manifest, kind: str, name: str,
                        fields: dict[str, str], lineno: int) -> None:
    if kind == "module":
        _require(fields, ["factors"], lineno)
        m = FiniteModule(manifest.ring,
                         tuple(_ints(fields["factors"], "factors", lineno)))
        manifest.add_module(name, m)
    elif kind == "morphism":
        _require(fields, ["from", "to", "rows"], lineno)
        src = manifest.modules.get(fields["from"])
        tgt = manifest.modules.get(fields["to"])
        if src is None or tgt is None:
            raise InputError("unknown module reference")
        # the serializer writes an empty matrix, rank 0 on a side, as ""
        text = fields["rows"]
        rows = _vectors(text, lineno) if text else [() for _ in range(tgt.rank)]
        try:
            f = ModuleMorphism(src, tgt, tuple(rows))
        except IllDefinedMorphismError as exc:
            raise InputError(
                f"ill-defined morphism {name!r}: entry {exc.entry} "
                f"at ({exc.row}, {exc.col}) with factors "
                f"(target {exc.target_factor}, source {exc.source_factor})") from None
        manifest.add_morphism(name, f)
    elif kind == "rep":
        _require(fields, ["f"], lineno)
        f = manifest.morphisms.get(fields["f"])
        if f is None:
            raise InputError("unknown morphism reference")
        manifest.add_rep(name, RepA2.from_morphism(f))
    elif kind == "repmap":
        _require(fields, ["from", "to", "d", "s"], lineno)
        src = manifest.reps.get(fields["from"])
        tgt = manifest.reps.get(fields["to"])
        d = manifest.morphisms.get(fields["d"])
        s = manifest.morphisms.get(fields["s"])
        if src is None or tgt is None or d is None or s is None:
            raise InputError("unknown reference in repmap")
        manifest.add_repmap(name, RepMorphism(src, tgt, d, s))


def serialize_filtration(manifest: Manifest, filtration: Filtration,
                         cfg: FiltrationConfig) -> str:
    """Manifest text followed by the filtration chain sections."""
    target = manifest.ensure_rep(filtration.target, hint="target")
    lines = [serialize(manifest).rstrip("\n"),
             f"[filtration] target={target} kappa={cfg.kappa}"]
    for i, step in enumerate(filtration.steps):
        s1 = ";".join(",".join(str(x) for x in g) for g in step.s1.generators)
        s2 = ";".join(",".join(str(x) for x in g) for g in step.s2.generators)
        lines.append(f"[step {i}] s1={s1} s2={s2}")
    for i, rep in enumerate(filtration.reports):
        lines.append(f"[stepreport {i}] witnesses={rep.witnesses} "
                     f"q1={rep.quotient_card_m1} q2={rep.quotient_card_m2} "
                     f"b1={rep.bound_m1} b2={rep.bound_m2}")
    return "\n".join(lines) + "\n"


def parse_filtration(text: str) -> tuple[Manifest, Filtration, FiltrationConfig]:
    """Parse a filtration file: the manifest objects, then the chain records.

    Each [step i] is checked to be a subrepresentation of the target as it
    is read, through `SubRep.extending` against step i-1 when that record
    came earlier and against the zero subrepresentation otherwise.  So a
    step that re-lists the generators of the one below it reduces, inserts
    into the Howell bases and applies f to only the generators it adds.
    Errors carry the line."""
    object_lines = []
    chain_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith(("[filtration]", "[step ", "[stepreport ")):
            chain_lines.append((lineno, raw))
            raw = ""  # a blank keeps every object line at its number
        object_lines.append(raw)
    manifest = parse("\n".join(object_lines))
    target: Optional[RepA2] = None
    kappa: Optional[int] = None
    header_line = 0
    steps: dict[int, SubRep] = {}
    reports: dict[int, StepReport] = {}
    for lineno, raw in chain_lines:
        kind, name, fields = _record(lineno, raw.strip())
        if kind == "filtration":
            if header_line:
                raise InputError(f"line {lineno}: duplicate [filtration] record")
            _require(fields, ["target", "kappa"], lineno)
            target = manifest.reps.get(fields["target"])
            if target is None:
                raise InputError(f"line {lineno}: unknown target rep")
            kappa = _int(fields["kappa"], "kappa", lineno)
            try:
                FiltrationConfig(kappa=kappa).check(target)
            except InputError as exc:
                raise _at_line(exc, lineno) from None
            header_line = lineno
        elif kind == "step":
            if target is None:
                raise InputError(f"line {lineno}: [step] before [filtration]")
            _require(fields, ["s1", "s2"], lineno)
            idx = _int(name, "step index", lineno)
            if idx in steps:
                raise InputError(f"line {lineno}: duplicate [step {idx}] record")
            prev = steps.get(idx - 1) or SubRep.zero(target)
            try:
                steps[idx] = SubRep.extending(prev, _vectors(fields["s1"], lineno),
                                              _vectors(fields["s2"], lineno))
            except InputError as exc:
                raise _at_line(exc, lineno) from None
        elif kind == "stepreport":
            _require(fields, ["witnesses", "q1", "q2", "b1", "b2"], lineno)
            idx = _int(name, "step report index", lineno)
            if idx in reports:
                raise InputError(f"line {lineno}: duplicate [stepreport {idx}] record")
            reports[idx] = StepReport(*(
                _int(fields[key], key, lineno)
                for key in ("witnesses", "q1", "q2", "b1", "b2")))
    if target is None or kappa is None:
        raise InputError("filtration file has no [filtration] section")
    if not steps:
        raise InputError(f"line {header_line}: [filtration] has no [step] records")
    if set(steps) != set(range(len(steps))):
        raise InputError("filtration steps must be numbered 0..k")
    # one report per step quotient S_(i+1) / S_i, or none at all
    if reports and set(reports) != set(range(len(steps) - 1)):
        raise InputError(f"step reports must be numbered 0..k-1 for the "
                         f"k = {len(steps) - 1} step quotients")
    filtration = Filtration(
        target, tuple(steps[i] for i in range(len(steps))),
        tuple(reports[i] for i in range(len(reports))))
    return manifest, filtration, FiltrationConfig(kappa=kappa)
