import random

import pytest

from phantomcover.errors import InputError
from phantomcover.filtration import FiltrationConfig, build_filtration
from phantomcover.finmod import FiniteModule, ModuleMorphism, Ring
from phantomcover.manifest import (
    Manifest,
    parse,
    parse_filtration,
    serialize,
    serialize_filtration,
)
from phantomcover.rep_a2 import RepA2, RepMorphism

Z4 = Ring(4)


def sample_manifest():
    man = Manifest(Z4)
    man.add_module("two", FiniteModule(Z4, (2,)))
    man.add_module("four", FiniteModule(Z4, (4,)))
    man.add_module("zero", FiniteModule(Z4, ()))
    man.add_morphism("cover", ModuleMorphism(
        man.modules["four"], man.modules["two"], ((1,),)))
    man.add_morphism("tozero", ModuleMorphism.zero_map(
        man.modules["two"], man.modules["zero"]))
    man.add_rep("doubling", RepA2.from_morphism(ModuleMorphism(
        man.modules["four"], man.modules["four"], ((2,),))))
    return man


def test_roundtrip_equality():
    man = sample_manifest()
    text = serialize(man)
    back = parse(text)
    assert back == man
    assert serialize(back) == text  # bit-exact


def test_empty_manifest_is_valid():
    man = parse("[ring] n=6\n")
    assert man.ring == Ring(6)
    assert not man.modules and not man.morphisms


def test_parse_reports_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse("[ring] n=4\nthis is not a record\n")
    with pytest.raises(InputError, match="line 3"):
        parse("[ring] n=4\n[module a] factors=2\n[module a] factors=2\n")
    with pytest.raises(InputError, match="ring"):
        parse("[module a] factors=2\n")


def test_parse_rejects_ill_defined_morphism_with_witness():
    text = ("[ring] n=4\n"
            "[module two] factors=2\n"
            "[module four] factors=4\n"
            "[morphism bad] from=two to=four rows=1\n")
    with pytest.raises(InputError) as err:
        parse(text)
    msg = str(err.value)
    assert "line 4" in msg and "(0, 0)" in msg and "4" in msg and "2" in msg


def test_parse_rejects_bad_factors():
    with pytest.raises(InputError, match="line 2"):
        parse("[ring] n=4\n[module a] factors=3\n")


def test_zero_rank_morphism_roundtrip():
    man = Manifest(Z4)
    man.add_module("z", FiniteModule(Z4, ()))
    man.add_module("four", FiniteModule(Z4, (4,)))
    man.add_morphism("fromzero", ModuleMorphism.zero_map(
        man.modules["z"], man.modules["four"]))
    assert parse(serialize(man)) == man


def test_repmap_roundtrip():
    man = Manifest(Z4)
    four = FiniteModule(Z4, (4,))
    ident = ModuleMorphism.identity(four)
    double = ModuleMorphism(four, four, ((2,),))
    rep = RepA2.from_morphism(double)
    man.add_rep("r", rep)
    man.add_repmap("loop", RepMorphism(rep, rep, double, double))
    assert parse(serialize(man)) == man


def test_filtration_roundtrip():
    four3 = FiniteModule(Z4, (4, 4, 4))
    rep = RepA2.from_morphism(ModuleMorphism(
        four3, four3, tuple(tuple(2 if i == j else 0 for j in range(3))
                            for i in range(3))))
    cfg = FiltrationConfig(kappa=4)
    filt = build_filtration(rep, cfg)
    man = Manifest(Z4)
    text = serialize_filtration(man, filt, cfg)
    man2, filt2, cfg2 = parse_filtration(text)
    assert cfg2 == cfg
    assert len(filt2.steps) == len(filt.steps)
    assert filt2.reports == filt.reports
    for s1, s2 in zip(filt.steps, filt2.steps):
        assert s1.s1.generators == s2.s1.generators
        assert s1.s2.generators == s2.s2.generators
    # and the file round-trips bit-exactly through its own serializer
    assert serialize_filtration(man2, filt2, cfg2) == text


def test_filtration_steps_parse_in_any_record_order():
    # a step is checked against the one before it only when that record
    # came first; any order of the [step] records gives the same chain
    four3 = FiniteModule(Z4, (4, 4, 4))
    rep = RepA2.from_morphism(ModuleMorphism(
        four3, four3, ((2, 1, 0), (0, 2, 0), (0, 0, 2))))
    cfg = FiltrationConfig(kappa=4)
    text = serialize_filtration(Manifest(Z4), build_filtration(rep, cfg), cfg)
    lines = text.splitlines()
    at = [i for i, l in enumerate(lines) if l.startswith("[step ")]
    assert len(at) >= 4
    _, filt, _ = parse_filtration(text)
    rng = random.Random(5)
    for order in [at[::-1]] + [rng.sample(at, len(at)) for _ in range(5)]:
        shuffled = list(lines)
        for i, j in zip(at, order):
            shuffled[i] = lines[j]
        assert parse_filtration("\n".join(shuffled) + "\n")[1] == filt


_HEAD = "[manifest] version=1\n[ring] n=8\n[module M] factors=8,8\n"
_CHAIN = ("[morphism f] from=M to=M rows=1,0;0,1\n[rep F] f=f\n"
          "[filtration] target=F kappa=8\n[step 0] s1= s2=\n")


@pytest.mark.parametrize("entry, shown", [
    ("+8", " '+8'"),
    ("1_0", " '1_0'"),
    ("٣", " '٣'"),
    ("1,,2", " ''"),
    ("9" * 5000, ": 5000 digits is past the integer conversion limit"),
])
def test_integer_list_errors_name_the_first_bad_entry(entry, shown):
    # a list is matched as a whole; one that does not match goes entry by
    # entry, so the message names the entry, as it always has, and names
    # its line once, in a [step] record as in a [morphism] record
    with pytest.raises(InputError) as exc:
        parse(_HEAD + f"[morphism f] from=M to=M rows=1,0;0,{entry}\n")
    assert str(exc.value) == f"line 4: malformed vector{shown}"
    with pytest.raises(InputError) as exc:
        parse_filtration(_HEAD + _CHAIN + f"[step 1] s1=1,0;0,{entry} s2=1,0;0,1\n")
    assert str(exc.value) == f"line 8: malformed vector{shown}"


def test_integer_lists_parse_as_before():
    man = parse(_HEAD + "[morphism f] from=M to=M rows=-0,007;0,-9\n")
    assert man.morphisms["f"].matrix == ((0, 7), (0, 7))
