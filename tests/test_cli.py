import argparse
import hashlib
import io
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from phantomcover import cli, exact_linalg
from phantomcover.cli import main
from phantomcover.errors import IllDefinedMorphismError, InputError, InternalConsistencyError
from phantomcover.finmod import FiniteModule, ModuleMorphism, Ring

DEMO = """\
[manifest] version=1
[ring] n=4
[module two] factors=2
[module four] factors=4
[module ext] factors=2,4
[morphism ident2] from=two to=two rows=1
[morphism covermap] from=four to=two rows=1
[morphism puremono] from=two to=ext rows=1;0
[morphism triple] from=big to=big rows=2,0,0;0,2,0;0,0,2
[module big] factors=4,4,4
[rep bigrep] f=triple
"""


@pytest.fixture
def demo(tmp_path):
    # modules must be declared before use; reorder the big module up front
    lines = DEMO.splitlines()
    lines.insert(5, lines.pop(9))
    path = tmp_path / "demo.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_phantom_false(demo, capsys):
    code, out = run(["check-phantom", "--input", demo, "--morphism", "ident2"], capsys)
    assert code == 0
    assert "phantom=false" in out
    assert "certificate=no-lift-through-free-cover" in out


def test_check_phantom_true_writes_factorization(demo, capsys, tmp_path):
    outfile = tmp_path / "fact.txt"
    code, out = run(["check-phantom", "--input", demo, "--morphism", "covermap",
                     "--output", str(outfile)], capsys)
    assert code == 0 and "phantom=true" in out
    text = outfile.read_text(encoding="utf-8")
    assert "[morphism into]" in text and "[morphism through]" in text


def test_precover_and_cover(demo, capsys):
    code, out = run(["precover", "--input", demo, "--morphism", "covermap",
                     "--size-bound", "16"], capsys)
    assert code == 0 and "precover=true" in out
    code, out = run(["cover", "--input", demo, "--morphism", "covermap",
                     "--size-bound", "16"], capsys)
    assert code == 0 and "cover=true" in out


def test_precover_rejects_nonmember(demo, capsys):
    code = main(["precover", "--input", demo, "--morphism", "ident2"])
    assert code == 2


def test_phantom_cover_command(demo, capsys, tmp_path):
    outfile = tmp_path / "cover.txt"
    code, out = run(["phantom-cover", "--input", demo, "--module", "two",
                     "--output", str(outfile)], capsys)
    assert code == 0
    assert "cover_source=4" in out and "surjective=true" in out
    assert "[morphism phantom_cover]" in outfile.read_text(encoding="utf-8")


def test_pushout_transport_and_retract(demo, capsys):
    code, out = run(["pushout-transport", "--input", demo,
                     "--phi", "covermap", "--mono", "puremono"], capsys)
    assert code == 0 and "phantom=true" in out
    code, out = run(["retract", "--input", demo,
                     "--phi", "covermap", "--mono", "puremono"], capsys)
    assert code == 0 and "retraction_check=ok" in out


def test_filtrate_and_verify_filtration(demo, capsys, tmp_path):
    outfile = tmp_path / "filt.txt"
    code, out = run(["filtrate", "--input", demo, "--rep", "bigrep",
                     "--kappa", "4", "--output", str(outfile)], capsys)
    assert code == 0
    length = int(next(l for l in out.splitlines() if l.startswith("length=")).split("=")[1])
    assert length >= 3
    code, out = run(["verify-filtration", "--input", str(outfile)], capsys)
    assert code == 0
    assert out.count("ok ") == 6


def test_verify_filtration_catches_corruption(demo, capsys, tmp_path):
    outfile = tmp_path / "filt.txt"
    main(["filtrate", "--input", demo, "--rep", "bigrep", "--kappa", "4",
          "--output", str(outfile)])
    capsys.readouterr()
    # corrupt: replace the first proper step with an impure subrepresentation
    text = outfile.read_text(encoding="utf-8")
    lines = [("[step 1] s1=2,0,0 s2=2,0,0" if l.startswith("[step 1]") else l)
             for l in text.splitlines()]
    outfile.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out = run(["verify-filtration", "--input", str(outfile)], capsys)
    assert code == 1
    assert "FAIL purity" in out


NON_PHANTOM_FILTRATION = """\
[manifest] version=1
[ring] n=8
[module m] factors=2
[morphism f] from=m to=m rows=1
[rep r] f=f
[filtration] target=r kappa=8
[step 0] s1= s2=
[step 1] s1=1 s2=1
[stepreport 0] witnesses=0 q1=2 q2=2 b1=8 b2=8
"""


def test_verify_filtration_certifies_a_non_phantom_quotient(capsys, tmp_path):
    # the identity of Z/2 over Z/8 is not phantom: the generator, of order
    # 2, maps to 1, outside (8/2) * Z/2 = 0; only the FAIL line carries it
    path = tmp_path / "identity.filt"
    path.write_text(NON_PHANTOM_FILTRATION, encoding="utf-8")
    code, out = run(["verify-filtration", "--input", str(path)], capsys)
    assert code == 1
    assert out.splitlines() == [
        "command=verify-filtration steps=2",
        "ok zero_base",
        "ok purity",
        "ok continuity",
        "FAIL quotient_phantom (non-phantom quotient at step 0: d=2, element (1))",
        "ok size_bounds (step 0: |q1|=2 |q2|=2 bounds 8,8)",
        "ok strict_growth",
    ]


ESCAPING_STEPS = """\
[manifest] version=1
[ring] n=8
[module a] factors=8
[morphism f] from=a to=a rows=1
[rep r] f=f
[filtration] target=r kappa=8
[step 0] s1= s2=
"""


@pytest.mark.parametrize("step1, step2", [
    ("s1= s2=2", "s1=1 s2=2"),
    ("s1=2 s2=2", "s1=2;4;1 s2=2"),
    ("s1=2 s2=2", "s1=2 s2=4"),
    ("s1=2 s2=2", "s1=4;2 s2=4"),
], ids=["new-generator", "second-new-generator", "s2-not-prefix", "s1-not-prefix"])
def test_step_generator_escaping_the_second_component_is_an_input_error(
        tmp_path, capsys, step1, step2):
    # f is the identity of Z/8, so f(1) lies outside <2> and f(2) outside
    # <4>; a step that re-lists the one before it has only its new first
    # component generators checked, any other step all of them
    path = tmp_path / "escape.filt"
    path.write_text(ESCAPING_STEPS + f"[step 1] {step1}\n[step 2] {step2}\n",
                    encoding="utf-8")
    assert main(["verify-filtration", "--input", str(path)]) == 2
    assert ("line 9: f does not carry the first component into the second"
            in capsys.readouterr().err)


def test_counterexample_ext_command(demo, capsys):
    code, out = run(["counterexample-ext", "--input", demo,
                     "--morphism", "ident2"], capsys)
    assert code == 0
    assert "middle_in_class=false" in out
    assert "sub_in_class=true" in out and "quotient_in_class=true" in out


def test_counterexample_ext_refuses_member(demo, capsys):
    assert main(["counterexample-ext", "--input", demo,
                 "--morphism", "covermap"]) == 2


def test_colimit_command(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text(
        "[ring] n=4\n"
        "[module two] factors=2\n"
        "[module four] factors=4\n"
        "[morphism emb] from=two to=four rows=2\n"
        "[morphism ident4] from=four to=four rows=1\n"
        "[morphism twomap] from=two to=four rows=2\n"
        "[rep small] f=twomap\n"
        "[rep big] f=ident4\n"
        "[repmap inc] from=small to=big d=emb s=ident4\n",
        encoding="utf-8")
    code, out = run(["colimit", "--input", str(path),
                     "--chain", "small,big", "--maps", "inc"], capsys)
    assert code == 0
    assert "m1_factors=4" in out and "m2_factors=4" in out


TOP_CHAIN = """[manifest] version=1
[ring] n=3
[module A] factors=3
[module B] factors=3,3
[morphism z] from=A to=A rows=0
[morphism f] from=B to=B rows=0,1;0,0
[morphism d] from=A to=B rows=0;0
[morphism s] from=A to=B rows=2;0
[rep R0] f=z
[rep R1] f=f
[repmap t] from=R0 to=R1 d=d s=s
"""


def test_colimit_command_prints_the_top_representation(tmp_path, capsys):
    # the colimit of a chain is its top representation, with R1's own map
    path = tmp_path / "top.txt"
    path.write_text(TOP_CHAIN, encoding="utf-8")
    code, out = run(["colimit", "--input", str(path),
                     "--chain", "R0,R1", "--maps", "t"], capsys)
    assert code == 0
    assert "f_rows=0,1;0,0" in out.splitlines()


@pytest.mark.parametrize("chain, maps, step", [
    ("R1,R0", "t", 0),
    ("R0,R1,R1", "t,t", 1),
], ids=["two-objects", "three-objects"])
def test_colimit_command_names_the_mismatched_step(tmp_path, capsys, chain, maps, step):
    # t runs R0 -> R1, so it cannot be the step from R1 at either position
    path = tmp_path / "top.txt"
    path.write_text(TOP_CHAIN, encoding="utf-8")
    assert main(["colimit", "--input", str(path), "--chain", chain, "--maps", maps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error=input detail=step {step} does not map "
                            f"object {step} to object {step + 1}\n")


def test_random_rep_command(capsys, tmp_path):
    outfile = tmp_path / "rnd.txt"
    code, out = run(["random-rep", "--ring", "4", "--seed", "42",
                     "--size-bound", "64", "--output", str(outfile)], capsys)
    assert code == 0
    code2, out2 = run(["random-rep", "--ring", "4", "--seed", "42",
                       "--size-bound", "64"], capsys)
    assert out2.splitlines()[1] == out.splitlines()[1]  # same cardinality line


def test_verify_suite_command(capsys):
    code, out = run(["verify-suite", "--seed", "3", "--samples", "3",
                     "--ring", "4", "--property", "snf_minor_gcd",
                     "--property", "manifest_roundtrip"], capsys)
    assert code == 0
    assert "suite=ok" in out
    assert sum(1 for l in out.splitlines() if l.startswith("ok ")) == 2


def test_verify_suite_unknown_property(capsys):
    assert main(["verify-suite", "--samples", "1", "--property", "nope"]) == 2


def test_verify_suite_rejects_repeated_flags(capsys):
    code = main(["verify-suite", "--samples", "1",
                 "--property", "manifest_roundtrip",
                 "--property", "manifest_roundtrip",
                 "--ring", "8", "--ring", "8"])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.out == ""
    assert cap.err == "error=input detail=repeated property manifest_roundtrip\n"


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_suite_rejects_fewer_than_one_sample(capsys, samples):
    code, out = run(["verify-suite", "--samples", samples, "--ring", "4"], capsys)
    assert code == 2
    assert "suite=" not in out


def test_verify_suite_failure_output_names_everything(capsys, monkeypatch):
    import phantomcover.verify as verify

    def broken(chk, rng, ring):
        from phantomcover.finmod import FiniteModule, ModuleMorphism
        two = FiniteModule(ring, (2,))
        chk.fail("synthetic defect", witness=ModuleMorphism.identity(two))

    monkeypatch.setitem(verify.PROPERTIES, "synthetic", ("finmod", broken))
    code, out = run(["verify-suite", "--seed", "9", "--samples", "1",
                     "--ring", "4", "--property", "synthetic"], capsys)
    assert code == 1
    assert "failure module=finmod property=synthetic ring=4 seed=9 sample=0" in out
    assert "message: synthetic defect" in out
    assert "| [morphism witness]" in out  # serialized counterexample manifest
    assert "suite=FAIL" in out


_ILL = ("ill-defined morphism 'f': entry {4} at ({0}, {1}) "
        "with factors (target {2}, source {3})")


# (source, target, rows, manifest rows, error type, IllDefinedMorphismError
# fields (row, col, target factor, source factor, entry), constructor message,
# manifest stderr detail or None where the manifest accepts the morphism)
@pytest.mark.parametrize("src, tgt, rows, text, kind, fields, message, detail", [
    # several violations: the first in row-major order, its entry reduced
    ((2, 2), (4, 4), ((4, 5), (1, 3)), "4,5;1,3", "ill", (0, 1, 4, 2, 1),
     "entry 1 at (0, 1) violates 1 * 2 = 0 (mod 4)", _ILL.format(0, 1, 4, 2, 1)),
    # a violation in row 0 wins over the short row 1 after it
    ((2, 2), (4, 4), ((1, 0), (0,)), "1,0;0", "ill", (0, 0, 4, 2, 1),
     "entry 1 at (0, 0) violates 1 * 2 = 0 (mod 4)", _ILL.format(0, 0, 4, 2, 1)),
    # a short row after a well-defined one
    ((2, 2), (4, 4), ((0, 2), (0,)), "0,2;0", "input", None,
     "matrix column count must equal source rank",
     "matrix column count must equal source rank"),
    # a row's length is checked before its entries
    ((2,), (4, 8), ((0,), (1, 0)), "0;1,0", "input", None,
     "matrix column count must equal source rank",
     "matrix column count must equal source rank"),
    # the wrong row count
    ((2, 2), (4, 4), ((0, 0),), "0,0", "input", None,
     "matrix row count must equal target rank", "matrix row count must equal target rank"),
    # rank-0 source and rank-0 target: the manifest reads the empty matrix
    ((), (4,), ((1,),), "1", "input", None,
     "matrix column count must equal source rank", None),
    ((4,), (), ((),), "1", "input", None, "matrix row count must equal target rank", None),
], ids=["first-violation", "violation-before-short-row", "short-row", "long-row",
        "row-count", "rank-0-source", "rank-0-target"])
def test_malformed_morphisms_report_one_error(tmp_path, capsys, src, tgt, rows, text,
                                              kind, fields, message, detail):
    ring = Ring(8)
    with pytest.raises(InputError) as caught:
        ModuleMorphism(FiniteModule(ring, src), FiniteModule(ring, tgt), rows)
    exc = caught.value
    assert type(exc) is (IllDefinedMorphismError if kind == "ill" else InputError)
    assert str(exc) == message
    if fields is not None:
        assert (exc.row, exc.col, exc.target_factor, exc.source_factor, exc.entry) == fields
    path = tmp_path / "m.txt"
    path.write_text("[manifest] version=1\n[ring] n=8\n"
                    f"[module S] factors={','.join(map(str, src))}\n"
                    f"[module T] factors={','.join(map(str, tgt))}\n"
                    f"[morphism f] from=S to=T rows={text}\n", encoding="utf-8")
    code = main(["check-phantom", "--input", str(path), "--morphism", "f"])
    captured = capsys.readouterr()
    if detail is None:
        assert (code, captured.err) == (0, "")
        assert "phantom=true" in captured.out.splitlines()
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error=input detail=line 5: {detail}\n"


def test_input_error_exit_code(capsys):
    assert main(["check-phantom", "--input", "/nonexistent", "--morphism", "x"]) == 2


@pytest.mark.parametrize("argv", [
    ["check-phantom", "--morphism", "x"],
    ["verify-filtration"],
])
def test_undecodable_input_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe")
    assert main(argv + ["--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error=input detail=cannot read {path}: ")


def test_unwritable_output_is_an_input_error(demo, tmp_path, capsys):
    out = tmp_path / "missing" / "cover.txt"
    assert main(["phantom-cover", "--input", demo, "--module", "two",
                 "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error=input detail=cannot write {out}: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["check-phantom", "--input", "DEMO", "--morphism", "covermap"],
    ["pushout-transport", "--input", "DEMO", "--phi", "covermap", "--mono", "puremono"],
    ["retract", "--input", "DEMO", "--phi", "covermap", "--mono", "puremono"],
    ["filtrate", "--input", "DEMO", "--rep", "bigrep", "--kappa", "4"],
    ["counterexample-ext", "--input", "DEMO", "--morphism", "ident2"],
    ["colimit", "--input", "DEMO", "--chain", "bigrep"],
    ["random-rep", "--ring", "4", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_unwritable_output_prints_no_records(demo, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    argv = [demo if a == "DEMO" else a for a in argv]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().out == ""


HOM_DEMO = """\
[manifest] version=1
[ring] n=4
[module four] factors=4
[module two] factors=2
[morphism pi] from=four to=two rows=1
"""


def test_hom_ideal_precover_and_cover_are_exact(tmp_path, capsys):
    # id_{Z/2} is in the hom ideal and does not factor through pi: every
    # map Z/2 -> Z/4 lands in 2 * Z/4, which pi kills
    path = tmp_path / "hom.txt"
    path.write_text(HOM_DEMO, encoding="utf-8")
    base = ["--input", str(path), "--morphism", "pi"]
    code, out = run(["precover", "--ideal", "hom"] + base, capsys)
    assert code == 1
    lines = out.splitlines()
    assert "probes=1" in lines[0]
    assert "precover=false" in lines and "failing_probe_rows=1" in lines
    code, out = run(["cover", "--ideal", "hom"] + base, capsys)
    assert code == 1 and "cover=false" in out.splitlines()
    code, out = run(["precover", "--ideal", "phantom"] + base, capsys)
    assert code == 0 and "precover=true" in out.splitlines()
    code, out = run(["cover", "--ideal", "phantom"] + base, capsys)
    assert code == 0 and "cover=true" in out.splitlines()


def test_precover_and_cover_ignore_the_sweep_knobs(tmp_path, capsys):
    path = tmp_path / "hom.txt"
    path.write_text(HOM_DEMO, encoding="utf-8")
    base = ["--input", str(path), "--morphism", "pi", "--ideal", "hom"]
    plain = [run(["precover"] + base, capsys), run(["cover"] + base, capsys)]
    knobs = [run(["precover", "--size-bound", "1"] + base, capsys),
             run(["cover", "--size-bound", "1", "--endo-limit", "1"] + base, capsys)]
    assert knobs == plain


def test_internal_consistency_exit_code(tmp_path, capsys):
    # retract against a morphism that is only a precover: the violated cover
    # property is an internal consistency event, exit code 3
    path = tmp_path / "noncover.txt"
    path.write_text(
        "[ring] n=4\n"
        "[module two] factors=2\n"
        "[module big] factors=4,4\n"
        "[module k] factors=2,4\n"
        "[morphism phi] from=big to=two rows=1,0\n"
        "[morphism vk] from=k to=k rows=1,0;0,1\n",
        encoding="utf-8")
    assert main(["retract", "--input", str(path),
                 "--phi", "phi", "--mono", "vk"]) == 3


def test_unexpected_exception_exit_code(demo, capsys, monkeypatch):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_check_phantom", broken)
    assert main(["check-phantom", "--input", demo, "--morphism", "ident2"]) == 3
    assert capsys.readouterr().err == "error=unexpected detail=KeyError: 'boom'\n"


def test_one_process_runs_many_commands(demo, capsys):
    # one parser serves every call: repeatable flags start empty each time,
    # and a usage error leaves nothing behind for the next call
    for prop in ("manifest_roundtrip", "sampler_determinism"):
        code, out = run(["verify-suite", "--seed", "1", "--samples", "1",
                         "--ring", "4", "--property", prop], capsys)
        assert code == 0
        listed = [l.split()[1].split(".")[1] for l in out.splitlines()
                  if l.startswith(("ok ", "FAIL "))]
        assert listed == [prop]
    argv = ["check-phantom", "--input", demo, "--morphism", "ident2"]
    first = run(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["check-phantom", "--input", demo])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(argv, capsys) == first


def test_parser_is_built_once(demo, capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for _ in range(3):
        assert main(["check-phantom", "--input", demo, "--morphism", "ident2"]) == 0
    assert len(built) == 1


def test_every_command_has_a_handler():
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    for name in commands:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))


def test_failed_annihilation_check_is_an_internal_error(monkeypatch):
    # a graph-form row leading in the solution half that a does not
    # annihilate; through the whole solver the lift check would trip first
    real = exact_linalg.howell_form

    def bogus(rows, n, width):
        h = real(rows, n, width)
        return exact_linalg.HowellForm(n, width, h.rows + ((0,) * (width - 1) + (1,),),
                                       h.pivots + (width - 1,))

    monkeypatch.setattr(exact_linalg, "howell_form", bogus)
    with pytest.raises(InternalConsistencyError,
                       match="kernel generator fails annihilation check"):
        exact_linalg.solution_space_mod(exact_linalg.IntMatrix.from_rows([[1]]), 4)


@pytest.mark.parametrize("n, p", [
    (2 ** 61 - 1, 2 ** 61 - 1),
    ((10 ** 9 + 7) * (10 ** 9 + 9), 10 ** 9 + 7),
])
def test_commands_on_large_moduli_end_quickly(tmp_path, capsys, n, p):
    path = tmp_path / "big.txt"
    path.write_text(f"[manifest] version=1\n[ring] n={n}\n[module F] factors={n}\n"
                    f"[module P] factors={p}\n[morphism f] from=F to=P rows=1\n"
                    "[rep r] f=f\n", encoding="utf-8")
    sampled = str(tmp_path / "sampled.txt")
    for argv in (["random-rep", "--ring", str(n), "--seed", "1", "--output", sampled],
                 ["filtrate", "--input", sampled, "--rep", "sampled", "--kappa", str(n)],
                 ["phantom-cover", "--input", str(path), "--module", "P"],
                 ["filtrate", "--input", str(path), "--rep", "r", "--kappa", str(n)]):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 2, argv
        assert code == 0, argv
    capsys.readouterr()


def test_unprovable_modulus_is_an_input_error(capsys):
    assert main(["random-rep", "--ring", str(2 ** 89 - 1), "--seed", "1"]) == 2
    assert "cannot prove" in capsys.readouterr().err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "phantomcover.cli", "verify-suite", "--seed", "1",
         "--samples", "1", "--ring", "4", "--property", "sampler_determinism"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "suite=ok" in proc.stdout


def _filtration_file(demo, tmp_path):
    outfile = tmp_path / "filt.txt"
    assert main(["filtrate", "--input", demo, "--rep", "bigrep", "--kappa", "4",
                 "--output", str(outfile)]) == 0
    return outfile


def _rewrite(path, edit):
    """Apply edit to every line; a line edited to None is dropped."""
    lines = [edit(l) for l in path.read_text(encoding="utf-8").splitlines()]
    path.write_text("\n".join(l for l in lines if l is not None) + "\n",
                    encoding="utf-8")
    return [l for l in lines if l is not None]


def test_non_integer_version_is_an_input_error(demo, capsys):
    _rewrite(Path(demo), lambda l: l.replace("version=1", "version=x"))
    code = main(["check-phantom", "--input", demo, "--morphism", "ident2"])
    assert code == 2
    assert "line 1: malformed version 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("line, value", [
    (4, "1_0"),     # int() reads 10, which is 2 mod 8
    (2, "+8"),
    (2, "\u0668"),  # ARABIC-INDIC DIGIT EIGHT
    (2, "\uff18"),  # FULLWIDTH DIGIT EIGHT
    (4, "9" * 5000),  # past int()'s default 4300-digit limit
    (2, "9" * 5000),
], ids=["underscore", "plus", "arabic-indic", "fullwidth", "long-rows", "long-ring"])
def test_non_ascii_decimal_number_is_an_input_error(tmp_path, capsys, line, value):
    path = tmp_path / "mod.txt"
    records = ["[manifest] version=1", "[ring] n=8", "[module M] factors=8",
               "[morphism f] from=M to=M rows=2"]
    records[line - 1] = records[line - 1].rsplit("=", 1)[0] + "=" + value
    path.write_text("\n".join(records) + "\n", encoding="utf-8")
    assert main(["check-phantom", "--input", str(path), "--morphism", "f"]) == 2
    assert f"line {line}: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("prefix, replacement, what", [
    ("[filtration]", "[filtration] target=bigrep kappa=abc", "kappa 'abc'"),
    ("[step 1]", "[step one] s1=0,0,1 s2=0,0,2;0,0,1", "step index 'one'"),
    ("[stepreport 0]", "[stepreport 0] witnesses=1 q1=4 q2=x b1=4 b2=16", "q2 'x'"),
])
def test_non_integer_filtration_field_is_an_input_error(
        demo, capsys, tmp_path, prefix, replacement, what):
    path = _filtration_file(demo, tmp_path)
    lines = _rewrite(path, lambda l: replacement if l.startswith(prefix) else l)
    lineno = 1 + next(i for i, l in enumerate(lines) if l == replacement)
    capsys.readouterr()
    assert main(["verify-filtration", "--input", str(path)]) == 2
    assert f"line {lineno}: malformed {what}" in capsys.readouterr().err


def test_filtration_without_steps_is_an_input_error(demo, capsys, tmp_path):
    path = _filtration_file(demo, tmp_path)
    lines = _rewrite(path, lambda l: None if l.startswith("[step") else l)
    lineno = 1 + next(i for i, l in enumerate(lines) if l.startswith("[filtration]"))
    capsys.readouterr()
    assert main(["verify-filtration", "--input", str(path)]) == 2
    assert f"line {lineno}: [filtration] has no [step] records" in capsys.readouterr().err


@pytest.mark.parametrize("forged, flag", [
    ("witnesses=1 q1=1 q2=4 b1=999999 b2=16", "recorded q1=1 q2=4"),
    ("witnesses=1 q1=4 q2=4 b1=4 b2=12", "bounds not of the form kappa*n^e"),
])
def test_verify_filtration_rejects_forged_step_reports(
        demo, capsys, tmp_path, forged, flag):
    path = _filtration_file(demo, tmp_path)
    _rewrite(path, lambda l: "[stepreport 0] " + forged
             if l.startswith("[stepreport 0]") else l)
    capsys.readouterr()
    code, out = run(["verify-filtration", "--input", str(path)], capsys)
    assert code == 1
    failed = next(l for l in out.splitlines() if l.startswith("FAIL size_bounds"))
    assert flag in failed


@pytest.mark.parametrize("kappa", ["1", "0", "-8"])
def test_kappa_below_the_modulus_is_an_input_error(demo, capsys, tmp_path, kappa):
    path = _filtration_file(demo, tmp_path)
    lines = _rewrite(path, lambda l: l.replace("kappa=4", f"kappa={kappa}")
                     if l.startswith("[filtration]") else l)
    lineno = 1 + next(i for i, l in enumerate(lines) if l.startswith("[filtration]"))
    capsys.readouterr()
    assert main(["verify-filtration", "--input", str(path)]) == 2
    assert (f"line {lineno}: kappa must be at least the ring modulus"
            in capsys.readouterr().err)


def test_stray_key_on_a_step_report_is_an_input_error(demo, capsys, tmp_path):
    path = _filtration_file(demo, tmp_path)
    lines = _rewrite(path, lambda l: l.replace("witnesses=", "extra=1 witnesses=")
                     if l.startswith("[stepreport 0]") else l)
    lineno = 1 + next(i for i, l in enumerate(lines) if l.startswith("[stepreport 0]"))
    capsys.readouterr()
    assert main(["verify-filtration", "--input", str(path)]) == 2
    assert f"line {lineno}: unknown field 'extra'" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["[step 1]", "[stepreport 0]"])
def test_unnamed_chain_record_is_an_input_error(demo, capsys, tmp_path, header):
    # "[stepreport ]" starts like a chain record but is no record at all
    unnamed = header.split()[0] + " ]"
    path = _filtration_file(demo, tmp_path)
    lines = _rewrite(path, lambda l: l.replace(header, unnamed))
    lineno = 1 + next(i for i, l in enumerate(lines) if l.startswith(unnamed))
    capsys.readouterr()
    assert main(["verify-filtration", "--input", str(path)]) == 2
    assert f"line {lineno}: expected a [section] record" in capsys.readouterr().err


@pytest.mark.parametrize("header, copy", [
    ("[filtration]", None),
    ("[step 1]", None),
    ("[step 1]", "[step 1] s1= s2="),
    ("[stepreport 0]", None),
])
def test_duplicate_chain_record_is_an_input_error(demo, capsys, tmp_path, header, copy):
    # a second record of the same kind and index must not replace the first
    path = _filtration_file(demo, tmp_path)
    _rewrite(path, lambda l: l + "\n" + (copy or l) if l.startswith(header + " ") else l)
    lines = path.read_text(encoding="utf-8").splitlines()
    lineno = [i for i, l in enumerate(lines, start=1) if l.startswith(header + " ")][1]
    capsys.readouterr()
    assert main(["verify-filtration", "--input", str(path)]) == 2
    assert f"line {lineno}: duplicate {header} record" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["extra", "dropped_last"])
def test_step_reports_must_cover_exactly_the_step_quotients(demo, capsys, tmp_path, edit):
    # k + 1 [step] records bound k step quotients, reported as 0..k-1
    path = _filtration_file(demo, tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    k = sum(1 for l in lines if l.startswith("[step ")) - 1
    assert k >= 2
    if edit == "extra":
        lines.append(f"[stepreport {k}] witnesses=0 q1=1 q2=1 b1=4 b2=4")
    else:
        lines = [l for l in lines if not l.startswith(f"[stepreport {k - 1}] ")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["verify-filtration", "--input", str(path)]) == 2
    assert (f"step reports must be numbered 0..k-1 for the k = {k} step quotients"
            in capsys.readouterr().err)


def test_misspelt_key_on_a_module_record_is_an_input_error(demo, capsys):
    lines = _rewrite(Path(demo), lambda l: l + " factros=4"
                     if l.startswith("[module four]") else l)
    lineno = 1 + next(i for i, l in enumerate(lines) if l.startswith("[module four]"))
    assert main(["check-phantom", "--input", demo, "--morphism", "ident2"]) == 2
    assert f"line {lineno}: unknown field 'factros'" in capsys.readouterr().err


# --- seeded mutation of valid inputs -----------------------------------------

_MUTATION_KEYS = ("version", "n", "factors", "from", "to", "rows", "f", "target",
                  "kappa", "s1", "s2", "witnesses", "q1", "q2", "b1", "b2", "bogus")


@pytest.fixture(scope="module")
def mutation_sources(tmp_path_factory):
    """Valid inputs written by the CLI itself, each with the commands that
    read it: random-rep manifests, their filtration files and phantom-cover
    manifests."""
    work = tmp_path_factory.mktemp("mutation")
    sources = []
    with redirect_stdout(io.StringIO()):
        for ring, seed in ((4, 1), (6, 2), (8, 1), (12, 3)):
            rep, filt = work / f"rep{ring}.txt", work / f"rep{ring}.filt"
            assert main(["random-rep", "--ring", str(ring), "--seed", str(seed),
                         "--size-bound", "32", "--output", str(rep)]) == 0
            assert main(["filtrate", "--input", str(rep), "--rep", "sampled",
                         "--kappa", str(ring), "--output", str(filt)]) == 0
            sources.append((rep.read_bytes(), [
                ["filtrate", "--rep", "sampled", "--kappa", str(ring)],
                ["check-phantom", "--morphism", "f0"]]))
            sources.append((filt.read_bytes(), [["verify-filtration"]]))
        for ring, factors in ((4, "2,4"), (8, "2,8"), (12, "2,6")):
            mod, cover = work / f"mod{ring}.txt", work / f"cover{ring}.txt"
            mod.write_text(f"[manifest] version=1\n[ring] n={ring}\n"
                           f"[module M] factors={factors}\n", encoding="utf-8")
            assert main(["phantom-cover", "--input", str(mod), "--module", "M",
                         "--output", str(cover)]) == 0
            sources.append((cover.read_bytes(), [
                ["precover", "--morphism", "phantom_cover"],
                ["cover", "--morphism", "phantom_cover"],
                ["check-phantom", "--morphism", "phantom_cover"],
                ["phantom-cover", "--module", "m1"]]))
    return work, sources


def _mutate(data, text: bytes) -> bytes:
    kind = data.draw(st.sampled_from(
        ("flip", "drop", "duplicate", "rename", "zero", "negative", "non-number")))
    if kind == "flip":
        at = data.draw(st.integers(0, len(text) - 1))
        bit = data.draw(st.integers(0, 7))
        return text[:at] + bytes([text[at] ^ (1 << bit)]) + text[at + 1:]
    body = text.decode("utf-8")
    if kind in ("drop", "duplicate"):
        lines = body.splitlines(keepends=True)
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at:at + 1] = [] if kind == "drop" else [lines[at]] * 2
        return "".join(lines).encode("utf-8")
    pattern = r"[a-z0-9]+(?==)" if kind == "rename" else r"\d+"
    spans = [m.span() for m in re.finditer(pattern, body)]
    start, end = data.draw(st.sampled_from(spans))
    if kind == "rename":
        new = data.draw(st.sampled_from(_MUTATION_KEYS))
    elif kind == "zero":
        new = "0"
    elif kind == "negative":
        new = "-" + data.draw(st.sampled_from(("1", body[start:end])))
    else:
        new = data.draw(st.sampled_from(("x", "1.5", "", "0x8", "1e3")))
    return (body[:start] + new + body[end:]).encode("utf-8")


@seed(20261018)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_inputs_keep_the_exit_code_contract(mutation_sources, data):
    work, sources = mutation_sources
    text, commands = data.draw(st.sampled_from(sources))
    path = work / "mutated.txt"
    path.write_bytes(_mutate(data, text))
    argv = data.draw(st.sampled_from(commands))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], "--input", str(path), *argv[1:]])
    assert code in (0, 1, 2), err.getvalue()
    assert "error=unexpected" not in err.getvalue()


LADDER_DATA = Path(__file__).parent / "data"


def _assert_ladder_bytes_pinned(stem, capsys, tmp_path):
    """filtrate on tests/data/<stem>.txt writes the same file and prints
    the same records, and verify-filtration the same lines, as when the
    digests in <stem>.sha256 were taken."""
    pinned = {}
    for line in (LADDER_DATA / f"{stem}.sha256").read_text().splitlines():
        digest, name = line.split()
        pinned[name] = digest

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    out = tmp_path / f"{stem}.filt"
    assert main(["filtrate", "--input", str(LADDER_DATA / f"{stem}.txt"), "--rep", "F",
                 "--kappa", "8", "--output", str(out)]) == 0
    assert sha(capsys.readouterr().out.encode()) == pinned[f"{stem}.filtrate.out"]
    assert sha(out.read_bytes()) == pinned[f"{stem}.filt"]
    assert main(["verify-filtration", "--input", str(out)]) == 0
    assert sha(capsys.readouterr().out.encode()) == pinned[f"{stem}.verify.out"]


def test_ladder_filtration_bytes_are_pinned(capsys, tmp_path):
    # the rank-24 ladder, perfbench's filtrate_instance(1, 8, 24, 3)
    _assert_ladder_bytes_pinned("ladder_n8_k24", capsys, tmp_path)


def test_rank_96_ladder_filtration_bytes_are_pinned(capsys, tmp_path):
    # filtrate_instance(1, 8, 96, 3): 97 steps, a 1.8 MB filtration file
    _assert_ladder_bytes_pinned("ladder_n8_k96", capsys, tmp_path)


DATA = Path(__file__).parent / "data"
# each line: the output name, the exit code, the command line
ROUTE_COMMANDS = [(name, int(code), argv) for name, code, *argv in
                  map(str.split, (DATA / "routes.commands").read_text().splitlines())]


@pytest.mark.parametrize("name, code, argv", ROUTE_COMMANDS,
                         ids=[c[0] for c in ROUTE_COMMANDS])
def test_route_bytes_are_pinned(name, code, argv, capsys, tmp_path, monkeypatch):
    # kernels, pushouts, colimits, quotient-induced maps, generated-ideal
    # membership and the cover tests behind these commands print the same
    # records, and write the same --output files, as when the digests in
    # routes.sha256 were taken; the CI step "Route bytes" runs the same table
    pinned = dict(line.split()[::-1] for line in
                  (DATA / "routes.sha256").read_text().splitlines())
    for manifest in DATA.glob("routes_n*.txt"):
        (tmp_path / manifest.name).write_bytes(manifest.read_bytes())
    monkeypatch.chdir(tmp_path)

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert main(argv) == code
    assert sha(capsys.readouterr().out.encode()) == pinned[f"{name}.out"]
    if "--output" in argv:
        written = argv[argv.index("--output") + 1]
        assert sha((tmp_path / written).read_bytes()) == pinned[written]
