import ast
from pathlib import Path

import pytest

import phantomcover
from phantomcover import verify
from phantomcover.errors import InputError
from phantomcover.finmod import FiniteModule, ModuleMorphism, Ring
from phantomcover.manifest import parse
from phantomcover.verify import PROPERTIES, _Check, run_property, run_suite


def test_every_property_runs_one_sample():
    report = run_suite(seed=11, samples=1, moduli=(4,))
    assert report.ok
    assert len(report.outcomes) == len(PROPERTIES)


def test_run_suite_rejects_unknown_property():
    with pytest.raises(InputError):
        run_suite(seed=1, samples=1, properties=["no_such_property"])


@pytest.mark.parametrize("kwargs, named", [
    ({"properties": ["manifest_roundtrip", "manifest_roundtrip"]},
     "repeated property manifest_roundtrip"),
    ({"moduli": (8, 4, 8), "properties": ["manifest_roundtrip"]},
     "repeated modulus 8"),
])
def test_run_suite_rejects_repeats(kwargs, named):
    with pytest.raises(InputError, match=named):
        run_suite(seed=1, samples=1, **kwargs)


def test_run_suite_rejects_an_unfactorable_modulus():
    with pytest.raises(InputError, match="cannot prove"):
        run_suite(seed=1, samples=1, moduli=(4, 2 ** 89 - 1),
                  properties=["manifest_roundtrip"])


def test_hom_group_exhaustive_catches_a_missing_generator(monkeypatch):
    real = verify.hom_group
    monkeypatch.setattr(verify, "hom_group", lambda m, n: real(m, n)[:-1])
    out = run_property("hom_group_exhaustive", seed=1, ring=Ring(8), samples=10)
    assert out.failures
    assert {f.message for f in out.failures} == {"hom generators do not span Hom"}


def test_failure_records_carry_counterexample_manifest():
    ring = Ring(4)
    chk = _Check("finmod", "demo", ring, seed=3, sample=7)
    two = FiniteModule(ring, (2,))
    chk.fail("synthetic failure", witness=ModuleMorphism.identity(two))
    assert len(chk.failures) == 1
    f = chk.failures[0]
    assert (f.module, f.prop, f.ring, f.seed, f.sample) == \
        ("finmod", "demo", 4, 3, 7)
    man = parse(f.counterexample)
    assert "witness" in man.morphisms


def test_vacuous_counting_on_semisimple_ring():
    # over Z/6 every morphism is phantom, so the counterexample property
    # has nothing to sample and must report vacuous passes
    out = run_property("extension_counterexample", seed=5, ring=Ring(6), samples=4)
    assert out.ok and out.vacuous == 4


def test_raising_sample_is_recorded_and_the_rest_still_run(monkeypatch):
    ran = []

    def flaky(chk, rng, ring):
        ran.append(chk.sample)
        if chk.sample == 1:
            raise ZeroDivisionError("synthetic crash")

    monkeypatch.setitem(PROPERTIES, "flaky", ("finmod", flaky))
    out = run_property("flaky", seed=4, ring=Ring(4), samples=3)
    assert ran == [0, 1, 2]
    assert len(out.failures) == 1
    f = out.failures[0]
    assert (f.prop, f.ring, f.seed, f.sample) == ("flaky", 4, 4, 1)
    assert f.message == "raised ZeroDivisionError: synthetic crash"


PRODUCTION = ("exact_linalg", "finmod", "ideals", "approx", "rep_a2", "filtration",
              "manifest", "cli")
CROSS_CHECK_ROUTES = {"solve_mod", "solution_space_mod", "determinant", "element_preimage",
                      "multiplication_map", "is_direct_summand", "mediating_by_solver",
                      "colimit_by_gluing", "smith_normal_form", "SmithDecomposition"}


def test_production_modules_name_no_cross_check_route():
    # the solvers stay public for the suite and the tests, and the second
    # routes live in oracles.py; no production module imports, calls or
    # otherwise names any of them
    package = Path(phantomcover.__file__).parent
    for module in PRODUCTION:
        tree = ast.parse((package / f"{module}.py").read_text())
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not named & CROSS_CHECK_ROUTES, module


def test_suite_builds_no_congruence_system():
    # the suite's second routes live in oracles.py: verify.py imports no
    # private system encoder of finmod
    tree = ast.parse((Path(phantomcover.__file__).parent / "verify.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_element_system" not in imported
