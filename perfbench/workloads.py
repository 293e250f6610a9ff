"""The three benchmark workloads: their inputs, warm-up op, timed ops and
known-answer checks.

A workload's constructor is its set-up: it generates the inputs from the
seed and writes any manifests.  `warm_up` runs one untimed op outside the
timed set, and `ops` is the timed set, a list of (op id, callable).  A callable returns None when the op's
output is correct and a one-line reason otherwise; an exception also counts
as a failed op.  `verify_s` accumulates the time spent in the program's
checking entry points, the read side of each workload.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
import time
from contextlib import redirect_stderr, redirect_stdout

from phantomcover import approx, cli, filtration, finmod, ideals, verify

import inputs

# A cover pass: this many phantom verdicts on morphisms between classes from
# a small seeded pool per ring, RETRACT_TWISTS differently twisted
# retractions per module class, and one cover verdict per class of rank at
# most COVER_MAX_RANK.  The median op is a retraction; two per class keep
# the ops near the median dense, so that op_p50_ms does not jump between
# two far-apart ops from seed to seed.  Retraction and cover queries run
# over fixed class lists, and the phantom queries are spread evenly over
# the rings, so the work per pass does not hinge on which classes a seed
# happens to draw; the seed sets the order, the twists, the pools and the
# phantom queries.
PHANTOM_QUERIES = 120
RETRACT_TWISTS = 2
COVER_MAX_RANK = 3
COVER_PROBE_BOUND = 256  # the CLI default for `precover` and `cover`
WARM_MODULUS = 25  # not in inputs.COVER_MODULI
# The suite pass samples like `verify-suite --seed 1 --samples 10` (the
# acceptance gate uses 50 samples); the workload seed only shuffles the order
# of the (property, modulus) calls, so the work does not change with it.
SUITE_SEED = 1
SUITE_SAMPLES = 10


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI command."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Filtrate:
    """`filtrate` then `verify-filtration` through the CLI, per manifest."""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.verify_s = 0.0
        self.ops = []
        for n, top in inputs.FILTRATE_LADDER:
            for k in range(1, top + 1):
                for twist in range(inputs.FILTRATE_TOP_TWISTS if k == top else 1):
                    name = f"n{n}-k{k}-t{twist}"
                    self.ops.append((f"filtrate/{name}", self._op(
                        name, n, *inputs.filtrate_instance(seed, n, k, twist))))
        self._warm = self._op("warm-up", 8,
                              *inputs.filtrate_instance(seed, 8, 2, "warm-up"))

    def _op(self, name, n, source, target, rows):
        stem = os.path.join(self.workdir, name)
        with open(stem + ".txt", "w", encoding="utf-8") as handle:
            handle.write(inputs.rep_manifest(n, source, target, rows))

        def op():
            code, _ = run_cli(["filtrate", "--input", stem + ".txt", "--rep", "F",
                               "--kappa", str(n), "--output", stem + ".filt"])
            if code != 0:
                return f"filtrate exit code {code}"
            start = time.perf_counter()
            code, out = run_cli(["verify-filtration", "--input", stem + ".filt"])
            self.verify_s += time.perf_counter() - start
            if code != 0:
                return f"verify-filtration exit code {code}"
            conditions = out.splitlines()[1:]
            failed = [line for line in conditions if not line.startswith("ok ")]
            if not conditions or failed:
                return "verify-filtration: " + "; ".join(failed or ["no conditions"])
            return None

        op.output = stem + ".filt"
        return op

    def warm_up(self):
        return self._warm()

    def digests(self):
        """sha256 of every filtration file the timed ops wrote."""
        out = {}
        for name, op in self.ops:
            with open(op.output, "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()
        return out


class Cover:
    """Short verdict queries through the library's public functions; module
    classes repeat within a pass, as in an interactive session."""

    def __init__(self, seed: int, workdir: str):
        self.verify_s = 0.0
        self.ops = []
        pools = {}
        for n in inputs.COVER_MODULI:
            classes = inputs.module_classes(n, inputs.COVER_MAX_CARD)
            pools[n] = inputs.rng_for(seed, "pool", n).sample(
                classes, inputs.COVER_CLASSES_PER_RING)
        rng = inputs.rng_for(seed, "cover")
        for i in range(PHANTOM_QUERIES):
            n = inputs.COVER_MODULI[i % len(inputs.COVER_MODULI)]
            self.ops.append((f"phantom/{i}/n{n}",
                             self._phantom(n, *inputs.phantom_query(rng, n, pools[n]))))
        for n in inputs.COVER_MODULI:
            for factors in inputs.module_classes(n, inputs.COVER_MAX_CARD):
                name = f"n{n}/" + ",".join(map(str, factors))
                for twist in range(RETRACT_TWISTS):
                    self.ops.append((f"retract/{name}/t{twist}", self._retract(
                        n, factors, inputs.rng_for(seed, "retract", name, twist))))
                if len(factors) <= COVER_MAX_RANK:
                    self.ops.append((f"cover/{name}", self._cover(n, factors)))
        rng.shuffle(self.ops)
        # the warm-up queries a ring that no timed op uses
        warm, n = inputs.rng_for(seed, "warm-up"), WARM_MODULUS
        self._warm = [self._phantom(n, *inputs.phantom_query(warm, n, [(5, n)])),
                      self._cover(n, (5,)),
                      self._retract(n, (5,), warm)]

    @staticmethod
    def _phantom(n, source, target, rows, expected):
        def op():
            ring = finmod.Ring(n)
            f = finmod.ModuleMorphism(finmod.FiniteModule(ring, source),
                                      finmod.FiniteModule(ring, target),
                                      tuple(map(tuple, rows)))
            verdict = ideals.is_phantom(f)
            return None if verdict is expected else f"is_phantom gave {verdict}"
        return op

    def _cover(self, n, factors):
        def op():
            ring = finmod.Ring(n)
            phi = approx.phantom_cover(finmod.FiniteModule(ring, factors))
            probes = approx.phantom_probe_set(phi.target, size_bound=COVER_PROBE_BOUND)
            ideal = ideals.MorphismIdeal.phantom(ring)
            start = time.perf_counter()
            pre = approx.is_precover(ideal, phi, probes)
            verdict = approx.is_cover(ideal, phi, probes)
            self.verify_s += time.perf_counter() - start
            if not pre.holds:
                return "is_precover gave False"
            return None if verdict is True else f"is_cover gave {verdict}"
        return op

    @staticmethod
    def _retract(n, factors, rng):
        def op():
            ring = finmod.Ring(n)
            phi = approx.phantom_cover(finmod.FiniteModule(ring, factors))
            k, _ = finmod.kernel(phi)
            target, rows = inputs.graph_mono(rng, n, k.invariant_factors)
            v = finmod.ModuleMorphism(k, finmod.FiniteModule(ring, target),
                                      tuple(map(tuple, rows)))
            r = approx.extract_retract(phi, v)
            back = inputs.matmul([list(row) for row in r.matrix], rows,
                                 k.invariant_factors)
            return None if back == inputs.identity(k.rank) else "r o v != id"
        return op

    def warm_up(self):
        for op in self._warm:
            failure = op()
            if failure:
                return failure
        return None

    def digests(self):
        return {}


class Suite:
    """One `verify.run_property` call per (property, default modulus)."""

    def __init__(self, seed: int, workdir: str):
        self.verify_s = 0.0
        self.ops = [(f"{verify.PROPERTIES[name][0]}/{name}/n{n}",
                     self._op(name, SUITE_SEED, n, SUITE_SAMPLES))
                    for name in verify.PROPERTIES for n in verify.DEFAULT_MODULI]
        inputs.rng_for(seed, "suite").shuffle(self.ops)
        self._warm = self._op("manifest_roundtrip", SUITE_SEED + 1, 2, 1)
        checker = filtration.verify_filtration

        @functools.wraps(checker)
        def timed_verify(*args, **kwargs):
            start = time.perf_counter()
            try:
                return checker(*args, **kwargs)
            finally:
                self.verify_s += time.perf_counter() - start

        # the suite reaches the verifier through the module attribute
        filtration.verify_filtration = timed_verify

    @staticmethod
    def _op(name, seed, n, samples):
        def op():
            outcome = verify.run_property(name, seed, finmod.Ring(n), samples)
            if outcome.ok:
                return None
            first = outcome.failures[0]
            return f"sample {first.sample}: {first.message}"
        return op

    def warm_up(self):
        return self._warm()

    def digests(self):
        return {}


WORKLOADS = {"filtrate": Filtrate, "cover": Cover, "suite": Suite}
