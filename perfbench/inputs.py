"""Seeded input generation for the benchmark, independent of the program.

Everything here is plain integer arithmetic on invariant-factor lists and
row-major matrices, so a change to `phantomcover.samplers` or to the
program's morphism code cannot change the generated inputs.  Column j of a
matrix is the image of source generator j; row i is reduced modulo the i-th
target invariant factor, as in the manifest format.
"""

from __future__ import annotations

import random
from math import gcd

# filtrate: (Z/n)^k -> Z/p + (Z/q)^(k-1) + Z/n for k = 1..top rank, where p
# is the smallest prime of n and q = n/p.  Each rank below the top has one
# instance and the top rank FILTRATE_TOP_TWISTS differently twisted ones.  One
# rank more multiplies the build time by about six, so a ladder with one
# instance per rank would put its median op in the gap between two ranks;
# with most ops at the top rank, the median and the tail both sit among
# top-rank builds (0.2-0.4 s each on a 2-CPU x86 host) and the seed's twists
# average out.
FILTRATE_LADDER = ((8, 5), (9, 5), (12, 4), (16, 4))
FILTRATE_TOP_TWISTS = 6
# cover: verdict queries on modules of cardinality at most 64; the phantom
# queries draw their modules from a seeded pool of this many classes per ring.
COVER_MODULI = (4, 6, 8, 9, 12, 16)
COVER_MAX_CARD = 64
COVER_CLASSES_PER_RING = 4


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random("/".join(str(x) for x in (seed,) + labels))


def smallest_prime(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


def matmul(a, b, target_factors):
    """Matrix product with row i reduced mod target_factors[i]."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) % target_factors[i]
             for j in range(cols)] for i in range(len(a))]


def identity(r: int):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def automorphism(rng: random.Random, factors, steps: int):
    """Product of `steps` elementary automorphisms of the module with these
    invariant factors: unit scalings and well-defined transvections."""
    r = len(factors)
    a = identity(r)
    for _ in range(steps):
        e = identity(r)
        i = rng.randrange(r)
        if r > 1 and rng.random() < 0.8:
            j = rng.choice([x for x in range(r) if x != i])
            step = factors[i] // gcd(factors[i], factors[j])
            e[i][j] = step * rng.randrange(1, max(2, factors[i] // step))
        else:
            e[i][i] = rng.choice([u for u in range(1, factors[i])
                                  if gcd(u, factors[i]) == 1] or [1])
        a = matmul(e, a, factors)
    return a


def module_classes(n: int, max_card: int):
    """Every nonzero invariant-factor list over Z/n of cardinality <= max_card."""
    divs = [d for d in range(2, n + 1) if n % d == 0]
    out = []

    def extend(chain, card):
        for d in divs:
            if (chain and d % chain[-1]) or card * d > max_card:
                continue
            out.append(tuple(chain + [d]))
            extend(chain + [d], card * d)

    extend([], 1)
    return out


def render_matrix(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def rep_manifest(n: int, source, target, rows) -> str:
    """Manifest text holding one representation `F` of the arrow quiver."""
    return "\n".join([
        "[manifest] version=1",
        f"[ring] n={n}",
        "[module M1] factors=" + ",".join(map(str, source)),
        "[module M2] factors=" + ",".join(map(str, target)),
        f"[morphism f] from=M1 to=M2 rows={render_matrix(rows)}",
        "[rep F] f=f",
    ]) + "\n"


def filtrate_instance(seed: int, n: int, k: int, label):
    """A phantom representation from the rank ladder, twisted by seeded
    automorphisms of both components.  The source is free, so every map out
    of it is phantom and so is every twist."""
    rng = rng_for(seed, "filtrate", label, n, k)
    p = smallest_prime(n)
    source = (n,) * k
    target = (p,) + (n // p,) * (k - 1) + (n,)
    base = [[int(i == j) for j in range(k)] for i in range(k)] + [[1] * k]
    base = [[x % target[i] for x in row] for i, row in enumerate(base)]
    alpha = automorphism(rng, source, 3 * k)
    beta = automorphism(rng, target, 3 * (k + 1))
    rows = matmul(beta, matmul(base, alpha, target), target)
    return source, target, rows


def phantom_query(rng: random.Random, n: int, pool):
    """(source, target, rows, expected): a morphism whose phantomness is known
    by construction.  A composite through a free module is phantom; the
    projection onto a Z/p summand (p^2 | n), twisted by automorphisms on
    both sides, is not."""
    p = smallest_prime(n)
    with_p = [m for m in pool if m[0] == p]
    if n % (p * p) == 0 and with_p and rng.random() < 0.5:
        m = rng.choice(with_p)
        e = [[int(i == j == 0) for j in range(len(m))] for i in range(len(m))]
        alpha = automorphism(rng, m, 2 * len(m))
        beta = automorphism(rng, m, 2 * len(m))
        return m, m, matmul(beta, matmul(e, alpha, m), m), False
    src, tgt = rng.choice(pool), rng.choice(pool)
    r = rng.randrange(1, 3)  # rank of the free module in the middle
    into = [[(n // d) * rng.randrange(d) for d in src] for _ in range(r)]
    through = [[rng.randrange(e) for _ in range(r)] for e in tgt]
    return src, tgt, matmul(through, into, tgt), True


def graph_mono(rng: random.Random, n: int, kernel_factors):
    """(target factors, rows) of a pure mono K -> K + Z/n: the graph of a map
    K -> Z/n, twisted by an automorphism of K + Z/n.  The graph is a
    complement of 0 + Z/n, so its image is a direct summand."""
    target = tuple(kernel_factors) + (n,)
    k = len(kernel_factors)
    graph = identity(k) + [[(n // d) * rng.randrange(d) for d in kernel_factors]]
    beta = automorphism(rng, target, 2 * (k + 1))
    return target, matmul(beta, graph, target)
