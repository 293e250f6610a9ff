import random
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phantomcover.errors import InputError
from phantomcover.exact_linalg import IntMatrix, solution_space_mod, solve_mod
from phantomcover.oracles import (
    additive_closure_mod,
    determinant,
    exhaustive_kernel_mod,
    exhaustive_solve_mod,
    integer_kernel_basis,
    minor_gcd_diagonal,
    smith_normal_form,
)


def matrices(max_dim=6, lo=-20, hi=20):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(lo, hi), min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(IntMatrix.from_rows)
        )
    )


def assert_valid_snf(a, s):
    assert s.u @ a @ s.v == s.d
    assert abs(determinant(s.u)) == 1
    assert abs(determinant(s.v)) == 1
    assert s.u @ s.u_inv == IntMatrix.identity(a.rows)
    diag = s.diagonal()
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert s.d.at(i, j) == 0
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0


def test_snf_frozen_example():
    # minor-gcd oracle: d1 = gcd(2,4,6,8) = 2, d2 = |det|/d1 = 8/2 = 4
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    s = smith_normal_form(a)
    assert s.diagonal() == (2, 4)
    assert_valid_snf(a, s)


def test_snf_identity():
    a = IntMatrix.identity(4)
    s = smith_normal_form(a)
    assert s.d == a
    assert_valid_snf(a, s)


def test_snf_zero_matrix():
    a = IntMatrix(3, 2, (0,) * 6)
    s = smith_normal_form(a)
    assert s.d == a
    assert_valid_snf(a, s)


def test_snf_empty_matrix():
    a = IntMatrix(0, 3, ())
    s = smith_normal_form(a)
    assert s.d == a
    assert s.diagonal() == ()


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_snf_matches_minor_gcd_oracle(a):
    s = smith_normal_form(a)
    assert_valid_snf(a, s)
    assert s.diagonal() == minor_gcd_diagonal(a)


def _seeded_matrices():
    """Seeded random matrices of every shape kind: empty on either side,
    zero, square, tall and wide, with dense and with sparse entries."""
    rng = random.Random(20261018)
    for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (6, 3), (3, 6), (5, 2), (2, 5)]:
        yield IntMatrix(r, c, (0,) * (r * c))
        for _ in range(6):
            yield IntMatrix(r, c, tuple(rng.randint(-20, 20) for _ in range(r * c)))
            yield IntMatrix(r, c, tuple(rng.choice((0, 0, 0, 2, -4, 6, 9, 12))
                                        for _ in range(r * c)))


def test_snf_is_valid_on_every_shape():
    for a in _seeded_matrices():
        assert_valid_snf(a, smith_normal_form(a))


def test_solve_mod_zero_rhs():
    x = solve_mod(IntMatrix.from_rows([[2]]), [0], 4)
    assert x is not None and (2 * x[0]) % 4 == 0


def test_solve_mod_unsolvable():
    # exhausting x in {0,1,2,3}: 2x mod 4 is never 1
    assert solve_mod(IntMatrix.from_rows([[2]]), [1], 4) is None


def test_solve_mod_identity_system():
    x = solve_mod(IntMatrix.identity(2), [3, 5], 6)
    assert x == [3, 5]


def test_solve_mod_dimension_mismatch():
    with pytest.raises(InputError):
        solve_mod(IntMatrix.identity(2), [1], 6)
    with pytest.raises(InputError):
        solve_mod(IntMatrix.identity(2), [1, 1], 1)


@settings(max_examples=120, deadline=None)
@given(matrices(max_dim=4, lo=-8, hi=8),
       st.integers(2, 12),
       st.lists(st.integers(-8, 8), min_size=4, max_size=4))
def test_solve_mod_matches_exhaustive(a, n, raw_b):
    b = [raw_b[i] % n for i in range(a.rows)]
    # the solver returns the lexicographically lowest solution
    assert solve_mod(a, b, n) == exhaustive_solve_mod(a, b, n)


def test_solution_space_examples():
    gens = solution_space_mod(IntMatrix.from_rows([[2]]), 4)
    assert additive_closure_mod(gens, 1, 4) == {(0,), (2,)}
    assert solution_space_mod(IntMatrix.from_rows([[1]]), 4) == []
    gens = solution_space_mod(IntMatrix.from_rows([[0]]), 4)
    assert additive_closure_mod(gens, 1, 4) == {(x,) for x in range(4)}


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=4, lo=-8, hi=8), st.integers(2, 12))
def test_solution_space_matches_exhaustive(a, n):
    gens = solution_space_mod(a, n)
    assert additive_closure_mod(gens, a.cols, n) == exhaustive_kernel_mod(a, n)


@st.composite
def small_systems(draw):
    """(A, b, n) with 0-4 rows and columns, empty shapes included, and b
    outside [0, n): half the time b = A x0 shifted by multiples of n."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 16]))
    a = IntMatrix(r, c, tuple(draw(st.lists(st.integers(-20, 20),
                                            min_size=r * c, max_size=r * c))))
    shift = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, n - 1), min_size=c, max_size=c))
        b = [sum(a.at(i, j) * x0[j] for j in range(c)) for i in range(r)]
    else:
        b = draw(st.lists(st.integers(0, n - 1), min_size=r, max_size=r))
    return a, [bi + k * n for bi, k in zip(b, shift)], n


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_split_oracles_match_full_scan(system):
    a, b, n = system
    rows = a.to_rows()
    images = {x: [sum(map(mul, row, x)) % n for row in rows]
              for x in product(range(n), repeat=a.cols)}
    lowest = next((list(x) for x, v in images.items()
                   if v == [bi % n for bi in b]), None)
    assert exhaustive_solve_mod(a, b, n) == lowest
    assert exhaustive_kernel_mod(a, n) == {x for x, v in images.items() if not any(v)}


@settings(max_examples=80, deadline=None)
@given(matrices(max_dim=5, lo=-10, hi=10))
def test_integer_kernel_annihilates(a):
    for vec in integer_kernel_basis(a):
        assert all(sum(a.at(i, j) * vec[j] for j in range(a.cols)) == 0
                   for i in range(a.rows))
