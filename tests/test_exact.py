"""Exact integer-vector layer: identities, primitivity, basis completion."""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import references as ref
from gammacert import CertificateFailure
from gammacert.errors import FrozenInstanceError
from gammacert.exact import (IVec3, _gauss_reduce, complete_to_basis,
                             complete_single, cross, det3, dot, is_primitive_pair,
                             is_primitive_point, nearest_int, proj_dist_sq,
                             smith_invariants_3x2, solve_dot_one)

coord = st.integers(min_value=-50, max_value=50)
vec = st.builds(IVec3, coord, coord, coord)
nonzero_vec = vec.filter(lambda v: not v.is_zero())
big_coord = st.one_of(coord, st.integers(min_value=-2 ** 300, max_value=2 ** 300))
big_vec = st.builds(IVec3, big_coord, big_coord, big_coord)


def xgcd(a, b):
    """Extended gcd by the Euclid loop: (g, s, t) with g = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_dot_one_by_xgcd(c):
    """The xgcd chain solve_dot_one used to run: the reference below."""
    g1, u, v = xgcd(c.x, c.y)
    g, w, t = xgcd(g1, c.z)
    if g != 1:
        raise ValueError("vector is not primitive")
    return IVec3(u * w, v * w, t)


def test_basic_ops():
    a = IVec3(1, 2, 3)
    b = IVec3(4, 5, 6)
    assert (a + b).as_tuple() == (5, 7, 9)
    assert (a - b).as_tuple() == (-3, -3, -3)
    assert (2 * a).as_tuple() == (2, 4, 6)
    assert dot(a, b) == 32
    assert cross(a, b).as_tuple() == (-3, 6, -3)
    assert det3(a, b, IVec3(7, 8, 10)) == -3
    assert a.norm_sq() == 14


def test_ivec3_is_an_immutable_value():
    # what a frozen record gives its callers: no assignment or deletion,
    # equality only with another IVec3, the tuple's hash, the record's
    # repr, and a pickle round trip
    a = IVec3(1, -2, 3)
    for name in ("x", "y", "z", "w"):
        with pytest.raises(FrozenInstanceError):
            setattr(a, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(a, name)
    assert a.as_tuple() == (1, -2, 3)
    assert a == IVec3(1, -2, 3) and not a != IVec3(1, -2, 3)
    assert a != IVec3(1, -2, 4) and a != (1, -2, 3) and a != [1, -2, 3]
    assert hash(a) == hash((1, -2, 3)) == hash(IVec3(1, -2, 3))
    assert len({a, IVec3(1, -2, 3), IVec3(3, -2, 1)}) == 2
    assert repr(a) == "IVec3(x=1, y=-2, z=3)"
    big = IVec3(-(3 ** 200), 0, 7)
    for v in (a, big):
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is IVec3 and back == v and back.as_tuple() == v.as_tuple()
        assert copy.deepcopy(v) == v


def test_nearest_int_ties_toward_zero():
    # the one rounding rule of the Lagrange reduction, the Babai rounding of
    # complete_to_basis and the step's m
    for num in range(-400, 401):
        for den in range(1, 60):
            m, v = nearest_int(num, den), Fraction(num, den)
            assert abs(v - m) < Fraction(1, 2) or (abs(v - m) == Fraction(1, 2)
                                                   and abs(m) < abs(v))


def test_proj_dist_oracle():
    # perpendicular unit axes are at projective distance 1
    assert proj_dist_sq(IVec3(1, 0, 0), IVec3(0, 1, 0)) == 1
    # parallel vectors at distance 0, any scaling
    assert proj_dist_sq(IVec3(2, 4, 6), IVec3(-1, -2, -3)) == 0
    assert proj_dist_sq(IVec3(1, 0, 0), IVec3(1, 1, 0)) == Fraction(1, 2)


@given(vec, vec)
def test_lagrange_identity(a, b):
    assert cross(a, b).norm_sq() + dot(a, b) ** 2 == a.norm_sq() * b.norm_sq()


@given(vec, vec, vec)
def test_det_triple_product(a, b, c):
    assert det3(a, b, c) == dot(cross(a, b), c)
    assert det3(a, b, c) == -det3(b, a, c)


@given(nonzero_vec, nonzero_vec, nonzero_vec)
def test_triple_cross_identity(a, b, c):
    # cross(cross(a,b), cross(b,c)) = det3(a,b,c) * b
    lhs = cross(cross(a, b), cross(b, c))
    assert lhs.as_tuple() == (det3(a, b, c) * b).as_tuple()


@given(nonzero_vec, nonzero_vec)
def test_dist_symmetry_and_range(a, b):
    d = proj_dist_sq(a, b)
    assert d == proj_dist_sq(b, a)
    assert 0 <= d <= 1
    assert proj_dist_sq(a, -b) == d


@given(vec, vec)
def test_primitive_pair_equivalences(a, b):
    prim = is_primitive_pair(a, b)
    cr = cross(a, b)
    assert prim == (not cr.is_zero() and cr.content() == 1)
    assert prim == (smith_invariants_3x2(a, b) == (1, 1))
    if prim:
        z = complete_to_basis(a, b)
        assert det3(a, b, z) == 1


@settings(max_examples=30, deadline=None)
@given(vec, vec)
def test_smith_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    m = sympy.Matrix([[a.x, b.x], [a.y, b.y], [a.z, b.z]])
    snf = smith_normal_form(m)
    diag = [abs(int(snf[i, i])) for i in range(2)]
    got = smith_invariants_3x2(a, b)
    # rank-deficient pairs report a zero invariant in both computations
    assert got == tuple(diag)


@given(st.one_of(nonzero_vec, big_vec.filter(lambda v: not v.is_zero())))
@example(IVec3(0, 0, 1))
@example(IVec3(0, 0, -1))
@example(IVec3(-1, 0, 0))
@example(IVec3(0, -1, 0))
@example(IVec3(0, 4, -3))
@example(IVec3(6, 0, 35))
@example(IVec3(-6, 10, 0))
@example(IVec3(6, 10, 15))
@example(IVec3(0, 0, 2))
def test_solve_dot_one(c):
    g = math.gcd(math.gcd(abs(c.x), abs(c.y)), abs(c.z))
    if g == 1:
        z = solve_dot_one(c)
        assert dot(c, z) == 1
    else:
        with pytest.raises(ValueError):
            solve_dot_one(c)


@given(nonzero_vec)
def test_complete_single(x0):
    if not is_primitive_point(x0):
        return
    comp = complete_single(x0)
    assert is_primitive_pair(x0, comp)


def test_complete_to_basis_rejects_imprimitive():
    with pytest.raises(ValueError):
        complete_to_basis(IVec3(2, 0, 0), IVec3(0, 2, 0))


@settings(max_examples=200)
@given(vec, vec, st.integers(min_value=-9, max_value=9))
def test_basis_completion_invariant_under_column_ops(a, b, s):
    if not is_primitive_pair(a, b):
        return
    # the lattice spanned is invariant under unimodular column operations
    b2 = b + s * a
    assert is_primitive_pair(a, b2)
    z = complete_to_basis(a, b2)
    assert det3(a, b2, z) == 1
    assert det3(a, b, z) == 1  # same plane lattice, same completion property


@settings(max_examples=300, deadline=None)
@given(big_vec, big_vec)
@example(IVec3(1, 0, 0), IVec3(0, 1, 0))
@example(IVec3(0, 0, 1), IVec3(0, 10, 31))
@example(IVec3(3, 5, 7), IVec3(-2, 0, 11))
def test_complete_to_basis_matches_xgcd_reference(a, b):
    # the completion is the coset's smallest-norm element, so starting the
    # search from the xgcd chain's z0 gives the same vector
    if not is_primitive_pair(a, b):
        return
    z = complete_to_basis(a, b)
    with mock.patch("gammacert.exact.solve_dot_one", solve_dot_one_by_xgcd):
        assert complete_to_basis(a, b) == z
    assert dot(cross(a, b), solve_dot_one(cross(a, b))) == 1


def window_candidates(a, b):
    """(norm^2, tuple) of the 25 vectors complete_to_basis used to build.

    The window of its reference form: Babai coefficients (m0, n0) on the
    reduced basis, then every z0 + (m0 + dm) ra + (n0 + dn) rb with
    |dm|, |dn| <= 2 built and keyed, sorted ascending.
    """
    z0 = solve_dot_one(cross(a, b))
    ra, rb = _gauss_reduce(a, b)
    g11, g12, g22 = ra.norm_sq(), ra.dot(rb), rb.norm_sq()
    det = g11 * g22 - g12 * g12
    t1, t2 = ra.dot(z0), rb.dot(z0)
    m0 = round(Fraction(-(g22 * t1 - g12 * t2), det))
    n0 = round(Fraction(-(g11 * t2 - g12 * t1), det))
    cands = [z0 + (m0 + dm) * ra + (n0 + dn) * rb
             for dm in range(-2, 3) for dn in range(-2, 3)]
    return sorted((c.norm_sq(), c.as_tuple()) for c in cands)


# hand-built ties: two or three window offsets share the minimal norm
TIES = [
    (IVec3(-3, -3, -2), IVec3(-2, -2, -1), 2),
    (IVec3(-3, -2, -1), IVec3(-2, -1, -1), 3),
    # the lattice Z(1, 1, 0) + Z(0, 0, 1) by a 300-bit unimodular basis
    (IVec3(2 ** 300, 2 ** 300, 1), IVec3(2 ** 300 - 1, 2 ** 300 - 1, 1), 2),
]


@pytest.mark.parametrize("a, b, tied", TIES)
def test_window_ties_break_on_the_tuple(a, b, tied):
    keys = window_candidates(a, b)
    assert sum(1 for k in keys if k[0] == keys[0][0]) == tied
    assert complete_to_basis(a, b).as_tuple() == keys[0][1]


@settings(max_examples=300, deadline=None)
@given(big_vec, big_vec)
@example(*TIES[0][:2])
@example(*TIES[2][:2])
def test_complete_to_basis_matches_window_reference(a, b):
    # scoring the offsets from Gram scalars picks the vector the 25-vector
    # window picked, ties included
    if not is_primitive_pair(a, b):
        return
    assert complete_to_basis(a, b).as_tuple() == window_candidates(a, b)[0][1]


def test_complete_to_basis_matches_dict_reference():
    # random primitive pairs of 1- to 30-digit coordinates, then every pair
    # with coordinates in -1..1, where most windows hold a tie
    rng = random.Random(4)
    pairs = []
    while len(pairs) < 3000:
        hi = 10 ** (1 + len(pairs) % 30)
        a, b = (IVec3(*(rng.randrange(-hi, hi) for _ in range(3))) for _ in range(2))
        if is_primitive_pair(a, b):
            pairs.append((a, b))
    small = [IVec3(*c) for c in product(range(-1, 2), repeat=3)]
    pairs += [(a, b) for a in small for b in small if is_primitive_pair(a, b)]
    tied = 0
    for a, b in pairs:
        assert complete_to_basis(a, b) == ref.complete_to_basis(a, b), (a, b)
        keys = window_candidates(a, b)
        tied += keys[0][0] == keys[1][0]
    assert tied >= 432  # the -1..1 pairs alone hold 432 tied windows


big_shift = st.one_of(st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=-2 ** 200, max_value=2 ** 200))


@settings(max_examples=300, deadline=None)
@given(big_vec, big_vec, big_shift, big_shift)
@example(*TIES[0][:2], 0, 0)
@example(*TIES[2][:2], 5, -7)
@example(IVec3(1, 0, 0), IVec3(0, 1, 0), 2 ** 200, -2 ** 200)
def test_complete_to_basis_from_any_z0_in_the_coset(a, b, m, n):
    # a caller's z0 anywhere in the coset z + Z a + Z b, with or without the
    # caller's cross product, gives the coset's canonical element
    if not is_primitive_pair(a, b):
        return
    z = complete_to_basis(a, b)
    z0 = z + m * a + n * b
    assert complete_to_basis(a, b, z0) == z
    assert complete_to_basis(a, b, z0, cross(a, b)) == z


@settings(max_examples=200, deadline=None)
@given(big_vec, big_vec, big_vec)
@example(IVec3(1, 0, 0), IVec3(0, 1, 0), IVec3(0, 0, -1))
@example(IVec3(1, 0, 0), IVec3(0, 1, 0), IVec3(5, 7, 2))
@example(IVec3(2, 0, 0), IVec3(0, 2, 0), IVec3(0, 0, 1))
def test_complete_to_basis_rejects_a_wrong_z0(a, b, z0):
    # a z0 with (a x b).z0 != 1 raises instead of falling back to
    # solve_dot_one, primitive pair or not
    if dot(cross(a, b), z0) == 1:
        return
    with mock.patch("gammacert.exact.solve_dot_one",
                    side_effect=AssertionError("fell back to solve_dot_one")):
        with pytest.raises(ValueError, match="z0"):
            complete_to_basis(a, b, z0)


def test_complete_to_basis_checks_the_determinant_it_returns():
    # a c with c.z0 = 1 that is not a x b passes the z0 check, and the
    # coset of z0 then holds no z with det3(a, b, z) = 1
    a, b = IVec3(1, 0, 0), IVec3(0, 1, 0)
    with pytest.raises(CertificateFailure, match="basis_det"):
        complete_to_basis(a, b, z0=a, c=a)
