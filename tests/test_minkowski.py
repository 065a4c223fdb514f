import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypstab.minkowski import (
    GeometryError,
    distance,
    finite_point,
    ideal_point,
    lift_klein,
    mink,
    random_isometry,
    to_klein,
)

coord = st.floats(-5.0, 5.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord).map(np.array)


def test_mink_examples():
    assert mink(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == -1.0
    assert mink(np.array([1.0, 1, 0]), np.array([1.0, 1, 0])) == 0.0
    # direct evaluation of the form: -cosh(1)*1 + sinh(1)*0
    v = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
    assert mink(v, np.array([1.0, 0, 0])) == pytest.approx(-1.5430806348152437, abs=1e-12)


def test_mink_dimension_mismatch():
    with pytest.raises(GeometryError):
        mink(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))


@given(vec3, vec3, st.floats(-3, 3), st.floats(-3, 3))
def test_mink_bilinear_symmetric(u, v, s, t):
    assert mink(u, v) == pytest.approx(mink(v, u), rel=1e-12, abs=1e-12)
    w = s * u + t * v
    assert mink(w, u) == pytest.approx(s * mink(u, u) + t * mink(v, u),
                                       rel=1e-9, abs=1e-9)


def test_distance_examples():
    p = finite_point([1.0, 0, 0])
    assert distance(p, p) == 0.0
    q = finite_point([math.cosh(2.0), math.sinh(2.0), 0.0])
    assert distance(p, q) == pytest.approx(2.0, abs=1e-12)
    i = ideal_point([1.0, 1.0, 0.0])
    assert distance(p, i) == math.inf
    assert distance(i, i) == 0.0
    j = ideal_point([1.0, 0.0, 1.0])
    assert distance(i, j) == math.inf


def test_distance_near_equal_is_stable():
    # the arccosh(1 + d) branch: no NaN, good relative accuracy where the
    # representation still resolves the separation
    p = finite_point([1.0, 0, 0])
    q = lift_klein([1e-6, 0.0])
    assert distance(p, q) == pytest.approx(1e-6, rel=1e-4)
    assert distance(p, lift_klein([1e-12, 0.0])) < 1e-7


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_distance_symmetry_positivity(seed):
    rng = np.random.default_rng(seed)
    p = lift_klein(0.9 * rng.uniform(-1, 1, size=2) / 2)
    q = lift_klein(0.9 * rng.uniform(-1, 1, size=2) / 2)
    d = distance(p, q)
    assert d == distance(q, p)
    assert d >= 0.0
    if not p.same_point_as(q):
        assert d > 0.0


def test_klein_round_trip():
    assert np.allclose(to_klein(finite_point([1.0, 0, 0])), [0, 0])
    p = lift_klein([0.6, 0.0])
    assert np.allclose(p.rep, [1.25, 0.75, 0.0], atol=1e-12)
    i = lift_klein([1.0, 0.0], ideal=True)
    assert np.allclose(i.rep, [1.0, 1.0, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=3)
        x *= rng.uniform(0, 0.99) / np.linalg.norm(x)
        assert np.max(np.abs(to_klein(lift_klein(x)) - x)) < 1e-12
        u = x / np.linalg.norm(x)
        assert np.max(np.abs(to_klein(lift_klein(u, ideal=True)) - u)) < 1e-12
    with pytest.raises(GeometryError):
        lift_klein([1.0, 0.5])


def test_random_isometry_properties():
    g1 = random_isometry(4, seed=7)
    g2 = random_isometry(4, seed=7)
    assert np.array_equal(g1.matrix, g2.matrix)
    assert g1.form_residual() < 1e-10
    h = random_isometry(4, seed=8)
    assert (g1 @ h).form_residual() < 1e-9
    assert g1.matrix[0, 0] > 0


def test_isometry_invariance_of_distance():
    rng = np.random.default_rng(11)
    for k in range(100):
        n = int(rng.integers(2, 5))
        g = random_isometry(n, seed=1_000 + k)
        p = lift_klein(0.8 * rng.uniform(-1, 1, size=n) / math.sqrt(n))
        q = lift_klein(0.8 * rng.uniform(-1, 1, size=n) / math.sqrt(n))
        assert distance(g @ p, g @ q) == pytest.approx(distance(p, q), abs=1e-9)
