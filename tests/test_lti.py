"""Rational transfer functions, their array evaluation, and grids."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teleopstab import (
    BadGrid,
    FrequencyGrid,
    PoleHit,
    RationalTF,
    eval_tf,
    make_grid,
)
from teleopstab.lti import MAX_GRID_POINTS, cdiv, cmul, eval_tf_grid

from oracles import rational_brute


def test_eval_tf_constant_identity():
    tf = RationalTF((1.0,), (1.0,))
    assert eval_tf(tf, 3 + 4j) == 1 + 0j


def test_eval_tf_first_order_dc():
    # robot model 2/(2+s) at DC
    tf = RationalTF((2.0,), (2.0, 1.0))
    assert eval_tf(tf, 0j) == 1 + 0j


def test_eval_tf_hand_value():
    # 1/(s(0.5s+1)) at s=j: 1/(-0.5+j) = -0.4 - 0.8j
    tf = RationalTF((1.0,), (0.0, 1.0, 0.5))
    np.testing.assert_allclose(eval_tf(tf, 1j), -0.4 - 0.8j, rtol=1e-14)


def test_eval_tf_matches_term_by_term_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        dn = int(rng.integers(1, 7))
        dm = int(rng.integers(0, dn + 1))
        num = tuple(rng.standard_normal(dm + 1))
        den = tuple(rng.standard_normal(dn + 1))
        s = complex(*rng.standard_normal(2))
        brute_den = sum(c * s**k for k, c in enumerate(den))
        if abs(brute_den) < 1e-3:
            continue  # stay away from near-poles, PoleHit has its own test
        tf = RationalTF(num, den)
        expected = rational_brute(tf.num, tf.den, s)
        got = eval_tf(tf, s)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
        checked += 1


_coeff = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
_coeffs = st.lists(_coeff, min_size=1, max_size=7)
_part = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))


@settings(max_examples=300, deadline=None)
@given(num=_coeffs, den=_coeffs, re=_part, im=_part)
def test_eval_tf_matches_term_by_term_oracle_property(num, den, re, im):
    # away from the poles (|den(s)| at least 1e-3 of its term magnitudes),
    # Horner and the term-by-term oracle agree to 16 eps of the first-order
    # error bound sum|n_k||s|^k/|den| + |tf(s)| sum|d_k||s|^k/|den|
    assume(any(den))
    tf = RationalTF(num, den)
    s = complex(re, im)
    den_s = sum(c * s**k for k, c in enumerate(tf.den))
    den_mag = sum(abs(c) * abs(s) ** k for k, c in enumerate(tf.den))
    num_mag = sum(abs(c) * abs(s) ** k for k, c in enumerate(tf.num))
    assume(den_s != 0 and abs(den_s) >= 1e-3 * den_mag)
    expected = rational_brute(tf.num, tf.den, s)
    bound = (num_mag + abs(expected) * den_mag) / abs(den_s)
    assert abs(eval_tf(tf, s) - expected) <= 16 * np.finfo(float).eps * bound


def test_eval_tf_pole_hit():
    tf = RationalTF((1.0,), (-1.0, 1.0))  # 1/(s-1)
    with pytest.raises(PoleHit):
        eval_tf(tf, 1.0 + 0j)
    with pytest.raises(PoleHit):
        eval_tf(RationalTF((1.0,), (0.0, 1.0)), 0j)


def test_rational_tf_trims_trailing_zeros():
    tf = RationalTF((1.0, 0.0), (2.0, 1.0, 0.0))
    assert tf.num == (1.0,)
    assert tf.den == (2.0, 1.0)
    assert tf.num_degree == 0
    assert tf.den_degree == 1
    assert tf.is_strictly_proper


def test_rational_tf_rejects_zero_denominator():
    with pytest.raises(ValueError):
        RationalTF((1.0,), (0.0, 0.0))


def test_make_grid_two_point():
    grid = make_grid(1.0, 2)
    np.testing.assert_allclose(grid.points, [math.pi * 1e-6, math.pi], rtol=1e-15)
    assert grid.points[-1] == math.pi


def test_make_grid_nyquist():
    grid = make_grid(0.006)
    assert grid.nyquist == math.pi / 0.006
    assert grid.points[-1] == grid.nyquist


def test_make_grid_default_postconditions():
    T = 0.05
    grid = make_grid(T)
    pts = np.asarray(grid.points)
    assert len(grid) == 512
    assert np.all(np.diff(pts) > 0)
    assert pts[-1] == math.pi / T
    np.testing.assert_allclose(pts[0], math.pi / (T * 1e6), rtol=1e-9)


def test_make_grid_rejects_too_few_points():
    with pytest.raises(BadGrid):
        make_grid(0.01, 1)


def test_make_grid_rejects_a_grid_beyond_the_budget_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(BadGrid, match="grid budget"):
            make_grid(0.006, 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(BadGrid, match="grid budget"):
        make_grid(0.006, MAX_GRID_POINTS + 1)


@pytest.mark.parametrize("T", [1e-320, 5e-324])
def test_make_grid_rejects_a_period_whose_nyquist_overflows(T):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadGrid, match=f"T = {T!r}"):
            make_grid(T, 8)


def test_frequency_grid_invariants():
    with pytest.raises(BadGrid):
        FrequencyGrid((2.0, 1.0), nyquist=3.0)  # not increasing
    with pytest.raises(BadGrid):
        FrequencyGrid((1.0, 4.0), nyquist=3.0)  # beyond nyquist
    for nyquist in (math.nan, math.inf):  # a NaN would pass the Nyquist test
        with pytest.raises(BadGrid, match="nyquist must be positive and finite"):
            FrequencyGrid((1.0, 2.0), nyquist=nyquist)


@pytest.mark.parametrize(
    "points, message",
    [
        ((1.0,), "at least two points"),
        ((0.0, 1.0), "strictly increasing and positive"),
        ((-1.0, 1.0), "strictly increasing and positive"),
        ((1.0, 1.0, 2.0), "strictly increasing and positive"),
        ((1.0, math.nan), "strictly increasing and positive"),
        ((1.0, 2.0, 3.5), "exceeds the Nyquist frequency"),
    ],
)
def test_frequency_grid_rejection_messages(points, message):
    with pytest.raises(BadGrid, match=message):
        FrequencyGrid(points, nyquist=3.0)


def test_complex_array_arithmetic_rounds_as_python():
    rng = np.random.default_rng(11)
    n = 2000
    a = rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30, n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30, n)
    b[:4] = (5e-324, 1e-320 + 3e-321j, math.nan, 2.0 + math.nan * 1j)
    products, quotients, reals = cmul(a, b), cdiv(a, b), cdiv(2.5, b)
    for ak, bk, p, q, r in zip(a.tolist(), b.tolist(), products, quotients, reals):
        assert p == ak * bk or (math.isnan(abs(p)) and math.isnan(abs(ak * bk)))
        assert q == ak / bk or (math.isnan(abs(q)) and math.isnan(abs(ak / bk)))
        assert r == 2.5 / bk or (math.isnan(abs(r)) and math.isnan(abs(2.5 / bk)))
    assert np.isnan(cdiv(a[:1], np.zeros(1, dtype=complex))).all()


def test_cdiv_of_stacked_numerators_matches_separate_calls_bit_for_bit():
    # numerators stacked in rows broadcast against one row of divisors, as
    # do real (k, 1) columns; each row must be the one-numerator call's bits
    rng = np.random.default_rng(12)
    n = 400
    b = rng.normal(size=n) + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
    b[:4] = (0.0, math.nan, 1e-300 + 2.0j, 3.0 + 1e-300j)
    assert (np.abs(b.real) >= np.abs(b.imag)).any() and (np.abs(b.real) < np.abs(b.imag)).any()
    stacked = rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-20, 20, (3, n)) + 1j * rng.normal(
        size=(3, n)
    )
    real = np.array([[2.5], [-0.0], [1e-310]])
    for numerators in (stacked, real):
        got = cdiv(numerators, b)
        assert got.shape == (3, n)
        for row, a in zip(got, numerators):
            want = cdiv(a if a.shape == b.shape else complex(a[0]), b)
            assert row.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert np.isnan(cdiv(stacked, b)[:, :2]).all()


def test_eval_tf_grid_matches_pointwise_eval():
    rng = np.random.default_rng(7)
    z = np.exp(1j * rng.uniform(1e-6, math.pi, 200))
    for tf in (
        RationalTF((2.0,), (2.0, 1.0)),
        RationalTF((3.5e-5, 3.6e-5), (0.988, -1.988, 1.0)),
        RationalTF((-12.0, 12.006), (0.0, 0.006)),
    ):
        got = eval_tf_grid(tf, z)
        for zk, gk in zip(z, got):
            assert gk == eval_tf(tf, complex(zk))
    with pytest.raises(PoleHit):
        eval_tf_grid(RationalTF((1.0,), (1.0, 0.0, 1.0)), np.array([1.0 + 0j, 1j]))
