"""Rational transfer functions, their evaluation, and frequency grids.

Coefficient convention: ascending powers, so ``num=[1, 0.5]`` over ``den=[0, 1]``
is (1 + 0.5*s)/s.  The indeterminate is whatever the caller evaluates at -- the
Laplace variable for continuous models, z for discretized ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RationalTF",
    "FrequencyGrid",
    "PoleHit",
    "BadGrid",
    "eval_tf",
    "make_grid",
]

# a denominator below this multiple of its rounding-noise floor counts as zero
_NOISE_RTOL = 64.0 * np.finfo(float).eps

_LOG_GRID_DECADES = 1e6  # grids start at pi/(T * 1e6)

# make_grid plus small_gain_value peak at 332 bytes a grid point (tracemalloc
# on scenarios/wall_contact.cfg, 8 192 to 262 144 points), so a grid of this
# many points fits the 2 GiB a simulation trace may take
_GRID_BYTES_PER_POINT = 332
MAX_GRID_POINTS = 2 * 1024**3 // _GRID_BYTES_PER_POINT  # 6 468 324


class PoleHit(ArithmeticError):
    """Transfer-function evaluation requested at (or numerically on) a pole."""


class BadGrid(ValueError):
    """Frequency-grid request cannot be satisfied."""


def _trimmed(coeffs) -> tuple[float, ...]:
    # drop exact zeros at the high-order end so degree is well defined
    out = [float(c) for c in coeffs]
    if not out:
        raise ValueError("empty coefficient list")
    for c in out:
        if not math.isfinite(c):
            raise ValueError("coefficients must be finite")
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class RationalTF:
    """Ratio of real-coefficient polynomials in ascending powers.

    Improper ratios are allowed: impedances such as m*s + b are first-class.
    The denominator must have at least one nonzero coefficient.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self) -> None:
        num = _trimmed(self.num)
        den = _trimmed(self.den)
        if den == (0.0,):
            raise ValueError("denominator is identically zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    def is_strictly_proper(self) -> bool:
        return self.num != (0.0,) and self.num_degree < self.den_degree


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing evaluation frequencies on (0, nyquist].

    ``points`` may be given as any sequence or 1-D array; it is validated as
    an array and stored as a tuple of floats.  The validated array is kept
    too, as a private read-only copy, so that evaluating a grid does not
    convert the tuple back (0.4 ms at 8 192 points).
    """

    points: tuple[float, ...]
    nyquist: float  # rad/s, = pi/T

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise BadGrid("grid needs at least two points")
        pts = np.array(self.points, dtype=float)
        if not (pts[0] > 0.0 and (pts[1:] > pts[:-1]).all()):
            raise BadGrid("grid points must be strictly increasing and positive")
        if pts[-1] > self.nyquist:
            raise BadGrid("grid exceeds the Nyquist frequency")
        pts.setflags(write=False)
        object.__setattr__(self, "points", tuple(pts.tolist()))
        object.__setattr__(self, "_array", pts)  # not a field: no eq, repr or asdict

    def __len__(self) -> int:
        return len(self.points)


def _horner_mag(coeffs: tuple[float, ...], r: float) -> float:
    # same recurrence on |c_k| and |s|: a running bound on evaluation noise
    acc = abs(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * r + abs(c)
    return acc


def _tf_at(tf: RationalTF):
    """eval_tf on ``tf`` as a function ``at(s, abs_s)``, its coefficients
    reversed once; a caller evaluating several functions at one point takes
    |s| once."""
    num_top, num_rest = complex(tf.num[-1]), tf.num[-2::-1]
    den_top, den_rest = complex(tf.den[-1]), tf.den[-2::-1]
    mag_top, mag_rest = abs(tf.den[-1]), tuple(map(abs, den_rest))

    def at(s: complex, abs_s: float) -> complex:
        den = den_top
        for c in den_rest:
            den = den * s + c
        scale = mag_top  # _horner_mag(tf.den, abs_s), its |c_k| taken once
        for c in mag_rest:
            scale = scale * abs_s + c
        if abs(den) <= _NOISE_RTOL * scale:
            raise PoleHit(f"denominator ~ 0 at s = {s!r}")
        num = num_top
        for c in num_rest:
            num = num * s + c
        return num / den

    return at


def eval_tf(tf: RationalTF, s: complex) -> complex:
    """Evaluate ``tf`` at the complex point ``s`` by Horner's scheme.

    Raises PoleHit when the denominator magnitude falls below a machine-scaled
    threshold (64 eps times the coefficient-magnitude bound at ``s``).
    """
    return _tf_at(tf)(s, abs(s))


# Array arithmetic that rounds as Python's complex type does.  NumPy's complex
# product may fuse multiply-adds and its quotient multiplies by a reciprocal;
# near a cancellation (Horner at a multiple root, a nearly singular loop
# denominator) either changes results by more than the scalar path allows.


def cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex product, rounded as Python's complex ``a * b``."""
    p = a.real * b.real
    q = a.imag * b.imag
    out = np.empty(p.shape, dtype=complex)
    np.subtract(p, q, out=out.real)
    np.multiply(a.real, b.imag, out=p)
    np.multiply(a.imag, b.real, out=q)
    np.add(p, q, out=out.imag)
    return out


def cdiv(a, b: np.ndarray) -> np.ndarray:
    """Elementwise complex quotient by the scaled division Python's ``a / b`` uses.

    Python divides through by the larger-magnitude part of ``b``; both of its
    branches are the one below with the parts of ``a`` and ``b`` swapped and
    the imaginary part negated.  A zero or NaN divisor gives NaN where Python
    would raise.
    """
    a = np.asarray(a, dtype=complex)
    by_re = np.abs(b.real) >= np.abs(b.imag)
    big = np.where(by_re, b.real, b.imag)
    small = np.where(by_re, b.imag, b.real)
    x = np.where(by_re, a.real, a.imag)
    y = np.where(by_re, a.imag, a.real)
    out = np.empty(x.shape, dtype=complex)
    with np.errstate(all="ignore"):
        ratio = small / big
        denom = big + small * ratio
        np.divide(x + y * ratio, denom, out=out.real)
        im = np.divide(y - x * ratio, denom, out=out.imag)
    np.negative(im, out=im, where=~by_re)
    return out


def _horner_grid(coeffs: tuple[float, ...], s: np.ndarray) -> np.ndarray:
    acc = np.full(s.shape, complex(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        acc = cmul(acc, s)
        acc += c
    return acc


def eval_tf_grid(tf: RationalTF, s: np.ndarray) -> np.ndarray:
    """Evaluate ``tf`` at every point of the complex array ``s``.

    Array form of eval_tf: the same Horner recurrence, rounding and pole
    test, applied elementwise.  Raises PoleHit, naming the first offending
    point, when any point fails the test.
    """
    den = _horner_grid(tf.den, s)
    hit = np.abs(den) <= _NOISE_RTOL * _horner_mag(tf.den, np.abs(s))
    if hit.any():
        raise PoleHit(f"denominator ~ 0 at s = {complex(s[np.argmax(hit)])!r}")
    return cdiv(_horner_grid(tf.num, s), den)


def make_grid(T: float, n_points: int = 512) -> FrequencyGrid:
    """Build a log-spaced evaluation grid on [pi/(T*1e6), pi/T].

    The last point is exactly the Nyquist frequency pi/T.  More than
    MAX_GRID_POINTS points, or a T so small that pi/T overflows, raise
    BadGrid before anything is allocated.
    """
    if not T > 0.0:
        raise ValueError("sampling period must be positive")
    if n_points < 2:
        raise BadGrid(f"n_points = {n_points}, need at least 2")
    if n_points > MAX_GRID_POINTS:
        raise BadGrid(f"n_points = {n_points}, at most {MAX_GRID_POINTS} fit the grid budget")
    nyq = math.pi / T
    if not math.isfinite(nyq):
        raise BadGrid(f"Nyquist frequency pi/T overflows at sampling period T = {T!r}")
    pts = np.geomspace(nyq / _LOG_GRID_DECADES, nyq, n_points)
    pts[-1] = nyq
    return FrequencyGrid(points=pts, nyquist=nyq)
