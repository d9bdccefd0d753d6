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

# |den(s)| below this multiple of the rounding-noise floor counts as a pole hit
_POLE_RTOL = 64.0 * np.finfo(float).eps

_LOG_GRID_DECADES = 1e6  # grids start at pi/(T * 1e6)


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
    an array and stored as a tuple of floats.
    """

    points: tuple[float, ...]
    nyquist: float  # rad/s, = pi/T

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise BadGrid("grid needs at least two points")
        pts = np.asarray(self.points, dtype=float)
        if not (pts[0] > 0.0 and np.all(pts[1:] > pts[:-1])):
            raise BadGrid("grid points must be strictly increasing and positive")
        if pts[-1] > self.nyquist:
            raise BadGrid("grid exceeds the Nyquist frequency")
        object.__setattr__(self, "points", tuple(pts.tolist()))

    def __len__(self) -> int:
        return len(self.points)


def _horner(coeffs: tuple[float, ...], s: complex) -> complex:
    acc = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * s + c
    return acc


def _horner_mag(coeffs: tuple[float, ...], r: float) -> float:
    # same recurrence on |c_k| and |s|: a running bound on evaluation noise
    acc = abs(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * r + abs(c)
    return acc


def eval_tf(tf: RationalTF, s: complex) -> complex:
    """Evaluate ``tf`` at the complex point ``s`` by Horner's scheme.

    Raises PoleHit when the denominator magnitude falls below a machine-scaled
    threshold (64 eps times the coefficient-magnitude bound at ``s``).
    """
    den = _horner(tf.den, s)
    scale = _horner_mag(tf.den, abs(s))
    if abs(den) <= _POLE_RTOL * scale:
        raise PoleHit(f"denominator ~ 0 at s = {s!r}")
    return _horner(tf.num, s) / den


# Array arithmetic that rounds as Python's complex type does.  NumPy's complex
# product may fuse multiply-adds and its quotient multiplies by a reciprocal;
# near a cancellation (Horner at a multiple root, a nearly singular loop
# denominator) either changes results by more than the scalar path allows.


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex product, rounded as Python's complex ``a * b``."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


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
    with np.errstate(all="ignore"):
        ratio = small / big
        denom = big + small * ratio
        im = (y - x * ratio) / denom
        return _complex((x + y * ratio) / denom, np.where(by_re, im, -im))


def _horner_grid(coeffs: tuple[float, ...], s: np.ndarray) -> np.ndarray:
    acc = np.full(s.shape, complex(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        acc = cmul(acc, s) + c
    return acc


def eval_tf_grid(tf: RationalTF, s: np.ndarray) -> np.ndarray:
    """Evaluate ``tf`` at every point of the complex array ``s``.

    Array form of eval_tf: the same Horner recurrence, rounding and pole
    test, applied elementwise.  Raises PoleHit, naming the first offending
    point, when any point fails the test.
    """
    den = _horner_grid(tf.den, s)
    hit = np.abs(den) <= _POLE_RTOL * _horner_mag(tf.den, np.abs(s))
    if np.any(hit):
        raise PoleHit(f"denominator ~ 0 at s = {complex(s[np.argmax(hit)])!r}")
    return cdiv(_horner_grid(tf.num, s), den)


def make_grid(T: float, n_points: int = 512) -> FrequencyGrid:
    """Build a log-spaced evaluation grid on [pi/(T*1e6), pi/T].

    The last point is exactly the Nyquist frequency pi/T.
    """
    if not T > 0.0:
        raise ValueError("sampling period must be positive")
    if n_points < 2:
        raise BadGrid(f"n_points = {n_points}, need at least 2")
    nyq = math.pi / T
    pts = np.geomspace(nyq / _LOG_GRID_DECADES, nyq, n_points)
    pts[-1] = nyq
    return FrequencyGrid(points=pts, nyquist=nyq)
