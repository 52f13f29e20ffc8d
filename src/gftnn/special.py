"""The two special functions the model needs, in plain numpy.

``erf`` feeds the exact GELU and ``expit`` the head's sigmoids, the
decoder's lateral profile and the synthetic lane changes. Both take any
array-like and return float64 of the same shape (a numpy scalar for a
scalar), with erf(+-0) = +-0, erf(+-inf) = +-1 and nan kept as nan.

erf is a table of Taylor polynomials. [0, 6] is cut into cells of width
h = 1/512; cell i holds the degree-5 expansion of erf about its left edge
a = i h, in the cell-local variable u = (|x| - a) / h in [0, 1):

    erf(a + u h) ~ sum_n erf^(n)(a) h^n / n! u^n,
    erf^(n+1)(a) = 2 / sqrt(pi) (-1)^n H_n(a) exp(-a^2),

with H_n the physicists' Hermite polynomials (H_(n+1) = 2a H_n - 2n H_(n-1)).
The constant terms are the stdlib's ``math.erf`` at the edges; the table
is built once at import. The first cell expands about 0, where erf is
odd, so tiny and subnormal arguments keep their relative precision. At
|x| >= 6 erf rounds to 1 and a last row of the table holds exactly 1.
The truncation error is below h^6 / 720 max|erf^(6)| < 3e-18, so what
is left is rounding: against 120-bit mpmath the result is within 1.2 ulp,
and within 3 ulp of scipy's erf (whose own error reaches 2.7 ulp).
An evaluation gathers one table row per element and takes one Horner
step per degree: about fifteen vectorised numpy calls per block of up to
_ERF_BLOCK values, so its scratch memory stays bounded on large inputs.
"""
from __future__ import annotations

import math

import numpy as np

_ERF_CELLS_PER_UNIT = 512
_ERF_TOP = 6.0                  # erf(x) rounds to 1 beyond about 5.93
_ERF_DEGREE = 5
_ERF_CELLS = int(_ERF_TOP * _ERF_CELLS_PER_UNIT)
_ERF_BLOCK = 16384              # values per vectorised pass


def _erf_taylor_table() -> np.ndarray:
    """(cells + 1, degree + 1) Taylor coefficients in the cell-local
    variable, constant term first; the last row is erf = 1."""
    h = 1.0 / _ERF_CELLS_PER_UNIT
    a = np.arange(_ERF_CELLS) * h
    deriv1 = (2.0 / math.sqrt(math.pi)) * np.exp(-a * a)
    table = np.zeros((_ERF_CELLS + 1, _ERF_DEGREE + 1))
    table[:-1, 0] = [math.erf(edge) for edge in a]
    hermite_prev, hermite = np.zeros_like(a), np.ones_like(a)
    scale = 1.0
    for n in range(1, _ERF_DEGREE + 1):
        scale *= h / n                  # h^n / n!
        sign = 1.0 if n % 2 else -1.0   # (-1)^(n-1)
        table[:-1, n] = sign * scale * hermite * deriv1
        hermite_prev, hermite = hermite, 2.0 * a * hermite - 2.0 * (n - 1) * hermite_prev
    table[-1, 0] = 1.0
    return table


_ERF_TABLE = _erf_taylor_table()


def erf(x):
    """The error function, elementwise (see the module docstring)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty(flat.size)
    # Blocks bound the gathered table rows to 48 bytes x _ERF_BLOCK.
    for i in range(0, flat.size, _ERF_BLOCK):
        _erf_block(flat[i:i + _ERF_BLOCK], out[i:i + _ERF_BLOCK])
    return out.reshape(x.shape)[()]


def _erf_block(x, out):
    """erf of the 1-D array x, written into out."""
    t = np.abs(x)
    np.minimum(t, _ERF_TOP, out=t)
    t *= _ERF_CELLS_PER_UNIT
    # nan takes the last row too, and t keeps the nan.
    cell = np.fmin(t, _ERF_CELLS).astype(np.intp)
    t -= cell
    coef = _ERF_TABLE.take(cell, axis=0).T
    p = coef[-1] * t
    for c in coef[-2:0:-1]:
        p += c
        p *= t
    p += coef[0]
    np.copysign(p, x, out=out)


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise.

    Written as exp(-|x|) over 1 + exp(-|x|) for x < 0, so exp never
    overflows and the left tail keeps its relative precision down to the
    subnormals. Within 4.5e-16 relative of scipy's expit, which flushes
    to 0 below x = -709.78, where this one still follows exp(x).
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.copysign(x, -1.0))
    # The numerator is 1 where x >= 0 and e elsewhere (nan stays nan).
    return np.maximum(e, x >= 0) / (1.0 + e)
