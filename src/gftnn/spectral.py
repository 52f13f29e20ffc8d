"""Factor eigenbases and the graph Fourier transform of a product graph.

Signals live on the Cartesian product of a temporal and a spatial graph.
Because the product Laplacian is the Kronecker sum of the factor
Laplacians, its eigenbasis is the Kronecker product of the factor bases,
so the transform is computed factor-wise: F_hat = U1^T F U2. The factor
Laplacians are real symmetric, hence the bases are real and orthonormal
and no conjugation is needed anywhere.

Every factor graph the pipeline builds has a closed-form spectrum: the
temporal path (``path_spectrum``), the complete graph
(``complete_spectrum``), the unit star (``unit_star_spectrum``) and the
inverse-distance weighted star (``star_spectra``). Each fixes one sign
and one basis of every degenerate eigenspace, so rounding noise in the
input cannot flip or rotate them. The weighted star's eigenvalues are
the roots of a secular equation, each found by a few safeguarded
rational steps, one pair of probes around the last step and a halving
down to adjacent floats (``_secular_roots``).
``symmetric_eigh`` is a cyclic Jacobi solver for any other symmetric
matrix and the reference the closed forms are tested against.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .graph import Laplacian, _frozen

JACOBI_TOL = 1e-12
JACOBI_SWEEP_LIMIT = 100
# Eigenvalues closer than this are treated as one degenerate group when
# fixing the basis orientation.
DEGENERACY_TOL = 1e-8


def _rotation(app, aqq, apq):
    # Cosine and sine of the rotation that zeroes a[p, q] (Golub & Van Loan,
    # Matrix Computations, section 8.5), taking the smaller of the two
    # angles.
    theta = (aqq - app) / (2.0 * apq)
    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
    if theta < 0.0:
        t = -t
    c = 1.0 / math.sqrt(t * t + 1.0)
    return c, t * c


def _rotate(a, v, p, q, c, s):
    # A <- J^T A J and V <- V J with J the rotation in the (p, q) plane,
    # J[p,p] = J[q,q] = c, J[p,q] = s, J[q,p] = -s. A is exactly symmetric,
    # so rows p and q are the rotated columns except on the diagonal.
    col_p = c * a[:, p] - s * a[:, q]
    col_q = s * a[:, p] + c * a[:, q]
    a_pp = c * col_p.item(p) - s * col_p.item(q)
    a_qq = s * col_q.item(p) + c * col_q.item(q)
    a[:, p] = col_p
    a[:, q] = col_q
    a[p, :] = col_p
    a[q, :] = col_q
    a[p, p] = a_pp
    a[q, q] = a_qq
    a[p, q] = 0.0
    a[q, p] = 0.0
    v[:, p], v[:, q] = c * v[:, p] - s * v[:, q], s * v[:, p] + c * v[:, q]


def _sweep(a, v, pairs, skip):
    """One cyclic sweep over a single (n, n) matrix."""
    item = a.item  # Python floats: scalar arithmetic is faster on them
    for p, q in pairs:
        apq = item(p, q)
        if abs(apq) <= skip:
            continue
        c, s = _rotation(item(p, p), item(q, q), apq)
        _rotate(a, v, p, q, c, s)


def _order_degenerate_groups(w, v):
    # Lexicographic order inside degenerate groups of one matrix. Eigenvalues
    # travel with their columns so eigenpairs stay intact.
    n = w.size
    start = 0
    for stop in range(1, n + 1):
        if stop == n or w[stop] - w[stop - 1] > DEGENERACY_TOL:
            if stop - start > 1:
                cols = sorted(range(start, stop), key=lambda i: tuple(v[:, i]))
                v[:, start:stop] = v[:, cols]
                w[start:stop] = w[cols]
            start = stop


def _largest_entry_positive(v):
    # Flip every column of a (..., n, k) stack so that its largest-magnitude
    # entry (the first one on a tie) is positive.
    lead = np.argmax(np.abs(v), axis=-2)
    flip = np.take_along_axis(v, lead[..., None, :], axis=-2) < 0.0
    return np.where(flip, -v, v)


def symmetric_eigh(matrix):
    """Eigendecomposition of one real symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues, eigenvectors), (n,) and (n, n), with eigenvalues
    ascending up to ``DEGENERACY_TOL`` and eigenvectors as columns.
    Convergence is declared once every off-diagonal entry falls below
    ``JACOBI_TOL`` relative to the Frobenius norm of the input, within
    ``JACOBI_SWEEP_LIMIT`` sweeps. This is the general solver behind
    ``eigendecompose``; the graphs the pipeline builds have closed forms
    (``path_spectrum``, ``complete_spectrum``, ``unit_star_spectrum``,
    ``star_spectra``), and this solver is their reference.

    The result is bit-reproducible on one machine: every eigenvector is
    flipped so its largest-magnitude entry is positive (ties broken by
    lowest index), and columns inside a degenerate eigenvalue group are
    ordered lexicographically. Each eigenvalue moves with its column, so
    inside a group the eigenvalues may step down by up to
    ``DEGENERACY_TOL`` (the 9-node star steps down by about 1e-15). This
    sign rule is ill-posed when the two largest-magnitude entries tie, as
    in every odd mode of a path graph, so a perturbation of the input at
    rounding level can flip such an eigenvector.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 1:
        return a[0].copy(), np.ones((1, 1))
    if np.max(np.abs(a - a.T)) > 1e-9:
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2.0
    v = np.eye(n)
    thresh = JACOBI_TOL * max(1.0, float(np.linalg.norm(a)))
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(JACOBI_SWEEP_LIMIT):
        if np.max(np.abs(np.triu(a, k=1))) <= thresh:
            break
        _sweep(a, v, pairs, 0.1 * thresh)
    else:
        raise RuntimeError(
            f"jacobi rotations did not converge within {JACOBI_SWEEP_LIMIT} sweeps"
        )
    w = np.diagonal(a).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = _largest_entry_positive(v[:, order])
    _order_degenerate_groups(w, v)
    return w, v


def _helmert(first, n):
    # Helmert contrasts over n members: row i is -1 on members first[i] .. i
    # and c = i - first[i] + 1 on member i + 1, normalised, so the newest
    # member is positive.
    i = np.arange(first.shape[-1])[:, None]
    j = np.arange(n)
    c = i - first[..., None] + 1.0
    h = np.where((j >= first[..., None]) & (j <= i), -1.0, np.where(j == i + 1, c, 0.0))
    return h / np.sqrt(c * (c + 1.0))


def path_spectrum(n: int) -> Spectrum:
    """Closed-form spectrum of the unit-weight path over n nodes (DCT-II;
    Strang, SIAM Review 1999).

    Eigenvalue k is 4 sin^2(pi k / 2n) and its eigenvector is
    cos(pi k (j + 1/2) / n) with j counted from the last node, so every
    eigenvector's last entry is positive.
    """
    if n < 2:
        raise ValueError(f"path needs at least 2 nodes, got {n}")
    k = np.arange(n)
    # Angles reduced mod 2 pi in integers, so the cosine sees at most 2 pi.
    phase = np.outer(2 * k[::-1] + 1, k) % (4 * n)
    v = np.cos(np.pi * phase / (2 * n)) * np.where(k == 0, np.sqrt(1.0 / n),
                                                   np.sqrt(2.0 / n))
    return Spectrum(4.0 * np.sin(np.pi * k / (2 * n)) ** 2, v)


def complete_spectrum(n: int) -> Spectrum:
    """Closed-form spectrum of the unit-weight complete graph over n nodes:
    0 on the constant vector, then n on the Helmert contrasts of all nodes
    in index order."""
    if n < 2:
        raise ValueError(f"complete graph needs at least 2 nodes, got {n}")
    w = np.full(n, float(n))
    w[0] = 0.0
    contrasts = _helmert(np.zeros(n - 1, np.int64), n).T
    return Spectrum(w, np.hstack([np.full((n, 1), np.sqrt(1.0 / n)), contrasts]))


# The secular root finder of ``star_spectra``: at most SECULAR_MODEL_STEPS
# rational steps per root, then one pair of probes SECULAR_NOISE_WIDTHS
# rounding widths of the computed function past the last step, then halving.
SECULAR_MODEL_STEPS = 12
SECULAR_NOISE_WIDTHS = 2.0
_EPS = np.finfo(np.float64).eps


def _secular_roots(c, d2, delta, gap):
    """The root tau in (0, gap) of f(tau) = c - tau - sum_j d2_j / (delta_j - tau)
    for each (B, m) entry with a positive gap, and 0 elsewhere.

    c and gap are (B, m), d2 is (B, m) and delta (B, m, m), with the row's
    poles delta_j <= 0 at and below the root and delta_j >= gap above it.
    f falls from +inf at tau = 0 to -inf at the upper pole tau = gap (the
    last root has none; its gap only bounds it). The computed f falls too:
    each rounding in it is monotone, so its sign changes once and the
    returned float does not depend on the search path. The search keeps a
    bracket [lo, hi] of float bit patterns, which order like positive
    floats: an evaluated point becomes lo where f > 0 and hi where f <= 0.

    - Rational steps (Li's middle way, LAPACK Working Note 89, 1993): the
      terms at and below the lower pole are modelled as a / tau + b and the
      rest, with -tau, as e / (upper pole - tau), matching values and
      slopes at the current point; the last root keeps -tau linear. A step
      that leaves the bracket halves it instead. The first point, the root
      of f with the terms off the lower pole frozen at tau = 0, bounds the
      root from above.
    - Once a step is within the rounding noise of f (LAPACK's erretm,
      here eps (|c| + tau + sum_j |d2_j / (delta_j - tau)|) / |f'|), one pair
      of probes, that step's root less and plus its size and
      SECULAR_NOISE_WIDTHS noise widths, cuts the bracket. Roots still
      stepping after SECULAR_MODEL_STEPS steps skip the probes. Halving
      then ends every bracket on adjacent floats.
    - Of lo and hi the one with the smaller |f| is the root; a pole has an
      infinite one.

    A root's steps depend on its own row alone, so a row's roots do not
    depend on the rows batched with it.
    """
    rows, slots = np.nonzero(gap > 0.0)
    c, g, delta, d2 = c[rows, slots], gap[rows, slots], delta[rows, slots], d2[rows]
    below = (delta <= 0.0).astype(np.float64)
    # 1 / (upper - tau) is 0 for the last root, which has no upper pole.
    upper = np.where(slots == gap.shape[1] - 1, np.inf, g)
    lo = np.zeros(rows.size, np.int64)
    hi = g.view(np.int64).copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tied = delta == 0.0
        drift = c - np.sum(d2 / delta, axis=1, where=~tied)
        lift = np.sum(d2, axis=1, where=tied)
        disc = np.sqrt(drift * drift + 4.0 * lift)
        start = np.where(drift > 0.0, (drift + disc) / 2.0, 2.0 * lift / (disc - drift))
        x = np.where((start > 0.0) & (start < g), start, g / 2.0)
        y, reach = x.copy(), np.zeros_like(x)
        modelled = hi - lo > 1
        for _ in range(SECULAR_MODEL_STEPS):
            k = np.flatnonzero(modelled)
            if k.size == 0:
                break
            xk, ck = x[k], c[k]
            # f as _secular computes it, so that its sign at a point is the
            # same whichever step evaluates it.
            diff = delta[k] - xk[:, None]
            q = d2[k] / diff
            f = ck - xk - q.sum(1)
            p = q / diff
            low = (p * below[k]).sum(1)
            slope = 1.0 + p.sum(1)                            # -f'
            inv = 1.0 / (upper[k] - xk)
            # eta, the model's root less xk, solves a eta^2 - b eta - xk f = 0.
            a = (f - low * xk) * inv + (slope - low)
            b = f - xk * (f * inv + slope)
            xf = xk * f
            root = np.sqrt(np.abs(b * b + 4.0 * a * xf))
            eta = np.where(b > 0.0, (b + root) / (a + a), (xf + xf) / (root - b))
            size = np.abs(eta)
            noise = _EPS * (np.abs(ck) + xk + np.abs(q).sum(1)) / slope
            up = f > 0.0
            lo_k = np.where(up, xk.view(np.int64), lo[k])
            hi_k = np.where(up, hi[k], xk.view(np.int64))
            lo[k], hi[k] = lo_k, hi_k
            y[k] = yk = xk + eta
            reach[k] = size + SECULAR_NOISE_WIDTHS * noise
            width = hi_k - lo_k
            inside = (yk.view(np.int64) > lo_k) & (yk.view(np.int64) < hi_k)
            x[k] = np.where(inside, yk, (lo_k + width // 2).view(np.float64))
            modelled[k] = (size > noise) & (width > 1)
        # Where the steps converged, probe y - reach and y + reach, kept
        # strictly inside the bracket (the upper one without forming
        # centre + ulps, which can overflow).
        k = np.flatnonzero(~modelled & (hi - lo > 1))
        lo_k, hi_k = lo[k], hi[k]
        centre = np.clip(y[k].view(np.int64), lo_k, hi_k)
        ulps = np.fmin(reach[k] / np.spacing(np.abs(y[k])), hi_k - lo_k).astype(np.int64) + 1
        tau = np.stack([np.maximum(centre - ulps, lo_k + 1),
                        centre + np.minimum(ulps, hi_k - 1 - centre)], axis=1)
        up = _secular(c[k], d2[k], delta[k], tau.view(np.float64)) > 0.0
        lo[k] = np.max(np.where(up, tau, lo_k[:, None]), axis=1)
        hi[k] = np.min(np.where(up, hi_k[:, None], tau), axis=1)
        # Then halve every bracket down to adjacent floats.
        while (k := np.flatnonzero(hi - lo > 1)).size:
            lo_k, hi_k = lo[k], hi[k]
            mid = lo_k + (hi_k - lo_k) // 2
            up = _secular(c[k], d2[k], delta[k], mid[:, None].view(np.float64))[:, 0] > 0.0
            lo[k], hi[k] = np.where(up, mid, lo_k), np.where(up, hi_k, mid)
        ends = np.stack([lo, hi], axis=1).view(np.float64)
        residual = np.abs(_secular(c, d2, delta, ends))
    tau = np.zeros(gap.shape)
    tau[rows, slots] = np.where(residual[:, 1] <= residual[:, 0], ends[:, 1], ends[:, 0])
    return tau


def _secular(c, d2, delta, tau):
    """f at a (k, P) stack of points, one row of c, d2 and delta per row of
    tau. Each point sums its terms in the same order, whatever P."""
    return c[:, None] - tau - np.sum(d2[:, None] / (delta[:, None] - tau[..., None]), axis=-1)


def star_spectra(leaf_weights):
    """Closed-form spectra of weighted stars, one per row of a (B, m) stack
    of positive leaf weights.

    Node 0 is the hub and node i the leaf of weight ``leaf_weights[:, i-1]``;
    the Laplacian is the arrowhead [[s, -w^T], [-w, diag(w)]] with s the sum
    of the weights. Returns (B, m + 1) ascending eigenvalues and
    (B, m + 1, m + 1) eigenvector columns:

    - 0, and one root of the secular equation
      s - lam - sum_i w_i^2 / (w_i - lam) = 0 between each pair of
      consecutive distinct weights and above the largest (Golub, SIAM
      Review 1973). Each root is solved for in tau = lam - d from its
      lower pole d by safeguarded rational steps (``_secular_roots``): the
      same float a bisection of the computed equation ends on, since that
      equation changes sign once. The eigenvectors
      (1, z_i / (w_i - lam)) use the border z
      recomputed from the roots (Gu & Eisenstat, SIMAX 1995), so they are
      orthogonal to working precision even for weights 1e-13 apart. Each
      is flipped so its largest-magnitude entry (the first on a tie) is
      positive, the rule of ``symmetric_eigh``; tied leaves hold equal
      entries, so the rule is well-posed on them.
    - A weight shared by r leaves, r - 1 more times: the Helmert contrasts
      of those leaves in index order (see ``complete_spectrum``).
    """
    w = np.asarray(leaf_weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 1:
        raise ValueError(f"expected a (B, m) stack of leaf weights, got shape {w.shape}")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise ValueError("leaf weights must be finite and positive")
    b, m = w.shape
    order = np.argsort(w, axis=1, kind="stable")
    d = np.take_along_axis(w, order, axis=1)
    idx = np.arange(m)
    # Sorted leaf i is a pole of the secular equation if it is the last of
    # its tie group; the root above it has lower pole d[i]. Tie groups span
    # sorted leaves first[i] .. last[i].
    pole = np.append(d[:, :-1] < d[:, 1:], np.ones((b, 1), bool), axis=1)
    first = np.maximum.accumulate(np.where(np.roll(pole, 1, axis=1), idx, 0), axis=1)
    last = np.minimum.accumulate(np.where(pole, idx, m)[:, ::-1], axis=1)[:, ::-1]
    s = w.sum(axis=1, keepdims=True)
    gap = np.where(pole, np.append(np.diff(d, axis=1), 2.0 * s - d[:, -1:], axis=1), 0.0)
    delta = d[:, None, :] - d[:, :, None]   # [b, i, j] = d_j - d_i
    tau = _secular_roots(s - d, d * d, delta, gap)
    # Loewner: the border whose arrowhead has exactly these roots, from
    # differences d_j - lam_i = (d_j - d_i) - tau_i that keep their digits.
    diff = delta - tau[..., None]
    ratio = np.divide(diff, delta, out=np.ones_like(diff),
                      where=pole[..., None] & (delta != 0.0))
    z2 = d * np.take_along_axis(tau, last, axis=1) * np.prod(ratio, axis=1)
    z = np.sqrt(z2 / (last - first + 1))
    # Rows are eigenvectors, columns the hub then the sorted leaves: the
    # zero mode, then per sorted leaf i the root above it if it is a pole
    # and otherwise the contrast of leaves first[i] .. i against leaf i + 1.
    secular_col = np.append(np.ones((b, 1), bool), pole, axis=1)
    vec = np.ones((b, m + 1, m + 1))
    np.divide(z[:, None, :], np.append(d[:, None, :], diff, axis=1),
              out=vec[..., 1:], where=secular_col[..., None])
    vec /= np.sqrt(np.sum(vec * vec, axis=2, keepdims=True))
    vec[:, 1:] = np.where(pole[..., None], vec[:, 1:],
                          np.append(np.zeros((b, m, 1)), _helmert(first, m), axis=2))
    # Eigenvectors as columns, leaf rows back in input order.
    nodes = np.append(np.zeros((b, 1), np.int64), 1 + np.argsort(order, axis=1), axis=1)
    vec = np.take_along_axis(vec, nodes[:, None, :], axis=2).transpose(0, 2, 1)
    lam = np.append(np.zeros((b, 1)), d + tau, axis=1)
    return lam, np.where(secular_col[:, None, :], _largest_entry_positive(vec), vec)


def unit_star_spectrum(n: int) -> Spectrum:
    """Closed-form spectrum of the unit-weight star over n nodes, hub first:
    ``star_spectra`` of n - 1 unit leaves bit for bit, without solving for
    its one secular root, which is exactly n.

    Eigenvalues 0, 1 (n - 2 times) and n. The secular columns are the
    constant vector and (1, -1/m, ..., -1/m) with m = n - 1, normalised;
    the eigenspace of 1 holds the Helmert contrasts of the leaves.
    """
    if n < 2:
        raise ValueError(f"star needs at least 2 nodes, got {n}")
    m = n - 1
    # As star_spectra forms them: rows (1, z / (d - lam)) with z = d = 1.
    secular = np.ones((2, n))
    secular[1, 1:] = 1.0 / (0.0 - m)
    secular /= np.sqrt(np.sum(secular * secular, axis=1, keepdims=True))
    secular = _largest_entry_positive(secular.T)
    v = np.zeros((n, n))
    v[:, 0] = secular[:, 0]
    v[1:, 1:m] = _helmert(np.zeros(m - 1, np.int64), m).T
    v[:, m] = secular[:, 1]
    w = np.ones(n)
    w[0] = 0.0
    w[m] = float(n)
    return Spectrum(w, v)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and orthonormal eigenvector columns.

    Eigenvalues ascend. The closed forms ascend exactly; a spectrum from
    ``symmetric_eigh`` orders a group of eigenvalues closer than
    ``DEGENERACY_TOL`` by its eigenvectors, so inside such a group they may
    step down by up to that tolerance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=np.float64)
        v = np.asarray(self.eigenvectors, dtype=np.float64)
        if w.ndim != 1 or v.ndim != 2 or v.shape != (w.size, w.size):
            raise ValueError(
                f"inconsistent spectrum shapes: {w.shape} values, {v.shape} vectors"
            )
        for arr, name in ((w, "eigenvalues"), (v, "eigenvectors")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "eigenvalues", _frozen(w))
        object.__setattr__(self, "eigenvectors", _frozen(v))

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.size


def eigendecompose(lap: Laplacian) -> Spectrum:
    return Spectrum(*symmetric_eigh(lap.matrix))


@dataclass(frozen=True)
class ProductBasis:
    """Factor spectra of a temporal-by-spatial product graph."""

    temporal: Spectrum
    spatial: Spectrum

    @property
    def shape(self):
        return self.temporal.n_nodes, self.spatial.n_nodes


def _on_grid(arr, basis: ProductBasis) -> np.ndarray:
    """arr as float64, checked to be a (..., time, vehicle) array on the
    basis grid."""
    a = np.asarray(arr, dtype=np.float64)
    if a.shape[-2:] != basis.shape:
        raise ValueError(f"signal shape {a.shape} does not end in the basis "
                         f"grid {basis.shape}")
    return a


def gft_extended(signal, basis: ProductBasis, spatial=None, p: int | None = None) -> np.ndarray:
    """Transform a (..., time, vehicle) signal into the product eigenbasis,
    U1^T F U2 over the last two axes, or U1[:, :p]^T F U2 with ``p``.

    Entry (..., l1, l2) of the result is the projection onto the Kronecker
    product of temporal eigenvector l1 and spatial eigenvector l2.
    ``spatial``, if given, is a (..., vehicle, vehicle) stack of spatial
    eigenvectors that replaces ``basis.spatial`` and broadcasts against
    the leading axes of the signal.
    """
    f = _on_grid(signal, basis)
    u1 = basis.temporal.eigenvectors
    if p is not None and not 1 <= p <= u1.shape[1]:
        raise ValueError(f"p must be in [1, {u1.shape[1]}], got {p}")
    u2 = basis.spatial.eigenvectors
    if spatial is not None:
        spatial = np.asarray(spatial, dtype=np.float64)
        if spatial.shape[-2:] != u2.shape:
            raise ValueError(
                f"spatial bases must be (..., {u2.shape[0]}, {u2.shape[1]}), "
                f"got {spatial.shape}"
            )
        u2 = spatial
    return u1[:, :p].T @ f @ u2


# The transform of one (time, vehicle) signal, under its earlier name.
gft_2d = gft_extended


def inverse_gft(coefficients, basis: ProductBasis, p: int | None = None) -> np.ndarray:
    """Back-transform (..., time, vehicle) coefficients, optionally keeping
    only the p lowest temporal modes.

    Truncation acts on the temporal axis only (a low-pass in graph
    frequency); the spatial axis is always fully resolved.
    """
    fhat = _on_grid(coefficients, basis)
    n1 = basis.temporal.n_nodes
    if p is None:
        p = n1
    if not 1 <= p <= n1:
        raise ValueError(f"p must be in [1, {n1}], got {p}")
    u1 = basis.temporal.eigenvectors[:, :p]
    return u1 @ fhat[..., :p, :] @ basis.spatial.eigenvectors.T


def write_spectrum_csv(basis: ProductBasis, path):
    """Factor eigenvalues, one row per (axis, index)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "index", "eigenvalue"])
        for name, spec in (("temporal", basis.temporal), ("spatial", basis.spatial)):
            for i, lam in enumerate(spec.eigenvalues):
                writer.writerow([name, i, repr(float(lam))])


def write_tensor_csv(tensor, path, header=("k", "l1", "l2", "value")):
    """Flat dump of a (channels, time, vehicle) tensor with index columns."""
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-d tensor, got shape {arr.shape}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for k in range(arr.shape[0]):
            for i in range(arr.shape[1]):
                for j in range(arr.shape[2]):
                    writer.writerow([k, i, j, repr(float(arr[k, i, j]))])
