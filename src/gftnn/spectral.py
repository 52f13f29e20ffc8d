"""Factor eigenbases and the graph Fourier transform of a product graph.

Signals live on the Cartesian product of a temporal and a spatial graph.
Because the product Laplacian is the Kronecker sum of the factor
Laplacians, its eigenbasis is the Kronecker product of the factor bases,
so the transform is computed factor-wise: F_hat = U1^T F U2. The factor
Laplacians are real symmetric, hence the bases are real and orthonormal
and no conjugation is needed anywhere.

Every factor graph the pipeline builds has a closed-form spectrum: the
temporal path (``path_spectrum``), the complete graph
(``complete_spectrum``) and the unit or inverse-distance weighted star
(``star_spectra``). Each fixes one sign and one basis of every degenerate
eigenspace, so rounding noise in the input cannot flip or rotate them.
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


def symmetric_eigh(matrix, tol=JACOBI_TOL, max_sweeps=JACOBI_SWEEP_LIMIT):
    """Eigendecomposition of one real symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues, eigenvectors), (n,) and (n, n), with eigenvalues
    ascending up to ``DEGENERACY_TOL`` and eigenvectors as columns.
    Convergence is declared once every off-diagonal entry falls below tol
    relative to the Frobenius norm of the input. This is the general
    solver behind ``eigendecompose``; the graphs the pipeline builds have
    closed forms (``path_spectrum``, ``complete_spectrum``,
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
    thresh = tol * max(1.0, float(np.linalg.norm(a)))
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(max_sweeps):
        if np.max(np.abs(np.triu(a, k=1))) <= thresh:
            break
        _sweep(a, v, pairs, 0.1 * thresh)
    else:
        raise RuntimeError(
            f"jacobi rotations did not converge within {max_sweeps} sweeps"
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
      Review 1973). Each root is bisected in tau = lam - d from its lower
      pole d, and the eigenvectors (1, z_i / (w_i - lam)) use the border z
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
    d2 = d * d

    def secular(tau):
        return (s - d) - tau - np.sum(d2[:, None, :] / (delta - tau[..., None]), axis=2)

    # Bisection on the bit patterns of positive floats, which order like
    # the floats: at most 64 halvings reach adjacent floats.
    lo = np.zeros((b, m), np.int64)
    hi = gap.view(np.int64).copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while np.any(open_ := hi - lo > 1):
            mid = lo + (hi - lo) // 2
            up = secular(mid.view(np.float64)) > 0.0
            lo = np.where(open_ & up, mid, lo)
            hi = np.where(open_ & ~up, mid, hi)
        # The endpoint with the smaller residual; a pole has an infinite one.
        tau_lo, tau_hi = lo.view(np.float64), hi.view(np.float64)
        tau = np.where(np.abs(secular(tau_hi)) <= np.abs(secular(tau_lo)),
                       tau_hi, tau_lo)
    tau = np.where(pole, tau, 0.0)
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


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and orthonormal eigenvector columns.

    Eigenvalues ascend. The closed forms ascend exactly; a spectrum from
    ``symmetric_eigh`` orders a group of eigenvalues closer than
    ``DEGENERACY_TOL`` by its eigenvectors, so inside such a group they may
    step down by up to that tolerance. Checkpoints that store a Jacobi
    basis are the only reason loading still allows that step.
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


def gft_extended(signal, basis: ProductBasis, spatial=None) -> np.ndarray:
    """Transform a (..., time, vehicle) signal into the product eigenbasis,
    U1^T F U2 over the last two axes.

    Entry (..., l1, l2) of the result is the projection onto the Kronecker
    product of temporal eigenvector l1 and spatial eigenvector l2.
    ``spatial``, if given, is a (..., vehicle, vehicle) stack of spatial
    eigenvectors that replaces ``basis.spatial`` and broadcasts against
    the leading axes of the signal.
    """
    f = _on_grid(signal, basis)
    u2 = basis.spatial.eigenvectors
    if spatial is not None:
        spatial = np.asarray(spatial, dtype=np.float64)
        if spatial.shape[-2:] != u2.shape:
            raise ValueError(
                f"spatial bases must be (..., {u2.shape[0]}, {u2.shape[1]}), "
                f"got {spatial.shape}"
            )
        u2 = spatial
    return basis.temporal.eigenvectors.T @ f @ u2


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


def truncate_spectrum(coefficients, p: int) -> np.ndarray:
    """Keep the p lowest temporal modes and flatten each (k, l1, l2) block of
    a (..., k, l1, l2) array row-major: one row per leading index.
    """
    fhat = np.asarray(coefficients, dtype=np.float64)
    if fhat.ndim < 3:
        raise ValueError(
            f"expected (..., channel, time, vehicle) coefficients, got shape {fhat.shape}"
        )
    if not 1 <= p <= fhat.shape[-2]:
        raise ValueError(f"p must be in [1, {fhat.shape[-2]}], got {p}")
    return fhat[..., :p, :].reshape(fhat.shape[:-3] + (-1,)).copy()


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
