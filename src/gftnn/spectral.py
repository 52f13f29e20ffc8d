"""Factor eigenbases and the graph Fourier transform of a product graph.

Signals live on the Cartesian product of a temporal and a spatial graph.
Because the product Laplacian is the Kronecker sum of the factor
Laplacians, its eigenbasis is the Kronecker product of the factor bases,
so the transform is computed factor-wise: F_hat = U1^T F U2. The factor
Laplacians are real symmetric, hence the bases are real and orthonormal
and no conjugation is needed anywhere.
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


def _rotation(app, aqq, apq, sqrt):
    # Cosine and sine of the rotation that zeroes a[p, q] (Golub & Van Loan,
    # Matrix Computations, section 8.5), taking the smaller of the two
    # angles. Written once for Python floats (sqrt=math.sqrt) and for
    # arrays of pivots (sqrt=np.sqrt): the sign flip multiplies by exactly
    # -1.0 or 1.0, so both give the same bits.
    theta = (aqq - app) / (2.0 * apq)
    t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
    t = t * (1.0 - 2.0 * (theta < 0.0))
    c = 1.0 / sqrt(t * t + 1.0)
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


def _rotate_stack(a, v, p, q, c, s):
    # _rotate for every matrix of a (m, n, n) stack, one angle each.
    cc = c[:, None]
    ss = s[:, None]
    col_p = cc * a[:, :, p] - ss * a[:, :, q]
    col_q = ss * a[:, :, p] + cc * a[:, :, q]
    a_pp = c * col_p[:, p] - s * col_p[:, q]
    a_qq = s * col_q[:, p] + c * col_q[:, q]
    a[:, :, p] = col_p
    a[:, :, q] = col_q
    a[:, p, :] = col_p
    a[:, q, :] = col_q
    a[:, p, p] = a_pp
    a[:, q, q] = a_qq
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    v[:, :, p], v[:, :, q] = (cc * v[:, :, p] - ss * v[:, :, q],
                              ss * v[:, :, p] + cc * v[:, :, q])


def _sweep(a, v, pairs, skip):
    """One cyclic sweep over a single (n, n) matrix."""
    item = a.item  # Python floats: scalar arithmetic is faster on them
    for p, q in pairs:
        apq = item(p, q)
        if abs(apq) <= skip:
            continue
        c, s = _rotation(item(p, p), item(q, q), apq, math.sqrt)
        _rotate(a, v, p, q, c, s)


def _sweep_stack(a, v, pairs, skip):
    """One cyclic sweep over a (m, n, n) stack. A matrix whose pivot is
    below its own skip bound is left untouched at that pair."""
    for p, q in pairs:
        apq = a[:, p, q]
        hit = ~(np.abs(apq) <= skip)
        if hit.all():
            c, s = _rotation(a[:, p, p], a[:, q, q], apq, np.sqrt)
            _rotate_stack(a, v, p, q, c, s)
        elif hit.any():
            idx = np.flatnonzero(hit)
            sub_a = a[idx]
            sub_v = v[idx]
            c, s = _rotation(sub_a[:, p, p], sub_a[:, q, q], apq[idx], np.sqrt)
            _rotate_stack(sub_a, sub_v, p, q, c, s)
            a[idx] = sub_a
            v[idx] = sub_v


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


def _canonicalise(w, v):
    """Ascending eigenvalues, sign rule and degenerate order for a (B, n)
    stack of eigenvalues and its (B, n, n) eigenvectors."""
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    lead = np.argmax(np.abs(v), axis=1)
    flip = np.take_along_axis(v, lead[:, None, :], axis=1) < 0.0
    v = np.where(flip, -v, v)
    tied = ~(np.diff(w, axis=1) > DEGENERACY_TOL)
    for b in np.flatnonzero(tied.any(axis=1)):
        _order_degenerate_groups(w[b], v[b])
    return w, v


def symmetric_eigh(matrix, tol=JACOBI_TOL, max_sweeps=JACOBI_SWEEP_LIMIT):
    """Eigendecomposition of real symmetric matrices by cyclic Jacobi sweeps.

    ``matrix`` is one (n, n) matrix or a (B, n, n) stack. Returns
    (eigenvalues, eigenvectors): (n,) and (n, n) for one matrix, (B, n)
    and (B, n, n) for a stack, with eigenvalues ascending up to
    ``DEGENERACY_TOL`` and eigenvectors as columns. Each matrix of a stack gets its own convergence threshold
    and skip rule and is frozen once it converges, so its result is bit
    for bit the one-matrix solve. Convergence is declared once every
    off-diagonal entry falls below tol relative to the Frobenius norm of
    the input.

    The result is bit-reproducible on one machine: every eigenvector is
    flipped so its largest-magnitude entry is positive (ties broken by
    lowest index), and columns inside a degenerate eigenvalue group are
    ordered lexicographically. Each eigenvalue moves with its column, so
    inside a group the eigenvalues may step down by up to
    ``DEGENERACY_TOL`` (the 9-node star steps down by about 1e-15). This
    sign rule is ill-posed when the two
    largest-magnitude entries tie, as in every odd mode of a path graph,
    so a perturbation of the input at rounding level can flip such an
    eigenvector.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    stack = a[None] if a.ndim == 2 else a
    n = stack.shape[-1]
    if n == 1:
        w, v = stack[:, 0].copy(), np.ones(stack.shape)
    else:
        if np.max(np.abs(stack - stack.transpose(0, 2, 1)), initial=0.0) > 1e-9:
            raise ValueError("matrix is not symmetric")
        stack = (stack + stack.transpose(0, 2, 1)) / 2.0
        w, v = _jacobi(stack, tol, max_sweeps)
    if a.ndim == 2:
        return w[0], v[0]
    return w, v


def _jacobi(a, tol, max_sweeps):
    """Diagonalise a symmetric (B, n, n) stack in place; returns the
    canonical eigenvalues and eigenvectors."""
    b, n = a.shape[:2]
    v = np.zeros_like(a)
    v[:, np.arange(n), np.arange(n)] = 1.0
    # One norm call per matrix: a batched norm sums in another order, and the
    # threshold must have the one-matrix solve's bits.
    thresh = np.array([tol * max(1.0, float(np.linalg.norm(m))) for m in a])
    skip = 0.1 * thresh
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    active = np.arange(b)
    for _ in range(max_sweeps):
        off = np.max(np.abs(np.triu(a[active], k=1)), axis=(1, 2), initial=0.0)
        active = active[~(off <= thresh[active])]
        if active.size == 1:
            i = active[0]
            _sweep(a[i], v[i], pairs, float(skip[i]))
        elif active.size:
            sub_a = a[active]
            sub_v = v[active]
            _sweep_stack(sub_a, sub_v, pairs, skip[active])
            a[active] = sub_a
            v[active] = sub_v
        else:
            break
    else:
        raise RuntimeError(
            f"jacobi rotations did not converge within {max_sweeps} sweeps"
        )
    return _canonicalise(np.diagonal(a, axis1=1, axis2=2).copy(), v)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues and orthonormal eigenvector columns.

    Eigenvalues ascend, except that inside a group of eigenvalues closer
    than ``DEGENERACY_TOL`` they may step down by up to that tolerance:
    such a group is ordered by its eigenvectors (see ``symmetric_eigh``).
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
