"""Bloch-sphere view of single-qubit states and channels.

A single-qubit density matrix is parametrized as
rho = (1/2) [[1 + Z, X - iY], [X + iY, 1 - Z]], and every channel acts on
the coordinate vector affinely: v' = M v + c.  This module extracts (M, c)
by probing, factors M into rotations and a diagonal scale, and samples the
image ellipsoid of the unit sphere as a point cloud for external plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import I2, PAULIS, SPECTRAL_TOL, DensityMatrix, FormatError
from .kraus import KrausChannel, _check_trace_preserving, _transfer_matrix

# Rows formatted per block by `points_to_csv`, bounding its transient lists.
CSV_BLOCK_ROWS = 4096
# The affine probes I/2 and the +x, +y, +z axis states as row-major vec
# columns: T @ _PROBES is a stack of matrix-vector products, which round as
# `apply_channel`'s one product per probe does.
_PROBES = np.stack([I2 / 2.0] + [(I2 + sigma) / 2.0 for sigma in PAULIS]).reshape(4, 4, 1)


def _bloch_coords(m: np.ndarray) -> np.ndarray:
    """(X, Y, Z) read off the entries of a 2x2 matrix."""
    return np.array(
        [2.0 * m[1, 0].real, 2.0 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real],
        dtype=float,
    )


def bloch_from_dm(rho: DensityMatrix) -> np.ndarray:
    """Coordinates (X, Y, Z) of a single-qubit density matrix."""
    if rho.n_qubits != 1:
        raise FormatError("Bloch coordinates are defined for single-qubit states")
    return _bloch_coords(rho.matrix)


def dm_from_bloch(vector) -> DensityMatrix:
    """Density matrix with the given Bloch coordinates (norm at most 1)."""
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.size != 3:
        raise FormatError(f"Bloch vector needs 3 components, got {v.size}")
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + SPECTRAL_TOL:
        raise ValueError(f"Bloch vector lies outside the unit ball: |v| = {norm!r}")
    m = (I2 + v[0] * PAULIS[0] + v[1] * PAULIS[1] + v[2] * PAULIS[2]) / 2.0
    return DensityMatrix(m, psd_tol=2 * SPECTRAL_TOL)


@dataclass(frozen=True, eq=False)
class BlochAffineMap:
    """Affine action v -> M v + c of a channel on Bloch coordinates."""

    m: np.ndarray
    c: np.ndarray

    def apply(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=float).reshape(3)
        return self.m @ v + self.c


def affine_map_of_channel(channel: KrausChannel) -> BlochAffineMap:
    """Extract (M, c) by probing with I/2 and the three axis states (1 + sigma_j)/2.

    The translation is the image of the maximally mixed state; column j of M
    is the image of the +j axis state minus the translation.  For any channel
    that acts affinely on the coordinates this extraction is exact.  The
    channel is checked once; the probes are exact density matrices and pass
    unvalidated through one product with the channel's transfer matrix, the
    kernel `apply_channel` steps with.
    """
    if channel.dim != 2:
        raise FormatError("affine extraction is defined for single-qubit channels")
    _check_trace_preserving(channel, SPECTRAL_TOL)
    images = (_transfer_matrix(channel) @ _PROBES).reshape(4, 2, 2)
    center = _bloch_coords(images[0])
    columns = [_bloch_coords(image) - center for image in images[1:]]
    return BlochAffineMap(np.column_stack(columns), center)


@dataclass(frozen=True, eq=False)
class MapDecomposition:
    """Factorization M = O1 D O2^T with O1, O2 orthogonal and D diagonal."""

    o1: np.ndarray
    d: np.ndarray
    o2: np.ndarray


def decompose_map(affine: BlochAffineMap) -> MapDecomposition:
    """Factor M as O1 D O2^T (rotation, diagonal scale, rotation).

    The diagonal of D is sorted descending by absolute value.  Both O1 and
    O2 are made proper rotations (det +1) when possible by flipping the sign
    of their last column and absorbing the flip into D, so D may carry one
    negative entry when M has negative determinant.
    """
    u, s, vt = np.linalg.svd(affine.m)
    o1 = u.copy()
    o2 = vt.T.copy()
    d = np.diag(s.copy())
    if np.linalg.det(o1) < 0:
        o1[:, 2] *= -1.0
        d[2, 2] *= -1.0
    if np.linalg.det(o2) < 0:
        o2[:, 2] *= -1.0
        d[2, 2] *= -1.0
    return MapDecomposition(o1, d, o2)


def ellipsoid_samples(affine: BlochAffineMap, n_lat: int, n_lon: int) -> np.ndarray:
    """Image of a latitude/longitude grid on the unit sphere under the map.

    The grid has n_lat latitudes including both poles (colatitude i*pi/(n_lat-1))
    and n_lon equally spaced longitudes; points are emitted row-major with
    latitude as the outer loop.  Duplicate pole points are kept so the output
    shape is always (n_lat * n_lon, 3).
    """
    if n_lat < 2:
        raise FormatError(f"n_lat must be at least 2 to include both poles, got {n_lat}")
    if n_lon < 2:
        raise FormatError(f"n_lon must be at least 2, got {n_lon}")
    colat = [math.pi * i / (n_lat - 1) for i in range(n_lat)]
    lon = [2.0 * math.pi * j / n_lon for j in range(n_lon)]
    sin_c = np.array([math.sin(a) for a in colat])[:, None]
    v = np.empty((n_lat, n_lon, 3), dtype=float)
    v[:, :, 0] = sin_c * np.array([math.cos(a) for a in lon])
    v[:, :, 1] = sin_c * np.array([math.sin(a) for a in lon])
    v[:, :, 2] = np.array([math.cos(a) for a in colat])[:, None]
    # One M @ v per point broadcast over the grid: the same matrix-vector
    # product as `BlochAffineMap.apply`, so every point keeps its last bit
    # (a single (N, 3) @ (3, 3) product may round differently).
    return (affine.m @ v.reshape(-1, 3, 1))[:, :, 0] + affine.c


def points_to_csv(points) -> str:
    """Render an (N, 3) point array as CSV with header x,y,z.

    Coordinates are written with 17 significant digits, enough to round-trip
    IEEE doubles, so identical inputs produce byte-identical output.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise FormatError(f"expected an (N, 3) array, got shape {pts.shape}")
    blocks = ["x,y,z\n"]
    for start in range(0, len(pts), CSV_BLOCK_ROWS):
        block = pts[start:start + CSV_BLOCK_ROWS]
        # One `%` a block; "%.17g" % x writes the same bytes as format(x, ".17g").
        blocks.append(("%.17g,%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist()))
    return "".join(blocks)
