"""Curved planar reformation along the spine centerline.

A natural cubic spline is fit through the vertebral centroids and
reparameterized by arc length via a dense polyline. The reformation samples
the surface swept by the spline and the anterior-posterior axis at 1x1 mm:
row r lies at arc-length position r (the spline is extended straight along
its end tangents so the grid covers the full cranio-caudal extent of the
volume), and column offsets run along y. On a straight spine this reduces
exactly to the mid-sagittal slice. Voxels and patch grids are sampled as
given, straight into float32 (``map_coordinates`` interpolates in double).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.ndimage import map_coordinates

from .patches import centroid_heatmap
from .volume import SpineVolume

_DENSE_PER_SEGMENT = 512


@dataclass
class Reformation:
    """Resampled 2D grid plus centroid coordinates in grid space."""

    image: np.ndarray  # (rows, cols) float32
    centroids_rc: list  # [(row, col)] per vertebra, floats
    out_of_bounds: np.ndarray  # bool mask of zero-filled samples
    labels: list  # vertebra names, aligned with centroids_rc


def reformat_curved(volume: SpineVolume) -> Reformation:
    """Resample the volume along the centroid spline at 1x1 mm."""
    if len(volume.centroids) < 3:
        raise ValueError("curved reformation needs at least 3 centroids")
    names = [name for name, _ in volume.centroids]
    pts = np.array([pos for _, pos in volume.centroids], dtype=np.float64)
    if not np.all(np.diff(pts[:, 0]) > 0):
        raise ValueError("centroids must be strictly increasing in z")

    # Chord-length parameterization, then arc length from a dense polyline.
    chord = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    t_knots = np.concatenate([[0.0], np.cumsum(chord)])
    spline = CubicSpline(t_knots, pts, axis=0, bc_type="natural")

    t_dense = np.linspace(0.0, t_knots[-1], _DENSE_PER_SEGMENT * (len(pts) - 1) + 1)
    seg = np.linalg.norm(np.diff(spline(t_dense), axis=0), axis=1)
    s_dense = np.concatenate([[0.0], np.cumsum(seg)])
    total_arc = s_dense[-1]
    centroid_arcs = np.interp(t_knots, t_dense, s_dense)

    # Straight extensions along the end tangents, long enough to cover the
    # volume's z extent (clamped to the volume when the tangent is shallow).
    z_dim, y_dim, x_dim = volume.voxels.shape
    tan0 = spline(0.0, 1)
    tan1 = spline(t_knots[-1], 1)
    tan0 = tan0 / np.linalg.norm(tan0)
    tan1 = tan1 / np.linalg.norm(tan1)
    ext0 = int(np.floor(pts[0, 0] / tan0[0] + 1e-9)) if tan0[0] > 1e-9 else 0
    ext1 = int(np.floor((z_dim - 1 - pts[-1, 0]) / tan1[0] + 1e-9)) if tan1[0] > 1e-9 else 0

    n_rows = ext0 + int(np.floor(total_arc + 1e-9)) + ext1 + 1
    s_rows = np.arange(n_rows, dtype=np.float64) - ext0

    # Spline position per row: invert s(t) on the dense table; rows beyond
    # the knot range follow the straight extensions.
    centers = np.empty((n_rows, 3), dtype=np.float64)
    inside = (s_rows >= 0.0) & (s_rows <= total_arc)
    t_of_s = np.interp(s_rows[inside], s_dense, t_dense)
    centers[inside] = spline(t_of_s)
    before = s_rows < 0.0
    centers[before] = pts[0] + np.outer(s_rows[before], tan0)
    after = s_rows > total_arc
    centers[after] = pts[-1] + np.outer(s_rows[after] - total_arc, tan1)

    # Sweep the anterior-posterior axis: column c samples offset c - y_mid.
    y_mid = y_dim // 2
    offsets = np.arange(y_dim, dtype=np.float64) - y_mid
    zz = np.repeat(centers[:, 0], y_dim)
    yy = (centers[:, 1][:, None] + offsets[None, :]).ravel()
    xx = np.repeat(centers[:, 2], y_dim)

    coords = np.stack([zz, yy, xx])
    image = map_coordinates(
        volume.voxels, coords, output=np.float32, order=1, mode="constant", cval=0.0
    ).reshape(n_rows, y_dim)
    oob = (
        (zz < 0) | (zz > z_dim - 1) | (yy < 0) | (yy > y_dim - 1) | (xx < 0) | (xx > x_dim - 1)
    ).reshape(n_rows, y_dim)

    centroids_rc = [(float(a + ext0), float(y_mid)) for a in centroid_arcs]
    return Reformation(image=image, centroids_rc=centroids_rc, out_of_bounds=oob, labels=names)


def extract_patch(
    reformation: np.ndarray,
    centroid_rc,
    sigma: float = 8.0,
    jitter_px: int = 0,
    jitter_seed: int = 0,
    patch_size: int = 112,
):
    """Crop a patch around a centroid and build its Gaussian heatmap channel.

    The crop is centered on the (optionally jittered) centroid with bilinear
    sampling and zero padding outside the grid. The heatmap peaks (value 1)
    at the centroid's in-patch position.
    """
    r0, c0 = float(centroid_rc[0]), float(centroid_rc[1])
    jr = jc = 0
    if jitter_px > 0:
        rng = np.random.default_rng([jitter_seed])
        jr = int(rng.integers(-jitter_px, jitter_px + 1))
        jc = int(rng.integers(-jitter_px, jitter_px + 1))

    half = patch_size // 2
    rows = r0 + jr - half + np.arange(patch_size, dtype=np.float64)
    cols = c0 + jc - half + np.arange(patch_size, dtype=np.float64)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    coords = np.stack([rr.ravel(), cc.ravel()])
    image = map_coordinates(reformation, coords, output=np.float32, order=1, mode="constant", cval=0.0)

    # The heatmap peaks at the centroid's position inside the patch.
    return image.reshape(rr.shape), centroid_heatmap(half - jr, half - jc, sigma, patch_size)
