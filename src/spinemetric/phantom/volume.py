"""Synthetic labeled spine volumes.

Volumes are float32 1 mm isotropic grids, axes (z, y, x) = (cranio-caudal,
anterior-posterior, left-right). Vertebral bodies are stacked boxes along a
bowed centerline, each painted with one mask over its own z-window; a body
may carry a grade deformation (anterior wedge in y). Centroids are recorded
per vertebra in voxel coordinates, strictly increasing in z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mining import GradeLabel, RegionLabel
from .patches import BODY_INTENSITY, REGION_DIMS, PhantomConfig, _column_heights, _height_loss

# T1..L5, cranio-caudal. Requests for n vertebrae take the last n names.
SPINE_NAMES = tuple(f"T{i}" for i in range(1, 13)) + tuple(f"L{i}" for i in range(1, 6))
# Largest |curvature|: a bow of 40 mm off the axis. The volume widens by 40
# voxels in y per unit, so a 17-vertebra volume stays under 43 MB.
MAX_CURVATURE = 2.0


def region_of_vertebra(name: str) -> RegionLabel:
    """The region group of a vertebra named in ``SPINE_NAMES``."""
    if name not in SPINE_NAMES:
        raise KeyError(name)
    level = int(name[1:])
    if name[0] == "L":
        return RegionLabel.L1_L4 if level <= 4 else RegionLabel.L5
    return RegionLabel.T1_T5 if level <= 5 else RegionLabel.T6_T9 if level <= 9 else RegionLabel.T10_T12


@dataclass
class SpineVolume:
    voxels: np.ndarray  # (Z, Y, X) float32, 1 mm isotropic
    centroids: list  # [(name, (z, y, x))], z strictly increasing
    grades: list  # GradeLabel per vertebra

    def mid_sagittal(self) -> np.ndarray:
        return self.voxels[:, :, self.voxels.shape[2] // 2]


def _paint_body(voxels, zc, yc, x_mid, width, depth, height, loss, intensity) -> None:
    """Paint one wedge body with one mask over its z-window: column j of
    ``depth`` covers the voxel rows from ``z_bottom - heights[j]`` down to the
    endplate ``z_bottom = zc + height / 2``. The columns must lie in the volume."""
    heights = _column_heights(np.arange(depth), depth, float(height), loss, True)
    z_bottom = zc + height / 2.0
    z0 = max(int(np.ceil(z_bottom - height)), 0)  # no column reaches above; never wrap below 0
    rows = np.arange(z0, int(np.floor(z_bottom)) + 1)
    y0, x0 = int(round(yc - depth / 2.0)), x_mid - width // 2
    body = voxels[z0 : z0 + rows.size, y0 : y0 + depth, x0 : x0 + width]
    body[rows[:, None] >= z_bottom - heights] = intensity


def generate_spine_volume(
    config: PhantomConfig,
    n_vertebrae: int,
    curvature: float,
    grades,
    seed: int,
) -> SpineVolume:
    """Stack ``n_vertebrae`` bodies along a z-axis centerline bowed in y.

    ``curvature`` scales a sinusoidal anterior-posterior bow (0 = straight
    spine on integer-aligned voxel centers); ``|curvature|`` may be at most
    ``MAX_CURVATURE``. Per-vertebra shape draws come from independent (seed,
    index) streams, so changing one vertebra's grade perturbs only that
    vertebra's voxels. The bodies take the patch module's constants; no
    field of ``config`` is read yet, though it is passed on to
    ``_height_loss`` so that a loss setting would reach the volume too.
    """
    if not (1 <= n_vertebrae <= len(SPINE_NAMES)):
        raise ValueError(f"n_vertebrae must lie in [1, {len(SPINE_NAMES)}]")
    if not abs(curvature) <= MAX_CURVATURE:
        raise ValueError(f"|curvature| must be at most MAX_CURVATURE = {MAX_CURVATURE:g}, got {curvature!r}")
    grades = [GradeLabel(g) for g in grades]
    if len(grades) != n_vertebrae:
        raise ValueError("grades length must equal n_vertebrae")

    names = SPINE_NAMES[len(SPINE_NAMES) - n_vertebrae :]
    layout_rng = np.random.default_rng([seed, 10_000])

    bodies = []
    for k, (name, grade) in enumerate(zip(names, grades)):
        rng = np.random.default_rng([seed, k])
        region = region_of_vertebra(name)
        (w_lo, w_hi), (h_lo, h_hi) = REGION_DIMS[region]
        width = int(rng.integers(int(w_lo), int(w_hi) + 1))
        depth = int(rng.integers(int(w_lo), int(w_hi) + 1))
        height = int(rng.integers(int(h_lo), int(h_hi) + 1))
        loss = _height_loss(config, grade, rng.random())
        intensity = rng.uniform(*BODY_INTENSITY)
        bodies.append((name, grade, width, depth, height, loss, intensity))

    gaps = [int(layout_rng.integers(4, 9)) for _ in range(n_vertebrae - 1)]

    margin = 24
    z_positions = [margin + bodies[0][4] // 2]
    for k, gap in enumerate(gaps):
        z_positions.append(z_positions[-1] + bodies[k][4] // 2 + gap + bodies[k + 1][4] // 2)

    max_w = max(b[2] for b in bodies)
    max_d = max(b[3] for b in bodies)
    bow_amp = 20.0 * curvature
    z_dim = z_positions[-1] + bodies[-1][4] // 2 + margin
    y_dim = int(2 * ((max_d + 2 * abs(bow_amp)) // 2 + margin) + 1)  # odd: centered spine
    x_dim = int(2 * (max_w // 2 + margin) + 1)
    y_mid, x_mid = y_dim // 2, x_dim // 2

    z0, z1 = z_positions[0], z_positions[-1]

    def bow(zc: float) -> float:
        if curvature == 0.0 or z1 == z0:
            return 0.0
        return bow_amp * np.sin(np.pi * (zc - z0) / (z1 - z0))

    voxels = np.zeros((z_dim, y_dim, x_dim), dtype=np.float32)
    centroids = []
    for k, (name, grade, width, depth, height, loss, intensity) in enumerate(bodies):
        zc = z_positions[k]
        yc = y_mid + bow(zc)
        _paint_body(voxels, zc, yc, x_mid, width, depth, height, loss, intensity)
        centroids.append((name, (float(zc), float(yc), float(x_mid))))

    return SpineVolume(voxels=voxels, centroids=centroids, grades=grades)
