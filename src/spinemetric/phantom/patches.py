"""Procedural generation of grade-labeled vertebra patches.

A patch is a sagittal-style silhouette of one vertebral body (plus partial
neighbors above and below for context) rendered into a 112x112 grid at
1 px = 1 mm, together with a Gaussian centroid heatmap channel. Fracture
grades apply an anterior-wedge or biconcave height reduction whose drawn
fraction is recorded in the sample's generator parameters, so silhouette
measurements can be checked against ground truth.

Rendering is anti-aliased per column (pixel value = covered fraction of the
pixel), which keeps column-height measurements accurate to well under a
pixel before noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from ..atomic import canonical_json
from ..mining import GRADES, REGIONS, GradeLabel, RegionLabel

PATCH_SIZE = 112
PATCH_CENTER = PATCH_SIZE // 2

# (width range, height range) of the vertebral body in mm, per region.
DEFAULT_REGION_DIMS = {
    RegionLabel.T1_T5: ((22.0, 26.0), (20.0, 24.0)),
    RegionLabel.T6_T9: ((26.0, 30.0), (24.0, 28.0)),
    RegionLabel.T10_T12: ((30.0, 35.0), (28.0, 32.0)),
    RegionLabel.L1_L4: ((34.0, 40.0), (32.0, 36.0)),
    RegionLabel.L5: ((36.0, 42.0), (34.0, 40.0)),
}

# Paper-scale class sizes: healthy / moderate / severe.
PAPER_GRADE_TOTALS = {GradeLabel.G0: 1133, GradeLabel.G2: 104, GradeLabel.G3: 46}


@dataclass(frozen=True)
class PhantomConfig:
    region_dims: dict = field(default_factory=lambda: dict(DEFAULT_REGION_DIMS))
    g2_height_loss: tuple = (0.26, 0.40)
    g3_height_loss: tuple = (0.41, 0.70)
    wedge_probability: float = 0.5
    body_intensity: tuple = (0.65, 0.85)
    noise_amplitude: float = 0.02
    blur_sigma: float = 0.7
    neighbor_context: bool = True
    neighbor_gap: tuple = (4.0, 8.0)
    heatmap_sigma: float = 8.0
    jitter_px: int = 0
    seed: int = 0

    def __post_init__(self):
        for lo, hi in (self.g2_height_loss, self.g3_height_loss):
            if not (0.0 < lo < hi < 1.0):
                raise ValueError("height-loss ranges must be increasing within (0, 1)")
        if not self.g3_height_loss[0] > self.g2_height_loss[1]:
            raise ValueError("severe height-loss range must lie strictly above moderate")
        if not (0.0 <= self.wedge_probability <= 1.0):
            raise ValueError("wedge_probability must lie in [0, 1]")
        if self.jitter_px < 0:
            raise ValueError("jitter_px must be nonnegative")

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(asdict(self)).encode()).hexdigest()


@dataclass
class PatchSample:
    """One 2-channel training patch with its labels and generator params."""

    image: np.ndarray
    heatmap: np.ndarray
    grade: GradeLabel
    region: RegionLabel
    id: int
    params: dict = field(default_factory=dict)

    def to_tensor(self) -> np.ndarray:
        """Stack (image, heatmap) into the (2, H, W) network input."""
        return np.stack([self.image, self.heatmap]).astype(np.float32, copy=False)


def _column_heights(width_px: int, height: float, mode: str, loss: float) -> np.ndarray:
    """Per-column body height; column 0 is the anterior edge."""
    if width_px <= 1:
        return np.full(max(width_px, 1), height * (1.0 - loss))
    t = np.linspace(0.0, 1.0, width_px)
    if mode == "wedge":
        factor = 1.0 - loss * (1.0 - t)
    elif mode == "biconcave":
        # quartic waist: full loss at the center, wide collapse region
        factor = 1.0 - loss * (1.0 - (2.0 * t - 1.0) ** 4)
    else:
        raise ValueError(f"unknown deformation mode {mode!r}")
    return height * factor


def _render_body(image, cy, cx, width, height, mode, loss, intensity):
    """Anti-aliased silhouette paint: pixel value = covered row fraction.

    One ``(rows, columns)`` coverage array covers the body's columns that
    fall on the patch."""
    w_px = int(round(width))
    heights = _column_heights(w_px, height, mode, loss)
    col0 = int(round(cx - w_px / 2.0))
    cols = np.arange(col0, col0 + len(heights))
    on_patch = (cols >= 0) & (cols < image.shape[1])
    cols, heights = cols[on_patch], heights[on_patch]
    if mode == "wedge":
        bot = cy + height / 2.0
        top = bot - heights  # superior endplate collapses
    else:
        top = cy - heights / 2.0
        bot = cy + heights / 2.0
    rows = np.arange(image.shape[0], dtype=np.float64)[:, None]
    cover = np.clip(np.minimum(bot, rows + 1.0) - np.maximum(top, rows), 0.0, 1.0)
    image[:, cols] = np.maximum(image[:, cols], intensity * cover)


def _height_loss(config, grade, u: float) -> float:
    """Height-loss fraction of a body of ``grade`` from a uniform draw ``u``;
    healthy bodies keep zero loss."""
    if grade == GradeLabel.G0:
        return 0.0
    lo, hi = config.g2_height_loss if grade == GradeLabel.G2 else config.g3_height_loss
    return lo + u * (hi - lo)


def centroid_heatmap(row, col, sigma: float, size: int = PATCH_SIZE) -> np.ndarray:
    """float32 (size, size) Gaussian heatmap channel peaking at 1 at (row, col)."""
    axis = np.arange(size, dtype=np.float64)
    d2 = (axis[:, None] - row) ** 2 + (axis[None, :] - col) ** 2
    return np.exp(-d2 / (2.0 * sigma**2)).astype(np.float32)


def _draw_body_params(rng, config, region, grade):
    (w_lo, w_hi), (h_lo, h_hi) = config.region_dims[RegionLabel(region)]
    width = rng.uniform(w_lo, w_hi)
    height = rng.uniform(h_lo, h_hi)
    intensity = rng.uniform(*config.body_intensity)
    mode = "wedge" if rng.random() < config.wedge_probability else "biconcave"
    # Draw the loss fraction unconditionally so consuming the stream does
    # not depend on the grade.
    loss = _height_loss(config, grade, rng.random())
    return width, height, intensity, mode, loss


def generate_patch(
    config: PhantomConfig, grade: GradeLabel, region: RegionLabel, id: int
) -> PatchSample:
    """Render one deterministic patch for (config.seed, id)."""
    grade = GradeLabel(grade)
    region = RegionLabel(region)
    rng = np.random.default_rng([config.seed, id])

    width, height, intensity, mode, loss = _draw_body_params(rng, config, region, grade)
    jr = jc = 0
    if config.jitter_px > 0:
        jr = int(rng.integers(-config.jitter_px, config.jitter_px + 1))
        jc = int(rng.integers(-config.jitter_px, config.jitter_px + 1))
    cy, cx = PATCH_CENTER + jr, PATCH_CENTER + jc

    image = np.zeros((PATCH_SIZE, PATCH_SIZE), dtype=np.float64)
    _render_body(image, cy, cx, width, height, mode, loss, intensity)

    if config.neighbor_context:
        # Healthy neighbors stacked outward until they leave the patch.
        for direction in (-1, +1):
            edge = height / 2.0
            while True:
                n_w, n_h, n_int, _, _ = _draw_body_params(rng, config, region, GradeLabel.G0)
                gap = rng.uniform(*config.neighbor_gap)
                n_cy = cy + direction * (edge + gap + n_h / 2.0)
                if n_cy + n_h / 2.0 < 0 or n_cy - n_h / 2.0 > PATCH_SIZE:
                    break
                _render_body(image, n_cy, cx, n_w, n_h, "wedge", 0.0, n_int)
                edge += gap + n_h

    if config.blur_sigma > 0:
        image = gaussian_filter(image, sigma=config.blur_sigma)
    if config.noise_amplitude > 0:
        image = image + rng.normal(0.0, config.noise_amplitude, size=image.shape)
    image = np.clip(image, 0.0, 1.0).astype(np.float32)

    heatmap = centroid_heatmap(cy, cx, config.heatmap_sigma)

    params = {
        "width": round(width, 6),
        "height": round(height, 6),
        "intensity": round(intensity, 6),
        "mode": mode,
        "height_loss": round(loss, 6),
        "jitter": [jr, jc],
    }
    return PatchSample(image=image, heatmap=heatmap, grade=grade, region=region, id=id, params=params)


def generate_dataset(config: PhantomConfig, counts: dict, seed: int):
    """Generate the requested per-(grade, region) counts.

    Returns (samples, manifest). The manifest records the seed, a config
    digest, and per-sample labels and generator parameters; ids are assigned
    in a fixed (grade, region) order so the dataset is fully reproducible.
    Each sample's ``image`` and ``heatmap`` are views of its row of one
    float32 stack, as in a loaded dataset.
    """
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("total sample count must be positive")
    cfg = replace(config, seed=seed)

    labels = [(g, r) for g in GRADES for r in REGIONS for _ in range(int(counts.get((g, r), 0)))]
    stack = np.empty((len(labels), 2, PATCH_SIZE, PATCH_SIZE), dtype=np.float32)
    samples = []
    for sample_id, ((grade, region), row) in enumerate(zip(labels, stack)):
        sample = generate_patch(cfg, grade, region, sample_id)
        row[0], row[1] = sample.image, sample.heatmap
        samples.append(replace(sample, image=row[0], heatmap=row[1]))

    manifest = {
        "seed": seed,
        "config_digest": cfg.digest(),
        "samples": [
            {
                "id": s.id,
                "grade": int(s.grade),
                "region": int(s.region),
                "file": None,
                "params": s.params,
            }
            for s in samples
        ],
    }
    return samples, manifest


def counts_at_ratio(grade_totals: dict, scale: float = 1.0) -> dict:
    """Split scaled per-grade totals across the five regions.

    Grade totals are scaled with largest-remainder rounding so the grand
    total matches round(sum * scale); each grade's count is then spread as
    evenly as possible over the regions.
    """
    grades = list(GRADES)
    quotas = [grade_totals[g] * scale for g in grades]
    floors = [int(np.floor(q)) for q in quotas]
    target = int(np.floor(sum(quotas) + 0.5))
    remainders = sorted(
        range(len(grades)), key=lambda i: (quotas[i] - floors[i], -i), reverse=True
    )
    k = 0
    while sum(floors) < target:
        floors[remainders[k % len(grades)]] += 1
        k += 1

    counts = {}
    for g, n in zip(grades, floors):
        base, extra = divmod(n, len(REGIONS))
        for j, region in enumerate(REGIONS):
            counts[(g, region)] = base + (1 if j < extra else 0)
    return counts
