"""Procedural generation of grade-labeled vertebra patches.

A patch is a sagittal-style silhouette of one vertebral body (plus partial
neighbors above and below for context) rendered into a 112x112 grid at
1 px = 1 mm, together with a Gaussian centroid heatmap channel. Fracture
grades apply an anterior-wedge or biconcave height reduction whose drawn
fraction is recorded in the sample's generator parameters, so silhouette
measurements can be checked against ground truth.

The phantom's geometry is fixed by module constants: the body sizes per
region, the height-loss bands of grades 2 and 3, the wedge share, the body
intensity, the gap between neighbors and the heatmap width.
``PhantomConfig`` holds only what a dataset may vary: its seed, the centre
jitter, the noise amplitude and the blur.

Rendering is anti-aliased per column (pixel value = covered fraction of the
pixel), which keeps column-height measurements accurate to well under a
pixel before noise.

Every sample draws its parameters and then its noise from its own
``default_rng([seed, id])`` stream, so a sample's bits depend on nothing
but ``(config, grade, region, id)``. ``generate_dataset`` and
``generate_patch`` (a batch of one) share one renderer that works
``CHUNK`` samples at a time: one coverage computation paints every body of
the chunk, with column heights vectorised across bodies and each pixel the
maximum over its sample's bodies; one ``gaussian_filter`` blurs the band of
columns the bodies cover, widened by the kernel radius, outside which the
blurred image is exactly 0; then one noise add, clip and float32 cast. The
heatmap is computed once per distinct centre. Each chunk renders into a
float32 block its caller gives: ``generate_dataset`` gives row slices of one
stack, and ``gen`` (``formats.stream_dataset``) two chunk buffers in turn.
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
# Samples rendered together; a chunk's float64 buffers stay near 3 MB.
CHUNK = 32

# (width range, height range) of the vertebral body in mm, per region.
REGION_DIMS = {
    RegionLabel.T1_T5: ((22.0, 26.0), (20.0, 24.0)),
    RegionLabel.T6_T9: ((26.0, 30.0), (24.0, 28.0)),
    RegionLabel.T10_T12: ((30.0, 35.0), (28.0, 32.0)),
    RegionLabel.L1_L4: ((34.0, 40.0), (32.0, 36.0)),
    RegionLabel.L5: ((36.0, 42.0), (34.0, 40.0)),
}
# Height-loss fraction bands of Genant's grades 2 (moderate) and 3 (severe).
G2_HEIGHT_LOSS = (0.26, 0.40)
G3_HEIGHT_LOSS = (0.41, 0.70)
WEDGE_PROBABILITY = 0.5  # share of bodies drawn as anterior wedges, the rest biconcave
BODY_INTENSITY = (0.65, 0.85)
NEIGHBOR_GAP = (4.0, 8.0)  # mm between stacked bodies
HEATMAP_SIGMA = 8.0  # px, width of the centroid heatmap's Gaussian
# Largest jitter that keeps the graded body, up to its largest extent
# across, on the patch: 35 px.
MAX_JITTER_PX = PATCH_CENTER - float(np.max(list(REGION_DIMS.values()))) / 2.0
# The constants above under the PhantomConfig keys they once had, hashed
# with the fields so that every manifest's config digest stays as it was.
_DIGEST_CONSTANTS = dict(
    region_dims=REGION_DIMS, g2_height_loss=G2_HEIGHT_LOSS, g3_height_loss=G3_HEIGHT_LOSS,
    wedge_probability=WEDGE_PROBABILITY, body_intensity=BODY_INTENSITY, neighbor_context=True,
    neighbor_gap=NEIGHBOR_GAP, heatmap_sigma=HEATMAP_SIGMA,
)

# Paper-scale class sizes: healthy / moderate / severe.
PAPER_GRADE_TOTALS = {GradeLabel.G0: 1133, GradeLabel.G2: 104, GradeLabel.G3: 46}


@dataclass(frozen=True)
class PhantomConfig:
    """What a dataset may vary: Gaussian noise and blur sigmas (finite and
    at least 0; 0 turns either off), and a centre jitter of at most
    ``MAX_JITTER_PX`` px; the jitter and the seed are nonnegative ints."""

    noise_amplitude: float = 0.02
    blur_sigma: float = 0.7
    jitter_px: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in ("noise_amplitude", "blur_sigma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0 <= value < np.inf:
                raise ValueError(f"{name} must be a finite number of at least 0, got {value}")
        for name in ("jitter_px", "seed"):
            value = getattr(self, name)
            # A float jitter would render and hash as given; a bool is an int.
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.jitter_px > MAX_JITTER_PX:
            raise ValueError(
                f"jitter_px {self.jitter_px} can move the graded body off the patch (at most {MAX_JITTER_PX:g} px)"
            )

    def digest(self) -> str:
        return hashlib.sha256(canonical_json({**_DIGEST_CONSTANTS, **asdict(self)}).encode()).hexdigest()


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


def _column_heights(i, w, height, loss, wedge):
    """Height of column ``i`` of a body ``w`` columns wide, column 0 being
    the anterior edge; every argument may be an array.

    At ``t = np.linspace(0, 1, w)[i]`` a wedge keeps ``1 - loss * (1 - t)``
    of ``height`` and a biconcave body the quartic waist ``1 - loss * (1 -
    (2t - 1)^4)``: full loss at the centre, a wide collapse region. A body
    one column wide keeps ``height * (1 - loss)``."""
    # np.linspace's i * (1 / (w - 1)), ending at exactly 1.
    t = i * (1.0 / np.maximum(w - 1.0, 1.0))
    t[(i == w - 1.0) & (w > 1.0)] = 1.0
    shape = np.where(wedge | (w <= 1.0), 1.0 - t, 1.0 - (2.0 * t - 1.0) ** 4)
    return height * (1.0 - loss * shape)


def _height_loss(config, grade, u: float) -> float:
    """Height-loss fraction of a body of ``grade`` from a uniform draw ``u``;
    healthy bodies keep zero loss. No field of ``config`` is read yet: it
    is passed so that a loss setting reaches patches and spine volumes
    alike."""
    if grade == GradeLabel.G0:
        return 0.0
    lo, hi = G2_HEIGHT_LOSS if grade == GradeLabel.G2 else G3_HEIGHT_LOSS
    return lo + u * (hi - lo)


def centroid_heatmap(row, col) -> np.ndarray:
    """float32 patch-sized Gaussian heatmap channel of width
    ``HEATMAP_SIGMA`` peaking at 1 at (row, col)."""
    axis = np.arange(PATCH_SIZE, dtype=np.float64)
    d2 = (axis[:, None] - row) ** 2 + (axis[None, :] - col) ** 2
    return np.exp(-d2 / (2.0 * HEATMAP_SIGMA**2)).astype(np.float32)


def _draw_body_params(rng, config, region, grade):
    (w_lo, w_hi), (h_lo, h_hi) = REGION_DIMS[RegionLabel(region)]
    width = rng.uniform(w_lo, w_hi)
    height = rng.uniform(h_lo, h_hi)
    intensity = rng.uniform(*BODY_INTENSITY)
    mode = "wedge" if rng.random() < WEDGE_PROBABILITY else "biconcave"
    # Draw the loss fraction unconditionally so consuming the stream does
    # not depend on the grade.
    loss = _height_loss(config, grade, rng.random())
    return width, height, intensity, mode, loss


def _draw_sample(rng, config, grade, region):
    """Draw one sample's parameters from its stream, in stream order.

    Returns ``(params, (cy, cx), bodies)``: one ``(cy, cx, width, height,
    wedge, loss, intensity)`` tuple per body, the graded body first, then
    its healthy neighbours."""
    width, height, intensity, mode, loss = _draw_body_params(rng, config, region, grade)
    jr = jc = 0
    if config.jitter_px > 0:
        jr = int(rng.integers(-config.jitter_px, config.jitter_px + 1))
        jc = int(rng.integers(-config.jitter_px, config.jitter_px + 1))
    cy, cx = PATCH_CENTER + jr, PATCH_CENTER + jc
    bodies = [(cy, cx, width, height, mode == "wedge", loss, intensity)]

    # Healthy neighbors stacked outward until they leave the patch.
    for direction in (-1, +1):
        edge = height / 2.0
        while True:
            n_w, n_h, n_int, _, _ = _draw_body_params(rng, config, region, GradeLabel.G0)
            gap = rng.uniform(*NEIGHBOR_GAP)
            n_cy = cy + direction * (edge + gap + n_h / 2.0)
            if n_cy + n_h / 2.0 < 0 or n_cy - n_h / 2.0 > PATCH_SIZE:
                break
            bodies.append((n_cy, cx, n_w, n_h, True, 0.0, n_int))
            edge += gap + n_h

    params = {
        "width": round(width, 6),
        "height": round(height, 6),
        "intensity": round(intensity, 6),
        "mode": mode,
        "height_loss": round(loss, 6),
        "jitter": [jr, jc],
    }
    return params, (cy, cx), bodies


def _paint(bodies: np.ndarray, n: int, radius: int) -> tuple[int, np.ndarray]:
    """Paint one chunk's bodies: pixel value = intensity times the covered
    fraction of the pixel's row, maximised over the bodies of a sample.

    ``bodies`` has one row ``(sample, slot, cy, cx, width, height, wedge,
    loss, intensity)`` per body, ``slot`` numbering the bodies of a sample.
    Returns ``(first, band)``: the band is float64 ``(n, columns, rows)``
    over the patch columns from ``first`` that some body covers, widened by
    ``radius`` on each side within the patch; it is 0 off every body."""
    sample, slot, cy, cx, width, height, wedge, loss, intensity = bodies[
        np.argsort(bodies[:, 1], kind="stable")
    ].T
    wedge = wedge.astype(bool)
    w_px = np.rint(width)
    col0 = np.rint(cx - w_px / 2.0)
    first = np.clip(col0, 0, PATCH_SIZE)
    counts = (np.clip(col0 + np.maximum(w_px, 1.0), 0, PATCH_SIZE) - first).astype(np.intp)
    on = counts > 0
    # A chunk with no body on the patch keeps one zero column.
    lo, hi = (int(first[on].min()), int((first + counts)[on].max())) if on.any() else (0, 1)
    lo, hi = max(lo - radius, 0), min(hi + radius, PATCH_SIZE)

    # One entry per (body, column on the patch), grouped by slot.
    b = np.repeat(np.arange(len(sample)), counts)
    col = np.arange(len(b)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    heights = _column_heights(col - col0[b], w_px[b], height[b], loss[b], wedge[b])
    bottom = (cy + height / 2.0)[b]  # a wedge's superior endplate collapses
    top = np.where(wedge[b], bottom - heights, cy[b] - heights / 2.0)
    bot = np.where(wedge[b], bottom, cy[b] + heights / 2.0)
    # A body covers only rows within cy -+ height / 2. Each column is painted
    # over one window of rows that holds them, with a spare row on each
    # side for rounding; one window height serves the whole chunk.
    row0 = np.clip(np.floor(cy - height / 2.0) - 1.0, 0, PATCH_SIZE)
    rows = int(np.clip((np.ceil(cy + height / 2.0) + 1.0 - row0).max(), 1, PATCH_SIZE))
    row0 = np.minimum(row0, PATCH_SIZE - rows)[b]
    row = row0[:, None] + np.arange(rows)
    cover = np.minimum(bot[:, None], row + 1.0)
    cover -= np.maximum(top[:, None], row)
    np.clip(cover, 0.0, 1.0, out=cover)
    cover *= intensity[b][:, None]

    band = np.zeros(n * (hi - lo) * PATCH_SIZE)
    windows = np.lib.stride_tricks.sliding_window_view(band, rows, writeable=True)
    target = ((sample[b] * (hi - lo) + col - lo) * PATCH_SIZE + row0).astype(np.intp)
    # The bodies of one slot cover each (sample, column) at most once.
    ends = np.cumsum(np.bincount(slot[b].astype(np.intp)))
    for a, z in zip(ends - np.diff(ends, prepend=0), ends):
        windows[target[a:z]] = np.maximum(windows[target[a:z]], cover[a:z])
    return lo, band.reshape(n, hi - lo, PATCH_SIZE)


def _render(config: PhantomConfig, labels, blocks, entries: list):
    """Render ``(grade, region, id)`` labels as the module docstring says:
    chunk k into the first rows of the k-th float32 ``(rows, 2, PATCH_SIZE,
    PATCH_SIZE)`` block of ``blocks``. Appends each chunk's manifest entries
    to ``entries``, then yields its rows and ids."""
    noise = np.empty((min(CHUNK, len(labels)), PATCH_SIZE, PATCH_SIZE))
    sigma, amplitude = config.blur_sigma, config.noise_amplitude
    # gaussian_filter's kernel radius at its default truncate of 4 sigma.
    radius = int(4.0 * sigma + 0.5) if sigma > 0 else 0
    heatmaps = {}
    for start, block in zip(range(0, len(labels), CHUNK), blocks):
        chunk = labels[start : start + CHUNK]
        rows, image, bodies = block[: len(chunk)], noise[: len(chunk)], []
        for k, (grade, region, id) in enumerate(chunk):
            rng = np.random.default_rng([config.seed, id])
            params, centre, drawn = _draw_sample(rng, config, GradeLabel(grade), RegionLabel(region))
            bodies += [(k, slot, *body) for slot, body in enumerate(drawn)]
            if amplitude > 0:
                rng.standard_normal(out=image[k])
            if centre not in heatmaps:
                heatmaps[centre] = centroid_heatmap(*centre)
            rows[k, 1] = heatmaps[centre]
            entries.append({"id": id, "grade": int(grade), "region": int(region), "file": None, "params": params})

        first, band = _paint(np.array(bodies, dtype=np.float64), len(chunk), radius)
        band = band.transpose(0, 2, 1)
        if sigma > 0:
            band = gaussian_filter(band, sigma=(0.0, sigma, sigma))
        if amplitude > 0:
            image *= amplitude
        else:
            image[...] = 0.0
        image[:, :, first : first + band.shape[2]] += band
        np.clip(image, 0.0, 1.0, out=image)
        rows[:, 0] = image
        yield rows, [id for _, _, id in chunk]


def generate_patch(
    config: PhantomConfig, grade: GradeLabel, region: RegionLabel, id: int
) -> PatchSample:
    """Render one deterministic patch for (config.seed, id): a batch of one."""
    block, entries = np.empty((1, 2, PATCH_SIZE, PATCH_SIZE), dtype=np.float32), []
    next(_render(config, [(grade, region, id)], [block], entries))
    return PatchSample(block[0, 0], block[0, 1], GradeLabel(grade), RegionLabel(region), id, entries[0]["params"])


def _dataset_plan(config: PhantomConfig, counts: dict, seed: int):
    """``(config with seed, labels, manifest)`` of a dataset: its ``(grade,
    region, id)`` labels in id order and a manifest that lists no samples
    yet. The counts are checked before anything renders."""
    if sum(counts.values()) <= 0:
        raise ValueError("total sample count must be positive")
    cfg = replace(config, seed=seed)
    labels = [(g, r) for g in GRADES for r in REGIONS for _ in range(int(counts.get((g, r), 0)))]
    manifest = {"seed": seed, "config_digest": cfg.digest(), "samples": []}
    return cfg, [(g, r, i) for i, (g, r) in enumerate(labels)], manifest


def generate_dataset(config: PhantomConfig, counts: dict, seed: int):
    """Generate the requested per-(grade, region) counts.

    Returns (samples, manifest). The manifest records the seed, a config
    digest, and per-sample labels and generator parameters; ids are assigned
    in a fixed (grade, region) order so the dataset is fully reproducible.
    Each sample's ``image`` and ``heatmap`` are views of its row of one
    float32 stack, as in a loaded dataset.
    """
    cfg, labels, manifest = _dataset_plan(config, counts, seed)
    stack = np.empty((len(labels), 2, PATCH_SIZE, PATCH_SIZE), dtype=np.float32)
    for _ in _render(cfg, labels, (stack[i:] for i in range(0, len(labels), CHUNK)), manifest["samples"]):
        pass
    samples = [
        PatchSample(row[0], row[1], GradeLabel(g), RegionLabel(r), id, entry["params"])
        for row, (g, r, id), entry in zip(stack, labels, manifest["samples"])
    ]
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
