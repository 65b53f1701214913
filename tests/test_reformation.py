import hashlib

import numpy as np
import pytest

from spinemetric.mining import GradeLabel
from spinemetric.phantom import (
    MAX_CURVATURE,
    PhantomConfig,
    extract_patch,
    generate_spine_volume,
    reformat_curved,
)

from .oracles import arc_length_to_knot

CFG = PhantomConfig(seed=0)
G0 = GradeLabel.G0

# sha256 of the voxels, the reformation image and the centre vertebra's patch
# (jitter 4, jitter seed = seed + 1), grades drawn as ``reformat`` draws them.
PINNED_SPINES = [
    (0, 17, 0.0, "bd4542efc6d858172c173b5667116c57be0d82c5ff01593292a5bbfb85147bdd",
     "89c21c07becdedaed288e9173fcbefed31bfc5e0d9e05a47568cdc8905050bf1",
     "09a020434199717a3543a2ca25e665ded2a70ab3836ff14b53b2498683b2a4b8"),
    (3, 17, 0.3, "6e70d510b8c62370a60ba62a2ae01d7ecd665ead426912227b153c6277a3f061",
     "a62788c51fe7a23f314d28e754ae807b2afb8faafe603212ac6006c545e522b5",
     "d946cc265e762c4ec71b3805b91c09d63c4331a513e51d58712d725f5632259e"),
    (7, 9, -0.8, "e36cea0362956cc3fafab4456228bccc3a39a793aac47e77aec8dfc3dfc41ec7",
     "fce52d911f9fa7254b839455ca140e0f269ec8f36074064fef1636a6d8fc379c",
     "afd64554c79114d921ae8b79d681310a88c0bdf425cb2424d247b0b563218c7d"),
    (11, 5, 0.55, "38e7d0898b7c60bd83d0c820df162a15457d49a8572696258163acbccd35c4e8",
     "42696e196949398a588897aea7d8d760f3467e530f345b43865047d0678a62cc",
     "8c8abf8e1328505ffa6fcc2bcb51245f31630ea590a5d04d9dc940a1446109d6"),
]


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("seed, n, curvature, voxels, image, patch", PINNED_SPINES,
                         ids=[f"s{p[0]}-n{p[1]}-c{p[2]}" for p in PINNED_SPINES])
def test_pinned_volume_reformation_and_patch(seed, n, curvature, voxels, image, patch):
    rng = np.random.default_rng([seed, 555])
    grades = [GradeLabel(int(rng.choice([0, 0, 0, 2, 3]))) for _ in range(n)]
    vol = generate_spine_volume(PhantomConfig(seed=seed), n, curvature, grades, seed)
    ref = reformat_curved(vol)
    crop, _ = extract_patch(ref.image, ref.centroids_rc[n // 2], jitter_px=4, jitter_seed=seed + 1)
    assert vol.voxels.dtype == ref.image.dtype == crop.dtype == np.float32
    assert (_sha256(vol.voxels), _sha256(ref.image), _sha256(crop)) == (voxels, image, patch)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_curvature_bound(sign):
    # The bound itself builds a 17-vertebra volume of under 43 MB, bowed
    # 40 mm off the axis; one float step beyond it is refused by name.
    volume = generate_spine_volume(CFG, 17, sign * MAX_CURVATURE, [G0] * 17, seed=3)
    assert volume.voxels.nbytes < 43e6
    bow = [pos[1] - volume.voxels.shape[1] // 2 for _, pos in volume.centroids]
    assert 39.0 < max(bow, key=abs) * sign <= 40.0
    beyond = sign * float(np.nextafter(MAX_CURVATURE, np.inf))
    message = f"|curvature| must be at most MAX_CURVATURE = 2, got {beyond!r}"
    with pytest.raises(ValueError) as exc:
        generate_spine_volume(CFG, 17, beyond, [G0] * 17, seed=3)
    assert str(exc.value) == message


class TestReformatCurved:
    def test_straight_spine_equals_mid_sagittal_slice(self):
        vol = generate_spine_volume(CFG, 17, curvature=0.0, grades=[G0] * 17, seed=5)
        ref = reformat_curved(vol)
        mid = vol.mid_sagittal()
        assert ref.image.shape == mid.shape
        assert np.abs(ref.image - mid).max() <= 1e-6
        assert not ref.out_of_bounds.any()

    def test_curved_centroid_rows_match_quadrature_arc_length(self):
        vol = generate_spine_volume(CFG, 17, curvature=0.4, grades=[G0] * 17, seed=5)
        ref = reformat_curved(vol)
        pts = [p for _, p in vol.centroids]
        row0 = ref.centroids_rc[0][0]
        for k in range(len(pts)):
            expected = arc_length_to_knot(pts, k)
            assert abs((ref.centroids_rc[k][0] - row0) - expected) <= 1.0

    def test_centroids_map_to_center_column(self):
        vol = generate_spine_volume(CFG, 8, curvature=0.3, grades=[G0] * 8, seed=2)
        ref = reformat_curved(vol)
        col = vol.voxels.shape[1] // 2
        assert all(c == col for _, c in ref.centroids_rc)

    def test_out_of_bounds_samples_zero_filled_and_flagged(self):
        vol = generate_spine_volume(CFG, 12, curvature=0.9, grades=[G0] * 12, seed=3)
        ref = reformat_curved(vol)
        if ref.out_of_bounds.any():
            assert np.all(ref.image[ref.out_of_bounds] == 0.0)

    def test_two_centroids_rejected(self):
        vol = generate_spine_volume(CFG, 2, curvature=0.0, grades=[G0] * 2, seed=1)
        with pytest.raises(ValueError):
            reformat_curved(vol)

    def test_vertebra_visible_at_centroid_row(self):
        vol = generate_spine_volume(CFG, 9, curvature=0.5, grades=[G0] * 9, seed=7)
        ref = reformat_curved(vol)
        for row, col in ref.centroids_rc:
            assert ref.image[int(round(row)), int(round(col))] > 0.1


class TestExtractPatch:
    def test_constant_grid_center(self):
        grid = np.ones((200, 200), dtype=np.float32)
        image, heatmap = extract_patch(grid, (100, 100))
        assert image.shape == (112, 112) and heatmap.shape == (112, 112)
        assert np.all(image == 1.0)
        assert heatmap[56, 56] == pytest.approx(1.0)

    def test_corner_centroid_zero_pads_three_quadrants(self):
        grid = np.ones((200, 200), dtype=np.float32)
        image, _ = extract_patch(grid, (0, 0))
        assert np.all(image[:56, :56] == 0.0)
        assert np.all(image[:56, 56:] == 0.0)
        assert np.all(image[56:, :56] == 0.0)
        assert image[56:, 56:].sum() > 0

    def test_heatmap_gaussian_value_at_distance_sigma(self):
        grid = np.zeros((150, 150), dtype=np.float32)
        _, heatmap = extract_patch(grid, (75, 75))
        assert heatmap[56, 56 + 8] == pytest.approx(np.exp(-0.5), rel=1e-6)
        assert heatmap[56 + 8, 56] == pytest.approx(np.exp(-0.5), rel=1e-6)

    def test_jitter_moves_crop_but_heatmap_follows_centroid(self):
        rng_grid = np.random.default_rng(0).random((300, 300)).astype(np.float32)
        image_j, heatmap_j = extract_patch(rng_grid, (150, 150), jitter_px=4, jitter_seed=11)
        peak = np.unravel_index(heatmap_j.argmax(), heatmap_j.shape)
        jr, jc = 56 - peak[0], 56 - peak[1]
        assert abs(jr) <= 4 and abs(jc) <= 4
        # the image is the unjittered crop shifted by the jitter
        image_0, _ = extract_patch(rng_grid, (150 + jr, 150 + jc))
        assert np.allclose(image_j, image_0, atol=1e-6)
        assert heatmap_j.max() == pytest.approx(1.0)

    def test_subpixel_centroid_uses_bilinear_interpolation(self):
        grid = np.zeros((100, 100), dtype=np.float32)
        grid[50, 50] = 1.0
        image, _ = extract_patch(grid, (50.5, 50.0))
        assert image[55, 56] == pytest.approx(0.5, abs=1e-6)
        assert image[56, 56] == pytest.approx(0.5, abs=1e-6)
