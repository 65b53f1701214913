import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinemetric.mining import GradeLabel, RegionLabel
from spinemetric.phantom import (
    PAPER_GRADE_TOTALS,
    PhantomConfig,
    counts_at_ratio,
    generate_dataset,
    generate_patch,
    generate_spine_volume,
    load_dataset,
    manifest_digest,
    read_sample_tensor,
    read_volume,
    save_dataset,
    write_sample_tensor,
    write_volume,
)

from spinemetric.phantom import patches as patches_module
from spinemetric.phantom import volume as volume_module
from spinemetric.phantom.patches import (
    BODY_INTENSITY,
    CHUNK,
    G2_HEIGHT_LOSS,
    G3_HEIGHT_LOSS,
    MAX_JITTER_PX,
    PATCH_SIZE,
    REGION_DIMS,
    WEDGE_PROBABILITY,
    _paint,
)

from .oracles import (
    anterior_height_ratio,
    generate_patch_reference,
    load_dataset_reference,
    mid_height_ratio,
    min_height_ratio,
    paint_body_reference,
    render_body_reference,
)

G0, G2, G3 = GradeLabel.G0, GradeLabel.G2, GradeLabel.G3
CFG = PhantomConfig(seed=0)
GOOD_ENTRY = {"file": "sample_000000.vpat", "grade": 0, "region": 1, "id": 0}


class TestConfig:
    def test_fixed_geometry_invariants(self):
        # Height-loss bands increasing, disjoint and inside (0, 1), moderate below severe.
        (g2_lo, g2_hi), (g3_lo, g3_hi) = G2_HEIGHT_LOSS, G3_HEIGHT_LOSS
        assert 0.0 < g2_lo < g2_hi < g3_lo < g3_hi < 1.0
        assert 0.0 <= WEDGE_PROBABILITY <= 1.0
        assert 0.0 < BODY_INTENSITY[0] < BODY_INTENSITY[1] <= 1.0
        # The largest body is 42 px across: a jitter above 56 - 21 px could
        # move it off the patch.
        assert MAX_JITTER_PX == 35

    def test_digest_changes_with_seed(self):
        assert PhantomConfig(seed=1).digest() != PhantomConfig(seed=2).digest()

    def test_default_digest_pinned(self):
        # Every dataset manifest records this digest: its encoding must not move.
        assert PhantomConfig().digest() == "1a310341472d9745b3a024f57446f9644fad2301a3875b2744d0ec189e0ac7ee"


class TestGeneratePatch:
    def test_healthy_mid_height_ratio_near_one(self):
        for i in range(30):
            s = generate_patch(CFG, G0, RegionLabel(i % 5), id=i)
            assert abs(mid_height_ratio(s) - 1.0) <= 0.03

    def test_severe_wedge_anterior_ratio_in_range(self):
        seen = 0
        for i in range(120):
            s = generate_patch(CFG, G3, RegionLabel(i % 5), id=1000 + i)
            if s.params["mode"] != "wedge":
                continue
            seen += 1
            assert 0.41 <= s.params["height_loss"] <= 0.70
            r = anterior_height_ratio(s)
            assert 0.30 - 0.03 <= r <= 0.59 + 0.03
            assert abs(r - (1.0 - s.params["height_loss"])) <= 0.03
        assert seen > 20

    def test_measured_ratio_tracks_drawn_loss(self):
        for grade, base in ((G2, 5000), (G3, 6000)):
            for i in range(60):
                s = generate_patch(CFG, grade, RegionLabel(i % 5), id=base + i)
                assert abs(min_height_ratio(s) - (1.0 - s.params["height_loss"])) <= 0.03

    def test_grade_height_monotonicity(self):
        r = {
            g: [
                min_height_ratio(generate_patch(CFG, g, RegionLabel(i % 5), id=base + i))
                for i in range(100)
            ]
            for g, base in ((G0, 20000), (G2, 21000), (G3, 22000))
        }
        rng = np.random.default_rng(123)
        ok = 0
        trials = 1000
        for _ in range(trials):
            a, b, c = rng.integers(100, size=3)
            ok += r[G0][a] > r[G2][b] > r[G3][c]
        assert ok / trials >= 0.99

    def test_determinism_under_seed_and_id(self):
        a = generate_patch(CFG, G2, RegionLabel.L5, id=3)
        b = generate_patch(CFG, G2, RegionLabel.L5, id=3)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.heatmap, b.heatmap)
        c = generate_patch(CFG, G2, RegionLabel.L5, id=4)
        assert not np.array_equal(a.image, c.image)

    def test_image_bounds_and_shape(self):
        s = generate_patch(CFG, G0, RegionLabel.T1_T5, id=0)
        assert s.image.shape == (112, 112)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert np.all(np.isfinite(s.image))

    def test_heatmap_peak_at_center(self):
        s = generate_patch(CFG, G0, RegionLabel.T6_T9, id=11)
        assert s.heatmap.max() == pytest.approx(1.0)
        assert np.unravel_index(s.heatmap.argmax(), s.heatmap.shape) == (56, 56)
        assert np.all(s.heatmap > 0.0)

    def test_heatmap_peak_tracks_jitter(self):
        cfg = PhantomConfig(seed=9, jitter_px=4)
        for i in range(20):
            s = generate_patch(cfg, G0, RegionLabel.L1_L4, id=i)
            jr, jc = s.params["jitter"]
            assert abs(jr) <= 4 and abs(jc) <= 4
            peak = np.unravel_index(s.heatmap.argmax(), s.heatmap.shape)
            assert peak == (56 + jr, 56 + jc)

    def test_tensor_stacking(self):
        s = generate_patch(CFG, G0, RegionLabel.L5, id=1)
        t = s.to_tensor()
        assert t.shape == (2, 112, 112)
        assert t.dtype == np.float32


def painted(bodies, n, radius=0):
    """``_paint``'s band placed back into full ``(n, rows, columns)`` images."""
    first, band = _paint(np.array(bodies, dtype=np.float64), n, radius)
    images = np.zeros((n, PATCH_SIZE, PATCH_SIZE))
    images[:, :, first : first + band.shape[1]] = band.transpose(0, 2, 1)
    return images


class TestRenderBody:
    @pytest.mark.parametrize("mode,loss", [("wedge", 0.0), ("wedge", 0.55), ("biconcave", 0.35)])
    @pytest.mark.parametrize(
        "cx,width",
        [
            (56.3, 31.7),  # inside the patch
            (4.0, 30.2),  # anterior columns fall off the left edge
            (108.6, 36.0),  # posterior columns fall off the right edge
            (-40.0, 20.0),  # every column off the patch
            (17.2, 1.2),  # one pixel wide
        ],
    )
    def test_matches_column_loop_bit_for_bit(self, mode, loss, cx, width):
        cy, height, intensity = 50.4, 27.3, 0.71
        got = painted([(0, 0, cy, cx, width, height, mode == "wedge", loss, intensity)], 1)
        expected = np.zeros((PATCH_SIZE, PATCH_SIZE))
        render_body_reference(expected, cy, cx, width, height, mode, loss, intensity)
        assert got[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "cy,width,height,mode",
        [
            # 50 columns: 49 * (1 / 49) is not 1, so the last column needs
            # linspace's exact end point.
            (50.4, 49.6, 30.0, "biconcave"),
            # cy - height / 2 is 36.0, but the wedge's top edge, computed
            # from its bottom, is 35.99999999999999: a sliver of row 35.
            (43.8, 30.0, 15.6, "wedge"),
        ],
    )
    def test_rounding_edges(self, cy, width, height, mode):
        got = painted([(0, 0, cy, 56.0, width, height, mode == "wedge", 0.3 * (mode != "wedge"), 0.8)], 1)
        expected = np.zeros((PATCH_SIZE, PATCH_SIZE))
        render_body_reference(expected, cy, 56.0, width, height, mode, 0.3 * (mode != "wedge"), 0.8)
        assert got[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("radius", [0, 6])
    def test_overlapping_bodies_of_several_samples(self, radius):
        # Bodies share columns and, where they touch, rows; each sample is
        # the column loop applied to its bodies in turn.
        rng = np.random.default_rng(5)
        bodies, expected = [], np.zeros((3, PATCH_SIZE, PATCH_SIZE))
        for k, cx in enumerate((56.0, 20.5, 100.0)):
            for slot in range(rng.integers(1, 5)):
                body = (
                    rng.uniform(10.0, 100.0), cx, rng.uniform(1.0, 45.0), rng.uniform(2.0, 40.0),
                    str(rng.choice(["wedge", "biconcave"])), rng.uniform(0.0, 0.7), rng.uniform(0.5, 1.0),
                )
                bodies.append((k, slot, body[0], cx, *body[2:4], body[4] == "wedge", *body[5:]))
                render_body_reference(expected[k], *body)
        assert painted(bodies, 3, radius).tobytes() == expected.tobytes()


def assert_matches_reference(config, counts, seed):
    samples, _ = generate_dataset(config, counts, seed=seed)
    for s in samples:
        want = generate_patch_reference(replace(config, seed=seed), s.grade, s.region, s.id)
        assert s.to_tensor().tobytes() == want.to_tensor().tobytes()
        assert s.params == want.params


class TestChunkedRenderer:
    """Rendering in chunks reproduces a patch rendered on its own, bit for bit."""

    COUNTS = {(G0, RegionLabel.T1_T5): 2, (G2, RegionLabel.L5): 2, (G3, RegionLabel.T10_T12): 2}

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"jitter_px": 3},
            {"jitter_px": 6},
            {"blur_sigma": 0.0},
            {"blur_sigma": 1.5},
            {"noise_amplitude": 0.0},
            {"noise_amplitude": 0.1},
            {"jitter_px": 6, "blur_sigma": 0.0, "noise_amplitude": 0.0},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default",
    )
    def test_config_variants(self, overrides):
        assert_matches_reference(PhantomConfig(**overrides), self.COUNTS, seed=3)

    @pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_dataset_sizes_around_chunk(self, size):
        counts = {(G0, RegionLabel.L1_L4): size - size // 2, (G3, RegionLabel.T6_T9): size // 2}
        assert_matches_reference(PhantomConfig(jitter_px=3), counts, seed=11)

    def test_bodies_off_the_patch(self):
        # A jitter above MAX_JITTER_PX could move the graded body off the
        # patch, and is refused.
        assert_matches_reference(PhantomConfig(jitter_px=35), self.COUNTS, seed=1)
        for jitter in (36, 150):
            with pytest.raises(ValueError, match=f"jitter_px {jitter} can move the graded body off the patch"):
                PhantomConfig(jitter_px=jitter)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        id=st.integers(0, 10**6),
        grade=st.sampled_from([G0, G2, G3]),
        region=st.sampled_from(list(RegionLabel)),
        jitter_px=st.integers(0, 8),
        blur_sigma=st.sampled_from([0.0, 0.3, 0.7, 1.5, 2.2]),
        noise_amplitude=st.sampled_from([0.0, 0.02, 0.1]),
    )
    def test_matches_reference_patch(self, seed, id, grade, region, **fields):
        config = PhantomConfig(seed=seed, **fields)
        got = generate_patch(config, grade, region, id)
        want = generate_patch_reference(config, grade, region, id)
        assert got.to_tensor().tobytes() == want.to_tensor().tobytes()
        assert got.params == want.params


class TestGenerateDataset:
    def test_paper_ratio_at_half_scale(self):
        counts = counts_at_ratio(PAPER_GRADE_TOTALS, scale=0.5)
        totals = {
            g: sum(v for (gg, _), v in counts.items() if gg == g) for g in (G0, G2, G3)
        }
        assert totals == {G0: 567, G2: 52, G3: 23}

    def test_manifest_counts_and_determinism(self):
        counts = {(G0, RegionLabel.T1_T5): 3, (G2, RegionLabel.L5): 2, (G3, RegionLabel.L1_L4): 1}
        samples, manifest = generate_dataset(CFG, counts, seed=4)
        assert len(samples) == 6
        grades = [e["grade"] for e in manifest["samples"]]
        assert grades.count(0) == 3 and grades.count(2) == 2 and grades.count(3) == 1
        _, manifest2 = generate_dataset(CFG, counts, seed=4)
        assert manifest_digest(manifest) == manifest_digest(manifest2)
        _, manifest3 = generate_dataset(CFG, counts, seed=5)
        assert manifest_digest(manifest) != manifest_digest(manifest3)

    def test_single_sample_dataset(self):
        samples, manifest = generate_dataset(CFG, {(G2, RegionLabel.T6_T9): 1}, seed=0)
        assert len(samples) == 1
        assert manifest["samples"][0]["grade"] == 2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(CFG, {(G0, RegionLabel.T1_T5): 0}, seed=0)

    def test_save_load_round_trip(self, tmp_path):
        counts = {(G0, RegionLabel.T1_T5): 2, (G2, RegionLabel.L5): 2, (G3, RegionLabel.L5): 1}
        samples, manifest = generate_dataset(CFG, counts, seed=8)
        saved = save_dataset(samples, manifest, tmp_path)
        loaded, manifest2 = load_dataset(tmp_path / "manifest.json")
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert np.array_equal(a.image, b.image)
            assert a.grade == b.grade and a.region == b.region and a.id == b.id
        assert manifest_digest(saved) == manifest_digest(manifest2)

    def test_loaded_tensors_bit_equal_reference_loader(self, tmp_path):
        counts = {(G0, RegionLabel.T1_T5): 3, (G2, RegionLabel.L5): 2, (G3, RegionLabel.T6_T9): 2}
        samples, manifest = generate_dataset(CFG, counts, seed=4)
        save_dataset(samples, manifest, tmp_path)
        loaded, _ = load_dataset(tmp_path / "manifest.json")
        want = load_dataset_reference(tmp_path / "manifest.json")
        assert len(loaded) == len(want) == 7
        for sample, tensor in zip(loaded, want):
            assert np.array_equal(sample.to_tensor().view(np.uint32), tensor.view(np.uint32))

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_channels_are_rows_of_one_stack(self, tmp_path, source):
        counts = {(G0, RegionLabel.T1_T5): 2, (G3, RegionLabel.L5): 2}
        samples, manifest = generate_dataset(CFG, counts, seed=1)
        if source == "loaded":
            save_dataset(samples, manifest, tmp_path)
            samples, _ = load_dataset(tmp_path / "manifest.json")
        stack = samples[0].image.base
        assert stack.shape == (4, 2, 112, 112) and stack.dtype == np.float32
        for k, s in enumerate(samples):
            assert s.image.base is stack and s.heatmap.base is stack
            assert np.array_equal(stack[k, 0], s.image) and np.array_equal(stack[k, 1], s.heatmap)

    @pytest.mark.parametrize(
        "overrides,digest",
        [
            ({}, "4ca21e257e769ed52fc12799e1757ed09dac6d3b71ebbf38ea3de40dd7a173d2"),
            (
                {"jitter_px": 3, "blur_sigma": 1.5, "noise_amplitude": 0.1},
                "c07c2cf8aa6e5acc33d5d39da0906afb4de8ace2c98d403c0efa4edb103c9c3c",
            ),
        ],
        ids=["default", "jitter-blur-noise"],
    )
    def test_rendered_stack_pinned(self, overrides, digest):
        # Every rendered bit of a 64-sample paper-ratio set: a faster
        # renderer must reproduce these exactly.
        counts = counts_at_ratio(PAPER_GRADE_TOTALS, scale=0.05)
        samples, _ = generate_dataset(PhantomConfig(**overrides), counts, seed=7)
        stack = np.stack([s.to_tensor() for s in samples])
        assert stack.shape == (64, 2, PATCH_SIZE, PATCH_SIZE)
        assert hashlib.sha256(stack.tobytes()).hexdigest() == digest

    def test_stacked_samples_equal_separately_generated(self):
        counts = {(G0, RegionLabel.T1_T5): 2, (G2, RegionLabel.L5): 1}
        samples, _ = generate_dataset(CFG, counts, seed=6)
        for s in samples:
            alone = generate_patch(replace(CFG, seed=6), s.grade, s.region, s.id)
            assert np.array_equal(s.to_tensor().view(np.uint32), alone.to_tensor().view(np.uint32))
            assert s.params == alone.params

    def test_manifest_not_json_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"samples": [')
        with pytest.raises(ValueError, match=r"manifest\.json: manifest is not UTF-8 JSON"):
            load_dataset(tmp_path / "manifest.json")

    def test_manifest_without_samples_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"seed": 3}')
        with pytest.raises(ValueError, match=r"manifest\.json: manifest has no samples list"):
            load_dataset(tmp_path / "manifest.json")

    @pytest.mark.parametrize(
        "entry",
        [
            {},
            {**GOOD_ENTRY, "grade": 7},
            {**GOOD_ENTRY, "region": "x"},
            {**GOOD_ENTRY, "file": 5},
            list(GOOD_ENTRY.values()),
        ],
        ids=["empty", "grade-7", "region-x", "file-not-string", "list"],
    )
    def test_malformed_sample_entry_rejected(self, tmp_path, entry):
        write_sample_tensor(tmp_path / GOOD_ENTRY["file"], np.zeros((2, 112, 112), np.float32))
        doc = {"samples": [GOOD_ENTRY, entry]}
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"manifest\.json: malformed sample entry 1 "):
            load_dataset(tmp_path / "manifest.json")


    @pytest.mark.parametrize("shape", [(1, 112, 112), (2, 56, 56), (3, 112, 112), (2, 112, 56)])
    def test_sample_tensor_shape_checked(self, tmp_path, shape):
        write_sample_tensor(tmp_path / GOOD_ENTRY["file"], np.zeros(shape, np.float32))
        (tmp_path / "manifest.json").write_text(json.dumps({"samples": [GOOD_ENTRY]}))
        want = f"{tmp_path / GOOD_ENTRY['file']}: sample tensor shape {shape} is not (2, 112, 112)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_dataset(tmp_path / "manifest.json")


class TestSampleTensorFormat:
    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(2, 7, 9)).astype(np.float32)
        write_sample_tensor(tmp_path / "t.vpat", arr)
        back = read_sample_tensor(tmp_path / "t.vpat")
        assert np.array_equal(arr, back)

    def test_magic_checked(self, tmp_path):
        (tmp_path / "bad.vpat").write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError):
            read_sample_tensor(tmp_path / "bad.vpat")


    def test_header_cut_short_rejected(self, tmp_path):
        (tmp_path / "h.vpat").write_bytes(b"VPAT" + b"\x02\x00\x00\x00")
        with pytest.raises(ValueError, match=r"h\.vpat: truncated header"):
            read_sample_tensor(tmp_path / "h.vpat")

    def test_payload_cut_mid_float_rejected(self, tmp_path):
        write_sample_tensor(tmp_path / "p.vpat", np.zeros((2, 3, 3), np.float32))
        data = (tmp_path / "p.vpat").read_bytes()
        (tmp_path / "p.vpat").write_bytes(data[:-3])
        with pytest.raises(ValueError, match=r"p\.vpat: payload size mismatch"):
            read_sample_tensor(tmp_path / "p.vpat")


class TestVolumeFormat:
    @pytest.fixture
    def volume_bytes(self, tmp_path):
        vol = generate_spine_volume(CFG, 2, curvature=0.0, grades=[G0, G2], seed=0)
        write_volume(tmp_path / "v.vvol", vol)
        return (tmp_path / "v.vvol").read_bytes(), vol.voxels.size * 4

    def test_header_cut_short_rejected(self, tmp_path):
        (tmp_path / "h.vvol").write_bytes(b"VVOL" + b"\x00" * 7)
        with pytest.raises(ValueError, match=r"h\.vvol: truncated header"):
            read_volume(tmp_path / "h.vvol")

    def test_payload_cut_short_rejected(self, tmp_path, volume_bytes):
        data, nbytes = volume_bytes
        (tmp_path / "p.vvol").write_bytes(data[: 16 + nbytes - 5])
        with pytest.raises(ValueError, match=r"p\.vvol: truncated voxel payload"):
            read_volume(tmp_path / "p.vvol")

    def test_trailer_not_json_rejected(self, tmp_path, volume_bytes):
        data, nbytes = volume_bytes
        (tmp_path / "t.vvol").write_bytes(data[: 16 + nbytes] + b'{"centroids": [')
        with pytest.raises(ValueError, match=r"t\.vvol: centroid trailer is not UTF-8 JSON"):
            read_volume(tmp_path / "t.vvol")


    def test_trailer_wrong_shape_rejected(self, tmp_path, volume_bytes):
        data, nbytes = volume_bytes
        (tmp_path / "w.vvol").write_bytes(data[: 16 + nbytes] + b"{}")
        with pytest.raises(ValueError, match=r"w\.vvol: malformed centroid trailer"):
            read_volume(tmp_path / "w.vvol")

class TestSpineVolume:
    def test_straight_spine_centroids_colinear(self):
        vol = generate_spine_volume(CFG, 17, curvature=0.0, grades=[G0] * 17, seed=5)
        pts = np.array([p for _, p in vol.centroids])
        assert np.ptp(pts[:, 1]) <= 0.5
        assert np.ptp(pts[:, 2]) <= 0.5

    def test_centroid_monotonicity_curved(self):
        vol = generate_spine_volume(CFG, 17, curvature=0.3, grades=[G0] * 17, seed=5)
        zs = [p[0] for _, p in vol.centroids]
        assert all(np.diff(zs) > 0)
        assert len(vol.centroids) == 17
        assert vol.centroids[0][0] == "T1" and vol.centroids[-1][0] == "L5"

    def test_centroids_inside_volume(self):
        vol = generate_spine_volume(CFG, 10, curvature=0.5, grades=[G0] * 10, seed=2)
        for _, (z, y, x) in vol.centroids:
            assert 0 <= z < vol.voxels.shape[0]
            assert 0 <= y < vol.voxels.shape[1]
            assert 0 <= x < vol.voxels.shape[2]

    def test_grade_change_localized_to_one_vertebra(self):
        healthy = generate_spine_volume(CFG, 17, curvature=0.0, grades=[G0] * 17, seed=5)
        grades = [G0] * 17
        grades[8] = G3
        fractured = generate_spine_volume(CFG, 17, curvature=0.0, grades=grades, seed=5)
        diff = np.argwhere(healthy.voxels != fractured.voxels)
        assert diff.size > 0
        zk, _, _ = healthy.centroids[8][1]
        (_, _), (_, h_hi) = REGION_DIMS[RegionLabel.T6_T9]  # vertebra 8 is T9
        assert np.all(np.abs(diff[:, 0] - zk) <= h_hi / 2 + 2)

    def test_determinism(self):
        a = generate_spine_volume(CFG, 6, curvature=0.2, grades=[G0, G2, G0, G3, G0, G0], seed=3)
        b = generate_spine_volume(CFG, 6, curvature=0.2, grades=[G0, G2, G0, G3, G0, G0], seed=3)
        assert np.array_equal(a.voxels, b.voxels)
        assert a.centroids == b.centroids

    def test_grades_length_checked(self):
        with pytest.raises(ValueError):
            generate_spine_volume(CFG, 5, curvature=0.0, grades=[G0] * 4, seed=0)

    def test_volume_file_round_trip(self, tmp_path):
        vol = generate_spine_volume(CFG, 4, curvature=0.1, grades=[G0, G2, G3, G0], seed=1)
        write_volume(tmp_path / "v.vvol", vol)
        back = read_volume(tmp_path / "v.vvol")
        assert np.array_equal(vol.voxels, back.voxels)
        assert back.centroids == [(n, tuple(p)) for n, p in vol.centroids]
        assert back.grades == vol.grades


class TestVolumePainter:
    """``_paint_body`` paints a body with one mask, bit for bit as the per-column
    ``paint_body_reference`` does; painting over random voxels also checks
    that nothing outside the body is written."""

    @staticmethod
    def _check(seed, zc, y0, x0, width, depth, height, loss):
        rng = np.random.default_rng(seed)
        voxels = rng.random((24, 20, 12)).astype(np.float32)
        expected = voxels.copy()
        yc = y0 + depth / 2.0 + rng.uniform(-0.49, 0.49)  # round(yc - depth / 2) == y0
        args = (zc, yc, x0 + width // 2, width, depth, height, loss, rng.uniform(0.65, 0.85))
        volume_module._paint_body(voxels, *args)
        paint_body_reference(expected, *args)
        assert np.array_equal(voxels.view(np.uint32), expected.view(np.uint32))

    @pytest.mark.parametrize(
        "zc, y0, x0, width, depth, height, loss",
        [
            (12, 4, 2, 6, 8, 10, 0.0),
            (12, 4, 2, 6, 8, 11, 0.7),
            (12, 4, 2, 0, 8, 10, 0.5),  # no width
            (12, 4, 2, 6, 0, 10, 0.5),  # no depth
            (12, 4, 2, 6, 1, 10, 0.5),  # one column
            (12, 4, 2, 6, 8, 0, 0.0),  # no height: one row at zc
            (12, 4, 2, 6, 8, 1, 0.99),  # columns 0.01 to 1 voxel high: the anterior ones paint nothing
            (12, 4, 2, 6, 1, 1, 0.99),  # one column 0.01 voxel high: the body paints nothing
            (2, 4, 2, 6, 8, 11, 0.3),  # the body reaches above z = 0
            (0, 0, 0, 12, 20, 1, 0.0),  # the whole first row
            (18, 12, 6, 6, 8, 11, 0.6),  # down to the last row
        ],
    )
    def test_edge_cases(self, zc, y0, x0, width, depth, height, loss):
        self._check(0, zc, y0, x0, width, depth, height, loss)

    def test_random_bodies(self):
        rng = np.random.default_rng(1)
        for seed in range(300):
            width, depth = (int(v) for v in rng.integers(0, 10, size=2))
            height = int(rng.integers(0, 14))
            loss = float(rng.choice([0.0, rng.uniform(0.0, 0.99), 0.99]))
            zc = int(rng.integers(0, 24 - height // 2))  # z_bottom in the volume
            y0 = int(rng.integers(0, 20 - depth + 1))
            x0 = int(rng.integers(0, 12 - width + 1))
            self._check(seed, zc, y0, x0, width, depth, height, loss)

    @pytest.mark.parametrize(
        "dims, g3_loss",
        [
            (None, (0.41, 0.70)),
            (((0.0, 2.0), (0.0, 3.0)), (0.9, 0.99)),  # empty bodies, columns under one voxel
            (((1.0, 9.0), (1.0, 6.0)), (0.9, 0.99)),
        ],
        ids=["default", "tiny", "small"],
    )
    def test_volume_matches_per_column_painter(self, monkeypatch, dims, g3_loss):
        if dims:
            monkeypatch.setattr(volume_module, "REGION_DIMS", {r: dims for r in RegionLabel})
        monkeypatch.setattr(patches_module, "G3_HEIGHT_LOSS", g3_loss)
        cases = [(seed, n, curvature) for seed, (n, curvature) in enumerate(
            [(17, 0.3), (17, -0.8), (9, 0.0), (3, 0.55), (1, -0.2), (5, 1.0)])]
        grades = [G3, G0, G2, G3] * 5
        painted = [generate_spine_volume(CFG, n, c, grades[:n], s).voxels for s, n, c in cases]
        monkeypatch.setattr(volume_module, "_paint_body", paint_body_reference)
        for (seed, n, curvature), voxels in zip(cases, painted):
            expected = generate_spine_volume(CFG, n, curvature, grades[:n], seed).voxels
            assert np.array_equal(voxels.view(np.uint32), expected.view(np.uint32))
