import hashlib

import numpy as np
import pytest

from spinemetric.data import block_mean, load_patch_set, patch_set, stack_samples
from spinemetric.mining import GRADES, GradeLabel, RegionLabel
from spinemetric.phantom import PhantomConfig, counts_at_ratio, generate_patch, load_dataset, stream_dataset
from spinemetric.phantom.formats import read_manifest
from spinemetric.phantom.patches import PatchSample

from .oracles import block_mean_reference

FACTORS = [1, 2, 4, 7, 8, 14, 16, 28, 56, 112]


@pytest.fixture(scope="module")
def samples():
    config = PhantomConfig(seed=2)
    return [generate_patch(config, GRADES[i % 3], RegionLabel(i % 5), i) for i in range(70)]


class TestStackSamples:
    @pytest.mark.parametrize("size", [16, 28, 112])
    def test_subset_stack_equals_indexed_full_stack(self, samples, size):
        full = stack_samples(samples, size)
        assert full.shape == (70, 2, size, size) and full.dtype == np.float32
        rng = np.random.default_rng(size)
        # Rows on both sides of a chunk boundary (every 16 samples), in any order.
        for idx in ([63, 64], [69, 0, 64, 63, 5], list(rng.permutation(70)[:40]), [7]):
            sub = stack_samples([samples[i] for i in idx], size)
            assert np.array_equal(full[idx].view(np.uint32), sub.view(np.uint32))

    @pytest.mark.parametrize("factor", FACTORS)
    def test_bits_equal_reference_order(self, samples, factor):
        x = np.stack([s.to_tensor() for s in samples[:2]])
        got = stack_samples(samples[:2], 112 // factor)
        assert np.array_equal(got.view(np.uint32), block_mean_reference(x, factor).view(np.uint32))

    @pytest.mark.parametrize("factor", FACTORS)
    def test_against_numpy_mean(self, samples, factor):
        """Bit-equal below factor 8; from 8 numpy sums each window row
        pairwise, and the two stay within 8 ulp."""
        x = np.stack([s.to_tensor() for s in samples[:8]])
        want = x.reshape(8, 2, 112 // factor, factor, 112 // factor, factor).mean(axis=(3, 5))
        got = stack_samples(samples[:8], 112 // factor)
        if factor < 8:
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        else:
            ulps = np.abs(got.astype(np.float64) - want) / np.spacing(np.abs(want))
            assert ulps.max() <= 8

    @pytest.mark.parametrize("factor", [1, 2])
    def test_negative_zero_becomes_positive_as_in_numpy(self, factor):
        channel = np.full((112, 112), -0.0, np.float32)
        sample = PatchSample(channel, channel, GRADES[0], RegionLabel(0), 0)
        got = stack_samples([sample], 112 // factor)
        assert not np.signbit(got).any()
        assert not np.signbit(block_mean(channel[None, None], 2)).any()

    def test_channels_of_other_shapes_refused(self, samples):
        odd = PatchSample(samples[0].image[:, :56], samples[0].heatmap[:, :56], GRADES[0], RegionLabel(0), 99)
        with pytest.raises(ValueError, match="same shape"):
            stack_samples([samples[0], odd], 28)

    def test_non_integer_factor_refused(self, samples):
        with pytest.raises(ValueError):
            stack_samples(samples[:2], 30)

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            stack_samples([], 16)


class TestBlockMean:
    @pytest.mark.parametrize("factor", [2, 7, 8, 16])
    def test_bits_equal_reference_on_signed_values(self, factor):
        rng = np.random.default_rng(factor)
        x = (rng.standard_normal((2, 3, 112, 112)) * 10.0 ** rng.integers(-3, 4, (2, 3, 112, 112))).astype(np.float32)
        got = block_mean(x, factor)
        assert np.array_equal(got.view(np.uint32), block_mean_reference(x, factor).view(np.uint32))

    def test_indivisible_size_refused(self):
        with pytest.raises(ValueError, match="not divisible by 3"):
            block_mean(np.zeros((1, 1, 8, 8), np.float32), 3)


class TestPatchSet:
    def test_list_is_stacked_once_with_labels(self, samples):
        data = patch_set(samples, 16)
        assert len(data) == 70
        assert np.array_equal(data.images.view(np.uint32), stack_samples(samples, 16).view(np.uint32))
        assert data.grades.tolist() == [int(s.grade) for s in samples]
        assert data.regions.tolist() == [int(s.region) for s in samples]

    def test_patch_set_passes_through(self, samples):
        data = patch_set(samples[:5], 28)
        assert patch_set(data, 28) is data

    def test_size_mismatch_refused(self, samples):
        with pytest.raises(ValueError, match="28 px images, not 16 px"):
            patch_set(patch_set(samples[:5], 28), 16)

    def test_take_equals_stacking_the_subset(self, samples):
        data = patch_set(samples, 16)
        rows = [69, 0, 64, 63, 5]
        sub = data.take(rows)
        want = patch_set([samples[i] for i in rows], 16)
        assert len(sub) == 5
        assert np.array_equal(sub.images.view(np.uint32), want.images.view(np.uint32))
        assert sub.grades.tolist() == want.grades.tolist()
        assert sub.regions.tolist() == want.regions.tolist()
        assert len(data.take([])) == 0

    def test_empty_list_refused(self):
        with pytest.raises(ValueError):
            patch_set([], 16)


@pytest.fixture(scope="module")
def gen70(tmp_path_factory):
    """The manifest of ``gen --counts g0=50,g2=12,g3=8 --seed 3``, the set CI pins."""
    out = tmp_path_factory.mktemp("gen70")
    counts = counts_at_ratio({GradeLabel.G0: 50, GradeLabel.G2: 12, GradeLabel.G3: 8})
    stream_dataset(PhantomConfig(seed=3), counts, 3, out)
    return out / "manifest.json"


class TestLoadPatchSet:
    # sha256 of the 70-sample set's tiny (16 px) and reduced (28 px) stacks,
    # computed from stack_samples(load_dataset(...), s) before load_patch_set existed.
    PINS = {
        16: "20a2e59d6aaac5c44ac98a27db98af40ef30298bb3313ed99ea097e7e42f88e9",
        28: "049b23b0d493b39ee6c4b9ea458cb7ff1316bfabfa6ae41b5b73080658e5b0cb",
    }

    @pytest.mark.parametrize("size", sorted(PINS))
    def test_pinned_network_size_stacks(self, gen70, size):
        samples, _ = load_dataset(gen70)
        _, entries = read_manifest(gen70)
        assert hashlib.sha256(stack_samples(samples, size).tobytes()).hexdigest() == self.PINS[size]
        assert hashlib.sha256(load_patch_set(entries, size).images.tobytes()).hexdigest() == self.PINS[size]

    # One sample, one full 16-file chunk, one past it, two past it, and all 70.
    @pytest.mark.parametrize("n", [1, 16, 17, 33, 70])
    @pytest.mark.parametrize("size", [16, 28, 112])
    def test_bits_equal_stacked_samples(self, gen70, size, n):
        samples, _ = load_dataset(gen70)
        _, entries = read_manifest(gen70)
        got = load_patch_set(entries[:n], size)
        want = patch_set(samples[:n], size)
        assert got.images.shape == (n, 2, size, size) and got.images.dtype == np.float32
        assert np.array_equal(got.images.view(np.uint32), stack_samples(samples[:n], size).view(np.uint32))
        assert got.grades.tolist() == want.grades.tolist()
        assert got.regions.tolist() == want.regions.tolist()

    def test_non_integer_factor_refused(self, gen70):
        with pytest.raises(ValueError, match="cannot resize 112 px patches to 30 px"):
            load_patch_set(read_manifest(gen70)[1], 30)
