import numpy as np
import pytest

from spinemetric.data import patch_set, stack_samples
from spinemetric.mining import GRADES, RegionLabel
from spinemetric.phantom import PhantomConfig, generate_patch


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
        # Rows on both sides of the 64-sample chunk boundary, in any order.
        for idx in ([63, 64], [69, 0, 64, 63, 5], list(rng.permutation(70)[:40]), [7]):
            sub = stack_samples([samples[i] for i in idx], size)
            assert np.array_equal(full[idx].view(np.uint32), sub.view(np.uint32))

    def test_non_integer_factor_refused(self, samples):
        with pytest.raises(ValueError):
            stack_samples(samples[:2], 30)

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            stack_samples([], 16)


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
