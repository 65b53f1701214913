import numpy as np
import pytest

from spinemetric.data import stack_samples
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
