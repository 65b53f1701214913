import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinemetric.losses import (
    ALPHA,
    BETA,
    GAMMA,
    MARGIN,
    contrastive_loss,
    cross_entropy,
    grading_loss,
    sq_dist,
    triplet_loss,
)

from .oracles import (
    contrastive_loss_reference,
    cross_entropy_reference,
    grading_loss_reference,
    numeric_gradient,
    rel_err,
    sq_dist_loop,
    triplet_loss_reference,
)

finite_vec = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=8
)


class TestSqDist:
    def test_identity(self):
        assert sq_dist([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_three_four_five(self):
        assert sq_dist([0.0, 0.0], [3.0, 4.0]) == 25.0

    def test_matches_scalar_loop_oracle(self):
        a = np.random.default_rng(42).normal(size=8)
        b = np.random.default_rng(43).normal(size=8)
        assert sq_dist(a, b) == pytest.approx(sq_dist_loop(a, b), rel=1e-12)

    @given(finite_vec, finite_vec)
    def test_symmetry_and_nonnegativity(self, a, b):
        if len(a) != len(b):
            a = (a * 8)[: min(len(a), len(b))]
            b = (b * 8)[: min(len(a), len(b))]
        d = sq_dist(a, b)
        assert d >= 0.0
        assert d == sq_dist(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sq_dist([0.0, 1.0], [0.0, 1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            sq_dist([np.nan, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            sq_dist([np.inf, 0.0], [0.0, 0.0])


class TestGradingLoss:
    def test_worked_example_inactive_hinges(self):
        # d(g2,g3)=1, d(g2,g0)=4, d(g0,g3)=9, d(g0,anchor)=0.04
        lv = grading_loss([0.0], [2.0], [3.0], [0.2], 0)
        assert lv.terms["L1"] == 0.0
        assert lv.terms["L2"] == 0.0
        assert lv.terms["L3"] == 0.0
        assert lv.total == 0.0

    def test_coincident_embeddings_reduce_to_margins(self):
        e = [1.0, -2.0]
        lv = grading_loss(e, e, e, e, 0)
        assert lv.terms["L1"] == pytest.approx(1.5)
        assert lv.terms["L2"] == pytest.approx(1.0)
        assert lv.terms["L3"] == 0.0
        assert lv.total == pytest.approx(2.5)

    def test_worked_example_active_hinges(self):
        lv = grading_loss([0.0], [1.0], [1.2], [1.0], 2)
        assert lv.terms["L1"] == pytest.approx(0.54, abs=1e-9)
        assert lv.terms["L2"] == pytest.approx(0.56, abs=1e-9)
        assert lv.terms["L3"] == 0.0
        assert lv.total == pytest.approx(1.10, abs=1e-9)

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e = rng.normal(size=(4, 8))
            lv = grading_loss(e[0], e[1], e[2], e[3], 2)
            assert lv.total == pytest.approx(sum(lv.terms.values()), abs=1e-9)
            assert all(v >= 0.0 for v in lv.terms.values())

    def test_margin_satisfaction_gives_exact_zero(self):
        # 1-D geometry engineered so every constraint holds with slack
        lv = grading_loss([0.0], [3.0], [5.0], [0.1], 0)
        assert lv.total == 0.0
        assert all(np.all(g == 0.0) for g in lv.gradients.values())

    @given(st.integers(0, 2), st.floats(-5, 5, allow_nan=False))
    def test_translation_invariance(self, which_anchor, shift):
        rng = np.random.default_rng(7)
        e = rng.normal(size=(4, 6))
        anchor_class = [0, 2, 3][which_anchor]
        base = grading_loss(e[0], e[1], e[2], e[3], anchor_class)
        moved = grading_loss(e[0] + shift, e[1] + shift, e[2] + shift, e[3] + shift, anchor_class)
        for key in base.terms:
            assert moved.terms[key] == pytest.approx(base.terms[key], abs=1e-9)

    def test_scaling_matches_reevaluation_oracle(self):
        rng = np.random.default_rng(11)
        for s in (1.5, 2.0, 3.0):
            e = rng.normal(size=(4, 8))
            gap1 = sq_dist_loop(e[1], e[2]) - sq_dist_loop(e[1], e[0])
            gap2 = sq_dist_loop(e[0], e[1]) - sq_dist_loop(e[0], e[2])
            lv = grading_loss(s * e[0], s * e[1], s * e[2], s * e[3], 0)
            assert lv.terms["L1"] == pytest.approx(max(0.0, s * s * gap1 + 1.5), rel=1e-9)
            assert lv.terms["L2"] == pytest.approx(max(0.0, s * s * gap2 + 1.0), rel=1e-9)

    def test_invalid_anchor_class(self):
        with pytest.raises(ValueError):
            grading_loss([0.0], [1.0], [2.0], [0.0], 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grading_loss([0.0, 1.0], [1.0], [2.0], [0.0], 0)


class TestMargins:
    def test_ordering_enforced(self):
        # The healthy-vs-g2 separation is the widest, the clustering radius
        # the tightest.
        assert ALPHA > BETA > GAMMA > 0.0

    def test_defaults_match_published_settings(self):
        assert (ALPHA, BETA, GAMMA, MARGIN) == (1.5, 1.0, 0.5, 1.0)


class TestTripletLoss:
    def test_coincident(self):
        e = [0.5, 0.5]
        assert triplet_loss(e, e, e).total == pytest.approx(1.0)

    def test_satisfied(self):
        lv = triplet_loss([0.0, 0.0], [1.0, 0.0], [3.0, 0.0])
        assert lv.total == 0.0

    def test_violated(self):
        lv = triplet_loss([0.0, 0.0], [2.0, 0.0], [1.0, 0.0])
        assert lv.total == pytest.approx(4.0)


class TestContrastiveLoss:
    def test_similar_identity(self):
        assert contrastive_loss([1.0, 2.0], [1.0, 2.0], similar=True).total == 0.0

    def test_dissimilar_far(self):
        assert contrastive_loss([0.0, 0.0], [0.0, 2.0], similar=False).total == 0.0

    def test_dissimilar_coincident(self):
        lv = contrastive_loss([1.0, 1.0], [1.0, 1.0], similar=False)
        assert lv.total == pytest.approx(1.0)


class TestCrossEntropy:
    def test_uniform(self):
        assert cross_entropy([0.0, 0.0], 0).total == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        assert cross_entropy([10.0, -10.0], 0).total == pytest.approx(
            np.log1p(np.exp(-20.0)), rel=1e-9
        )

    def test_confident_wrong(self):
        assert cross_entropy([10.0, -10.0], 1).total == pytest.approx(
            20.0 + np.log1p(np.exp(-20.0)), rel=1e-12
        )

    def test_large_logits_stable(self):
        lv = cross_entropy([1000.0, 0.0], 0)
        assert np.isfinite(lv.total)
        assert lv.total == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy([0.0, 0.0], 2)

    @given(st.lists(st.floats(-30, 30, allow_nan=False), min_size=2, max_size=6))
    def test_gradient_sums_to_zero(self, logits):
        lv = cross_entropy(logits, 0)
        assert float(np.sum(lv.gradients["logits"])) == pytest.approx(0.0, abs=1e-9)


def _sample_off_kink_quadruplet(rng, min_gap=1e-2):
    """Embeddings whose hinge arguments all sit >= min_gap from zero."""
    while True:
        e = rng.normal(size=(4, 8))
        args = [
            sq_dist_loop(e[1], e[2]) - sq_dist_loop(e[1], e[0]) + ALPHA,
            sq_dist_loop(e[0], e[1]) - sq_dist_loop(e[0], e[2]) + BETA,
            sq_dist_loop(e[0], e[3]) - GAMMA,
        ]
        if all(abs(a) >= min_gap for a in args):
            return e


class TestGradients:
    @settings(deadline=None)
    @given(st.integers(0, 10_000))
    def test_grading_loss_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        e = _sample_off_kink_quadruplet(rng)
        lv = grading_loss(e[0], e[1], e[2], e[3], 0)
        for i, key in enumerate(("g0", "g2", "g3", "anchor")):

            def f(v, i=i):
                inputs = [e[0], e[1], e[2], e[3]]
                inputs[i] = v
                return grading_loss(*inputs, 0).total

            fd = numeric_gradient(f, e[i], h=1e-3)
            assert rel_err(lv.gradients[key], fd, guard=1e-6) < 1e-4

    def test_triplet_gradients(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = rng.normal(size=(3, 8))
            arg = sq_dist_loop(e[0], e[1]) - sq_dist_loop(e[0], e[2]) + 1.0
            if abs(arg) < 1e-2:
                continue
            lv = triplet_loss(e[0], e[1], e[2])
            for i, key in enumerate(("anchor", "positive", "negative")):

                def f(v, i=i):
                    inputs = [e[0], e[1], e[2]]
                    inputs[i] = v
                    return triplet_loss(*inputs).total

                fd = numeric_gradient(f, e[i], h=1e-3)
                assert rel_err(lv.gradients[key], fd, guard=1e-6) < 1e-4

    @pytest.mark.parametrize("similar", [True, False])
    def test_contrastive_gradients(self, similar):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = rng.normal(size=(2, 8))
            if not similar and abs(1.0 - sq_dist_loop(a, b)) < 1e-2:
                continue
            lv = contrastive_loss(a, b, similar=similar)
            fd_a = numeric_gradient(
                lambda v: contrastive_loss(v, b, similar=similar).total, a
            )
            fd_b = numeric_gradient(
                lambda v: contrastive_loss(a, v, similar=similar).total, b
            )
            assert rel_err(lv.gradients["a"], fd_a, guard=1e-6) < 1e-4
            assert rel_err(lv.gradients["b"], fd_b, guard=1e-6) < 1e-4

    def test_cross_entropy_gradients(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            z = rng.normal(size=4) * 3
            lv = cross_entropy(z, 2)
            fd = numeric_gradient(lambda v: cross_entropy(v, 2).total, z, h=1e-4)
            assert rel_err(lv.gradients["logits"], fd, guard=1e-6) < 1e-4


# --- batched losses against the per-vector oracles --------------------------


def _assert_matches_oracle(batched, per_row, keys):
    """A batched LossValue equals the per-tuple oracle values: total and
    terms summed over the rows, gradients stacked row by row."""
    assert batched.total == pytest.approx(sum(lv.total for lv in per_row), rel=1e-12, abs=1e-12)
    for term, value in batched.terms.items():
        want = sum(lv.terms.get(term, 0.0) for lv in per_row)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12), term
    for key in keys:
        want = np.stack([lv.gradients[key] for lv in per_row])
        if len(per_row) == 1 and batched.gradients[key].ndim == 1:
            want = want[0]
        np.testing.assert_allclose(batched.gradients[key], want, rtol=1e-12, atol=1e-12)


GRADING_KEYS = ("g0", "g2", "g3", "anchor")


def _kink_quadruplets():
    """Rows on each hinge kink, from dyadic coordinates so every distance
    and hinge argument is exact: L1 = 0 (d(g2,g3)=2.5, d(g2,g0)=4), L2 = 0
    (d(g0,g2)=1, d(g0,g3)=2), and the anchor at distance gamma = 0.5 from
    its match, for each anchor class."""
    rows, classes = [], []
    for g0, g2, g3 in (
        ([0.0, 0.0], [2.0, 0.0], [3.5, 0.5]),
        ([0.0, 0.0], [1.0, 0.0], [1.0, 1.0]),
    ):
        for c, match in zip((0, 2, 3), (g0, g2, g3)):
            anchor = [match[0] + 0.5, match[1] + 0.5]
            rows.append(np.array([g0, g2, g3, anchor]))
            classes.append(c)
    return np.array(rows), np.array(classes)


class TestBatchedLossesMatchOracles:
    def test_grading_random_batches(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            # Per-row scales put every hinge active on some rows, not all.
            e = rng.normal(size=(4, 64, 8)) * rng.uniform(0.05, 1.5, size=(1, 64, 1))
            cls = rng.choice([0, 2, 3], size=64)
            lv = grading_loss(*e, cls)
            per_row = [grading_loss_reference(*e[:, t], int(cls[t])) for t in range(64)]
            _assert_matches_oracle(lv, per_row, GRADING_KEYS)
            for term in ("L1", "L2", "L3"):
                active = [r.terms[term] > 0 for r in per_row]
                assert any(active) and not all(active), term

    def test_grading_rows_on_the_kinks(self):
        e, cls = _kink_quadruplets()
        lv = grading_loss(*e.transpose(1, 0, 2), cls)
        per_row = [grading_loss_reference(*q, int(c)) for q, c in zip(e, cls)]
        _assert_matches_oracle(lv, per_row, GRADING_KEYS)
        assert lv.terms["L3"] == 0.0

    def test_single_tuple_keeps_vector_shapes(self):
        e = np.random.default_rng(4).normal(size=(4, 8))
        lv = grading_loss(*e, 3)
        _assert_matches_oracle(lv, [grading_loss_reference(*e, 3)], GRADING_KEYS)
        assert all(g.shape == (8,) for g in lv.gradients.values())

    def test_triplet_random_batches_and_kink(self):
        rng = np.random.default_rng(22)
        e = rng.normal(size=(3, 64, 8)) * 0.4
        kink = np.array([[[0.0, 0.0]], [[1.0, 0.0]], [[1.0, 1.0]]])  # d(a,p) - d(a,n) + 1 = 0
        for batch in (e, kink):
            lv = triplet_loss(*batch)
            per_row = [triplet_loss_reference(*batch[:, t]) for t in range(batch.shape[1])]
            _assert_matches_oracle(lv, per_row, ("anchor", "positive", "negative"))
        assert triplet_loss(*kink).total == 0.0

    def test_contrastive_mixed_flags_and_kink(self):
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(2, 64, 8)) * 0.4
        similar = rng.random(64) < 0.5
        # A dissimilar pair at distance exactly the margin.
        a = np.vstack([a, np.zeros(8)])
        b = np.vstack([b, np.eye(8)[0]])
        similar = np.append(similar, False)
        lv = contrastive_loss(a, b, similar)
        per_row = [contrastive_loss_reference(x, y, bool(s)) for x, y, s in zip(a, b, similar)]
        _assert_matches_oracle(lv, per_row, ("a", "b"))
        assert np.all(lv.gradients["a"][-1] == 0.0)

    def test_cross_entropy_random_batches(self):
        rng = np.random.default_rng(24)
        z = rng.normal(size=(64, 3)) * 5
        labels = rng.integers(3, size=64)
        lv = cross_entropy(z, labels)
        per_row = [cross_entropy_reference(row, int(y)) for row, y in zip(z, labels)]
        _assert_matches_oracle(lv, per_row, ("logits",))

    def test_per_tuple_argument_length_checked(self):
        e = np.zeros((4, 3, 2))
        with pytest.raises(ValueError):
            grading_loss(*e, [0, 2])
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((3, 2)), [0, 1])


def input_names(loss, count):
    """The names of a loss's first ``count`` parameters, without ``e_``."""
    return [name.removeprefix("e_") for name in list(inspect.signature(loss).parameters)[:count]]


class TestGradientOrder:
    """The training loop stacks ``gradients.values()`` as the tuple's members,
    so every loss must key its gradients by its inputs, in argument order."""

    E = np.arange(6.0).reshape(2, 3)

    def test_grading(self):
        lv = grading_loss(self.E, self.E + 1, self.E + 2, self.E + 3, anchor_class=[0, 3])
        assert list(lv.gradients) == input_names(grading_loss, 4) == ["g0", "g2", "g3", "anchor"]

    def test_triplet(self):
        lv = triplet_loss(self.E, self.E + 1, self.E + 2)
        assert list(lv.gradients) == input_names(triplet_loss, 3) == ["anchor", "positive", "negative"]

    def test_contrastive(self):
        lv = contrastive_loss(self.E, self.E + 1, similar=[1, 0])
        assert list(lv.gradients) == input_names(contrastive_loss, 2) == ["a", "b"]

    def test_cross_entropy(self):
        lv = cross_entropy(self.E, label=[0, 2])
        assert list(lv.gradients) == input_names(cross_entropy, 1) == ["logits"]
