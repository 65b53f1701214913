import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinemetric import evaluation
from spinemetric.atomic import canonical_json
from spinemetric.backbone import HEAD_CLASSIFIER, NetworkConfig, init_model
from spinemetric.data import patch_set
from spinemetric.evaluation import (
    PROBE_GAP_TOL,
    PROBE_REGULARIZATION,
    PROBE_STEPS,
    FoldSummary,
    Metrics,
    binary_fracture_labels,
    confusion_metrics,
    embed_samples,
    evaluate_folds,
    linear_probe_train,
    project_2d,
    projection_csv,
    projection_svg,
)
from spinemetric.mining import GradeLabel, RegionLabel, make_folds
from spinemetric.phantom import PhantomConfig, generate_dataset

from .oracles import lbfgsb_probe_reference, pegasos_probe_reference, probe_objective

G0, G2, G3 = GradeLabel.G0, GradeLabel.G2, GradeLabel.G3

TINY_NET = NetworkConfig(input_size=16, conv_channels=(4, 8), linear_dims=(16, 8))


def brute_force_counts(predictions, truths):
    tp = fp = tn = fn = 0
    for p, t in zip(predictions, truths):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def tiny_dataset(n0=14, n2=5, n3=5, seed=3):
    counts = {
        (G0, RegionLabel.T1_T5): n0,
        (G2, RegionLabel.L1_L4): n2,
        (G3, RegionLabel.L5): n3,
    }
    samples, _ = generate_dataset(PhantomConfig(seed=seed), counts, seed=seed)
    return samples


PROBE_SETS = ("separable_pair", "xor", "random", "shifted_blobs", "tiny_dataset")
# Pegasos steps of the oracle probe: enough that its predictions on every
# probe set have settled.
PEGASOS_STEPS = 20_000


@pytest.fixture(scope="module")
def probe_sets():
    """Each probe set's embeddings, labels and Pegasos (weights, bias): the
    TestLinearProbe fixtures and the tiny dataset's untrained embeddings."""
    rng = np.random.default_rng(4)
    random = rng.normal(size=(40, 8)), (rng.random(40) < 0.4).astype(int)
    rng = np.random.default_rng(5)
    blobs = np.vstack([rng.normal(size=(60, 4)), rng.normal(size=(20, 4)) + 2.5]), np.array([0] * 60 + [1] * 20)
    samples = tiny_dataset()
    sets = {
        "separable_pair": (np.array([[-1.0], [1.0]]), np.array([0, 1])),
        "xor": (np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), np.array([0, 1, 1, 0])),
        "random": random,
        "shifted_blobs": blobs,
        "tiny_dataset": (embed_samples(init_model(TINY_NET, seed=0), samples), binary_fracture_labels([s.grade for s in samples])),
    }
    return {name: (x, y, pegasos_probe_reference(x, y, n_steps=PEGASOS_STEPS)) for name, (x, y) in sets.items()}


def probe_rows(probe_sets, name):
    """A probe set's embeddings and labels, or for ``paper_ratio`` 962 rows,
    the training split of a paper-ratio dataset (1283 samples, 150
    fractured): 8-D embeddings, the fractured rows shifted by 1 on every
    axis, so the classes overlap."""
    if name != "paper_ratio":
        return probe_sets[name][:2]
    y = np.array([1] * 112 + [0] * 850)
    return np.random.default_rng(962).normal(size=(962, 8)) + y[:, None], y


def duality_gap(x, y, regularization, a):
    """The probe's primal objective at w = z^T a minus its dual objective at a."""
    z = np.where(np.asarray(y) == 1, 1.0, -1.0)[:, None] * np.concatenate([x, np.ones((len(x), 1))], axis=1)
    w = a @ z
    dual = regularization * (a.sum() - 0.5 * (w @ w))
    return probe_objective(x, y, regularization, w[:-1], float(w[-1])) - dual, w


class TestConfusionMetrics:
    def test_perfect_predictions(self):
        m = confusion_metrics([1, 0, 1, 0, 0], [1, 0, 1, 0, 0])
        assert (m.sensitivity, m.specificity, m.f1) == (1.0, 1.0, 1.0)

    def test_worked_example(self):
        preds = [1] * 20 + [0] * 5 + [0] * 270 + [1] * 12
        truths = [1] * 20 + [1] * 5 + [0] * 270 + [0] * 12
        m = confusion_metrics(preds, truths)
        assert (m.tp, m.fn, m.tn, m.fp) == (20, 5, 270, 12)
        assert m.sensitivity == pytest.approx(0.8)
        assert m.specificity == pytest.approx(270 / 282)
        assert m.f1 == pytest.approx(40 / 57)

    def test_all_negative_predictor(self):
        m = confusion_metrics([0, 0, 0, 0], [1, 0, 1, 0])
        assert m.sensitivity == 0.0
        assert m.f1 == 0.0
        assert m.specificity == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_metrics([1, 0], [1])

    def test_matches_brute_force_on_1000_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 2, size=n)
            truths = rng.integers(0, 2, size=n)
            m = confusion_metrics(preds, truths)
            tp, fp, tn, fn = brute_force_counts(preds, truths)
            assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
            assert m.tp + m.fp + m.tn + m.fn == n
            assert m.sensitivity == (tp / (tp + fn) if tp + fn else 0.0)
            assert m.specificity == (tn / (tn + fp) if tn + fp else 0.0)
            assert m.f1 == (2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60)
    )
    def test_f1_bounds_property(self, pairs):
        preds = [p for p, _ in pairs]
        truths = [t for _, t in pairs]
        m = confusion_metrics(preds, truths)
        assert 0.0 <= m.f1 <= 1.0
        if m.f1 == 1.0:
            assert m.fp == 0 and m.fn == 0 and m.tp > 0
        if m.fp == 0 and m.fn == 0 and m.tp > 0:
            assert m.f1 == 1.0


class TestLinearProbe:
    def test_separable_pair(self):
        probe = linear_probe_train([[-1.0], [1.0]], [0, 1], n_steps=2000)
        assert not probe.decision([[-1.0]])[0] > 0
        assert probe.decision([[1.0]])[0] > 0

    def test_xor_not_separable(self):
        X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        y = [0, 1, 1, 0]
        probe = linear_probe_train(X, y, n_steps=5000)
        acc = float(((probe.decision(X) > 0) == np.array(y)).mean())
        # enumeration oracle: the best linear rule on the XOR square gets 3/4
        best = 0.0
        for theta in np.linspace(0.0, np.pi, 361):
            w = np.array([np.cos(theta), np.sin(theta)])
            proj = np.array(X) @ w
            for b in proj:
                for sign in (1, -1):
                    preds = (sign * (proj - b) > 0).astype(int)
                    best = max(best, float((preds == np.array(y)).mean()))
        assert best == 0.75
        assert acc <= 0.75

    def test_determinism(self, probe_sets):
        for x, y, _ in probe_sets.values():
            for n_steps in (5, 100_000):
                a, b = linear_probe_train(x, y, n_steps=n_steps), linear_probe_train(x, y, n_steps=n_steps)
                assert a.weights.tobytes() == b.weights.tobytes()
                assert np.float64(a.bias).tobytes() == np.float64(b.bias).tobytes()

    def test_separates_shifted_blobs(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(size=(60, 4)), rng.normal(size=(20, 4)) + 2.5])
        y = np.array([0] * 60 + [1] * 20)
        probe = linear_probe_train(X, y, n_steps=20000)
        assert float(((probe.decision(X) > 0) == y).mean()) >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            linear_probe_train([[0.0], [1.0]], [1, 1], n_steps=10)


class TestProbeSolver:
    @pytest.mark.parametrize("name", PROBE_SETS)
    def test_objective_not_above_pegasos(self, probe_sets, name):
        x, y, (w, b) = probe_sets[name]
        probe = linear_probe_train(x, y)
        assert probe_objective(x, y, 1e-3, probe.weights, probe.bias) <= probe_objective(x, y, 1e-3, w, b) + 1e-6

    @pytest.mark.parametrize("name", PROBE_SETS)
    def test_predictions_match_pegasos(self, probe_sets, name):
        x, y, (w, b) = probe_sets[name]
        np.testing.assert_array_equal(linear_probe_train(x, y).decision(x) > 0, x @ w + b > 0)

    @pytest.mark.parametrize("name", PROBE_SETS + ("paper_ratio",))
    def test_matches_lbfgsb_oracle(self, probe_sets, name):
        x, y = probe_rows(probe_sets, name)
        probe = linear_probe_train(x, y)
        assert probe.iterations <= 30
        w_ref, b_ref, a_ref = lbfgsb_probe_reference(x, y, PROBE_REGULARIZATION, PROBE_STEPS, PROBE_GAP_TOL)
        np.testing.assert_array_equal(probe.decision(x) > 0, x @ w_ref + b_ref > 0)
        a = evaluation._probe_dual(x, y, PROBE_STEPS)[0]
        gaps = [duality_gap(x, y, PROBE_REGULARIZATION, dual)[0] for dual in (a, a_ref)]
        assert max(gaps) <= PROBE_GAP_TOL
        # The primal is lambda-strongly convex, so each solution lies within
        # sqrt(2 gap / lambda) of the optimum.
        radius = sum(np.sqrt(2 * max(g, 0.0) / PROBE_REGULARIZATION) for g in gaps)
        assert np.linalg.norm(np.append(probe.weights - w_ref, probe.bias - b_ref)) <= radius

    @pytest.mark.parametrize("regularization, tol", [(1e-3, PROBE_GAP_TOL), (0.1, PROBE_GAP_TOL), (1e-3, 1e-12)])
    @pytest.mark.parametrize("name", PROBE_SETS)
    def test_duality_gap_at_return(self, probe_sets, monkeypatch, name, regularization, tol):
        x, y, _ = probe_sets[name]
        monkeypatch.setattr(evaluation, "PROBE_GAP_TOL", tol)
        monkeypatch.setattr(evaluation, "PROBE_REGULARIZATION", regularization)
        probe = linear_probe_train(x, y)
        a = evaluation._probe_dual(x, y, PROBE_STEPS)[0]
        assert np.all((a >= 0) & (a <= 1 / (regularization * len(x))))
        gap, w = duality_gap(x, y, regularization, a)
        assert gap <= tol
        np.testing.assert_allclose(np.append(probe.weights, probe.bias), w, rtol=0, atol=1e-12)
        assert probe.gap == pytest.approx(gap, rel=0, abs=1e-14)

    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_iteration_cap(self, probe_sets, n_steps):
        x, y, _ = probe_sets["tiny_dataset"]
        probe = linear_probe_train(x, y, n_steps=n_steps)
        assert probe.iterations == n_steps and probe.gap > PROBE_GAP_TOL
        assert np.all(np.isfinite(probe.weights)) and np.isfinite(probe.bias)
        assert linear_probe_train(x, y).iterations > 5

    @pytest.mark.parametrize("name", PROBE_SETS + ("paper_ratio",))
    def test_zero_tolerance_stops_on_a_stall(self, probe_sets, monkeypatch, name):
        x, y = probe_rows(probe_sets, name)
        monkeypatch.setattr(evaluation, "PROBE_GAP_TOL", 0.0)
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            probe = linear_probe_train(x, y, n_steps=100_000)
            a = evaluation._probe_dual(x, y, 100_000)[0]
        assert probe.iterations < 100
        assert np.all(np.isfinite(probe.weights)) and np.isfinite(probe.bias)
        assert np.all((a >= 0) & (a <= 1 / (PROBE_REGULARIZATION * len(x))))
        assert duality_gap(x, y, PROBE_REGULARIZATION, a)[0] <= 1e-12

    @pytest.mark.parametrize(
        "labels, kwargs, message",
        [
            ([0, 1, 0], {"n_steps": 0}, "probe iteration cap must be at least 1, got 0"),
            ([0, 1, 0], {"n_steps": -5}, "probe iteration cap must be at least 1, got -5"),
            ([0, 1, 2], {}, "probe labels must be 0 \\(healthy\\) or 1 \\(fractured\\)"),
            ([-1, 1, -1], {}, "probe labels must be 0"),
            ([0, 1, 0.5], {}, "probe labels must be 0"),
        ],
    )
    def test_bad_inputs_rejected(self, labels, kwargs, message):
        with pytest.raises(ValueError, match=message):
            linear_probe_train([[0.0], [1.0], [2.0]], labels, **kwargs)


class TestFoldSummary:
    def test_single_fold_std_zero(self):
        s = FoldSummary(folds=[Metrics(5, 1, 10, 2)])
        assert all(v == 0.0 for v in s.std.values())

    def test_mean_std_match_numpy(self):
        folds = [Metrics(5, 1, 10, 2), Metrics(3, 2, 11, 1), Metrics(6, 0, 9, 3)]
        s = FoldSummary(folds=folds)
        f1s = [m.f1 for m in folds]
        assert s.mean["f1"] == pytest.approx(np.mean(f1s))
        assert s.std["f1"] == pytest.approx(np.std(f1s, ddof=1))

    def test_json_deterministic(self):
        s = FoldSummary(folds=[Metrics(5, 1, 10, 2)])
        assert canonical_json(s.to_dict()) == canonical_json(s.to_dict())
        doc = json.loads(canonical_json(s.to_dict()))
        assert set(doc) == {"folds", "mean", "std"}


class TestProtocols:
    def test_probe_protocol_runs_and_is_deterministic(self):
        samples = tiny_dataset()
        model = init_model(TINY_NET, seed=0)
        folds = make_folds([s.grade for s in samples], 2, 0.3, seed=1)
        data = patch_set(samples, TINY_NET.input_size)
        a = evaluate_folds([model] * len(folds), data, folds, n_steps=500)
        b = evaluate_folds([model] * len(folds), data, folds, n_steps=500)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())
        assert len(a.folds) == 2

    def test_probe_fits_train_rows_and_scores_test_rows(self, monkeypatch):
        samples = tiny_dataset()
        model = init_model(TINY_NET, seed=0)
        folds = make_folds([s.grade for s in samples], 2, 0.3, seed=1)
        emb = embed_samples(model, samples)
        y = binary_fracture_labels([s.grade for s in samples])
        fits = []

        def recording(x, labels, **kwargs):
            fits.append((x, labels, kwargs))
            return linear_probe_train(x, labels, **kwargs)

        monkeypatch.setattr(evaluation, "linear_probe_train", recording)
        got = evaluate_folds([model] * 2, patch_set(samples, TINY_NET.input_size), folds, n_steps=300)
        assert len(fits) == 2
        for fold, (x, labels, kwargs), metrics in zip(folds, fits, got.folds):
            tr, te = list(fold.train_ids), list(fold.test_ids)
            np.testing.assert_array_equal(x, emb[tr])
            np.testing.assert_array_equal(labels, y[tr])
            assert kwargs == {"n_steps": 300}
            probe = linear_probe_train(emb[tr], y[tr], n_steps=300)
            assert metrics == replace(confusion_metrics(probe.decision(emb[te]) > 0, y[te]),
                                      probe_iterations=probe.iterations, probe_gap=probe.gap)

    def test_one_model_over_folds_is_embedded_once(self, monkeypatch):
        samples = tiny_dataset()
        data = patch_set(samples, TINY_NET.input_size)
        folds = make_folds([s.grade for s in samples], 3, 0.3, seed=1)
        calls = []

        def counting(model, samples, *args, **kwargs):
            calls.append(model)
            return embed_samples(model, samples, *args, **kwargs)

        monkeypatch.setattr(evaluation, "embed_samples", counting)
        model = init_model(TINY_NET, seed=0)
        evaluate_folds([model] * 3, data, folds, n_steps=50)
        assert calls == [model]
        other = init_model(TINY_NET, seed=1)
        calls.clear()
        evaluate_folds([model, other, other], data, folds, n_steps=50)
        assert calls == [model, other]

    @staticmethod
    def _rigged_classifier(bias):
        m = init_model(TINY_NET, seed=0).swap_head(HEAD_CLASSIFIER, seed=0)
        m.parameters()["head.weight"][...] = 0.0
        m.parameters()["head.bias"][...] = np.array(bias, dtype=np.float32)
        return m

    def test_classifier_majority_predictor_has_zero_sensitivity(self):
        samples = tiny_dataset()
        folds = make_folds([s.grade for s in samples], 2, 0.3, seed=2)
        # rig the head so logit 0 (healthy) always wins
        models = [self._rigged_classifier([10.0, -10.0]) for _ in folds]
        summary = evaluate_folds(models, patch_set(samples, TINY_NET.input_size), folds)
        for fold, m in zip(folds, summary.folds):
            assert m.sensitivity == 0.0 and m.specificity == 1.0
            assert m.tn + m.fn == len(fold.test_ids)

    def test_tied_logits_score_healthy(self):
        samples = tiny_dataset()
        folds = make_folds([s.grade for s in samples], 2, 0.3, seed=2)
        models = [self._rigged_classifier([3.0, 3.0]) for _ in folds]
        summary = evaluate_folds(models, patch_set(samples, TINY_NET.input_size), folds)
        for fold, m in zip(folds, summary.folds):
            assert m.tp + m.fp == 0 and m.tn + m.fn == len(fold.test_ids)

    def test_logit_margin_matches_argmax(self, monkeypatch):
        # z1 - z0 > 0 is argmax's rule, a tie going to healthy (class 0),
        # also for logits one ulp apart.
        samples = tiny_dataset()
        data = patch_set(samples, TINY_NET.input_size)
        folds = make_folds(data.grades, 3, 0.3, seed=2)
        rng, drawn = np.random.default_rng(9), []

        def random_logits(model, rows):
            z = rng.normal(size=(len(rows), 2)).astype(np.float32)
            z[::3, 1] = z[::3, 0]
            z[1::3, 1] = np.nextafter(z[1::3, 0], np.float32(np.inf))
            drawn.append(z)
            return z

        monkeypatch.setattr(evaluation, "embed_logits", random_logits)
        models = [self._rigged_classifier([0.0, 0.0])] * len(folds)
        summary = evaluate_folds(models, data, folds)
        y = binary_fracture_labels(data.grades)
        assert len(drawn) == len(folds)
        for fold, z, got in zip(folds, drawn, summary.folds):
            assert got == confusion_metrics(np.argmax(z, axis=1), y[list(fold.test_ids)])

    def test_patch_set_embeds_like_sample_list(self, monkeypatch):
        samples = tiny_dataset()
        data = patch_set(samples, TINY_NET.input_size)
        embedder = init_model(TINY_NET, seed=0)
        monkeypatch.setattr(evaluation, "EVAL_BATCH", 7)
        a, b = embed_samples(embedder, samples), embed_samples(embedder, data)
        assert a.shape == (len(samples), 8)
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
        assert np.array_equal(binary_fracture_labels([s.grade for s in samples]), binary_fracture_labels(data.grades))

    def test_classifier_needs_model_per_fold(self):
        samples = tiny_dataset()
        folds = make_folds([s.grade for s in samples], 2, 0.3, seed=2)
        with pytest.raises(ValueError, match="one model per fold"):
            evaluate_folds([init_model(TINY_NET, seed=0)], patch_set(samples, TINY_NET.input_size), folds)


class TestProjection:
    def test_rank_one_data_second_axis_vanishes(self):
        rng = np.random.default_rng(0)
        line = np.outer(np.linspace(-3, 3, 30), rng.normal(size=8))
        coords = project_2d(line)
        assert np.abs(coords[:, 1]).max() <= 1e-8

    def test_axis_variance_ordering(self):
        rng = np.random.default_rng(1)
        coords = project_2d(rng.normal(size=(200, 8)))
        var = coords.var(axis=0)
        assert var[0] >= var[1]

    def test_variance_sum_against_eigendecomposition_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 6)) @ np.diag([4.0, 3.0, 2.0, 1.0, 0.5, 0.2])
        coords = project_2d(x)
        cov = np.cov(x - x.mean(axis=0), rowvar=False, ddof=0)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        proj_var = coords.var(axis=0, ddof=0).sum()
        assert proj_var == pytest.approx(eig[0] + eig[1], rel=1e-9)
        assert proj_var <= eig.sum() + 1e-12
        # rank-2 input reaches equality
        x2 = rng.normal(size=(50, 2)) @ rng.normal(size=(2, 6))
        c2 = project_2d(x2)
        cov2 = np.cov(x2 - x2.mean(axis=0), rowvar=False, ddof=0)
        assert c2.var(axis=0, ddof=0).sum() == pytest.approx(
            np.trace(cov2), rel=1e-9
        )

    def test_isometry_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 8))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        d = lambda c: np.linalg.norm(c[:, None] - c[None], axis=-1)
        assert np.abs(d(project_2d(x)) - d(project_2d(x @ q.T))).max() <= 1e-8

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValueError):
            project_2d(np.zeros((1, 8)))

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 5))
        assert np.array_equal(project_2d(x), project_2d(x.copy()))


class TestProjectionOutputs:
    def test_csv_format(self):
        coords = np.array([[0.0, 1.0], [2.0, 3.0]])
        text = projection_csv([10, 11], [G0, G3], coords)
        lines = text.strip().split("\n")
        assert lines[0] == "id,grade,x,y"
        assert lines[1].startswith("10,0,")
        assert lines[2].startswith("11,3,")

    def test_svg_has_three_grade_colors(self):
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(30, 2))
        grades = [G0] * 10 + [G2] * 10 + [G3] * 10
        svg = projection_svg(grades, coords)
        assert svg.startswith("<svg")
        for color in ("#4878d0", "#ee854a", "#d65f5f"):
            assert color in svg
        assert svg.count("<circle") == 30 + 3  # points + legend
