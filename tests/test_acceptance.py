"""Acceptance gate: one test per criterion, each printing a PASS line.

This module checks criteria 1, 2 and 6-9, which are exact property suites,
and criterion 3, the margins ALPHA and BETA (constants of ``losses``) that
grading-loss training opens between the grade centroids. Criteria 4 and 5, the probe comparison and the classifier
comparison, are not checked here; ROADMAP item 1 tracks them.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from spinemetric.backbone import NetworkConfig, init_model
from spinemetric.evaluation import confusion_metrics, embed_samples
from spinemetric.losses import (
    ALPHA,
    BETA,
    contrastive_loss,
    cross_entropy,
    grading_loss,
    sq_dist,
    triplet_loss,
)
from spinemetric.mining import GradeLabel, make_folds
from spinemetric.phantom import (
    PAPER_GRADE_TOTALS,
    PhantomConfig,
    counts_at_ratio,
    generate_dataset,
    generate_spine_volume,
    reformat_curved,
)
from spinemetric.pipeline import (
    STAGE_FRACTURE,
    STAGE_LABEL,
    STAGE_REPRESENTATION,
    PipelineConfig,
    StagePlan,
    run_pipeline,
    run_stage,
)

from .oracles import arc_length_to_knot, numeric_gradient, rel_err, sq_dist_loop
from .test_evaluation import brute_force_counts
from .test_losses import _sample_off_kink_quadruplet

# Desk-scale benchmark: 600 samples at the published 1133:104:46 ratio and a
# reduced backbone (the full 112px architecture is covered by its own tests).
BENCH_SEED = 11
BENCH_NET = NetworkConfig(input_size=16, conv_channels=(6, 12), linear_dims=(24, 8))


# Not named ``benchmark``: pytest-benchmark's hook claims a fixture of that name.
@pytest.fixture(scope="module")
def bench_phantoms():
    counts = counts_at_ratio(PAPER_GRADE_TOTALS, scale=600 / 1283)
    samples, _ = generate_dataset(PhantomConfig(seed=BENCH_SEED), counts, seed=BENCH_SEED)
    folds = make_folds([s.grade for s in samples], 15, 0.25, seed=BENCH_SEED)
    return samples, folds


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


class TestCriterion1LossExactness:
    def test_loss_exactness(self):
        cases = [
            (grading_loss([0.0], [2.0], [3.0], [0.2], 0).total, 0.0),
            (grading_loss([1.0], [1.0], [1.0], [1.0], 0).total, 2.5),
            (grading_loss([0.0], [1.0], [1.2], [1.0], 2).total, 1.10),
            (triplet_loss([0.0], [0.0], [0.0]).total, 1.0),
            (triplet_loss([0.0, 0.0], [1.0, 0.0], [3.0, 0.0]).total, 0.0),
            (triplet_loss([0.0, 0.0], [2.0, 0.0], [1.0, 0.0]).total, 4.0),
            (contrastive_loss([0.0], [0.0], True).total, 0.0),
            (contrastive_loss([0.0, 0.0], [0.0, 2.0], False).total, 0.0),
            (contrastive_loss([1.0], [1.0], False).total, 1.0),
            (cross_entropy([0.0, 0.0], 0).total, float(np.log(2.0))),
            (cross_entropy([10.0, -10.0], 0).total, float(np.log1p(np.exp(-20.0)))),
            (cross_entropy([10.0, -10.0], 1).total, 20.0 + float(np.log1p(np.exp(-20.0)))),
        ]
        for got, expected in cases:
            assert abs(got - expected) < 1e-6, (got, expected)
        # hinge-zero configurations are exactly zero
        assert grading_loss([0.0], [3.0], [5.0], [0.1], 0).total == 0.0
        assert triplet_loss([0.0, 0.0], [1.0, 0.0], [9.0, 0.0]).total == 0.0
        assert contrastive_loss([0.0, 0.0], [0.0, 9.0], False).total == 0.0
        _report(1, "all hand-derived loss values reproduced within 1e-6")


class TestCriterion2GradientFidelity:
    def test_grading_loss_gradients_100_quadruplets(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            e = _sample_off_kink_quadruplet(rng, min_gap=1e-2)
            anchor_class = int(rng.choice([0, 2, 3]))
            lv = grading_loss(e[0], e[1], e[2], e[3], anchor_class)
            for i, key in enumerate(("g0", "g2", "g3", "anchor")):

                def f(v, i=i):
                    inputs = [e[0], e[1], e[2], e[3]]
                    inputs[i] = v
                    return grading_loss(*inputs, anchor_class).total

                fd = numeric_gradient(f, e[i], h=1e-3)
                worst = max(worst, rel_err(lv.gradients[key], fd, guard=1e-6))
        assert worst < 1e-4, worst
        _report(2, f"grading-loss gradients match finite differences (max rel err {worst:.2e})")

    def test_backbone_gradients_reduced_config(self):
        cfg = NetworkConfig(input_size=8, conv_channels=(3, 4), linear_dims=(6, 5), dtype="float64")
        model = init_model(cfg, seed=1)
        rng = np.random.default_rng(101)
        x = rng.normal(size=(3, 2, 8, 8))
        upstream = rng.normal(size=(3, 5))

        def loss():
            return float(np.sum(model.forward(x, train=True) * upstream))

        model.forward(x, train=True)
        model.zero_grad()
        grads = {k: v.copy() for k, v in model.backward(upstream).items()}
        h = 1e-3
        worst = 0.0
        for name, p in model.parameters().items():
            flat = p.ravel()
            g = grads[name].ravel()
            for idx in range(0, flat.size, 5):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss()
                flat[idx] = orig - h
                lm = loss()
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, rel_err(g[idx], fd))
        assert worst < 1e-3, worst
        _report(2, f"backbone finite-difference check on reduced config (max rel err {worst:.2e})")


class TestCriterion3MarginOrdering:
    def test_grading_stage_opens_the_margins(self, bench_phantoms):
        samples, folds = bench_phantoms
        train = [samples[i] for i in folds[0].train_ids]
        test = [samples[i] for i in folds[0].test_ids]
        grades = np.array([s.grade for s in test])
        model = init_model(BENCH_NET, seed=BENCH_SEED)
        config = PipelineConfig(network=BENCH_NET, seed=BENCH_SEED)

        def centroid_distances():
            """Squared distances d(g2,g3), d(g0,g2), d(g0,g3) between the
            eval-mode grade centroids of the test rows."""
            emb = embed_samples(model, test)
            c0, c2, c3 = (emb[grades == g].mean(axis=0) for g in (0, 2, 3))
            return sq_dist(c2, c3), sq_dist(c0, c2), sq_dist(c0, c3)

        # The phantoms already order the centroids before training, since
        # height loss grows with grade: only the margins show learning.
        d23, d02, d03 = centroid_distances()
        assert d02 - d23 < ALPHA and d03 - d02 < BETA, (d23, d02, d03)
        plan = StagePlan(STAGE_REPRESENTATION, "grading", epochs=10)
        run_stage(model, plan, train, seed=config.seed, config=config)
        d23, d02, d03 = centroid_distances()
        assert d23 < d02 < d03, (d23, d02, d03)
        assert d02 - d23 >= ALPHA and d03 - d02 >= BETA, (d23, d02, d03)
        _report(
            3,
            f"after grading training d(g2,g3)={d23:.2f} < d(g0,g2)={d02:.2f} < d(g0,g3)={d03:.2f}, "
            f"margins {d02 - d23:.2f} >= ALPHA={ALPHA} and {d03 - d02:.2f} >= BETA={BETA}",
        )


class TestCriterion6MetricsOracle:
    def test_metrics_match_brute_force(self):
        rng = np.random.default_rng(66)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            preds = rng.integers(0, 2, size=n)
            truths = rng.integers(0, 2, size=n)
            m = confusion_metrics(preds, truths)
            tp, fp, tn, fn = brute_force_counts(preds, truths)
            assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
            assert m.sensitivity == (tp / (tp + fn) if tp + fn else 0.0)
            assert m.specificity == (tn / (tn + fp) if tn + fp else 0.0)
            assert m.f1 == (2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        _report(6, "SN/SP/F1 match brute-force confusion counting on 1000 vectors, exactly")


class TestCriterion7Reformation:
    def test_straight_identity_and_curved_rows(self):
        cfg = PhantomConfig(seed=0)
        straight = generate_spine_volume(cfg, 17, 0.0, [GradeLabel.G0] * 17, seed=5)
        ref = reformat_curved(straight)
        assert ref.image.shape == straight.mid_sagittal().shape
        diff = float(np.abs(ref.image - straight.mid_sagittal()).max())
        assert diff <= 1e-6

        curved = generate_spine_volume(cfg, 17, 0.4, [GradeLabel.G0] * 17, seed=5)
        refc = reformat_curved(curved)
        pts = [p for _, p in curved.centroids]
        row0 = refc.centroids_rc[0][0]
        worst = 0.0
        for k in range(len(pts)):
            expected = arc_length_to_knot(pts, k)
            worst = max(worst, abs((refc.centroids_rc[k][0] - row0) - expected))
        assert worst <= 1.0
        _report(
            7,
            f"straight reformation identical to mid-sagittal (max diff {diff:.1e}); "
            f"curved centroid rows within {worst:.2e} mm of the quadrature oracle",
        )


class TestCriterion8Determinism:
    def _cli(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "spinemetric.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_cli_reruns_byte_identical(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / f"ds_{name}"
            digests.append(
                self._cli("gen", "--counts", "g0=10,g2=4,g3=4", "--seed", "3",
                          "--out", str(out)).strip()
            )
        assert digests[0] == digests[1]

        metrics = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            self._cli(
                "train", "--dataset", str(tmp_path / "ds_a"), "--stages",
                "grading,fracture", "--epochs", "1,1", "--network", "tiny",
                "--folds", "2", "--test-fraction", "0.3", "--seed", "4",
                "--out", str(out),
            )
            metrics.append(
                b"".join(
                    (out / f"fold_{k:02d}" / "metrics.json").read_bytes() for k in range(2)
                )
            )
        assert metrics[0] == metrics[1]

        evals = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            self._cli(
                "eval", "--protocol", "classify", "--dataset", str(tmp_path / "ds_a"),
                "--run", str(tmp_path / "t1"), "--out", str(out),
            )
            evals.append((out / "metrics.json").read_bytes())
        assert evals[0] == evals[1]
        _report(8, "gen/train/eval reruns produce byte-identical digests and metrics JSON")


class TestCriterion9Stratification:
    def test_folds_at_paper_scale(self):
        labels = (
            [GradeLabel.G0] * 1133 + [GradeLabel.G2] * 104 + [GradeLabel.G3] * 46
        )
        frac = 317 / 1283
        folds = make_folds(labels, n_folds=15, test_fraction=frac, seed=2024)
        counts = {g: labels.count(g) for g in (GradeLabel.G0, GradeLabel.G2, GradeLabel.G3)}
        for fold in folds:
            for g, n in counts.items():
                got = sum(1 for i in fold.test_ids if labels[i] == g)
                assert abs(got - n * frac) <= 1.0
        _report(9, "all 15 folds at the 1283-sample scale preserve grade ratios within ±1")
