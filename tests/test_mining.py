import hashlib
import json
import re

import numpy as np
import pytest

from spinemetric.mining import (
    SIMILAR_FRACTION,
    GradeLabel,
    RegionLabel,
    folds_from_json,
    folds_to_json,
    make_folds,
    mine_pairs,
    mine_quadruplets,
    mine_triplets,
)

from .oracles import mine_pairs_reference, mine_quadruplets_reference, mine_triplets_reference

G0, G2, G3 = GradeLabel.G0, GradeLabel.G2, GradeLabel.G3


def paper_scale_labels():
    return [G0] * 1133 + [G2] * 104 + [G3] * 46


class TestMakeFolds:
    def test_stratification_at_paper_scale(self):
        labels = paper_scale_labels()
        frac = 317 / 1283
        folds = make_folds(labels, n_folds=15, test_fraction=frac, seed=99)
        assert len(folds) == 15
        counts = {g: labels.count(g) for g in (G0, G2, G3)}
        for fold in folds:
            test_set = set(fold.test_ids)
            train_set = set(fold.train_ids)
            assert test_set.isdisjoint(train_set)
            assert test_set | train_set == set(range(len(labels)))
            for g, n in counts.items():
                got = sum(1 for i in fold.test_ids if labels[i] == g)
                assert abs(got - n * frac) <= 1.0, (g, got, n * frac)

    def test_reproducible_from_seed_and_fold_id(self):
        labels = [G0] * 20 + [G2] * 8 + [G3] * 6
        a = make_folds(labels, n_folds=4, test_fraction=0.3, seed=5)
        b = make_folds(labels, n_folds=4, test_fraction=0.3, seed=5)
        assert folds_to_json(a) == folds_to_json(b)
        # fold k of an n-fold run equals fold k of a longer run (independence)
        c = make_folds(labels, n_folds=2, test_fraction=0.3, seed=5)
        assert a[1].test_ids == c[1].test_ids

    def test_folds_differ_across_fold_ids(self):
        labels = [G0] * 50 + [G2] * 20 + [G3] * 12
        folds = make_folds(labels, n_folds=6, test_fraction=0.25, seed=1)
        assert len({f.test_ids for f in folds}) > 1

    def test_empty_grade_rejected(self):
        with pytest.raises(ValueError):
            make_folds([G0, G0, G2], n_folds=1, test_fraction=0.5, seed=0)

    def test_degenerate_fraction_rejected(self):
        labels = [G0, G2, G3]
        with pytest.raises(ValueError):
            make_folds(labels, n_folds=1, test_fraction=0.01, seed=0)
        with pytest.raises(ValueError):
            make_folds(labels, n_folds=1, test_fraction=0.99, seed=0)

    def test_json_round_trip(self):
        labels = [G0] * 10 + [G2] * 4 + [G3] * 4
        folds = make_folds(labels, n_folds=3, test_fraction=0.25, seed=3)
        text = folds_to_json(folds)
        assert folds_to_json(folds_from_json(text)) == text
        doc = json.loads(text)
        assert doc["seed"] == 3
        assert len(doc["folds"]) == 3

    def test_json_bytes_pinned(self):
        # folds.json is canonical JSON: a change of encoding moves these bytes.
        folds = make_folds([G0] * 10 + [G2] * 4 + [G3] * 4, 3, 0.25, seed=3)
        digest = hashlib.sha256(folds_to_json(folds).encode()).hexdigest()
        assert digest == "eb1a366ff95eedeb0735808c2eecb5cf2486a6bbfb4867459b2bcc7bab80cfde"

    def test_json_repeated_fold_id_refused(self):
        doc = json.loads(folds_to_json(make_folds([G0] * 10 + [G2] * 4 + [G3] * 4, 2, 0.25, seed=3)))
        doc["folds"][1]["fold_id"] = 0
        with pytest.raises(ValueError, match="^fold 0: the fold id is repeated$"):
            folds_from_json(json.dumps(doc))


class TestMineQuadruplets:
    def test_slot_validity_exhaustive(self):
        labels = [G0] * 30 + [G2] * 12 + [G3] * 8
        quads = mine_quadruplets(labels, count=500, seed=2)
        assert quads.shape == (500, 5)
        for g0, g2, g3, anchor, anchor_class in quads.tolist():
            assert labels[g0] == G0
            assert labels[g2] == G2
            assert labels[g3] == G3
            assert labels[anchor] == GradeLabel(anchor_class)
            assert anchor != {0: g0, 2: g2, 3: g3}[anchor_class]

    def test_anchor_class_roughly_uniform(self):
        labels = [G0] * 851 + [G2] * 79 + [G3] * 36
        quads = mine_quadruplets(labels, count=1000, seed=7)
        freq = {n: np.mean(quads[:, 4] == n) for n in (0, 2, 3)}
        for n, f in freq.items():
            assert 0.30 <= f <= 0.37, (n, f)

    def test_singleton_grades_rejected(self):
        with pytest.raises(ValueError):
            mine_quadruplets([G0, G2, G3], count=1, seed=0)

    def test_empty_grade_rejected(self):
        with pytest.raises(ValueError):
            mine_quadruplets([G0, G0, G2], count=1, seed=0)

    def test_count_zero(self):
        labels = [G0, G0, G2, G2, G3, G3]
        assert mine_quadruplets(labels, count=0, seed=0).shape == (0, 5)

    def test_determinism(self):
        labels = [G0] * 9 + [G2] * 5 + [G3] * 4
        a = mine_quadruplets(labels, count=100, seed=13)
        b = mine_quadruplets(labels, count=100, seed=13)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, mine_quadruplets(labels, count=100, seed=14))

    def test_coverage_at_ten_times_dataset(self):
        labels = [G0] * 20 + [G2] * 6 + [G3] * 4
        quads = mine_quadruplets(labels, count=10 * len(labels), seed=21)
        assert set(quads[:, :4].ravel().tolist()) == set(range(len(labels)))


class TestMineTriplets:
    def test_against_exhaustive_enumeration(self):
        labels = ["A", "A", "B"]
        valid = {(0, 1, 2), (1, 0, 2)}
        triplets = mine_triplets(labels, count=5, seed=1)
        assert len(triplets) == 5
        assert set(map(tuple, triplets.tolist())) <= valid

    def test_validity_on_three_classes(self):
        labels = ["A"] * 5 + ["B"] * 4 + ["C"] * 3
        for a, p, n in mine_triplets(labels, count=200, seed=3):
            assert labels[a] == labels[p]
            assert a != p
            assert labels[n] != labels[a]

    def test_no_positive_pair(self):
        with pytest.raises(ValueError):
            mine_triplets(["A", "B"], count=1, seed=0)

    def test_single_class(self):
        with pytest.raises(ValueError):
            mine_triplets(["A", "A", "A"], count=1, seed=0)

    def test_count_zero(self):
        assert mine_triplets(["A", "A", "B"], count=0, seed=0).shape == (0, 3)


class TestMinePairs:
    def test_exact_similar_fraction(self):
        labels = ["A", "A", "B", "B"]
        pairs = mine_pairs(labels, count=100, seed=3)
        n_similar = sum(1 for i, j, sim in pairs if sim)
        assert n_similar == round(100 * SIMILAR_FRACTION) == 50
        for i, j, sim in pairs:
            assert (labels[i] == labels[j]) == sim

    def test_pigeonhole_error(self):
        with pytest.raises(ValueError):
            mine_pairs(["A", "B"], count=10, seed=0)

    def test_count_zero(self):
        assert mine_pairs(["A", "A", "B"], count=0, seed=0).shape == (0, 3)

    def test_determinism(self):
        labels = ["A"] * 6 + ["B"] * 6
        assert np.array_equal(mine_pairs(labels, 50, seed=9), mine_pairs(labels, 50, seed=9))


def random_label_sets():
    """30 (labels, seed) cases: five grade and five region label sets of
    growing size, three seeds each. Small sets may hold singleton classes."""
    rng = np.random.default_rng(2024)
    cases = []
    for kind, values in (("grades", list(GradeLabel)), ("regions", list(RegionLabel))):
        for n in (6, 13, 40, 120, 300):
            labels = [values[k] for k in rng.integers(len(values), size=n)]
            labels[:2] = [values[0], values[0]]  # one class with a positive pair
            labels[2] = values[1]  # and a second class
            for seed in (0, 7, 31):
                cases.append(pytest.param(labels, seed, id=f"{kind}-{n}-seed{seed}"))
    return cases


def assert_matches_reference(got, reference, width):
    """``got`` is the (count, width) intp array of the reference's tuples."""
    assert got.dtype == np.intp and got.shape == (len(reference), width)
    assert np.array_equal(got, np.array(reference).reshape(-1, width))


class TestMiningMatchesReference:
    @pytest.mark.parametrize("labels,seed", random_label_sets())
    def test_quadruplets_identical(self, labels, seed):
        count = 2 * len(labels)
        try:
            reference = mine_quadruplets_reference(labels, count, seed)
        except ValueError as exc:
            # Region labels, and grade sets missing a grade, have no quadruplets.
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                mine_quadruplets(labels, count, seed)
            return
        assert_matches_reference(mine_quadruplets(labels, count, seed), reference, 5)

    @pytest.mark.parametrize("labels,seed", random_label_sets())
    def test_triplets_identical(self, labels, seed):
        count = 2 * len(labels)
        got = mine_triplets(labels, count, seed)
        assert_matches_reference(got, mine_triplets_reference(labels, count, seed), 3)

    @pytest.mark.parametrize("labels,seed", random_label_sets())
    def test_pairs_identical(self, labels, seed):
        count = 2 * len(labels)
        got = mine_pairs(labels, count, seed)
        assert_matches_reference(got, mine_pairs_reference(labels, count, seed), 3)

    @pytest.mark.parametrize("count", [0, 1, 9])
    def test_index_arrays(self, count):
        grades = [G0, G0, G2, G2, G3, G3]
        assert_matches_reference(
            mine_quadruplets(grades, count, 3), mine_quadruplets_reference(grades, count, 3), 5
        )
        assert_matches_reference(
            mine_triplets(grades, count, 3), mine_triplets_reference(grades, count, 3), 3
        )
        assert_matches_reference(
            mine_pairs(grades, count, 3), mine_pairs_reference(grades, count, 3), 3
        )


class TestEnums:
    def test_grade_values(self):
        assert [int(g) for g in (G0, G2, G3)] == [0, 2, 3]
        assert len(GradeLabel) == 3

    def test_region_ordering(self):
        assert [int(r) for r in RegionLabel] == [0, 1, 2, 3, 4]
        assert RegionLabel.T1_T5 == 0 and RegionLabel.L5 == 4
