"""MI estimation, greedy clip plans, and clipping application."""

import json
import math

import numpy as np
import pytest

from searchbias.clipper import ClipPlan, apply_clip, estimate_mi, fit_clip_plan
from searchbias.core import DataError, EmbeddingTable, GenderLabel

M, F, N = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL


def test_mi_determined_binary_column():
    rng = np.random.default_rng(0)
    genders = [M if rng.random() < 0.5 else F for _ in range(10000)]
    column = np.array([1.0 if g is M else -1.0 for g in genders])
    column += 1e-6 * rng.standard_normal(10000)  # break exact ties across the bin edge
    mi = estimate_mi(column, genders)
    assert abs(mi - math.log(2)) < 0.01


def test_mi_permuted_labels_near_zero():
    rng = np.random.default_rng(1)
    genders = [M if rng.random() < 0.5 else F for _ in range(10000)]
    column = np.array([1.0 if g is M else -1.0 for g in genders])
    permuted = [genders[i] for i in rng.permutation(10000)]
    assert estimate_mi(column, permuted) <= 0.02


def test_mi_constant_column_is_zero():
    genders = [M, F, M, F] * 10
    assert estimate_mi(np.full(40, 3.25), genders) == 0.0


def test_mi_nonnegative_on_noise():
    rng = np.random.default_rng(2)
    genders = [[M, F, N][int(g)] for g in rng.integers(0, 3, 500)]
    for _ in range(10):
        assert estimate_mi(rng.standard_normal(500), genders) >= 0.0


def test_mi_validation():
    genders = [M, F, M, F]
    with pytest.raises(DataError):
        estimate_mi(np.ones((2, 2)), genders)
    with pytest.raises(DataError):
        estimate_mi(np.ones(3), genders)
    with pytest.raises(DataError):
        estimate_mi(np.ones(4), genders, bins=0)
    with pytest.raises(DataError):
        estimate_mi(np.ones(4), genders, bins=5)  # fewer samples than bins
    with pytest.raises(DataError):
        estimate_mi(np.array([1.0, np.nan, 0.0, 2.0]), genders)


def planted(seed, n=2000, dim=12, bias_dims=(3, 7)):
    from searchbias.core import synth_dataset

    return synth_dataset(seed, n, 1, dim, list(bias_dims), skew=0.5, mu=2.0)


def test_fit_recovers_planted_dims():
    for seed in range(5):
        ds = planted(seed)
        plan = fit_clip_plan(ds.images, ds.labels, m=2)
        assert sorted(plan.clipped) == [3, 7]
        assert len(plan.mi) == 12
        # The planted dims carry visibly more information than the rest.
        rest = [plan.mi[d] for d in range(12) if d not in (3, 7)]
        assert min(plan.mi[3], plan.mi[7]) > 3 * max(rest)


def test_fit_prefix_property_for_every_m():
    ds = planted(0)
    full = fit_clip_plan(ds.images, ds.labels, m=11)
    for m in range(12):
        assert full.prefix(m).clipped == full.clipped[:m]
    for m in (0, 1, 4, 11):  # refits agree with prefixes of the largest fit
        assert fit_clip_plan(ds.images, ds.labels, m=m).clipped == full.clipped[:m]


def test_fit_tie_break_ascending_dim():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(400)
    vecs = np.column_stack([col, col.copy(), rng.standard_normal(400)])
    images = EmbeddingTable([f"i{j}" for j in range(400)], vecs)
    labels = {f"i{j}": (M if col[j] > 0 else F) for j in range(400)}
    plan = fit_clip_plan(images, labels, m=2)
    assert plan.mi[0] == plan.mi[1]
    assert plan.clipped == [0, 1]


def test_fit_m_validation():
    ds = planted(1, n=200)
    with pytest.raises(DataError):
        fit_clip_plan(ds.images, ds.labels, m=12)
    with pytest.raises(DataError):
        fit_clip_plan(ds.images, ds.labels, m=-1)


def test_plan_round_trip_and_accessors(tmp_path):
    plan = ClipPlan(dim=5, mi=[0.5, 0.1, 0.4, 0.2, 0.3], clipped=[0, 2])
    assert plan.m == 2
    assert plan.kept_dims() == [1, 3, 4]
    assert plan.prefix(1).clipped == [0]
    assert plan.prefix(0).clipped == []
    path = tmp_path / "plan.json"
    plan.save(path)
    back = ClipPlan.load(path)
    assert back == plan
    obj = json.loads(path.read_text())
    assert obj["m"] == 2 and obj["dim"] == 5


def test_plan_validation():
    with pytest.raises(DataError):
        ClipPlan(dim=3, mi=[0.1, 0.2], clipped=[])  # mi length mismatch
    with pytest.raises(DataError):
        ClipPlan(dim=3, mi=[0.1, 0.2, 0.3], clipped=[0, 1, 2])  # clips everything
    with pytest.raises(DataError):
        ClipPlan(dim=3, mi=[0.1, 0.2, 0.3], clipped=[3])
    with pytest.raises(DataError):
        ClipPlan(dim=3, mi=[0.1, 0.2, 0.3], clipped=[0, 0])
    with pytest.raises(DataError):
        ClipPlan.from_json('{"dim": 3, "mi": [1.0, 0.5, 0.1], "clipped": [0], "m": 2}')


def test_apply_clip_drops_exact_columns():
    rng = np.random.default_rng(4)
    vecs = rng.standard_normal((10, 6))
    table = EmbeddingTable([f"i{j}" for j in range(10)], vecs)
    plan = ClipPlan(dim=6, mi=[0.0] * 6, clipped=[1, 4])
    clipped = apply_clip(table, plan)
    assert clipped.ids == table.ids
    assert clipped.dim == 4
    assert clipped.vectors.tobytes() == vecs[:, [0, 2, 3, 5]].tobytes()


def test_apply_clip_empty_plan_is_identity():
    rng = np.random.default_rng(5)
    table = EmbeddingTable(["a", "b"], rng.standard_normal((2, 4)))
    plan = ClipPlan(dim=4, mi=[0.0] * 4, clipped=[])
    assert apply_clip(table, plan).vectors.tobytes() == table.vectors.tobytes()


def test_apply_clip_rejects_zeroed_vector():
    table = EmbeddingTable(["ok", "dies"], [[1.0, 1.0], [1.0, 0.0]])
    plan = ClipPlan(dim=2, mi=[0.0, 0.0], clipped=[0])
    with pytest.raises(DataError, match="dies"):
        apply_clip(table, plan)


def test_apply_clip_dim_mismatch():
    table = EmbeddingTable(["a"], [[1.0, 2.0]])
    plan = ClipPlan(dim=3, mi=[0.0] * 3, clipped=[0])
    with pytest.raises(DataError):
        apply_clip(table, plan)


def test_clipping_planted_dims_lowers_mean_bias():
    """5-seed mean |Bias@10| drops once the planted dims are removed.

    Individual seeds can flip sign (the collection skew keeps per-seed bias
    noisy around its base rate), so the check reads the seed mean.
    """
    from searchbias.core import synth_dataset
    from searchbias.metrics import bias_at_k
    from searchbias.retrieval import retrieve_all

    pre, post = [], []
    for seed in range(5):
        ds = synth_dataset(seed, 1000, 500, 16, [0, 1], skew=0.7, mu=1.0)
        plan = ClipPlan(dim=16, mi=[0.0] * 16, clipped=[0, 1])
        raw = retrieve_all(ds.texts, ds.images, 10)
        cut = retrieve_all(apply_clip(ds.texts, plan), apply_clip(ds.images, plan), 10)
        pre.append(abs(bias_at_k(raw, ds.labels, 10).bias_at_k))
        post.append(abs(bias_at_k(cut, ds.labels, 10).bias_at_k))
    assert float(np.mean(post)) < float(np.mean(pre))
