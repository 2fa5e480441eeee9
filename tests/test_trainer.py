"""Triplet losses, fair sampling, analytic gradients, and the training loop."""

import dataclasses
import json
import math

import numpy as np
import pytest

import searchbias.trainer as trainer
from searchbias.core import DataError, Dataset, EmbeddingTable, GenderLabel, synth_dataset
from searchbias.metrics import bias_at_k, recall_at_k
from searchbias.retrieval import retrieve_all
from searchbias.trainer import (
    LinearEncoders,
    TrainerConfig,
    TripletBatch,
    objective,
    train,
)

M, F, N = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL


def codes_of(genders):
    return np.array([g.code for g in genders], dtype=np.int8)


def random_batch(seed, n=10, d=6, p_neutral=0.5, dup_images=False):
    rng = np.random.default_rng(seed)
    ids = [f"img{i}" for i in range(n)]
    if dup_images:
        ids[1] = ids[0]  # two texts sharing one image
    labels = [[M, F, N][int(g)] for g in rng.integers(0, 3, n)]
    seen = {}
    for i, iid in enumerate(ids):  # duplicated ids share one label
        if iid in seen:
            labels[i] = labels[seen[iid]]
        else:
            seen[iid] = i
    return TripletBatch(
        image_vecs=rng.standard_normal((n, d)),
        text_vecs=rng.standard_normal((n, d)),
        image_ids=ids,
        genders=codes_of(labels),
        neutral_query=rng.random(n) < p_neutral,
    )


def fair_sweep_batch(seed, n=64, d=6):
    """An all-neutral batch of n pairs drawing from fewer images, as in fair-sweep."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 40, n)
    pool = rng.standard_normal((40, d))
    genders = rng.integers(0, 3, 40)
    return TripletBatch(
        image_vecs=pool[rows],
        text_vecs=rng.standard_normal((n, d)),
        image_ids=[f"img{int(i)}" for i in rows],
        genders=codes_of([[M, F, N][int(genders[i])] for i in rows]),
        neutral_query=np.ones(n, dtype=bool),
    )


def exclusion_fallback_batch(seed, d=6):
    """The only Female image is the own image of pairs 0 and 1: their Female
    partition is empty after exclusion, so they fall back; the others do not."""
    rng = np.random.default_rng(seed)
    rows = [0, 0, 1, 2, 3, 4, 1, 5]
    return TripletBatch(
        image_vecs=rng.standard_normal((6, d))[rows],
        text_vecs=rng.standard_normal((8, d)),
        image_ids=["f", "f", "m1", "m2", "m3", "n1", "m1", "n2"],
        genders=codes_of([F, F, M, M, M, N, M, N]),
        neutral_query=np.ones(8, dtype=bool),
    )


def fair_regime_batches():
    return [fair_sweep_batch(40), fair_sweep_batch(41), exclusion_fallback_batch(42)]


def random_encoders(seed, d=6, emb=5):
    rng = np.random.default_rng(seed + 1000)
    return LinearEncoders.init(d, emb, rng)


def oracle_similarities(batch, encoders):
    a = batch.image_vecs @ encoders.w_img.T
    b = batch.text_vecs @ encoders.w_txt.T
    n = len(batch)
    s = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            num = math.fsum(float(x) * float(y) for x, y in zip(a[i], b[j]))
            na = math.sqrt(math.fsum(float(x) * float(x) for x in a[i]))
            nb = math.sqrt(math.fsum(float(y) * float(y) for y in b[j]))
            s[i, j] = num / (na * nb)
    return s


def oracle_losses(batch, encoders, gamma):
    """Loop-based reference for all three loss terms (full expectation)."""
    s = oracle_similarities(batch, encoders)
    n = len(batch)
    ids = batch.image_ids
    l_it = l_ti = l_fair = 0.0
    for j in range(n):
        others = [i for i in range(n) if ids[i] != ids[j]]
        # Image j against its hardest mismatched text.
        if others:
            best = max(others, key=lambda t: s[j, t])
            h = gamma - s[j, j] + s[j, best]
            if h > 0:
                l_it += h
        # Text j against its hardest mismatched image.
        std = 0.0
        if others:
            best = max(others, key=lambda i: s[i, j])
            h = gamma - s[j, j] + s[best, j]
            std = h if h > 0 else 0.0
        l_ti += std
        term = std
        if batch.neutral_query[j]:
            m_rows = [i for i in batch.male_rows if ids[i] != ids[j]]
            f_rows = [i for i in batch.female_rows if ids[i] != ids[j]]
            if m_rows and f_rows:
                hm = [max(0.0, gamma - s[j, j] + s[i, j]) for i in m_rows]
                hf = [max(0.0, gamma - s[j, j] + s[i, j]) for i in f_rows]
                term = 0.5 * math.fsum(hm) / len(hm) + 0.5 * math.fsum(hf) / len(hf)
        l_fair += term
    return l_it, l_ti, l_fair


def test_losses_match_bruteforce_oracle():
    gamma = 0.3
    batches = [
        random_batch(seed, n=int(3 + seed % 8), dup_images=seed % 3 == 0) for seed in range(12)
    ]
    for seed, batch in enumerate(batches + fair_regime_batches()):
        enc = random_encoders(seed)
        l_it, l_ti, l_fair = oracle_losses(batch, enc, gamma)
        got = objective(batch, enc, TrainerConfig(gamma=gamma, alpha=1.0))
        assert got.l_it == pytest.approx(l_it, abs=1e-10)
        assert got.l_ti == pytest.approx(l_ti, abs=1e-10)
        assert got.l_fair == pytest.approx(l_fair, abs=1e-10)


def test_total_loss_is_the_documented_blend():
    batch = random_batch(3)
    enc = random_encoders(3)
    terms = objective(batch, enc, TrainerConfig(gamma=0.3, alpha=1.0))
    for alpha in (0.0, 0.25, 0.4, 1.0):
        cfg = TrainerConfig(gamma=0.3, alpha=alpha, epochs=1)
        expected = terms.l_it + alpha * terms.l_fair + (1.0 - alpha) * terms.l_ti
        assert objective(batch, enc, cfg).loss == expected


def test_alpha_zero_is_bitwise_standard_objective():
    for seed in range(10):
        batch = random_batch(seed, n=9)
        enc = random_encoders(seed)
        cfg = TrainerConfig(gamma=0.2, alpha=0.0, epochs=1)
        got = objective(batch, enc, cfg)
        assert got.loss == got.l_it + got.l_ti


def test_loss_and_grad_loss_matches_total_loss():
    batch = random_batch(4)
    enc = random_encoders(4)
    for alpha in (0.0, 0.4, 1.0):
        cfg = TrainerConfig(gamma=0.25, alpha=alpha, epochs=1)
        # The loss train_alphas sums is the one objective reports.
        stacked = trainer._stacked_objective(
            batch, enc.w_img[None], enc.w_txt[None], 0.25, np.array([alpha])
        )
        assert objective(batch, enc, cfg).loss == stacked.loss[0]


def fd_check(batch, cfg, seed, n_coords=6, h=1e-6, tol=1e-3):
    enc = random_encoders(seed)

    def neg_rng():
        # MC picks depend on the rng and the batch only, so a fresh rng with
        # one seed holds them fixed across evaluations.
        return np.random.default_rng(seed + 99)

    got = objective(batch, enc, cfg, neg_rng())
    rng = np.random.default_rng(seed + 7)

    def loss_at(wi, wt):
        return objective(batch, LinearEncoders(w_img=wi, w_txt=wt), cfg, neg_rng()).loss

    for grad, which in ((got.d_img, "img"), (got.d_txt, "txt")):
        shape = enc.w_img.shape
        for _ in range(n_coords):
            r, c = int(rng.integers(shape[0])), int(rng.integers(shape[1]))
            wi_p, wt_p = enc.w_img.copy(), enc.w_txt.copy()
            wi_m, wt_m = enc.w_img.copy(), enc.w_txt.copy()
            if which == "img":
                wi_p[r, c] += h
                wi_m[r, c] -= h
            else:
                wt_p[r, c] += h
                wt_m[r, c] -= h
            fd = (loss_at(wi_p, wt_p) - loss_at(wi_m, wt_m)) / (2 * h)
            denom = max(abs(fd), abs(grad[r, c]), 1e-6)
            assert abs(fd - grad[r, c]) / denom <= tol, (which, r, c, fd, grad[r, c])


def test_gradients_match_finite_differences():
    batches = [random_batch(0, n=8), random_batch(1, n=8)] + fair_regime_batches()
    for alpha in (0.0, 0.4, 1.0):
        cfg = TrainerConfig(gamma=0.3, alpha=alpha, epochs=1)
        for seed, batch in enumerate(batches):
            fd_check(batch, cfg, seed)


def test_mc_negatives_loss_and_gradients():
    batches = [random_batch(5, n=10, p_neutral=0.8)] + fair_regime_batches()
    for alpha in (0.4, 1.0):
        cfg = TrainerConfig(gamma=0.3, alpha=alpha, epochs=1, mc_negatives=True)
        for seed, batch in enumerate(batches):
            enc = random_encoders(seed)
            loss = objective(batch, enc, cfg, np.random.default_rng(seed)).loss
            assert loss == objective(batch, enc, cfg, np.random.default_rng(seed)).loss
            fd_check(batch, cfg, seed)


def test_loss_invariant_under_batch_permutation():
    enc = random_encoders(8)
    cfg = TrainerConfig(gamma=0.3, alpha=0.7, epochs=1)
    for batch in [random_batch(8, n=12)] + fair_regime_batches():
        base = objective(batch, enc, cfg).loss
        perm = np.random.default_rng(9).permutation(len(batch))
        shuffled = TripletBatch(
            image_vecs=batch.image_vecs[perm],
            text_vecs=batch.text_vecs[perm],
            image_ids=[batch.image_ids[int(i)] for i in perm],
            genders=batch.genders[perm],
            neutral_query=batch.neutral_query[perm],
        )
        assert objective(shuffled, enc, cfg).loss == pytest.approx(base, abs=1e-12)


def test_int_rows_and_string_ids_build_the_same_batch():
    """`train` names images by table row, tests by string id: same partitions, same bits."""
    rng = np.random.default_rng(21)
    n, d = 48, 6
    rows = rng.integers(0, 30, n)  # 30 images, so ids repeat
    pool = rng.standard_normal((30, d))
    genders = np.array([1, -1, 0], dtype=np.int8)[rng.integers(0, 3, 30)][rows]
    fields = dict(
        image_vecs=pool[rows],
        text_vecs=rng.standard_normal((n, d)),
        genders=genders,
        neutral_query=rng.random(n) < 0.7,
    )
    by_row = TripletBatch(image_ids=rows, **fields)
    by_id = TripletBatch(image_ids=[f"img{r}" for r in rows], **fields)
    # The first row of each image, ascending, split by gender.
    first = sorted({r: i for i, r in reversed(list(enumerate(rows.tolist())))}.values())
    for batch in (by_row, by_id):
        assert batch.male_rows.tolist() == [i for i in first if genders[i] == 1]
        assert batch.female_rows.tolist() == [i for i in first if genders[i] == -1]
    enc = random_encoders(21)
    for mc in (False, True):
        cfg = TrainerConfig(gamma=0.3, alpha=0.6, epochs=1, mc_negatives=mc)
        a = objective(by_row, enc, cfg, np.random.default_rng(5))
        b = objective(by_id, enc, cfg, np.random.default_rng(5))
        assert a.loss == b.loss
        assert a.d_img.tobytes() == b.d_img.tobytes() and a.d_txt.tobytes() == b.d_txt.tobytes()


def test_own_image_never_a_negative():
    # Both pairs share one image; the only admissible negative is row 2.
    vec = np.array([1.0, 0.0, 0.0])
    batch = TripletBatch(
        image_vecs=[vec, vec, [0.0, 1.0, 0.0]],
        text_vecs=[[1.0, 0.1, 0.0], [1.0, -0.1, 0.0], [0.0, 1.0, 0.5]],
        image_ids=["shared", "shared", "other"],
        genders=codes_of([M, M, F]),
        neutral_query=[False, False, False],
    )
    enc = LinearEncoders(w_img=np.eye(3), w_txt=np.eye(3))
    s = oracle_similarities(batch, enc)
    # Hand-build the expected loss with row 2 as every negative.
    gamma = 0.2
    want_ti = sum(max(0.0, gamma - s[j, j] + s[2, j]) for j in (0, 1)) + max(
        0.0, gamma - s[2, 2] + max(s[0, 2], s[1, 2])
    )
    got = objective(batch, enc, TrainerConfig(gamma=gamma, alpha=0.0))
    assert got.l_ti == pytest.approx(want_ti, abs=1e-12)


def test_batch_of_one_has_no_negatives():
    batch = TripletBatch(
        image_vecs=[[1.0, 0.0]],
        text_vecs=[[1.0, 0.0]],
        image_ids=["a"],
        genders=codes_of([M]),
        neutral_query=[True],
    )
    enc = LinearEncoders(w_img=np.eye(2), w_txt=np.eye(2))
    with pytest.raises(DataError, match="size 1"):
        objective(batch, enc, TrainerConfig(gamma=0.2, alpha=0.0))


def test_all_same_image_batch_has_zero_loss():
    vec = [1.0, 0.2]
    batch = TripletBatch(
        image_vecs=[vec, vec, vec],
        text_vecs=np.random.default_rng(0).standard_normal((3, 2)),
        image_ids=["a", "a", "a"],
        genders=codes_of([M, M, M]),
        neutral_query=[True, True, True],
    )
    enc = LinearEncoders(w_img=np.eye(2), w_txt=np.eye(2))
    cfg = TrainerConfig(gamma=0.5, alpha=0.6, epochs=1)
    assert objective(batch, enc, cfg).loss == 0.0


def test_fair_falls_back_without_both_partitions():
    rng = np.random.default_rng(11)
    batch = TripletBatch(
        image_vecs=rng.standard_normal((5, 4)),
        text_vecs=rng.standard_normal((5, 4)),
        image_ids=[f"i{j}" for j in range(5)],
        genders=codes_of([M, M, N, N, M]),  # no Female image anywhere
        neutral_query=[True] * 5,
    )
    enc = random_encoders(11, d=4)
    got = objective(batch, enc, TrainerConfig(gamma=0.3, alpha=1.0))
    assert got.l_fair == got.l_ti


def test_mc_negatives_deterministic_and_unbiased():
    rng0 = np.random.default_rng(13)
    batch = TripletBatch(
        image_vecs=rng0.standard_normal((10, 6)),
        text_vecs=rng0.standard_normal((10, 6)),
        image_ids=[f"i{j}" for j in range(10)],
        genders=codes_of([M, M, M, F, F, F, N, N, M, F]),
        neutral_query=[True] * 10,
    )
    enc = random_encoders(13)
    mc = TrainerConfig(gamma=0.3, alpha=1.0, mc_negatives=True)
    one = objective(batch, enc, mc, rng=np.random.default_rng(5)).l_fair
    two = objective(batch, enc, mc, rng=np.random.default_rng(5)).l_fair
    assert one == two
    with pytest.raises(DataError, match="rng"):
        objective(batch, enc, mc)
    full = objective(batch, enc, TrainerConfig(gamma=0.3, alpha=1.0)).l_fair
    rng = np.random.default_rng(6)
    draws = [objective(batch, enc, mc, rng=rng).l_fair for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(full, rel=0.05)


def test_zero_encoded_vector_is_a_runtime_error():
    batch = random_batch(1, n=4)
    dead = LinearEncoders(w_img=np.zeros((5, 6)), w_txt=np.zeros((5, 6)))
    cfg = TrainerConfig(epochs=1)
    with pytest.raises(RuntimeError):
        objective(batch, dead, cfg)


def test_trainer_config_validation_and_round_trip():
    cfg = TrainerConfig(gamma=0.5, alpha=0.3, lr=0.01, epochs=2, seed=9)
    assert TrainerConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(DataError):
        TrainerConfig(gamma=0.0)
    with pytest.raises(DataError):
        TrainerConfig(alpha=1.5)
    with pytest.raises(DataError):
        TrainerConfig(lr=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DataError, match="gamma"):
            TrainerConfig(gamma=bad)
        with pytest.raises(DataError, match="lr"):
            TrainerConfig(lr=bad)
    with pytest.raises(DataError):
        TrainerConfig(batch_size=2)
    with pytest.raises(DataError, match="^epochs must be >= 0$"):
        TrainerConfig(epochs=-1)
    with pytest.raises(DataError, match="^emb_dim must be >= 1$"):
        TrainerConfig(emb_dim=0)
    with pytest.raises(DataError):
        TrainerConfig.from_dict({"gamma": 0.2, "bogus": 1})


def test_encoders_init_save_load(tmp_path):
    rng = np.random.default_rng(2)
    enc = LinearEncoders.init(12, 5, rng)
    assert enc.w_img.shape == (5, 12) and enc.w_txt.shape == (5, 12)
    assert abs(enc.w_img.std() - 1 / math.sqrt(12)) < 0.05
    cfg = TrainerConfig(gamma=0.4, epochs=3)
    path = tmp_path / "enc.json"
    enc.save(path, cfg)
    back, back_cfg = LinearEncoders.load(path)
    assert back.w_img.tobytes() == enc.w_img.tobytes()
    assert back.w_txt.tobytes() == enc.w_txt.tobytes()
    assert back_cfg == cfg

    path.write_text(json.dumps({"w_img": [[1.0]]}))
    with pytest.raises(DataError, match="w_txt"):
        LinearEncoders.load(path)
    # Malformed values are data errors that name their key.
    good = {"w_img": [[1.0, 0.0]], "w_txt": [[0.0, 1.0]], "cfg": None}
    for bad, key in (
        ({"w_img": [[1.0, 0.0], [1.0]]}, "w_img"),
        ({"w_txt": [[0.0], 1.0]}, "w_txt"),
        ({"w_img": [["1.0", 0.0]]}, "w_img"),
        ({"w_txt": [[True, 1.0]]}, "w_txt"),
        ({"w_img": [[None, 1.0]]}, "w_img"),
        ({"w_txt": 5}, "w_txt"),
        ({"cfg": 5}, "cfg"),
        ({"cfg": ["gamma"]}, "cfg"),
        ({"cfg": {"gamma": "x"}}, "gamma"),
        ({"cfg": {"epochs": 2.5}}, "epochs"),
        ({"cfg": {"mc_negatives": 1}}, "mc_negatives"),
        ({"cfg": {"seed": True}}, "seed"),
    ):
        path.write_text(json.dumps({**good, **bad}))
        with pytest.raises(DataError, match=repr(key)):
            LinearEncoders.load(path)
    path.write_text(json.dumps({**good, "cfg": {"gamma": 1, "epochs": 2}}))
    assert LinearEncoders.load(path)[1] == TrainerConfig(gamma=1.0, epochs=2)
    with pytest.raises(DataError):
        LinearEncoders(w_img=np.array([[np.inf]]), w_txt=np.array([[1.0]]))


def test_encoders_are_read_only_without_freezing_the_caller_arrays():
    w = np.eye(3)
    enc = LinearEncoders(w_img=w, w_txt=w)
    for array in (enc.w_img, enc.w_txt):
        with pytest.raises(ValueError):
            array[0, 0] = 2.0
    w[0, 0] = 2.0  # the caller's own array stays writable
    assert enc.w_img[0, 0] == 2.0


def tiny_dataset(seed=0, n_images=40, n_texts=60):
    return synth_dataset(seed, n_images, n_texts, 8, [0], skew=0.7, mu=1.5)


def test_train_is_deterministic():
    ds = tiny_dataset()
    for mc_negatives in (False, True):
        cfg = TrainerConfig(gamma=0.2, alpha=0.5, lr=0.01, epochs=2, batch_size=16, seed=3,
                            emb_dim=6, mc_negatives=mc_negatives)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert a.w_img.tobytes() == b.w_img.tobytes()
        assert a.w_txt.tobytes() == b.w_txt.tobytes()


def test_train_lr_zero_keeps_initialization():
    ds = tiny_dataset()
    frozen = train(ds, TrainerConfig(lr=0.0, epochs=2, batch_size=16, seed=5, emb_dim=6))
    init_only = train(ds, TrainerConfig(lr=0.01, epochs=0, batch_size=16, seed=5, emb_dim=6))
    assert frozen.w_img.tobytes() == init_only.w_img.tobytes()
    assert frozen.w_txt.tobytes() == init_only.w_txt.tobytes()


def test_train_epoch_log_and_learning():
    ds = tiny_dataset()
    rows = []
    cfg = TrainerConfig(gamma=0.2, alpha=0.4, lr=0.02, epochs=6, batch_size=16, seed=1, emb_dim=6)
    train(ds, cfg, on_epoch=rows.append)
    assert [r["epoch"] for r in rows] == list(range(1, 7))
    assert set(rows[0]) == {"epoch", "total_loss", "val_recall_at_10", "val_bias_at_10"}
    assert rows[-1]["total_loss"] < rows[0]["total_loss"]


def test_train_zero_val_frac_gives_nan_metrics():
    rows = []
    train(
        tiny_dataset(),
        TrainerConfig(epochs=1, batch_size=16, emb_dim=6),
        val_frac=0.0,
        on_epoch=rows.append,
    )
    assert math.isnan(rows[0]["val_recall_at_10"])


def test_each_epoch_is_validated_as_it_ends_and_only_with_a_callback(monkeypatch):
    ds = tiny_dataset()
    cfg = TrainerConfig(gamma=0.2, alpha=0.5, lr=0.02, epochs=4, batch_size=16, seed=1, emb_dim=6)
    calls = []

    def counting(texts, images, *args, **kwargs):
        calls.append(list(texts.ids))
        return retrieve_all(texts, images, *args, **kwargs)

    monkeypatch.setattr(trainer, "retrieve_all", counting)

    final = train(ds, cfg)
    assert calls == []

    rows = []

    def log(row):
        # The epoch is validated before its row is handed over.
        assert len(calls) == row["epoch"]
        rows.append(row)

    assert train(ds, cfg, on_epoch=log).w_img.tobytes() == final.w_img.tobytes()
    assert [row["epoch"] for row in rows] == [1, 2, 3, 4]
    assert all(type(row) is dict for row in rows)
    assert list(rows[0]) == ["epoch", "total_loss", "val_recall_at_10", "val_bias_at_10"]
    assert len(calls) == cfg.epochs
    got = [(row["val_recall_at_10"], row["val_bias_at_10"]) for row in rows]

    val_idx, train_idx = trainer.validation_split(len(ds.texts), cfg.seed, 0.1)
    assert sorted(np.concatenate([val_idx, train_idx]).tolist()) == list(range(len(ds.texts)))
    val_ids = calls[0]
    assert all(ids == val_ids for ids in calls) and val_ids
    assert val_ids == [ds.texts.ids[i] for i in val_idx]

    def reference(enc):
        images = EmbeddingTable(list(ds.images.ids), enc.encode_images(ds.images.vectors))
        val_rows = [ds.texts.row_index(tid) for tid in val_ids]
        texts = EmbeddingTable(val_ids, enc.encode_texts(ds.texts.vectors[val_rows]))
        results = retrieve_all(texts, images, k=10)
        return (
            recall_at_k(results, ds.truth, 10).recall_at_k,
            bias_at_k(results, ds.labels, 10).bias_at_k,
        )

    calls.clear()
    for epoch, value in enumerate(got, 1):
        assert all(math.isfinite(v) for v in value)
        enc = train(ds, dataclasses.replace(cfg, epochs=epoch))
        assert value == trainer.validate(ds, enc, val_idx) == reference(enc)
    assert got[-1] == trainer.validate(ds, final, val_idx) == reference(final)
    assert len(calls) == cfg.epochs + 1  # one per validate() call, none in train()

    calls.clear()
    rows = []
    train(ds, cfg, val_frac=0.0, on_epoch=rows.append)
    assert all(math.isnan(row[key]) for row in rows for key in ("val_recall_at_10", "val_bias_at_10"))
    assert calls == []


def test_train_text_labels_override_changes_training():
    ds = tiny_dataset()
    cfg = TrainerConfig(gamma=0.2, alpha=1.0, lr=0.02, epochs=2, batch_size=16, seed=2, emb_dim=6)
    default_run = train(ds, cfg)
    flagged = {tid: GenderLabel.NEUTRAL for tid in ds.texts.ids}
    neutral_run = train(ds, cfg, text_labels=flagged)
    assert default_run.w_img.tobytes() != neutral_run.w_img.tobytes()


def test_train_requires_truth_for_every_text():
    ds = tiny_dataset()
    truth = dict(ds.truth)
    truth.pop(list(ds.texts.ids)[0])
    broken = Dataset(images=ds.images, texts=ds.texts, labels=ds.labels, truth=truth)
    with pytest.raises(DataError, match="truth"):
        train(broken, TrainerConfig(epochs=1, batch_size=16, emb_dim=6))


def test_train_validation():
    ds = tiny_dataset()
    with pytest.raises(DataError):
        train(ds, TrainerConfig(epochs=1, batch_size=16, emb_dim=6), val_frac=1.0)
    tiny = synth_dataset(0, 2, 1, 4)
    with pytest.raises(DataError):
        train(tiny, TrainerConfig(epochs=1, batch_size=16, emb_dim=6))
    cfg = TrainerConfig(epochs=1, batch_size=16, emb_dim=6)
    flags = {tid: N for tid in ds.texts.ids[:-1]}
    with pytest.raises(DataError, match=f"^text '{ds.texts.ids[-1]}' missing from text labels$"):
        train(ds, cfg, text_labels=flags)
    # Two pairs, one held out.
    with pytest.raises(DataError, match="^training split has fewer than 2 pairs$"):
        train(synth_dataset(0, 2, 2, 4), cfg, val_frac=0.5)


def test_stacked_objective_equals_each_run():
    """Runs stacked along a leading axis get their own losses and gradients, bit for bit."""
    alphas = [0.0, 0.5, 1.0, 0.3]
    for seed, batch in enumerate([random_batch(30, n=12, dup_images=True)] + fair_regime_batches()):
        encs = [random_encoders(seed + 10 * r) for r in range(len(alphas))]
        w_img = np.stack([enc.w_img for enc in encs])
        w_txt = np.stack([enc.w_txt for enc in encs])
        for mc in (False, True):
            stacked = trainer._stacked_objective(
                batch, w_img, w_txt, 0.3, np.array(alphas), np.random.default_rng(seed), mc
            )
            for r, (alpha, enc) in enumerate(zip(alphas, encs)):
                cfg = TrainerConfig(gamma=0.3, alpha=alpha, epochs=1, mc_negatives=mc)
                # An alpha-0 run draws nothing; the others draw what one shared draw does.
                got = objective(batch, enc, cfg, np.random.default_rng(seed))
                assert [term[r] for term in stacked[:4]] == list(got[:4]), (seed, mc, alpha)
                assert stacked.d_img[r].tobytes() == got.d_img.tobytes()
                assert stacked.d_txt[r].tobytes() == got.d_txt.tobytes()


def test_lockstep_training_equals_separate_runs():
    """train_alphas gives each config the weights, epoch losses and validation
    metrics of its own train() call. 55 texts on 12 images: every batch of 16
    repeats an image, and the 49 training pairs leave a one-pair tail."""
    ds = synth_dataset(4, 12, 55, 8, [0], skew=0.6, mu=1.5, p_neutral=0.3)
    flagged = {tid: [M, F, N][i % 3] for i, tid in enumerate(ds.texts.ids)}
    alphas = [1.0, 0.0, 0.5]
    for mc in (False, True):
        for text_labels in (None, flagged):
            cfgs = [TrainerConfig(gamma=0.2, alpha=a, lr=0.05, epochs=3, batch_size=16, seed=7,
                                  emb_dim=5, mc_negatives=mc) for a in alphas]
            lock_rows = [[] for _ in cfgs]
            locked = trainer.train_alphas(
                ds, cfgs, text_labels=text_labels,
                on_epoch=lambda index, row: lock_rows[index].append(dict(row)),
            )
            for cfg, enc, rows in zip(cfgs, locked, lock_rows):
                own_rows = []
                own = train(ds, cfg, text_labels=text_labels, on_epoch=own_rows.append)
                assert enc.w_img.tobytes() == own.w_img.tobytes(), (mc, cfg.alpha)
                assert enc.w_txt.tobytes() == own.w_txt.tobytes(), (mc, cfg.alpha)
                assert rows == [dict(row) for row in own_rows], (mc, cfg.alpha)
                assert [row["epoch"] for row in rows] == [1, 2, 3]
            # The alphas train differently: the comparison is not vacuous.
            assert len({enc.w_img.tobytes() for enc in locked}) == len(alphas)


def test_lockstep_configs_may_differ_only_in_alpha():
    ds = tiny_dataset()
    cfg = TrainerConfig(alpha=0.0, epochs=1, batch_size=16, emb_dim=6)
    for other in (
        dataclasses.replace(cfg, alpha=1.0, seed=1),
        dataclasses.replace(cfg, alpha=0.5, lr=0.02),
        dataclasses.replace(cfg, mc_negatives=True),
        dataclasses.replace(cfg, epochs=2),
    ):
        with pytest.raises(DataError, match="only in alpha"):
            trainer.train_alphas(ds, [cfg, other])
    with pytest.raises(DataError, match="at least one"):
        trainer.train_alphas(ds, [])
    assert len(trainer.train_alphas(ds, [cfg, dataclasses.replace(cfg, alpha=0.7)])) == 2
