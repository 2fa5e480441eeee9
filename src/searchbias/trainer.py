"""Desk-scale contrastive trainer with gender-fair negative sampling.

Encoders are linear projections, not a full cross-attention stack: the
debiasing idea under test is the negative-sampling strategy, which does not
depend on the encoder architecture, and linear maps keep gradient checks and
determinism tractable.

The image-to-text loss and the text-to-image loss for gender-specific queries
use the hardest in-batch negative. For gender-neutral queries, the fair
text-to-image loss replaces the hardest negative with an equal-weight average
of hinge terms over the Male and Female image partitions of the batch, and the
total objective blends the fair and standard text-to-image losses with a
weight alpha. The image-to-text direction is never altered.

Runs that differ only in alpha share their data split, initialization and
batches, so `train_alphas` steps them together, stacked along a leading axis;
`train` is its one-run case.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import _NUMBER_TYPES, DataError, EmbeddingTable, _json_object, _read_utf8, gender_codes
from .metrics import bias_at_k, recall_at_k
from .retrieval import retrieve_all


@dataclass
class TrainerConfig:
    gamma: float = 0.2
    alpha: float = 0.4
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    emb_dim: int = 32
    # Single-sample fair negatives instead of the full partition expectation.
    mc_negatives: bool = False

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise DataError("gamma must be finite and > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise DataError("alpha must be in [0, 1]")
        if not 0.0 <= self.lr < math.inf:
            raise DataError("lr must be finite and >= 0")
        if self.epochs < 0:
            raise DataError("epochs must be >= 0")
        if self.batch_size < 4:
            raise DataError("batch_size must be >= 4")
        if self.emb_dim < 1:
            raise DataError("emb_dim must be >= 1")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, obj):
        fields = cls.__dataclass_fields__
        extra = set(obj) - set(fields)
        if extra:
            raise DataError(f"unknown trainer config keys: {sorted(extra)}")
        types = {"float": _NUMBER_TYPES, "int": {int}, "bool": {bool}}  # bool is no int here
        for key, value in obj.items():
            if type(value) not in types[fields[key].type]:
                raise DataError(f"trainer config {key!r} must be {fields[key].type}, got {value!r}")
        return cls(**obj)


@dataclass
class TripletBatch:
    """A batch of positive (image, text) pairs with gender partitions.

    `image_ids` names each pair's image by any values that compare by
    equality (table rows, string ids); `genders` holds each image's gender
    code (+1 Male, -1 Female, 0 Neutral). `neutral_query[j]` marks texts that
    are gender-neutral queries (the fair loss applies to them). `male_rows`
    and `female_rows` hold the first row of each unique Male / Female image,
    ascending; a duplicated image contributes one row, so expectations never
    double-count a negative. `negative[i, j]` holds when pairs i and j name
    different images, so image i may be a negative for text j.
    """

    image_vecs: np.ndarray
    text_vecs: np.ndarray
    image_ids: np.ndarray
    genders: np.ndarray
    neutral_query: np.ndarray
    male_rows: np.ndarray = field(init=False)
    female_rows: np.ndarray = field(init=False)
    negative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.image_ids)
        self.image_vecs = np.asarray(self.image_vecs, dtype=np.float64)
        self.text_vecs = np.asarray(self.text_vecs, dtype=np.float64)
        self.genders = np.asarray(self.genders, dtype=np.int8)
        self.neutral_query = np.asarray(self.neutral_query, dtype=bool)
        if n == 0:
            raise DataError("empty batch")
        if (
            self.image_vecs.shape[0] != n
            or self.text_vecs.shape[0] != n
            or self.genders.shape != (n,)
            or self.neutral_query.shape[0] != n
        ):
            raise DataError("batch fields disagree on length")
        ids = np.asarray(self.image_ids)
        self.negative = ids[:, None] != ids[None, :]
        # A row is its image's first when its first equal id is its own.
        first = np.flatnonzero(np.argmax(~self.negative, axis=1) == np.arange(n))
        self.male_rows = first[self.genders[first] == 1]
        self.female_rows = first[self.genders[first] == -1]

    def __len__(self):
        return len(self.image_ids)


def _read_only(array):
    view = np.asarray(array, dtype=np.float64).view()
    view.flags.writeable = False
    return view


@dataclass
class LinearEncoders:
    """Linear projection maps; similarity is cosine of the projected vectors."""

    w_img: np.ndarray
    w_txt: np.ndarray

    def __post_init__(self):
        # Read-only views, as an EmbeddingTable holds its vectors: no holder
        # of an encoder, such as the views of its stacked weights that
        # `train_alphas` returns, can change it in place, while the caller's
        # own arrays stay writable.
        self.w_img = _read_only(self.w_img)
        self.w_txt = _read_only(self.w_txt)
        if self.w_img.ndim != 2 or self.w_txt.ndim != 2 or self.w_img.shape != self.w_txt.shape:
            raise DataError("encoder matrices must be 2-d and of equal shape")
        if not (np.all(np.isfinite(self.w_img)) and np.all(np.isfinite(self.w_txt))):
            raise DataError("encoder matrices must be finite")

    @classmethod
    def init(cls, d_in, emb_dim, rng):
        scale = 1.0 / math.sqrt(d_in)
        return cls(
            w_img=scale * rng.standard_normal((emb_dim, d_in)),
            w_txt=scale * rng.standard_normal((emb_dim, d_in)),
        )

    def encode_images(self, vectors):
        return np.asarray(vectors, dtype=np.float64) @ self.w_img.T

    def encode_texts(self, vectors):
        return np.asarray(vectors, dtype=np.float64) @ self.w_txt.T

    def save(self, path, cfg=None):
        payload = {
            "w_img": self.w_img.tolist(),
            "w_txt": self.w_txt.tolist(),
            "cfg": cfg.to_dict() if cfg is not None else None,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path):
        obj = _json_object(_read_utf8(path), "checkpoint", ("w_img", "w_txt"))
        for key in ("w_img", "w_txt"):
            rows = obj[key]
            if not (
                isinstance(rows, list)
                and all(type(row) is list and len(row) == len(rows[0]) for row in rows)
                and set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES
            ):
                raise DataError(f"checkpoint {key!r} must be a list of equal-length lists of numbers")
        cfg = obj.get("cfg")
        if cfg is not None and not isinstance(cfg, dict):
            raise DataError("checkpoint 'cfg' must be an object or null")
        enc = cls(w_img=obj["w_img"], w_txt=obj["w_txt"])
        return enc, TrainerConfig.from_dict(cfg) if cfg else None


def _similarity(batch, w_img, w_txt):
    """Cosines of a stack of R runs' encoders: s[r, i, j] is the cosine of
    image i and text j under run r's (w_img[r], w_txt[r]), each (emb, d)."""
    if len(batch) < 2:
        raise DataError("batch of size 1 has no negatives")
    ah = batch.image_vecs @ w_img.transpose(0, 2, 1)
    bh = batch.text_vecs @ w_txt.transpose(0, 2, 1)
    na = np.sqrt((ah * ah).sum(axis=2))
    nb = np.sqrt((bh * bh).sum(axis=2))
    if not (np.all(na > 0) and np.all(nb > 0)):
        raise RuntimeError("encoder projected a vector to zero norm")
    ah /= na[:, :, None]
    bh /= nb[:, :, None]
    return ah @ bh.transpose(0, 2, 1), ah, bh, na, nb


class _Objective(NamedTuple):
    """Per-run (R,) losses and (R, emb, d) gradients; from `objective`, one
    run's floats and (emb, d) gradients."""

    loss: np.ndarray
    l_it: np.ndarray
    l_ti: np.ndarray
    l_fair: np.ndarray
    d_img: np.ndarray
    d_txt: np.ndarray


def _stacked_objective(batch, w_img, w_txt, gamma, alphas, rng=None, mc_negatives=False):
    """Every term of the blended objective, and its gradients, for a stack of
    R runs' encoder matrices w_img, w_txt of shape (R, emb, d).

    alphas[r] is run r's fair weight. Returns per-run arrays of the three
    losses and of their blend l_it + alpha * l_fair + (1 - alpha) * l_ti, and
    the blend's analytic gradients w.r.t. w_img and w_txt. A pair's own image
    (by id) is never a negative. A run at alpha 0 reports l_fair 0.0; with no
    alpha > 0 the fair term is not computed and nothing is drawn. The fair
    negatives depend only on the batch, so in MC mode one draw serves every
    run. Hinge kinks take subgradient 0; hardest-negative choices are held
    fixed, which is exact away from argmax ties.
    """
    s, ah, bh, na, nb = _similarity(batch, w_img, w_txt)
    runs, n = s.shape[0], len(batch)
    cols = np.arange(n)
    # Flat indices into s and g: entry (r, i, j) is r * n * n + i * n + j.
    base = np.arange(0, runs * n * n, n * n)[:, None]
    flat = s.reshape(-1)
    valid = batch.negative
    has_neg = valid.any(axis=0)  # valid is symmetric
    masked = np.where(valid, s, -np.inf)
    margin = gamma - flat[base + cols * (n + 1)]

    # Image-to-text: each image row against its hardest negative text.
    it_at = base + cols * n + np.argmax(masked, axis=2)
    it_hinge = margin + flat[it_at]
    it_act = has_neg & (it_hinge > 0.0)
    l_it = np.where(it_act, it_hinge, 0.0).sum(axis=1)

    # Text-to-image: each text column against its hardest negative image.
    ti_at = base + np.argmax(masked, axis=1) * n + cols
    ti_hinge = margin + flat[ti_at]
    ti_act = has_neg & (ti_hinge > 0.0)
    ti_terms = np.where(ti_act, ti_hinge, 0.0)
    l_ti = ti_terms.sum(axis=1)

    # Fair text-to-image: a neutral query with a Male and a Female negative
    # averages ramped hinges over each partition, half weight each; in MC mode
    # it takes one member of one partition. Other queries keep the standard
    # term. w_fair[r, i, j] is the weight of image i in text j's fair term.
    l_fair = np.zeros(runs)
    std_weight = 1.0
    if np.any(alphas > 0.0):
        parts = np.zeros((n, 2))  # columns: the Male and the Female partition
        parts[batch.male_rows, 0] = 1.0
        parts[batch.female_rows, 1] = 1.0
        valid_f = valid.astype(np.float64)
        counts = parts.T @ valid_f  # partition sizes without the query's own image
        use = batch.neutral_query & (counts > 0.0).all(axis=0)
        if mc_negatives:
            if rng is None:
                raise DataError("mc_negatives mode needs an rng")
            # Sides (0 Male, 1 Female), then picks within them, in query order.
            side = rng.integers(2, size=int(use.sum()))
            pick = rng.integers(counts[side, use].astype(np.int64))
            members = parts[:, side] * valid_f[:, use]
            w_fair = np.zeros((n, n))
            w_fair[np.argmax(np.cumsum(members, axis=0) > pick, axis=0), cols[use]] = 1.0
        else:
            w_fair = parts @ np.where(use, 0.5 / np.maximum(counts, 1.0), 0.0) * valid_f
        hinge = margin[:, None, :] + s  # hinge[r, i, j]: text j against image i
        w_fair = np.where(hinge > 0.0, w_fair, 0.0)  # ramp: kinks take subgradient 0
        hinge *= w_fair
        fair_terms = np.where(use, hinge.sum(axis=1), ti_terms)
        l_fair = np.where(alphas > 0.0, fair_terms.sum(axis=1), 0.0)
        std_weight = np.where(use, 1.0 - alphas[:, None], 1.0)
        # The weights are >= 0, so an alpha-0 run's fair coefficients are +0.0.
        w_fair *= alphas[:, None, None]
        g = w_fair
    else:
        g = np.zeros_like(s)

    # g[r, i, j] is the coefficient of s[r, i, j] in run r's blend: fair
    # weights, then the hardest negatives, then each positive pair, whose
    # coefficient is minus the weight of its negatives. Inactive terms add
    # +0.0, which leaves every (non-negative) coefficient unchanged.
    g_flat = g.reshape(-1)
    g_flat[ti_at] += np.where(ti_act, std_weight, 0.0)
    diag = -(it_act + g.sum(axis=1))
    g_flat[it_at] += it_act
    g_flat[base + cols * (n + 1)] = diag
    loss = l_it + alphas * l_fair + (1.0 - alphas) * l_ti

    # Backpropagate g through the cosine in closed form:
    # d cos(a_i, b_j) / d a_i = (bh_j - S_ij ah_i) / |a_i|, and symmetrically.
    gs = g * s
    u = g @ bh
    u -= gs.sum(axis=2)[:, :, None] * ah
    u /= na[:, :, None]
    w = g.transpose(0, 2, 1) @ ah
    w -= gs.sum(axis=1)[:, :, None] * bh
    w /= nb[:, :, None]
    d_img = u.transpose(0, 2, 1) @ batch.image_vecs
    d_txt = w.transpose(0, 2, 1) @ batch.text_vecs
    return _Objective(loss, l_it, l_ti, l_fair, d_img, d_txt)


def objective(batch, encoders, cfg, rng=None):
    """The blended objective of one run: the R = 1 case of the stacked one.

    Returns `loss`, `l_it`, `l_ti` and `l_fair` as floats, and `d_img` and
    `d_txt`, the gradients of `loss` w.r.t. `encoders.w_img` and `w_txt`.
    Uses `cfg`'s gamma, alpha and mc_negatives; MC mode needs `rng`. At alpha
    0, `l_fair` is 0.0 and nothing is drawn.
    """
    obj = _stacked_objective(
        batch, encoders.w_img[None], encoders.w_txt[None], cfg.gamma,
        np.array([cfg.alpha]), rng, cfg.mc_negatives,
    )
    return _Objective(*(float(term[0]) for term in obj[:4]), obj.d_img[0], obj.d_txt[0])


def _build_pairs(dataset, text_labels=None):
    """Training pair arrays in text file order: the image rows, their gender
    codes and the neutral-query flags."""
    text_ids = dataset.texts.ids
    try:
        truth = [dataset.truth[tid] for tid in text_ids]
    except KeyError as exc:
        raise DataError(f"text {exc.args[0]!r} has no ground-truth image for training") from None
    rows = np.fromiter(map(dataset.images.row_index, truth), dtype=np.int64, count=len(truth))
    genders = gender_codes(dataset.images.ids, dataset.labels)[rows]
    if text_labels is None:
        # Without caption-level flags, a text is a neutral query iff its
        # truth image is Neutral.
        neutral = genders == 0
    else:
        try:
            neutral = np.array([text_labels[tid].code == 0 for tid in text_ids], dtype=bool)
        except KeyError as exc:
            raise DataError(f"text {exc.args[0]!r} missing from text labels") from None
    return rows, genders, neutral


def validation_split(n, seed, val_frac):
    """The held-out and the training rows of `n` pairs, `(val_idx, train_idx)`:
    the first round(n * val_frac) rows of a permutation drawn from the split
    stream of `seed`, and the rest."""
    perm = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[1]).permutation(n)
    n_val = int(round(n * val_frac))
    return perm[:n_val], perm[n_val:]


def validate(dataset, encoders, val_idx):
    """(Recall@10, Bias@10) of `encoders` on the texts at rows `val_idx`,
    ranked against every image; nan, nan when `val_idx` is empty."""
    if not val_idx.size:
        return math.nan, math.nan
    images = EmbeddingTable(dataset.images.ids, encoders.encode_images(dataset.images.vectors))
    text_ids = dataset.texts.ids
    texts = EmbeddingTable(
        [text_ids[i] for i in val_idx.tolist()], encoders.encode_texts(dataset.texts.vectors[val_idx])
    )
    results = retrieve_all(texts, images, k=10)
    return (
        recall_at_k(results, dataset.truth, 10).recall_at_k,
        bias_at_k(results, dataset.labels, 10).bias_at_k,
    )


def train_alphas(dataset, cfgs, text_labels=None, val_frac=0.1, on_epoch=None):
    """Mini-batch SGD on the blended objective for configs that differ only in
    alpha, in lockstep; deterministic per seed. Returns one `LinearEncoders`
    per config.

    Shuffling, the train/val split, initialization, and (in MC mode) negative
    sampling draw from independent seeded streams, so runs with the same
    config are bit-reproducible and alpha does not perturb the shuffle order.
    The runs therefore share their split, initial encoders and every batch;
    each step stacks their encoders along a leading axis and computes all
    their losses and gradients together. Every run's losses, weights and
    validation metrics equal those of its own `train` call, bit for bit.
    After each epoch `on_epoch(index, row)` gets each config's log row, in
    config order: a dict of epoch, total_loss, val_recall_at_10 and
    val_bias_at_10, the last two from `validate` on the held-out rows of
    `validation_split` (nan with none). Without `on_epoch` nothing is
    validated. Raises RuntimeError, naming the alpha and seed, if a run's
    loss or weights stop being finite; when several runs diverge at one
    step, it names the lowest alpha.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise DataError("train_alphas needs at least one config")
    cfg = cfgs[0]
    if any(replace(other, alpha=cfg.alpha) != cfg for other in cfgs):
        raise DataError("lockstep trainer configs may differ only in alpha")
    if not 0.0 <= val_frac < 1.0:
        raise DataError("val_frac must be in [0, 1)")
    rows, genders, neutral = _build_pairs(dataset, text_labels)
    image_vecs = dataset.images.vectors
    text_vecs = dataset.texts.vectors
    n = len(rows)
    if n < 2:
        raise DataError("need at least 2 training pairs")

    # The split draws from the second of these streams (`validation_split`).
    ss = np.random.SeedSequence(cfg.seed)
    init_rng, _, shuffle_rng, neg_rng = (np.random.default_rng(s) for s in ss.spawn(4))
    init = LinearEncoders.init(dataset.images.dim, cfg.emb_dim, init_rng)
    alphas = np.array([c.alpha for c in cfgs])
    w_img = np.repeat(init.w_img[None], len(cfgs), axis=0)
    w_txt = np.repeat(init.w_txt[None], len(cfgs), axis=0)

    val_idx, train_idx = validation_split(n, cfg.seed, val_frac)
    if train_idx.size < 2:
        raise DataError("training split has fewer than 2 pairs")

    def diverged(epoch, losses):
        bad_loss = ~np.isfinite(losses)
        bad = bad_loss | ~(np.isfinite(w_img).all(axis=(1, 2)) & np.isfinite(w_txt).all(axis=(1, 2)))
        run = min(np.flatnonzero(bad), key=lambda r: alphas[r])
        what = "loss" if bad_loss[run] else "encoder update"
        return RuntimeError(
            f"training diverged: non-finite {what} at epoch {epoch} "
            f"(alpha {cfgs[run].alpha}, seed {cfg.seed})"
        )

    for epoch in range(1, cfg.epochs + 1):
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        loss_sum = np.zeros(len(cfgs))
        for lo in range(0, order.size, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            if sel.size < 2:
                continue  # a singleton tail batch has no negatives
            batch = TripletBatch(
                image_vecs=image_vecs[rows[sel]],
                text_vecs=text_vecs[sel],
                image_ids=rows[sel],
                genders=genders[sel],
                neutral_query=neutral[sel],
            )
            losses, _, _, _, d_img, d_txt = _stacked_objective(
                batch, w_img, w_txt, cfg.gamma, alphas, neg_rng, cfg.mc_negatives
            )
            loss_sum += losses
            d_img *= cfg.lr
            d_txt *= cfg.lr
            w_img -= d_img
            w_txt -= d_txt
            if not (np.isfinite(losses).all() and np.isfinite(w_img).all() and np.isfinite(w_txt).all()):
                raise diverged(epoch, losses)
        if on_epoch is not None:
            for index, total in enumerate(loss_sum.tolist()):
                enc = LinearEncoders(w_img=w_img[index], w_txt=w_txt[index])
                row = {"epoch": epoch, "total_loss": total}
                row["val_recall_at_10"], row["val_bias_at_10"] = validate(dataset, enc, val_idx)
                on_epoch(index, row)
    return [LinearEncoders(w_img=wi, w_txt=wt) for wi, wt in zip(w_img, w_txt)]


def train(dataset, cfg, text_labels=None, val_frac=0.1, on_epoch=None):
    """Train one config: `train_alphas` with `cfg` alone.

    After each epoch `on_epoch(row)` gets that epoch's log row.
    """
    callback = None if on_epoch is None else lambda _, row: on_epoch(row)
    return train_alphas(dataset, [cfg], text_labels, val_frac, callback)[0]
