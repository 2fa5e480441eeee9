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
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from .core import DataError, Dataset, EmbeddingTable, gender_codes
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
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise DataError(f"unknown trainer config keys: {sorted(extra)}")
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
    double-count a negative. `image_index` numbers each row's image.
    """

    image_vecs: np.ndarray
    text_vecs: np.ndarray
    image_ids: np.ndarray
    genders: np.ndarray
    neutral_query: np.ndarray
    male_rows: np.ndarray = field(init=False)
    female_rows: np.ndarray = field(init=False)
    image_index: np.ndarray = field(init=False, repr=False)

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
        _, first, self.image_index = np.unique(
            np.asarray(self.image_ids), return_index=True, return_inverse=True
        )
        first.sort()
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
        # Read-only views: an epoch's log row validates these arrays when it
        # is first read, so they must not change after the epoch ends.
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
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: invalid checkpoint JSON ({exc.msg})") from None
        for key in ("w_img", "w_txt"):
            if key not in obj:
                raise DataError(f"{path}: checkpoint missing {key!r}")
        enc = cls(w_img=np.asarray(obj["w_img"]), w_txt=np.asarray(obj["w_txt"]))
        cfg = TrainerConfig.from_dict(obj["cfg"]) if obj.get("cfg") else None
        return enc, cfg


def _similarity(batch, encoders):
    if len(batch) < 2:
        raise DataError("batch of size 1 has no negatives")
    a = batch.image_vecs @ encoders.w_img.T
    b = batch.text_vecs @ encoders.w_txt.T
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if not (np.all(na > 0) and np.all(nb > 0)):
        raise RuntimeError("encoder projected a vector to zero norm")
    ah = a / na[:, None]
    bh = b / nb[:, None]
    return ah @ bh.T, ah, bh, na, nb


class _Objective(NamedTuple):
    loss: float
    l_it: float
    l_ti: float
    l_fair: float
    g: np.ndarray


def _objective(batch, s, gamma, alpha, rng=None, mc_negatives=False):
    """Every term of the blended objective from the similarity matrix.

    s[i, j] is the cosine of image i and text j. Returns the three losses,
    their blend l_it + alpha * l_fair + (1 - alpha) * l_ti, and the matrix g
    whose entry g[i, j] is the coefficient of s[i, j] in the blend. A pair's
    own image (by id) is never a negative. At alpha 0 the fair term is not
    computed and l_fair is 0.0.
    """
    n = len(batch)
    cols = np.arange(n)
    valid = batch.image_index[:, None] != batch.image_index[None, :]
    has_neg = valid.any(axis=0)  # valid is symmetric
    masked = np.where(valid, s, -np.inf)
    margin = gamma - np.diag(s)

    # Image-to-text: each image row against its hardest negative text.
    neg_col = np.argmax(masked, axis=1)
    it_hinge = margin + s[cols, neg_col]
    it_act = has_neg & (it_hinge > 0.0)
    l_it = float(np.sum(np.where(it_act, it_hinge, 0.0)))

    # Text-to-image: each text column against its hardest negative image.
    neg_row = np.argmax(masked, axis=0)
    ti_hinge = margin + s[neg_row, cols]
    ti_act = has_neg & (ti_hinge > 0.0)
    ti_terms = np.where(ti_act, ti_hinge, 0.0)
    l_ti = float(np.sum(ti_terms))

    # Fair text-to-image: a neutral query with a Male and a Female negative
    # averages ramped hinges over each partition, half weight each; in MC mode
    # it takes one member of one partition. Other queries keep the standard
    # term. w_fair[i, j] is the weight of image i in text j's fair term.
    l_fair = 0.0
    std_weight = 1.0
    if alpha:
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
        hinge = margin[None, :] + s  # hinge[i, j]: text j against image i
        w_fair = np.where(hinge > 0.0, w_fair, 0.0)  # ramp: kinks take subgradient 0
        l_fair = float(np.sum(np.where(use, (w_fair * hinge).sum(axis=0), ti_terms)))
        std_weight = np.where(use, 1.0 - alpha, 1.0)[ti_act]

    # g: fair weights, then the hardest negatives, then each positive pair,
    # whose coefficient is minus the weight of its negatives.
    g = alpha * w_fair if alpha else np.zeros((n, n))
    g[neg_row[ti_act], cols[ti_act]] += std_weight
    diag = -(it_act + g.sum(axis=0))
    g[cols[it_act], neg_col[it_act]] += 1.0
    g[cols, cols] = diag
    loss = l_it + alpha * l_fair + (1.0 - alpha) * l_ti
    return _Objective(loss, l_it, l_ti, l_fair, g)


def triplet_loss_ti(batch, encoders, gamma):
    """Text-to-image hinge loss with the hardest in-batch negative image."""
    return _objective(batch, _similarity(batch, encoders)[0], gamma, 0.0).l_ti


def triplet_loss_it(batch, encoders, gamma):
    """Image-to-text hinge loss with the hardest in-batch negative text."""
    return _objective(batch, _similarity(batch, encoders)[0], gamma, 0.0).l_it


def fair_loss_ti(batch, encoders, gamma, rng=None, mc_negatives=False):
    """Text-to-image loss with gender-fair negatives for neutral queries."""
    s = _similarity(batch, encoders)[0]
    return _objective(batch, s, gamma, 1.0, rng, mc_negatives).l_fair


def total_loss(batch, encoders, cfg, rng=None):
    """Image-to-text loss plus the alpha blend of fair and standard t-to-i losses."""
    s = _similarity(batch, encoders)[0]
    return _objective(batch, s, cfg.gamma, cfg.alpha, rng, cfg.mc_negatives).loss


def _loss_and_grad(batch, encoders, cfg, rng=None):
    """Total loss and its analytic gradient w.r.t. both encoder matrices.

    Backpropagates the coefficient matrix g of `_objective` through the
    cosine in closed form. Hinge kinks take subgradient 0; hardest-negative
    choices are held fixed, which is exact away from argmax ties.
    """
    s, ah, bh, na, nb = _similarity(batch, encoders)
    obj = _objective(batch, s, cfg.gamma, cfg.alpha, rng, cfg.mc_negatives)
    g = obj.g
    # d cos(a_i, b_j) / d a_i = (bh_j - S_ij ah_i) / |a_i|, and symmetrically.
    gs = g * s
    u = (g @ bh - gs.sum(axis=1)[:, None] * ah) / na[:, None]
    w = (g.T @ ah - gs.sum(axis=0)[:, None] * bh) / nb[:, None]
    d_img = u.T @ batch.image_vecs
    d_txt = w.T @ batch.text_vecs
    return obj.loss, d_img, d_txt


def _build_pairs(dataset, text_labels=None):
    """Training pair arrays in text file order: the image vectors, the image
    rows, their gender codes and the neutral-query flags."""
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
    return dataset.images.vectors[rows], rows, genders, neutral


_LOG_KEYS = ("epoch", "total_loss", "val_recall_at_10", "val_bias_at_10")


class EpochRow(Mapping):
    """One epoch's read-only log row: epoch, total_loss, val_recall_at_10 and
    val_bias_at_10, in that order.

    The two validation metrics are computed together on the first read of
    either, from the encoders that ended the epoch and the dataset given to
    `train`; a row nobody reads never validates, and a validation error is
    raised by the read. Until then the row holds its epoch's encoders.
    """

    __slots__ = ("_values", "_validate")

    def __init__(self, epoch, total_loss, validate):
        self._values = {"epoch": epoch, "total_loss": total_loss}
        self._validate = validate

    def __getitem__(self, key):
        if self._validate is not None and key in _LOG_KEYS[2:]:
            self._values["val_recall_at_10"], self._values["val_bias_at_10"] = self._validate()
            self._validate = None
        return self._values[key]

    def __iter__(self):
        return iter(_LOG_KEYS)

    def __len__(self):
        return len(_LOG_KEYS)

    def __contains__(self, key):
        return key in _LOG_KEYS


def train(dataset, cfg, text_labels=None, val_frac=0.1, on_epoch=None):
    """Mini-batch SGD on the blended objective; deterministic per seed.

    Shuffling, the train/val split, initialization, and (in MC mode) negative
    sampling draw from independent seeded streams, so runs with the same
    config are bit-reproducible and alpha does not perturb the shuffle order.
    After each epoch `on_epoch` gets that epoch's `EpochRow`, whose validation
    metrics are computed when read (nan with no validation split).
    Raises RuntimeError if the loss stops being finite.
    """
    if not 0.0 <= val_frac < 1.0:
        raise DataError("val_frac must be in [0, 1)")
    image_vecs, rows, genders, neutral = _build_pairs(dataset, text_labels)
    text_vecs = dataset.texts.vectors
    n = len(rows)
    if n < 2:
        raise DataError("need at least 2 training pairs")

    ss = np.random.SeedSequence(cfg.seed)
    init_rng, split_rng, shuffle_rng, neg_rng = (np.random.default_rng(s) for s in ss.spawn(4))
    encoders = LinearEncoders.init(dataset.images.dim, cfg.emb_dim, init_rng)

    perm = split_rng.permutation(n)
    n_val = int(round(n * val_frac))
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    if train_idx.size < 2:
        raise DataError("training split has fewer than 2 pairs")

    text_id_list = list(dataset.texts.ids)

    def validate(enc):
        """(Recall@10, Bias@10) of the encoders `enc` on the validation split."""
        if not val_idx.size:
            return math.nan, math.nan
        enc_imgs = EmbeddingTable(list(dataset.images.ids), enc.encode_images(dataset.images.vectors))
        val_tids = [text_id_list[int(i)] for i in val_idx]
        enc_txts = EmbeddingTable(val_tids, enc.encode_texts(dataset.texts.vectors[val_idx]))
        results = retrieve_all(enc_txts, enc_imgs, k=10)
        return (
            recall_at_k(results, dataset.truth, 10).recall_at_k,
            bias_at_k(results, dataset.labels, 10).bias_at_k,
        )

    for epoch in range(1, cfg.epochs + 1):
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        loss_sum = 0.0
        for lo in range(0, order.size, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            if sel.size < 2:
                continue  # a singleton tail batch has no negatives
            batch = TripletBatch(
                image_vecs=image_vecs[sel],
                text_vecs=text_vecs[sel],
                image_ids=rows[sel],
                genders=genders[sel],
                neutral_query=neutral[sel],
            )
            loss, d_img, d_txt = _loss_and_grad(batch, encoders, cfg, neg_rng)
            if not math.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
            loss_sum += loss
            new_wi = encoders.w_img - cfg.lr * d_img
            new_wt = encoders.w_txt - cfg.lr * d_txt
            if not (np.all(np.isfinite(new_wi)) and np.all(np.isfinite(new_wt))):
                raise RuntimeError(f"training diverged: non-finite encoder update at epoch {epoch}")
            encoders = LinearEncoders(w_img=new_wi, w_txt=new_wt)
        if on_epoch is not None:
            on_epoch(EpochRow(epoch, loss_sum, functools.partial(validate, encoders)))
    return encoders
