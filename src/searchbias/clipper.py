"""Post-processing debiaser: drop the embedding dimensions most informative of gender.

Each dimension of the image table is scored by a plug-in estimate of its
mutual information with the gender label; the top-m dimensions form the
clipped set, which is removed from both image and text embeddings before
cosine retrieval. Greedy selection on a fixed per-dimension score means the
clipped set for m is always a prefix of the set for m' > m.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import _NUMBER_TYPES, DataError, EmbeddingTable, _json_object, _read_utf8, gender_codes


# A block of columns is scored from one C-ordered transposed copy of at most
# _BLOCK_BYTES of float64 (131 columns of 1000 rows), so the fit's buffers stay
# a few times that, whatever the table's width. The copy is made _TILE_ROWS
# table rows at a time: numpy's one-step transposed copy reads a new row, a
# page apart, for every value. On a 2-vCPU Xeon it took 8 ms for a 1000 x 512
# table, against 3 ms by tiles.
_BLOCK_BYTES = 1024 * 1024
_TILE_ROWS = 32
# Histogram class of each gender code + 1: codes -1, 0, +1 go to Female (1),
# Neutral (2) and Male (0), so a (bin, class) row runs Male, Female, Neutral.
_CLASS_OF_CODE = np.array([1, 2, 0])


def _mi_classes(codes, n, bins):
    """Check `codes` and `bins` for n samples; return each row's histogram class."""
    codes = np.asarray(codes)
    if codes.shape != (n,):
        raise DataError(f"column has {n} values but codes have shape {codes.shape}")
    if codes.dtype.kind != "i" or np.any((codes < -1) | (codes > 1)):
        raise DataError("gender codes must be integers in {-1, 0, 1}")
    if bins < 1:
        raise DataError("bins must be >= 1")
    if n < bins:
        raise DataError(f"need at least as many samples as bins ({n} < {bins})")
    return _CLASS_OF_CODE[codes + 1]


def _mi_rows(block, classes, bins):
    """The MI of each row of a C-ordered (columns, n) block with the classes.

    Each row's value is the same float, bit for bit, as when it is scored
    alone, so the result does not depend on which rows share the block.
    """
    if not np.all(np.isfinite(block)):
        raise DataError("column has non-finite values")
    cols, n = block.shape
    # A row without repeated values has one sorted order, so any sort finds
    # it; only rows with ties need the stable sort that puts them in file order.
    order = np.argsort(block, axis=1)
    ordered = np.take_along_axis(block, order, axis=1)
    tied = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    if tied.any():
        order[tied] = np.argsort(block[tied], axis=1, kind="stable")
    # Rank r falls in bin r * bins // n; one count fills every row's
    # C-ordered (bin, class) histogram, which the sums below run over.
    cells = classes[order]
    cells += 3 * (np.arange(n) * bins // n)
    cells += 3 * bins * np.arange(cols)[:, None]
    joint = np.bincount(cells.ravel(), minlength=cols * bins * 3).reshape(cols, bins, 3) / n
    p_bin = joint.sum(axis=2, keepdims=True)
    p_gender = joint.sum(axis=1, keepdims=True)
    joint = joint.reshape(cols, bins * 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log(joint / (p_bin * p_gender).reshape(cols, bins * 3))
    # 0 ln 0 terms are dropped: a row with an empty cell sums its other terms.
    full = np.all(joint > 0.0, axis=1)
    mi = np.empty(cols)
    mi[full] = terms[full].sum(axis=1)
    for row in np.flatnonzero(~full):
        mi[row] = np.sum(terms[row][joint[row] > 0.0])
    mi = np.where(0.0 > mi, 0.0, mi)  # max(mi, 0.0), as a float comparison
    # A constant column carries no information; rank binning would fabricate some.
    mi[ordered[:, 0] == ordered[:, -1]] = 0.0
    return mi


def estimate_mi(column, codes, bins=20):
    """Plug-in mutual information (nats) between one real column and gender.

    `codes` holds each row's gender code (+1 Male, -1 Female, 0 Neutral, as
    `gender_codes` returns them). The column is discretized into `bins`
    equal-frequency bins by rank (ties keep stable original order), then
    I = sum p(b,g) ln(p(b,g)/(p(b)p(g))) over the joint histogram with the
    three gender classes. 0 ln 0 terms are dropped and the result is clamped
    at 0. Rank binning makes the estimate exactly invariant under strictly
    monotone transforms of the column.
    """
    column = np.asarray(column, dtype=np.float64)
    if column.ndim != 1:
        raise DataError("column must be 1-d")
    classes = _mi_classes(codes, column.shape[0], bins)
    return float(_mi_rows(column[None, :], classes, bins)[0])


@dataclass
class ClipPlan:
    """Which dimensions to drop: `clipped` lists indices in greedy (score) order."""

    dim: int
    mi: list
    clipped: list

    def __post_init__(self):
        # bool is a subclass of int; `type(...) is int` refuses it.
        if type(self.dim) is not int or self.dim < 1:
            raise DataError(f"plan dim must be an integer >= 1, got {self.dim!r}")
        if len(self.mi) != self.dim:
            raise DataError(f"plan has {len(self.mi)} scores for dim {self.dim}")
        # Then `save` writes only what `load` reads back: JSON has no NaN or inf.
        if not all(map(math.isfinite, self.mi)):
            raise DataError("plan scores must be finite")
        seen = set()
        for z in self.clipped:
            if type(z) is not int or not 0 <= z < self.dim:
                raise DataError(f"clipped index {z!r} out of range [0, {self.dim})")
            if z in seen:
                raise DataError(f"clipped index {z} repeated")
            seen.add(z)
        if len(self.clipped) >= self.dim:
            raise DataError("cannot clip every dimension")

    @property
    def m(self):
        return len(self.clipped)

    def prefix(self, m):
        """Sub-plan keeping only the first m greedily chosen dimensions."""
        if not 0 <= m <= self.m:
            raise DataError(f"prefix m must be in [0, {self.m}]")
        return ClipPlan(dim=self.dim, mi=list(self.mi), clipped=list(self.clipped[:m]))

    def kept_dims(self):
        dropped = set(self.clipped)
        return [d for d in range(self.dim) if d not in dropped]

    def to_json(self):
        return json.dumps(
            {"dim": self.dim, "m": self.m, "mi": list(self.mi), "clipped": list(self.clipped)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        obj = _json_object(text, "clip plan", ("dim", "mi", "clipped"))
        if not isinstance(obj["mi"], list) or not set(map(type, obj["mi"])) <= _NUMBER_TYPES:
            raise DataError("clip plan 'mi' must be a list of numbers")
        if not isinstance(obj["clipped"], list):
            raise DataError("clip plan 'clipped' must be a list of dimension indices")
        plan = cls(dim=obj["dim"], mi=[float(x) for x in obj["mi"]], clipped=obj["clipped"])
        # An exact int, as for `dim` and `clipped`: `true` and `1.0` are refused.
        if "m" in obj and (type(obj["m"]) is not int or obj["m"] != plan.m):
            raise DataError(f"clip plan m={obj['m']!r} disagrees with {plan.m} clipped indices")
        return plan

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        return cls.from_json(_read_utf8(path))


def _columns(vectors, start, stop):
    """Columns start:stop of `vectors` as a C-ordered (columns, rows) copy."""
    stop = min(stop, vectors.shape[1])
    block = np.empty((stop - start, vectors.shape[0]))
    for row in range(0, vectors.shape[0], _TILE_ROWS):
        block[:, row:row + _TILE_ROWS] = vectors[row:row + _TILE_ROWS, start:stop].T
    return block


def fit_clip_plan(images, labels, m, bins=20):
    """Score every dimension's MI with gender and greedily pick the top m.

    Ties are broken toward the lower dimension index, so plans are
    deterministic and prefix-consistent across m. Columns are scored a block
    at a time, and each gets the bits `estimate_mi` gives it alone, so the
    plan does not depend on the block width.
    """
    if not 0 <= m < images.dim:
        raise DataError(f"m must satisfy 0 <= m < dim ({m} vs dim {images.dim})")
    if len(images) == 0:
        raise DataError("cannot fit a clip plan on an empty table")
    classes = _mi_classes(gender_codes(images.ids, labels), len(images), bins)
    width = max(1, _BLOCK_BYTES // (8 * len(images)))
    mi = np.concatenate([
        _mi_rows(_columns(images.vectors, start, start + width), classes, bins)
        for start in range(0, images.dim, width)
    ])
    # Stable argsort of -mi keeps ascending dimension index among ties.
    order = np.argsort(-mi, kind="stable")
    clipped = [int(d) for d in order[:m]]
    return ClipPlan(dim=images.dim, mi=mi.tolist(), clipped=clipped)


def apply_clip(table, plan):
    """Drop the plan's clipped dimensions from every vector in the table.

    Survivor dimensions keep their ascending original order. A vector that
    becomes all-zero after clipping is rejected by name.
    """
    if table.dim != plan.dim:
        raise DataError(f"table dim {table.dim} does not match plan dim {plan.dim}")
    keep = plan.kept_dims()
    if len(table) == 0:
        return EmbeddingTable([], np.empty((0, len(keep))))
    # `take` keeps the rows C-ordered; `vectors[:, keep]` would give an F-ordered
    # copy, so every later row gather would be strided.
    clipped = np.take(table.vectors, keep, axis=1)
    zero = np.where(~clipped.any(axis=1))[0]
    if zero.size:
        raise DataError(f"vector {table.ids[int(zero[0])]!r} is all-zero after clipping")
    return EmbeddingTable(list(table.ids), clipped)
