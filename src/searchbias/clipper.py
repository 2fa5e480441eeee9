"""Post-processing debiaser: drop the embedding dimensions most informative of gender.

Each dimension of the image table is scored by a plug-in estimate of its
mutual information with the gender label; the top-m dimensions form the
clipped set, which is removed from both image and text embeddings before
cosine retrieval. Greedy selection on a fixed per-dimension score means the
clipped set for m is always a prefix of the set for m' > m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import DataError, EmbeddingTable, GenderLabel

_CLASS_INDEX = {GenderLabel.MALE: 0, GenderLabel.FEMALE: 1, GenderLabel.NEUTRAL: 2}


def estimate_mi(column, genders, bins=20):
    """Plug-in mutual information (nats) between one real column and gender.

    The column is discretized into `bins` equal-frequency bins by rank
    (ties keep stable original order), then I = sum p(b,g) ln(p(b,g)/(p(b)p(g)))
    over the joint histogram with the three gender classes. 0 ln 0 terms are
    dropped and the result is clamped at 0. Rank binning makes the estimate
    exactly invariant under strictly monotone transforms of the column.
    """
    column = np.asarray(column, dtype=np.float64)
    if column.ndim != 1:
        raise DataError("column must be 1-d")
    n = column.shape[0]
    if n != len(genders):
        raise DataError(f"column has {n} values but {len(genders)} gender labels")
    if bins < 1:
        raise DataError("bins must be >= 1")
    if n < bins:
        raise DataError(f"need at least as many samples as bins ({n} < {bins})")
    if not np.all(np.isfinite(column)):
        raise DataError("column has non-finite values")
    # A constant column carries no information; rank binning would fabricate some.
    if np.all(column == column[0]):
        return 0.0

    order = np.argsort(column, kind="stable")
    bin_id = np.empty(n, dtype=np.int64)
    bin_id[order] = (np.arange(n, dtype=np.int64) * bins) // n
    g_idx = np.fromiter((_CLASS_INDEX[g] for g in genders), dtype=np.int64, count=n)

    joint = np.zeros((bins, 3), dtype=np.float64)
    np.add.at(joint, (bin_id, g_idx), 1.0)
    joint /= n
    p_bin = joint.sum(axis=1, keepdims=True)
    p_gender = joint.sum(axis=0, keepdims=True)
    nz = joint > 0.0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / (p_bin * p_gender)[nz])))
    return max(mi, 0.0)


@dataclass
class ClipPlan:
    """Which dimensions to drop: `clipped` lists indices in greedy (score) order."""

    dim: int
    mi: list
    clipped: list

    def __post_init__(self):
        if self.dim < 1:
            raise DataError("plan dim must be >= 1")
        if len(self.mi) != self.dim:
            raise DataError(f"plan has {len(self.mi)} scores for dim {self.dim}")
        seen = set()
        for z in self.clipped:
            if not isinstance(z, int) or not 0 <= z < self.dim:
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
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid clip plan JSON ({exc.msg})") from None
        for key in ("dim", "mi", "clipped"):
            if key not in obj:
                raise DataError(f"clip plan JSON missing {key!r}")
        plan = cls(dim=obj["dim"], mi=[float(x) for x in obj["mi"]], clipped=list(obj["clipped"]))
        if "m" in obj and obj["m"] != plan.m:
            raise DataError(f"clip plan m={obj['m']} disagrees with {plan.m} clipped indices")
        return plan

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def fit_clip_plan(images, labels, m, bins=20):
    """Score every dimension's MI with gender and greedily pick the top m.

    Ties are broken toward the lower dimension index, so plans are
    deterministic and prefix-consistent across m.
    """
    if not 0 <= m < images.dim:
        raise DataError(f"m must satisfy 0 <= m < dim ({m} vs dim {images.dim})")
    if len(images) == 0:
        raise DataError("cannot fit a clip plan on an empty table")
    genders = []
    for id_ in images.ids:
        if id_ not in labels:
            raise DataError(f"image {id_!r} has no gender label")
        genders.append(labels[id_])
    mi = [estimate_mi(images.vectors[:, d], genders, bins=bins) for d in range(images.dim)]
    # Stable argsort of -mi keeps ascending dimension index among ties.
    order = np.argsort(-np.asarray(mi), kind="stable")
    clipped = [int(d) for d in order[:m]]
    return ClipPlan(dim=images.dim, mi=mi, clipped=clipped)


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
    clipped = table.vectors[:, keep]
    zero = np.where(~clipped.any(axis=1))[0]
    if zero.size:
        raise DataError(f"vector {table.ids[int(zero[0])]!r} is all-zero after clipping")
    return EmbeddingTable(list(table.ids), clipped)
