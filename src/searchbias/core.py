"""Data model: embedding tables, gender labels, datasets, and synthetic fixtures.

All persistent formats are line-oriented JSON (JSONL) so tables can be streamed,
diffed, and produced by external encoders without this package installed.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Invalid input data or parameters. The CLI maps this to exit code 2."""


class GenderLabel(Enum):
    MALE = "male"
    FEMALE = "female"
    NEUTRAL = "neutral"

    @classmethod
    def parse(cls, value):
        try:
            return cls(str(value).lower())
        except ValueError:
            raise DataError(f"unknown gender label {value!r} (expected male/female/neutral)") from None


class EmbeddingTable:
    """Ordered, id-indexed matrix of embedding vectors.

    Rows keep input (file) order, which downstream code uses for deterministic
    tie-breaking. Vectors are float64, finite, and never the all-zero vector.
    """

    def __init__(self, ids, vectors):
        ids = list(ids)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise DataError(f"vectors must be a 2-d array, got shape {vectors.shape}")
        if len(ids) != vectors.shape[0]:
            raise DataError(f"{len(ids)} ids but {vectors.shape[0]} vector rows")
        if vectors.shape[1] < 1:
            raise DataError("embedding dimension must be >= 1")
        if vectors.size and not np.all(np.isfinite(vectors)):
            bad = int(np.where(~np.isfinite(vectors).all(axis=1))[0][0])
            raise DataError(f"non-finite vector at id {ids[bad]!r}")
        if vectors.size:
            zero = np.where(~vectors.any(axis=1))[0]
            if zero.size:
                raise DataError(f"all-zero vector at id {ids[int(zero[0])]!r}")
        index = {}
        for i, id_ in enumerate(ids):
            if not isinstance(id_, str) or not id_:
                raise DataError(f"id at row {i} must be a non-empty string, got {id_!r}")
            if id_ in index:
                raise DataError(f"duplicate id {id_!r}")
            index[id_] = i
        vectors.flags.writeable = False
        self._ids = tuple(ids)
        self._vectors = vectors
        self._index = index

    @property
    def ids(self):
        return self._ids

    @property
    def vectors(self):
        return self._vectors

    @property
    def dim(self):
        return self._vectors.shape[1]

    def __len__(self):
        return len(self._ids)

    def __contains__(self, id_):
        return id_ in self._index

    def row(self, id_):
        try:
            return self._vectors[self._index[id_]]
        except KeyError:
            raise DataError(f"unknown id {id_!r}") from None

    def row_index(self, id_):
        try:
            return self._index[id_]
        except KeyError:
            raise DataError(f"unknown id {id_!r}") from None

    def records(self):
        return zip(self._ids, self._vectors)

    def __eq__(self, other):
        if not isinstance(other, EmbeddingTable):
            return NotImplemented
        return (
            self._ids == other._ids
            and self._vectors.shape == other._vectors.shape
            and bool(np.array_equal(self._vectors, other._vectors))
        )


def _parse_jsonl(path):
    """Yield (line_number, parsed_object) for every non-empty line of `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}, line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}, line {lineno}: expected a JSON object")
            yield lineno, obj


_NUMBER_TYPES = frozenset((int, float))


def load_embeddings(path, expected_dim=None):
    """Load an embedding table from JSONL.

    Each line is {"id": str, "vector": [float, ...]}. A leading {"dim": d}
    header line is accepted (written by save_embeddings for empty tables).
    Errors name the offending line and id.
    """
    ids = []
    seen = set()
    # Rows packed end to end; the table is a view of this buffer, so loading
    # holds one copy of the vectors rather than a list of rows plus a stack.
    packed = array("d")
    header_dim = None
    for lineno, obj in _parse_jsonl(path):
        if lineno == 1 and "dim" in obj and "id" not in obj:
            if not isinstance(obj["dim"], int) or obj["dim"] < 1:
                raise DataError(f"{path}, line 1: header dim must be a positive integer")
            header_dim = obj["dim"]
            continue
        if "id" not in obj or "vector" not in obj:
            raise DataError(f"{path}, line {lineno}: record needs 'id' and 'vector' keys")
        id_, vec = obj["id"], obj["vector"]
        if not isinstance(id_, str) or not id_:
            raise DataError(f"{path}, line {lineno}: id must be a non-empty string")
        # JSON numbers parse to exactly int or float; bool, a subclass of int, is refused.
        if not isinstance(vec, list) or not vec or not set(map(type, vec)) <= _NUMBER_TYPES:
            raise DataError(f"{path}, line {lineno} (id {id_!r}): vector must be a non-empty list of numbers")
        row = np.asarray(vec, dtype=np.float64)
        if not np.all(np.isfinite(row)):
            raise DataError(f"{path}, line {lineno} (id {id_!r}): non-finite vector component")
        if not row.any():
            raise DataError(f"{path}, line {lineno} (id {id_!r}): all-zero vector")
        want = expected_dim if expected_dim is not None else header_dim
        if want is None and ids:
            want = len(packed) // len(ids)
        if want is not None and row.shape[0] != want:
            raise DataError(
                f"{path}, line {lineno} (id {id_!r}): dimension mismatch, got {row.shape[0]}, expected {want}"
            )
        if id_ in seen:
            raise DataError(f"{path}, line {lineno}: duplicate id {id_!r}")
        seen.add(id_)
        ids.append(id_)
        packed.frombytes(row.tobytes())
    if not ids:
        dim = expected_dim if expected_dim is not None else header_dim
        if dim is None:
            raise DataError(f"{path}: empty table without a dim header")
        return EmbeddingTable([], np.empty((0, dim)))
    return EmbeddingTable(ids, np.frombuffer(packed, dtype=np.float64).reshape(len(ids), -1))


def save_embeddings(table, path):
    """Write a table as JSONL; round-trip load reproduces it exactly.

    Floats are serialized with repr (shortest round-trip form), so every
    component reloads bit-identical. Empty tables get a {"dim": d} header.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if len(table) == 0:
            fh.write(json.dumps({"dim": table.dim}) + "\n")
        for id_, vec in table.records():
            fh.write(json.dumps({"id": id_, "vector": vec.tolist()}) + "\n")


def load_labels(path):
    """Load {"id", "gender"} JSONL into an ordered id -> GenderLabel map."""
    labels = {}
    for lineno, obj in _parse_jsonl(path):
        if "id" not in obj or "gender" not in obj:
            raise DataError(f"{path}, line {lineno}: record needs 'id' and 'gender' keys")
        id_ = obj["id"]
        if not isinstance(id_, str) or not id_:
            raise DataError(f"{path}, line {lineno}: id must be a non-empty string")
        if id_ in labels:
            raise DataError(f"{path}, line {lineno}: duplicate id {id_!r}")
        try:
            labels[id_] = GenderLabel.parse(obj["gender"])
        except DataError as exc:
            raise DataError(f"{path}, line {lineno} (id {id_!r}): {exc}") from None
    return labels


def save_labels(labels, path):
    with open(path, "w", encoding="utf-8") as fh:
        for id_, label in labels.items():
            fh.write(json.dumps({"id": id_, "gender": label.value}) + "\n")


def load_truth(path):
    """Load {"text_id", "image_id"} JSONL into an ordered text id -> image id map."""
    truth = {}
    for lineno, obj in _parse_jsonl(path):
        if "text_id" not in obj or "image_id" not in obj:
            raise DataError(f"{path}, line {lineno}: record needs 'text_id' and 'image_id' keys")
        tid, iid = obj["text_id"], obj["image_id"]
        if not isinstance(tid, str) or not tid or not isinstance(iid, str) or not iid:
            raise DataError(f"{path}, line {lineno}: ids must be non-empty strings")
        if tid in truth:
            raise DataError(f"{path}, line {lineno}: duplicate text_id {tid!r}")
        truth[tid] = iid
    return truth


def save_truth(truth, path):
    with open(path, "w", encoding="utf-8") as fh:
        for tid, iid in truth.items():
            fh.write(json.dumps({"text_id": tid, "image_id": iid}) + "\n")


@dataclass
class Dataset:
    """A retrieval benchmark: image and text tables plus labels and ground truth."""

    images: EmbeddingTable
    texts: EmbeddingTable
    labels: dict = field(repr=False)
    truth: dict = field(repr=False)

    def __post_init__(self):
        if self.images.dim != self.texts.dim:
            raise DataError(
                f"image dim {self.images.dim} != text dim {self.texts.dim}"
            )
        for id_ in self.images.ids:
            if id_ not in self.labels:
                raise DataError(f"image {id_!r} has no gender label")
        for tid, iid in self.truth.items():
            if iid not in self.images:
                raise DataError(f"truth for text {tid!r} names unknown image {iid!r}")


def synth_dataset(
    seed,
    n_images,
    n_texts,
    dim,
    bias_dims=(),
    skew=0.5,
    p_neutral=0.2,
    mu=1.0,
    text_noise=0.1,
):
    """Build a synthetic benchmark with gender signal planted in known dimensions.

    Image labels are drawn Neutral with probability `p_neutral`, Male with
    `skew` * (1 - p_neutral), Female with the rest. Image vectors are standard
    normal; each dimension in `bias_dims` is shifted +mu for Male and -mu for
    Female, so those dimensions carry the gender signal by construction. Each
    text is a noisy copy (sigma = `text_noise`) of a uniformly drawn truth
    image's vector. Fully deterministic for a fixed seed.
    """
    if n_images < 2:
        raise DataError("n_images must be >= 2")
    if n_texts < 1:
        raise DataError("n_texts must be >= 1")
    if dim < 1:
        raise DataError("dim must be >= 1")
    bias_dims = sorted(set(int(d) for d in bias_dims))
    if bias_dims and (bias_dims[0] < 0 or bias_dims[-1] >= dim):
        raise DataError(f"bias_dims must lie in [0, {dim})")
    if not 0.0 <= skew <= 1.0:
        raise DataError("skew must be in [0, 1]")
    if not 0.0 <= p_neutral <= 1.0:
        raise DataError("p_neutral must be in [0, 1]")

    rng = np.random.default_rng(seed)
    width = max(5, len(str(n_images)), len(str(n_texts)))
    image_ids = [f"img{i:0{width}d}" for i in range(n_images)]
    text_ids = [f"txt{i:0{width}d}" for i in range(n_texts)]

    u = rng.random(n_images)
    labels = {}
    label_arr = []
    for i, id_ in enumerate(image_ids):
        if u[i] < p_neutral:
            lab = GenderLabel.NEUTRAL
        elif u[i] < p_neutral + skew * (1.0 - p_neutral):
            lab = GenderLabel.MALE
        else:
            lab = GenderLabel.FEMALE
        labels[id_] = lab
        label_arr.append(lab)

    img = rng.standard_normal((n_images, dim))
    if bias_dims:
        shift = np.array(
            [mu if l is GenderLabel.MALE else -mu if l is GenderLabel.FEMALE else 0.0 for l in label_arr]
        )
        for d in bias_dims:
            img[:, d] += shift

    truth_idx = rng.integers(0, n_images, size=n_texts)
    txt = img[truth_idx] + text_noise * rng.standard_normal((n_texts, dim))

    images = EmbeddingTable(image_ids, img)
    texts = EmbeddingTable(text_ids, txt)
    truth = {text_ids[j]: image_ids[int(truth_idx[j])] for j in range(n_texts)}
    return Dataset(images=images, texts=texts, labels=labels, truth=truth)
