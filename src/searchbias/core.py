"""Data model: embedding tables, gender labels, datasets, and synthetic fixtures.

Tables, labels and truth are line-oriented JSON (JSONL) so they can be streamed,
diffed, and produced by external encoders without this package installed. The
other inputs (clip plans, lexicons, checkpoints) are one JSON object each, and
both kinds decode through orjson with the same strict rules.

What the JSONL loaders parse is also kept in a per-user cache keyed by the
SHA-256 of the file's bytes, so an input read again by a later command skips
the JSON decoding (see `load_embeddings`).

Inside `recording_inputs`, every loader records the SHA-256 of the bytes it
parsed, so a command can name the exact inputs it used without reading any
of them again.
"""

from __future__ import annotations

import contextvars
import hashlib
import io
import json
import os
import re
import stat
import tempfile
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

import numpy as np
import orjson


class DataError(ValueError):
    """Invalid input data or parameters. The CLI maps this to exit code 2."""


class GenderLabel(Enum):
    """An image's gender label. `code` is its integer form, the sign Bias@K
    counts: +1 Male, -1 Female, 0 Neutral."""

    MALE = "male", 1
    FEMALE = "female", -1
    NEUTRAL = "neutral", 0

    def __new__(cls, value, code):
        member = object.__new__(cls)
        member._value_ = value
        member.code = code
        return member

    @classmethod
    def parse(cls, value):
        try:
            return cls(str(value).lower())
        except ValueError:
            raise DataError(f"unknown gender label {value!r} (expected male/female/neutral)") from None


_LABEL_BY_VALUE = {label.value: label for label in GenderLabel}


def gender_codes(ids, labels):
    """The int8 code of each id's label in `labels`, in the order of `ids`.

    Raises DataError naming the first id without a label.
    """
    try:
        return np.fromiter((labels[id_].code for id_ in ids), dtype=np.int8, count=len(ids))
    except KeyError as exc:
        raise DataError(f"image {exc.args[0]!r} has no gender label") from None


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

    @property
    def index(self):
        """The id -> row map, read-only."""
        return MappingProxyType(self._index)

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


# The inputs read inside `recording_inputs`: a dict of path -> SHA-256 hex
# digest, or None outside it, so library calls record nothing.
_recorded = contextvars.ContextVar("searchbias_recorded_inputs", default=None)


@contextmanager
def recording_inputs():
    """Record the inputs the loaders read inside this block, and yield the
    record: each path, as `os.fspath` gives it, mapped to the SHA-256 of the
    bytes parsed from it.

    A path read twice with different bytes raises DataError, because no one
    digest then describes what the block used.
    """
    record = {}
    token = _recorded.set(record)
    try:
        yield record
    finally:
        _recorded.reset(token)


def _record(path, digest):
    """Record that `path` was read as bytes of SHA-256 `digest` (see `recording_inputs`)."""
    record = _recorded.get()
    if record is None:
        return
    path = os.fspath(path)
    if record.setdefault(path, digest) != digest:
        raise DataError(f"{path}: changed between two reads")


def _read_utf8(path):
    """The whole text of `path`, which must be UTF-8, read once and recorded."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # No newline translation is needed: JSON reads \r as whitespace and
        # refuses it inside a string, as it does \n.
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    _record(path, hashlib.sha256(data).hexdigest())
    return text


def _json_object(text, what, keys):
    """The JSON object in `text`, decoded as strictly as a JSONL line; a
    DataError names the document `what` if `text` is not strict JSON, not an
    object, or lacks one of `keys`."""
    try:
        obj = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise DataError(f"invalid {what} JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{what} JSON must be an object")
    for key in keys:
        if key not in obj:
            raise DataError(f"{what} JSON missing {key!r}")
    return obj


def _sha256(path):
    """The SHA-256 hex digest of the bytes of `path`, read in chunks: the
    cache's lookup key."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _HashingReader(io.RawIOBase):
    """A raw binary file that feeds every byte read from it into `sha`."""

    def __init__(self, fh, sha):
        super().__init__()
        self._fh = fh
        self._sha = sha

    def readable(self):
        return True

    def readinto(self, buffer):
        n = self._fh.readinto(buffer)
        self._sha.update(buffer[:n])
        return n

    def close(self):
        self._fh.close()
        super().close()


def _parse_jsonl(path, sha):
    """Yield (line_number, parsed_object) for every non-empty line of the
    file `path`, feeding every byte read to `sha`, a SHA-256 hashlib object,
    and record its digest once all are read.

    Lines are strict JSON (RFC 8259), decoded by orjson. Bytes that are not
    UTF-8 become lone surrogates, which orjson refuses, so they are reported
    as invalid JSON at their own line, in file order with every other error.
    """
    raw = io.BufferedReader(_HashingReader(open(path, "rb", buffering=0), sha))
    with io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = orjson.loads(line)
            except orjson.JSONDecodeError as exc:
                raise DataError(f"{path}, line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}, line {lineno}: expected a JSON object")
            yield lineno, obj
    _record(path, sha.hexdigest())


_NUMBER_TYPES = frozenset((int, float))


# The cache never holds more than this many bytes of entries.
_CACHE_CAP_BYTES = 1 << 30
# Entries are named by the digest of their input file and the kind of value
# parsed from it; `.tmp` files are entries being written.
_CACHE_FILE = re.compile(r"[0-9a-f]{64}\.(?:table|labels|truth|captions)(\.[0-9a-z_]+\.tmp)?")


def _cache_dir():
    """The cache directory, or None if SEARCHBIAS_CACHE_DIR is set empty."""
    path = os.environ.get("SEARCHBIAS_CACHE_DIR")
    if path is None:
        base = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(base):  # the XDG spec says to ignore a relative path
            base = os.path.join(os.path.expanduser("~"), ".cache")
        path = os.path.join(base, "searchbias")
    return path or None


def _private(st):
    """Whether the file of the stat result `st` is this user's and no one
    else may write to it."""
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _cached(cache, path, kind, read):
    """(value, digest): the value `read(fh)` decodes from the cache entry of
    kind `kind` for the file `path`, and the SHA-256 of the file it was found
    under, or None if the cache holds no usable entry.

    An entry is named by the SHA-256 of the file and its kind. It counts only
    if no other user could have written it: the directory and the entry must
    be this user's and writable by no one else. Anything unreadable, or that
    `read` refuses by raising ValueError, LookupError or TypeError, is a miss.
    """
    try:
        dir_fd = os.open(cache, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return None  # no cache yet, so no entry: the file need not be hashed
    try:
        if not _private(os.fstat(dir_fd)):
            return None
        digest = _sha256(path)
        name = f"{digest}.{kind}"
        with open(name, "rb", opener=lambda file, flags: os.open(file, flags, dir_fd=dir_fd)) as fh:
            if not _private(os.fstat(fh.fileno())):
                return None
            value = read(fh)
        # A hit makes the entry the most recently used.
        with suppress(OSError):
            os.utime(name, dir_fd=dir_fd)
        return value, digest
    # ValueError: a bad .npy header, orjson, DataError; the rest, a column
    # entry's bad shape or unknown label.
    except (OSError, ValueError, LookupError, TypeError):
        return None
    finally:
        os.close(dir_fd)


def _store(cache, name, size, write):
    """Store the entry `name`, `size` bytes that `write(fh)` writes, then
    evict the least recently used entries until the cache is within its cap.
    The cache only saves time, so an OSError ends the store or the eviction
    without a message, and nothing is stored in a directory that other users
    may write to, or an entry that alone exceeds the cap, which would evict
    every entry and then itself."""
    if size > _CACHE_CAP_BYTES:
        return
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not _private(os.stat(cache)):
            return
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=cache)
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            # Readers see the whole entry or none of it.
            os.replace(tmp, os.path.join(cache, name))
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        files = []
        with os.scandir(cache) as it:
            for item in it:
                if _CACHE_FILE.fullmatch(item.name):
                    st = item.stat(follow_symlinks=False)
                    files.append((st.st_mtime_ns, item.path, st.st_size))
        total = sum(size for _, _, size in files)
        for _, item_path, size in sorted(files):
            if total <= _CACHE_CAP_BYTES:
                break
            os.unlink(item_path)
            total -= size
    except OSError:
        pass


def _load_cached(path, kind, parse, read, entry):
    """The value `parse(path, sha)` gives for the file `path`, or the same
    value read from the cache (see `load_embeddings`).

    `parse` feeds every byte it reads to `sha`, a hashlib object, and records
    its digest. `read(fh)` decodes a binary file holding an entry of kind
    `kind`, checking it as strictly as `parse` checks the input.
    `entry(value)` is the (size, write) pair `_store` takes for the value's
    entry, or None if the value is not to be stored.
    """
    cache = _cache_dir()
    regular = False
    if cache is not None:
        with suppress(OSError):
            # A pipe or other special file is read once, by the parse.
            regular = stat.S_ISREG(os.stat(path).st_mode)
    hit = _cached(cache, path, kind, read) if regular else None
    if hit is not None:
        value, digest = hit
        _record(path, digest)
        return value
    sha = hashlib.sha256()
    value = parse(path, sha)
    stored = entry(value) if regular else None
    # Stored under the digest of the bytes parsed, which are not the bytes
    # hashed for the lookup if the file changed in between.
    if stored is not None:
        _store(cache, f"{sha.hexdigest()}.{kind}", *stored)
    return value


def _read_columns(fh, n):
    """The `n` columns of a column entry: lists of equal length whose items
    are all non-empty strings."""
    columns = orjson.loads(fh.read())
    if (
        type(columns) is not list
        or len(columns) != n
        or any(type(column) is not list or len(column) != len(columns[0]) for column in columns)
        or any(not set(map(type, column)) <= {str} or "" in column for column in columns)
    ):
        raise ValueError("not a column entry")
    return columns


def _column_entry(columns):
    """The (size, write) pair of an entry holding `columns` as one JSON
    array, or None if the columns are empty: an empty load is not stored."""
    if not columns[0]:
        return None
    data = orjson.dumps(columns)
    return len(data), lambda fh: fh.write(data)


def load_embeddings(path, expected_dim=None):
    """Load an embedding table from JSONL.

    Each line is {"id": str, "vector": [float, ...]}. A leading {"dim": d}
    header line is accepted (written by save_embeddings for empty tables);
    given `expected_dim`, a header that names another dim is an error.
    Errors name the offending line and id; the first bad line is reported.

    What is parsed from a regular file is cached under the SHA-256 of its
    bytes in $SEARCHBIAS_CACHE_DIR (default $XDG_CACHE_HOME/searchbias, or
    ~/.cache/searchbias if XDG_CACHE_HOME is not an absolute path; empty
    turns the cache off), and a later load of the same bytes reads the
    entry instead of parsing. The table, and every error, are the same. A
    directory or entry that other users may write to is not used. Labels,
    truth and captions are cached the same way, each under its own kind.
    """

    def read(fh):
        # An entry is the float64 matrix in .npy form followed by the ids as
        # one JSON array; the table must pass every `EmbeddingTable` check.
        vectors = np.lib.format.read_array(fh, allow_pickle=False)
        ids = orjson.loads(fh.read())
        if (
            vectors.dtype != np.float64
            or vectors.ndim != 2
            or not vectors.flags.c_contiguous
            or type(ids) is not list
            or (expected_dim is not None and vectors.shape[1] != expected_dim)
        ):
            raise ValueError("not a table entry")
        return EmbeddingTable(ids, vectors)

    def entry(table):
        if not len(table):
            return None

        def write(fh):
            np.lib.format.write_array(fh, table.vectors, allow_pickle=False)
            fh.write(orjson.dumps(table.ids))

        return table.vectors.nbytes, write

    return _load_cached(
        path, "table", lambda path, sha: _parse_table(path, expected_dim, sha), read, entry
    )


def _parse_table(path, expected_dim, sha):
    """The table in the JSONL file `path` (see `load_embeddings`); every
    byte read is fed to `sha`, a hashlib object, and its digest recorded.

    Each line is checked whole, its values before its dimension and id,
    before the next is read: the first bad line is the error reported.
    """
    ids = []
    seen = set()
    # Rows packed end to end; the table is a view of this buffer, so loading
    # holds one copy of the vectors rather than a list of rows plus a stack.
    packed = array("d")
    # Every row's dimension: the expected dim, else the header's, else the first row's.
    want = expected_dim
    for lineno, obj in _parse_jsonl(path, sha):
        if lineno == 1 and "dim" in obj and "id" not in obj:
            # bool, a subclass of int, is refused.
            if type(obj["dim"]) is not int or obj["dim"] < 1:
                raise DataError(f"{path}, line 1: header dim must be a positive integer")
            if expected_dim is not None and obj["dim"] != expected_dim:
                raise DataError(
                    f"{path}, line 1: header dim {obj['dim']} does not match expected dim {expected_dim}"
                )
            want = obj["dim"]
            continue
        if "id" not in obj or "vector" not in obj:
            raise DataError(f"{path}, line {lineno}: record needs 'id' and 'vector' keys")
        id_, vec = obj["id"], obj["vector"]
        if not isinstance(id_, str) or not id_:
            raise DataError(f"{path}, line {lineno}: id must be a non-empty string")
        # JSON numbers parse to exactly int or float; bool, a subclass of int, is refused.
        if not isinstance(vec, list) or not vec or not set(map(type, vec)) <= _NUMBER_TYPES:
            raise DataError(f"{path}, line {lineno} (id {id_!r}): vector must be a non-empty list of numbers")
        # orjson refuses NaN, ±Infinity and every number beyond the double
        # range, so every component read is finite: no finiteness check.
        if not any(vec):
            raise DataError(f"{path}, line {lineno} (id {id_!r}): all-zero vector")
        if want is None:
            want = len(vec)
        elif len(vec) != want:
            raise DataError(
                f"{path}, line {lineno} (id {id_!r}): dimension mismatch, got {len(vec)}, expected {want}"
            )
        if id_ in seen:
            raise DataError(f"{path}, line {lineno}: duplicate id {id_!r}")
        seen.add(id_)
        ids.append(id_)
        packed.fromlist(vec)
    if want is None:
        raise DataError(f"{path}: empty table without a dim header")
    return EmbeddingTable(ids, np.frombuffer(packed, dtype=np.float64).reshape(len(ids), want))


def _json_str(text):
    """The bytes `json.dumps` writes for a string: ASCII, with \\uXXXX escapes."""
    return encode_basestring_ascii(text).encode("ascii")


_SAVE_BATCH = 256  # lines formatted, then written at once: ~2.7 MB of 512-d table rows


def _write_lines(path, lines):
    """Write an iterable of byte strings to `path`, joined _SAVE_BATCH at a time."""
    lines = iter(lines)
    with open(path, "wb") as fh:
        while batch := list(islice(lines, _SAVE_BATCH)):
            fh.write(b"".join(batch))


def _json_floats(vec):
    """The bytes `json.dumps(vec.tolist())` writes for one row of floats.

    orjson prints the same shortest round-trip digits as `float.__repr__`.
    The two differ only where orjson writes an exponent (`1e16` for
    `1e+16`, `9.99e-6` for `9.99e-06`) or a fixed-point number below 1e-4
    (`0.00001` for `1e-05`); a row whose bytes hold either is left to json.
    """
    row = vec.tolist()  # orjson refuses numpy rows that are not C-contiguous
    text = orjson.dumps(row)
    if b"e" in text or b"0.0000" in text:
        return json.dumps(row).encode("ascii")
    return text.replace(b",", b", ")


def save_embeddings(table, path):
    """Write a table as JSONL; round-trip load reproduces it exactly.

    Each line holds the bytes `json.dumps({"id": ..., "vector": ...})` gives:
    floats in their repr (shortest round-trip) form, so every component
    reloads bit-identical. Empty tables get a {"dim": d} header.
    """
    if len(table) == 0:
        _write_lines(path, [b'{"dim": %d}\n' % table.dim])
        return
    _write_lines(
        path,
        (b'{"id": %s, "vector": %s}\n' % (_json_str(id_), _json_floats(vec))
         for id_, vec in table.records()),
    )


def load_labels(path):
    """Load {"id", "gender"} JSONL into an ordered id -> GenderLabel map.

    Cached like a table (see `load_embeddings`): the entry is the columns
    [ids, label values] as one JSON array.
    """
    return _load_cached(
        path, "labels", _parse_labels, _read_labels,
        lambda labels: _column_entry([list(labels), [label.value for label in labels.values()]]),
    )


def _parse_labels(path, sha):
    labels = {}
    for lineno, obj in _parse_jsonl(path, sha):
        if "id" not in obj or "gender" not in obj:
            raise DataError(f"{path}, line {lineno}: record needs 'id' and 'gender' keys")
        id_ = obj["id"]
        if not isinstance(id_, str) or not id_:
            raise DataError(f"{path}, line {lineno}: id must be a non-empty string")
        if id_ in labels:
            raise DataError(f"{path}, line {lineno}: duplicate id {id_!r}")
        gender = obj["gender"]
        # Exact names are looked up; the rest, unhashable values among them, are parsed.
        label = _LABEL_BY_VALUE.get(gender) if type(gender) is str else None
        if label is None:
            try:
                label = GenderLabel.parse(gender)
            except DataError as exc:
                raise DataError(f"{path}, line {lineno} (id {id_!r}): {exc}") from None
        labels[id_] = label
    return labels


def _read_labels(fh):
    ids, values = _read_columns(fh, 2)
    # KeyError: a value that is not a label's.
    labels = dict(zip(ids, map(_LABEL_BY_VALUE.__getitem__, values)))
    if len(labels) != len(ids):
        raise ValueError("duplicate id")
    return labels


def save_labels(labels, path):
    _write_lines(
        path,
        (b'{"id": %s, "gender": %s}\n' % (_json_str(id_), _json_str(label.value))
         for id_, label in labels.items()),
    )


def load_truth(path):
    """Load {"text_id", "image_id"} JSONL into an ordered text id -> image id map.

    Cached like a table (see `load_embeddings`): the entry is the columns
    [text ids, image ids] as one JSON array.
    """
    return _load_cached(
        path, "truth", _parse_truth, _read_truth,
        lambda truth: _column_entry([list(truth), list(truth.values())]),
    )


def _parse_truth(path, sha):
    truth = {}
    for lineno, obj in _parse_jsonl(path, sha):
        if "text_id" not in obj or "image_id" not in obj:
            raise DataError(f"{path}, line {lineno}: record needs 'text_id' and 'image_id' keys")
        tid, iid = obj["text_id"], obj["image_id"]
        if not isinstance(tid, str) or not tid or not isinstance(iid, str) or not iid:
            raise DataError(f"{path}, line {lineno}: ids must be non-empty strings")
        if tid in truth:
            raise DataError(f"{path}, line {lineno}: duplicate text_id {tid!r}")
        truth[tid] = iid
    return truth


def _read_truth(fh):
    text_ids, image_ids = _read_columns(fh, 2)
    truth = dict(zip(text_ids, image_ids))
    if len(truth) != len(text_ids):
        raise ValueError("duplicate text id")
    return truth


def save_truth(truth, path):
    _write_lines(
        path,
        (b'{"text_id": %s, "image_id": %s}\n' % (_json_str(tid), _json_str(iid))
         for tid, iid in truth.items()),
    )


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
        gender_codes(self.images.ids, self.labels)
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
    for i, id_ in enumerate(image_ids):
        if u[i] < p_neutral:
            labels[id_] = GenderLabel.NEUTRAL
        elif u[i] < p_neutral + skew * (1.0 - p_neutral):
            labels[id_] = GenderLabel.MALE
        else:
            labels[id_] = GenderLabel.FEMALE

    img = rng.standard_normal((n_images, dim))
    if bias_dims:
        shift = float(mu) * gender_codes(image_ids, labels)
        for d in bias_dims:
            img[:, d] += shift

    truth_idx = rng.integers(0, n_images, size=n_texts)
    txt = img[truth_idx] + text_noise * rng.standard_normal((n_texts, dim))

    images = EmbeddingTable(image_ids, img)
    texts = EmbeddingTable(text_ids, txt)
    truth = {text_ids[j]: image_ids[int(truth_idx[j])] for j in range(n_texts)}
    return Dataset(images=images, texts=texts, labels=labels, truth=truth)
