"""Data model, JSONL round-trips, and the synthetic benchmark generator."""

import hashlib
import json
import math
import os
import threading

import numpy as np
import orjson
import pytest

from searchbias import core
from searchbias.clipper import ClipPlan, apply_clip
from searchbias.core import (
    DataError,
    Dataset,
    EmbeddingTable,
    GenderLabel,
    gender_codes,
    load_captions,
    load_embeddings,
    load_labels,
    load_truth,
    save_embeddings,
    save_labels,
    save_truth,
    synth_dataset,
)
from searchbias.gender_text import GenderLexicon
from searchbias.trainer import LinearEncoders, TrainerConfig


def small_table():
    return EmbeddingTable(["a", "b", "c"], [[1.0, 0.0], [0.5, 0.5], [-1.0, 2.0]])


def test_table_basic_accessors():
    t = small_table()
    assert len(t) == 3
    assert t.dim == 2
    assert t.ids == ("a", "b", "c")
    assert "b" in t and "z" not in t
    assert t.row_index("c") == 2
    assert np.array_equal(t.row("a"), [1.0, 0.0])
    assert [i for i, _ in t.records()] == ["a", "b", "c"]
    assert t == small_table()


def test_table_vectors_are_read_only():
    t = small_table()
    with pytest.raises(ValueError):
        t.vectors[0, 0] = 9.0


def test_table_validation():
    with pytest.raises(DataError):
        EmbeddingTable(["a"], [1.0, 2.0])  # not 2-d
    with pytest.raises(DataError):
        EmbeddingTable(["a", "b"], [[1.0, 2.0]])  # id/row count mismatch
    with pytest.raises(DataError):
        EmbeddingTable(["a"], [[]])  # dim 0
    with pytest.raises(DataError):
        EmbeddingTable(["a"], [[float("nan"), 1.0]])
    with pytest.raises(DataError):
        EmbeddingTable(["a"], [[0.0, 0.0]])  # zero vector cannot be cosine-scored
    with pytest.raises(DataError):
        EmbeddingTable(["a", "a"], [[1.0], [2.0]])  # duplicate id
    with pytest.raises(DataError):
        EmbeddingTable([""], [[1.0]])
    with pytest.raises(DataError):
        EmbeddingTable([7], [[1.0]])


def test_embeddings_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    t = EmbeddingTable([f"v{i}" for i in range(20)], rng.standard_normal((20, 7)))
    path = tmp_path / "emb.jsonl"
    save_embeddings(t, path)
    back = load_embeddings(path)
    assert back.ids == t.ids
    assert back.vectors.tobytes() == t.vectors.tobytes()


def test_empty_table_round_trip_keeps_dim(tmp_path):
    t = EmbeddingTable([], np.zeros((0, 5)))
    path = tmp_path / "empty.jsonl"
    save_embeddings(t, path)
    assert json.loads(path.read_text().splitlines()[0]) == {"dim": 5}
    back = load_embeddings(path)
    assert len(back) == 0 and back.dim == 5


def test_header_dim_must_match_expected_dim(tmp_path):
    path = tmp_path / "texts.jsonl"
    path.write_text('{"dim": 3}\n{"id": "a", "vector": [1.0, 2.0, 3.0, 4.0]}\n')
    with pytest.raises(DataError, match="line 1: header dim 3 does not match expected dim 4"):
        load_embeddings(path, expected_dim=4)
    with pytest.raises(DataError, match="line 2 .*dimension mismatch, got 4, expected 3"):
        load_embeddings(path)

    path.write_text('{"dim": 3}\n')
    with pytest.raises(DataError, match="line 1: header dim 3 does not match expected dim 4"):
        load_embeddings(path, expected_dim=4)
    assert load_embeddings(path, expected_dim=3).dim == 3


def test_load_embeddings_error_reporting(tmp_path):
    path = tmp_path / "bad.jsonl"

    path.write_text('{"id": "a", "vector": [1.0]}\nnot json\n')
    with pytest.raises(DataError, match="line 2"):
        load_embeddings(path)

    path.write_text('{"id": "a", "vector": [1.0, 2.0]}\n{"id": "b", "vector": [1.0]}\n')
    with pytest.raises(DataError, match="line 2.*'b'"):
        load_embeddings(path)

    path.write_text('{"id": "a", "vector": [1.0, true]}\n')
    with pytest.raises(DataError):
        load_embeddings(path)

    path.write_text('{"id": "a", "vector": [1.0]}\n{"id": "a", "vector": [2.0]}\n')
    with pytest.raises(DataError, match="duplicate"):
        load_embeddings(path)

    path.write_text('{"id": "a", "vector": [3.0]}\n')
    with pytest.raises(DataError, match="dim"):
        load_embeddings(path, expected_dim=2)

    for header in ('{"dim": true}', '{"dim": 0}', '{"dim": 2.0}', '{"dim": "2"}'):
        path.write_text(header + "\n")
        with pytest.raises(DataError, match="line 1: header dim must be a positive integer"):
            load_embeddings(path)

    good = '{"id": "a", "vector": [1.0, 2.0]}\n'
    zero = '{"id": "z", "vector": [0.0, 0]}\n'
    # Strict JSON: non-standard literals, numbers beyond the double range and
    # unpaired surrogate escapes are invalid JSON at their own line.
    for bad_line in (
        '{"id": "b", "vector": [1.0, NaN]}',
        '{"id": "b", "vector": [Infinity, 1.0]}',
        '{"id": "b", "vector": [-Infinity, 1.0]}',
        '{"id": "b", "vector": [1e400, 1.0]}',
        '{"id": "b", "vector": [-1e400, 1.0]}',
        '{"id": "b", "vector": [1' + "0" * 400 + ', 1.0]}',
        '{"id": "b", "vector": [-1' + "0" * 400 + ', 1.0]}',
        '{"id": "\\ud800", "vector": [1.0, 2.0]}',
    ):
        path.write_text(good + bad_line + "\n")
        with pytest.raises(DataError, match="line 2: invalid JSON"):
            load_embeddings(path)

    # The first bad line in file order is reported, whatever kind each error is.
    for text, message in (
        (good + zero + '{"id": "b", "vector": [1.0]}\n', "line 2 \\(id 'z'\\): all-zero"),
        (good + '{"id": "b", "vector": [1.0]}\n' + zero, "line 2 \\(id 'b'\\): dimension mismatch"),
        (good + '{"id": "a", "vector": [0.0, 0.0]}\n', "line 2 \\(id 'a'\\): all-zero"),
        (good + zero + '{"id": "b", "vector": [1.0, true]}\n', "line 2 \\(id 'z'\\): all-zero"),
        (good + zero + "not json\n", "line 2 \\(id 'z'\\): all-zero"),
        (good + '{"id": "b", "vector": [0.0]}\n', "line 2 \\(id 'b'\\): all-zero"),
        (good + good + zero, "line 2: duplicate id 'a'"),
        # Components that underflow to zero make an all-zero row.
        (good + '{"id": "u", "vector": [1e-400, -0.0]}\nnot json\n', "line 2 \\(id 'u'\\): all-zero vector$"),
    ):
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            load_embeddings(path)

    for text, message in (
        (good + "[1.0, 2.0]\n", ", line 2: expected a JSON object"),
        (good + '{"id": "b", "vec": [1.0, 2.0]}\n', ", line 2: record needs 'id' and 'vector' keys"),
        (good + '{"id": 7, "vector": [1.0, 2.0]}\n', ", line 2: id must be a non-empty string"),
        ("", ": empty table without a dim header"),
        ("\n\n", ": empty table without a dim header"),
    ):
        path.write_text(text)
        with pytest.raises(DataError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}{message}"


def _json_reference_table(path):
    """The table the stdlib decoder gives: json.loads, then np.asarray per row."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [r["id"] for r in rows], np.array([np.asarray(r["vector"], np.float64) for r in rows])


def test_load_embeddings_matches_the_stdlib_decoder_bitwise(tmp_path):
    traps = [
        "-0", "-0.0", "0", "5e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
        "9007199254740993", "1e23", "18446744073709551615", "18446744073709551616",
        "9223372036854775807", "-9223372036854775809", str(10**300), "-" + str(10**300),
        "1.7976931348623157e308", "0.30000000000000004", "1.0000000000000002",
        "12345678901234567", "1E-05", "1e+16", "1e-7", "4.9406564584124654e-324",
    ]
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    randoms = [repr(float(x)) for x in bits[np.isfinite(bits)]]
    for _ in range(3000):
        digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 41)))))
        if rng.random() < 0.5:
            text = digits.lstrip("0") or "0"
        else:
            text = f"{digits[:1]}.{digits[1:] or '0'}e{int(rng.integers(-340, 308))}"
        randoms.append(("-" if rng.random() < 0.3 else "") + text)
    numbers = traps + randoms
    path = tmp_path / "traps.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, len(numbers), 8):
            chunk = (numbers[i:i + 8] + ["1.5"] * 8)[:8]
            # A leading 1 keeps every row from being all zero.
            fh.write('{"id": "r%d", "vector": [1, %s]}\n' % (i, ", ".join(chunk)))
    ids, want = _json_reference_table(path)
    got = load_embeddings(path)
    assert got.ids == tuple(ids)
    assert got.vectors.tobytes() == want.tobytes()
    assert np.signbit(got.vectors[0, 1:4]).tolist() == [False, True, False]  # -0 is the integer 0


def test_string_fields_match_the_stdlib_decoder(tmp_path):
    # JSON escapes for é, a quote, a backslash and a surrogate pair, beside raw UTF-8.
    names = ["caf\\u00e9", "thé", 'say \\"hi\\"', "back\\\\slash", "\\ud83d\\ude00", "😀 \\u00a0x"]
    labels, truth, captions = tmp_path / "labels.jsonl", tmp_path / "truth.jsonl", tmp_path / "caps.jsonl"
    labels.write_text("".join(f'{{"id": "{n}", "gender": "male"}}\n' for n in names), encoding="utf-8")
    truth.write_text("".join(f'{{"text_id": "t{n}", "image_id": "{n}"}}\n' for n in names), encoding="utf-8")
    captions.write_text(
        "".join(f'{{"id": "c{n}", "image_id": "{n}", "text": "A {n}"}}\n' for n in names), encoding="utf-8"
    )

    def reference(path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    assert load_labels(labels) == {r["id"]: GenderLabel.MALE for r in reference(labels)}
    assert load_truth(truth) == {r["text_id"]: r["image_id"] for r in reference(truth)}
    assert load_captions(captions) == tuple(
        [r[key] for r in reference(captions)] for key in ("id", "image_id", "text")
    )
    assert "😀" in load_truth(truth).values()


# Strings whose JSON form needs escapes: quotes, backslashes, control
# characters, non-ASCII and astral characters, and a lone surrogate.
AWKWARD_STRINGS = [
    "plain",
    'quote " and back\\slash \\u0041',
    "control \x00\x01\x08\x0c\x1f\x7f \t\n\r",
    "caf\u00e9 \u212a \u0130 \u017f \u2028 \u00a0",
    "astral \U0001f600\U00010348",
    "lone \ud800 surrogate",
]


def _json_lines(records):
    """The reference bytes: one json.dumps line per record."""
    return b"".join((json.dumps(rec) + "\n").encode("utf-8") for rec in records)


# Floats at the edges of repr's fixed-point and exponent forms.
FLOAT_EDGES = [
    1e-5, 9.99e-6, 0.0001, 9.9999e-05, 2.5e-5, 1e-7, 1e15, 1e16, 9999999999999998.0,
    1234567890123456.7, 1e22, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    np.finfo(np.float64).max, 0.1, 1 / 3, 123456789012345.6,
]


def _awkward_rows(dim):
    """Rows of edge values, random bit patterns, and normals at many scales."""
    rng = np.random.default_rng(41)
    edges = [[x, 1.0, -x, 0.5][:dim] for x in FLOAT_EDGES]
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    wide = rng.standard_normal(4000) * 10.0 ** rng.uniform(-37, 38, size=4000)
    # One scale per row keeps whole rows in repr's fixed-point range too.
    fixed = rng.standard_normal((1000, dim)) * 10.0 ** rng.integers(-3, 15, size=(1000, 1))
    return np.concatenate(
        [edges, bits[: len(bits) // dim * dim].reshape(-1, dim), wide.reshape(-1, dim), fixed]
    )


def test_save_embeddings_writes_the_json_dumps_bytes(tmp_path):
    dim = 4
    rows = _awkward_rows(dim)
    ids = [f"{AWKWARD_STRINGS[i % len(AWKWARD_STRINGS)]}{i}" for i in range(len(rows))]
    table = EmbeddingTable(ids, rows)
    path = tmp_path / "t.jsonl"
    save_embeddings(table, path)
    assert path.read_bytes() == _json_lines({"id": i, "vector": v.tolist()} for i, v in zip(ids, rows))

    # An F-ordered table's rows are views that are not C-contiguous.
    fortran = EmbeddingTable(ids, np.asfortranarray(rows))
    assert not fortran.vectors[0].flags.c_contiguous
    save_embeddings(fortran, path)
    assert path.read_bytes() == _json_lines({"id": i, "vector": v.tolist()} for i, v in zip(ids, rows))

    clipped = apply_clip(table, ClipPlan(dim=dim, mi=[0.0] * dim, clipped=[1]))
    save_embeddings(clipped, path)
    assert path.read_bytes() == _json_lines({"id": i, "vector": v.tolist()} for i, v in clipped.records())

    save_embeddings(EmbeddingTable([], np.zeros((0, 3))), path)
    assert path.read_bytes() == _json_lines([{"dim": 3}])


def test_line_writer_iterates_its_lines_once(tmp_path):
    """A list or other re-iterable is read once across every batch, so no
    batch starts again at the first line (which never ended)."""

    class Once:
        def __init__(self, lines):
            self.lines, self.used = lines, False

        def __iter__(self):
            assert not self.used, "the lines were iterated a second time"
            self.used = True
            return iter(self.lines)

    lines = [b"%d\n" % i for i in range(2 * core._SAVE_BATCH + 1)]
    path = tmp_path / "lines"
    core._write_lines(path, Once(lines))
    assert path.read_bytes() == b"".join(lines)
    core._write_lines(path, [b"a\n"])
    assert path.read_bytes() == b"a\n"


def _count_parses(monkeypatch):
    """The paths of the JSONL parses made from now on, by any loader."""
    calls = []
    parse = core._parse_jsonl

    def counted(path, *args):
        calls.append(path)
        return parse(path, *args)

    monkeypatch.setattr(core, "_parse_jsonl", counted)
    return calls


def _cache_files(cache):
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


def _entry_name(path, kind="table"):
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}.{kind}"


def _cacheable_table():
    ids = ["a\x00", "astral \U0001d11e", 'quote " mark', "new\nline", "plain"]
    rows = np.random.default_rng(5).standard_normal((len(ids), 6))
    rows[0, :3] = -0.0, 5e-324, 1.7976931348623157e308
    rows[4, 0] = 0.5
    return EmbeddingTable(ids, rows)


def test_table_cache_skips_the_parse_and_is_bitwise(tmp_path, table_cache, monkeypatch):
    table = _cacheable_table()
    path = tmp_path / "t.jsonl"
    save_embeddings(table, path)
    parses = _count_parses(monkeypatch)
    loaded = [load_embeddings(path)]
    assert len(parses) == 1
    assert _cache_files(table_cache) == [_entry_name(path)]
    loaded += [load_embeddings(path), load_embeddings(path, expected_dim=6)]
    assert len(parses) == 1
    for back in loaded:
        assert back.ids == table.ids
        assert back.vectors.tobytes() == table.vectors.tobytes()
        assert not back.vectors.flags.writeable

    # One byte changed is another table: a miss, stored beside the first.
    data = path.read_bytes()
    edited = data.replace(b'"plain", "vector": [0.5,', b'"plain", "vector": [0.7,')
    assert len(edited) == len(data) and sum(a != b for a, b in zip(data, edited)) == 1
    path.write_bytes(edited)
    back = load_embeddings(path)
    assert len(parses) == 2
    assert back.vectors[4, 0] == 0.7
    assert len(_cache_files(table_cache)) == 2


def test_table_cache_stores_under_the_digest_of_the_bytes_parsed(tmp_path, table_cache, monkeypatch):
    path = tmp_path / "t.jsonl"
    save_embeddings(_cacheable_table(), path)
    hashed = _entry_name(path)
    edited = EmbeddingTable(["x"], [[1.0, 2.0]])
    parse = core._parse_jsonl

    def edit_then_parse(*args):
        # The file changes after the loader hashed it and before it parses.
        save_embeddings(edited, path)
        return parse(*args)

    monkeypatch.setattr(core, "_parse_jsonl", edit_then_parse)
    assert load_embeddings(path) == edited
    assert _cache_files(table_cache) == [_entry_name(path)] != [hashed]


def _write_entry(path, vectors, ids):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, vectors, allow_pickle=False)
        fh.write(orjson.dumps(ids))


_BAD_ENTRIES = {
    "truncated vectors": lambda entry, good, table: entry.write_bytes(good[: len(good) // 2]),
    "truncated ids": lambda entry, good, table: entry.write_bytes(good[:-3]),
    "empty": lambda entry, good, table: entry.write_bytes(b""),
    # Finite in float32, so only the dtype tells it from a good entry.
    "float32": lambda entry, good, table: _write_entry(
        entry, table.vectors.clip(-1e30, 1e30).astype(np.float32), list(table.ids)
    ),
    "Fortran order": lambda entry, good, table: _write_entry(
        entry, np.asfortranarray(table.vectors), list(table.ids)
    ),
    "duplicate id": lambda entry, good, table: _write_entry(
        entry, table.vectors, [table.ids[0], *table.ids[:-1]]
    ),
    "ids as one string": lambda entry, good, table: _write_entry(entry, table.vectors, "abcde"),
    "one id too few": lambda entry, good, table: _write_entry(entry, table.vectors, list(table.ids[1:])),
}


@pytest.mark.parametrize("damage", sorted(_BAD_ENTRIES))
def test_table_cache_ignores_and_rewrites_a_bad_entry(tmp_path, table_cache, monkeypatch, damage):
    table = _cacheable_table()
    path = tmp_path / "t.jsonl"
    save_embeddings(table, path)
    load_embeddings(path)
    entry = table_cache / _entry_name(path)
    good = entry.read_bytes()
    _BAD_ENTRIES[damage](entry, good, table)
    assert entry.read_bytes() != good
    parses = _count_parses(monkeypatch)
    back = load_embeddings(path)
    assert len(parses) == 1
    assert back.ids == table.ids and back.vectors.tobytes() == table.vectors.tobytes()
    assert back.vectors.flags.c_contiguous
    assert entry.read_bytes() == good


def test_table_cache_hit_keeps_the_dim_error(tmp_path, table_cache, monkeypatch):
    path = tmp_path / "t.jsonl"
    save_embeddings(_cacheable_table(), path)
    monkeypatch.setenv("SEARCHBIAS_CACHE_DIR", "")
    with pytest.raises(DataError) as cold:
        load_embeddings(path, expected_dim=4)
    monkeypatch.setenv("SEARCHBIAS_CACHE_DIR", str(table_cache))
    load_embeddings(path)
    with pytest.raises(DataError) as warm:
        load_embeddings(path, expected_dim=4)
    assert str(warm.value) == str(cold.value)
    assert "line 1 (id 'a\\x00'): dimension mismatch, got 6, expected 4" in str(cold.value)


def test_table_cache_stores_no_failed_or_empty_table(tmp_path, table_cache):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "vector": [1.0]}\n{"id": "a", "vector": [2.0]}\n')
    messages = []
    for _ in range(2):
        with pytest.raises(DataError) as exc:
            load_embeddings(path)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == f"{path}, line 2: duplicate id 'a'"
    path.write_text('{"dim": 3}\n')
    assert load_embeddings(path).dim == load_embeddings(path).dim == 3
    assert _cache_files(table_cache) == []


def test_table_cache_off_or_unwritable_loads_and_writes_nothing(tmp_path, table_cache, monkeypatch, capsys):
    table = _cacheable_table()
    path = tmp_path / "t.jsonl"
    save_embeddings(table, path)
    parses = _count_parses(monkeypatch)
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    # Empty turns the cache off; a file, or a directory under one, cannot hold it.
    for cache in ("", str(blocker), str(blocker / "cache")):
        monkeypatch.setenv("SEARCHBIAS_CACHE_DIR", cache)
        for _ in range(2):
            assert load_embeddings(path) == table
    assert len(parses) == 6
    assert blocker.read_bytes() == b""
    assert _cache_files(table_cache) == []
    assert capsys.readouterr() == ("", "")


def test_table_cache_default_location(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    save_embeddings(_cacheable_table(), path)
    monkeypatch.delenv("SEARCHBIAS_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    load_embeddings(path)
    cache = tmp_path / "xdg" / "searchbias"
    assert _cache_files(cache) == [_entry_name(path)]
    # Entries are copies of the user's embeddings: only the user may read them.
    assert cache.stat().st_mode & 0o777 == 0o700
    assert (cache / _entry_name(path)).stat().st_mode & 0o777 == 0o600
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    home_cache = tmp_path / "home" / ".cache" / "searchbias"
    # Empty or relative, XDG_CACHE_HOME is ignored, as the XDG spec says.
    monkeypatch.chdir(tmp_path)
    for xdg in ("", "rel"):
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        load_embeddings(path)
        assert _cache_files(home_cache) == [_entry_name(path)]
    assert not (tmp_path / "rel").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_table_cache_reads_a_pipe_once(tmp_path, table_cache):
    table = _cacheable_table()
    path = tmp_path / "t.jsonl"
    save_embeddings(table, path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    loaded = []
    # Daemon threads: a loader that opened the pipe twice would block forever.
    threads = [
        threading.Thread(target=write, daemon=True),
        threading.Thread(target=lambda: loaded.append(load_embeddings(fifo)), daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert loaded == [table]
    assert _cache_files(table_cache) == []


def test_table_cache_evicts_the_least_recently_used(tmp_path, table_cache, monkeypatch):
    paths = []
    for i in range(4):
        paths.append(tmp_path / f"t{i}.jsonl")
        save_embeddings(EmbeddingTable(["r0", "r1", "r2"], np.full((3, 4), i + 1.0)), paths[-1])
    names = [_entry_name(p) for p in paths]
    for p in paths[:3]:
        load_embeddings(p)
    size = (table_cache / names[0]).stat().st_size
    for age, name in enumerate(names[:3]):
        os.utime(table_cache / name, ns=(age * 10**9, age * 10**9))
    # A file that is not an entry is neither counted nor deleted.
    (table_cache / "notes.txt").write_bytes(b"x" * 4 * size)
    load_embeddings(paths[0])  # a hit makes the oldest entry the newest
    monkeypatch.setattr(core, "_CACHE_CAP_BYTES", 2 * size + size // 2)
    load_embeddings(paths[3])
    assert _cache_files(table_cache) == sorted([names[0], names[3], "notes.txt"])


def test_table_cache_stores_no_table_larger_than_the_cap(tmp_path, table_cache, monkeypatch):
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    save_embeddings(EmbeddingTable(["a"], [[1.0, 2.0]]), small)
    save_embeddings(EmbeddingTable(["a", "b"], np.ones((2, 64))), large)
    load_embeddings(small)
    monkeypatch.setattr(core, "_CACHE_CAP_BYTES", 1000)  # the large table is 1024 bytes
    parses = _count_parses(monkeypatch)
    for _ in range(2):
        load_embeddings(large)
    assert len(parses) == 2
    assert _cache_files(table_cache) == [_entry_name(small)]


def test_table_cache_caps_the_whole_entry_not_just_the_matrix(tmp_path, table_cache, monkeypatch):
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    save_embeddings(EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, 4.0]]), small)
    table = EmbeddingTable([f"row{i}" for i in range(1000)], np.ones((1000, 8)))
    save_embeddings(table, large)
    load_embeddings(small)
    # The matrix fits; with its .npy header and ~8 KB of ids the entry does not.
    monkeypatch.setattr(core, "_CACHE_CAP_BYTES", table.vectors.nbytes + 1000)
    assert load_embeddings(large) == table
    assert _cache_files(table_cache) == [_entry_name(small)]


def test_table_cache_trusts_only_what_other_users_cannot_write(tmp_path, table_cache, monkeypatch):
    table = _cacheable_table()
    path = tmp_path / "t.jsonl"
    save_embeddings(table, path)
    load_embeddings(path)
    entry = table_cache / _entry_name(path)
    good = entry.read_bytes()
    # Another user able to write the entry could have planted other vectors.
    _write_entry(entry, np.ones((5, 6)), list(table.ids))
    planted = entry.read_bytes()
    parses = _count_parses(monkeypatch)
    entry.chmod(0o666)
    assert load_embeddings(path) == table
    assert len(parses) == 1
    # The parse stored a private entry again.
    assert entry.read_bytes() == good and entry.stat().st_mode & 0o777 == 0o600

    # In a directory others may write to, no entry is used and none is stored.
    entry.write_bytes(planted)
    table_cache.chmod(0o777)
    try:
        assert load_embeddings(path) == table
        other = tmp_path / "other.jsonl"
        save_embeddings(EmbeddingTable(["x"], [[3.0]]), other)
        load_embeddings(other)
        assert len(parses) == 3
        assert _cache_files(table_cache) == [entry.name] and entry.read_bytes() == planted
    finally:
        table_cache.chmod(0o700)
    # Back in a private directory the same entry is used: only the modes made it a miss.
    assert load_embeddings(path) == EmbeddingTable(table.ids, np.ones((5, 6)))
    assert len(parses) == 3


# Each column kind: its loader, a file of two records, and that file's value.
_COLUMN_KINDS = {
    "labels": (
        load_labels,
        b'{"id": "b", "gender": "Female"}\n\n{"id": "a\\u0000", "gender": "male"}\n',
        {"b": GenderLabel.FEMALE, "a\x00": GenderLabel.MALE},
    ),
    "truth": (
        load_truth,
        b'{"text_id": "t2", "image_id": "a"}\n{"text_id": "t1", "image_id": "a"}\n',
        {"t2": "a", "t1": "a"},
    ),
}


@pytest.mark.parametrize("kind", sorted(_COLUMN_KINDS))
def test_label_and_truth_caches_skip_the_parse(tmp_path, monkeypatch, table_cache, kind):
    load, data, value = _COLUMN_KINDS[kind]
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    parses = _count_parses(monkeypatch)
    loaded = [load(path)]
    assert len(parses) == 1
    assert _cache_files(table_cache) == [_entry_name(path, kind)]
    loaded.append(load(path))
    assert len(parses) == 1
    for back in loaded:
        assert list(back.items()) == list(value.items())


def test_a_file_valid_for_two_loaders_gets_an_entry_for_each(tmp_path, monkeypatch, table_cache):
    path = tmp_path / "both.jsonl"
    path.write_text('{"id": "t", "gender": "male", "text_id": "t", "image_id": "i"}\n')
    parses = _count_parses(monkeypatch)
    for _ in range(2):
        assert load_labels(path) == {"t": GenderLabel.MALE}
        assert load_truth(path) == {"t": "i"}
    # The labels entry did not serve the truth load, nor the other way round.
    assert len(parses) == 2
    assert _cache_files(table_cache) == sorted([_entry_name(path, "labels"), _entry_name(path, "truth")])


def _damage_column(i, j, item):
    def damage(columns):
        columns[i][j] = item

    return damage


# Each damage to a column entry, as an edit of its decoded columns or, for
# a truncation, of its bytes; the kinds it applies to.
_DAMAGED_COLUMNS = {
    "truncated": (None, ("labels", "truth")),
    "unequal columns": (lambda columns: columns[1].pop(), ("labels", "truth")),
    "empty id": (_damage_column(0, 0, ""), ("labels", "truth")),
    "empty image id": (_damage_column(1, 0, ""), ("truth",)),
    "duplicate id": (lambda columns: columns[0].__setitem__(1, columns[0][0]), ("labels", "truth")),
    "unknown gender value": (_damage_column(1, 0, "Female"), ("labels",)),
    "non-string id": (_damage_column(0, 0, 7), ("labels", "truth")),
    "non-string value": (_damage_column(1, 0, ["female"]), ("labels", "truth")),
    "one column": (lambda columns: columns.pop(), ("labels", "truth")),
    "an object": (lambda columns: columns.append({}), ("labels", "truth")),
}


@pytest.mark.parametrize(
    "kind, damage",
    [(kind, damage) for damage, (_, kinds) in sorted(_DAMAGED_COLUMNS.items()) for kind in kinds],
)
def test_label_and_truth_caches_ignore_and_rewrite_a_bad_entry(tmp_path, monkeypatch, table_cache, kind, damage):
    load, data, value = _COLUMN_KINDS[kind]
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    load(path)
    entry = table_cache / _entry_name(path, kind)
    good = entry.read_bytes()
    edit = _DAMAGED_COLUMNS[damage][0]
    if edit is None:
        entry.write_bytes(good[:-3])
    else:
        columns = orjson.loads(good)
        edit(columns)
        entry.write_bytes(orjson.dumps(columns))
    assert entry.read_bytes() != good
    parses = _count_parses(monkeypatch)
    assert list(load(path).items()) == list(value.items())
    assert len(parses) == 1
    assert entry.read_bytes() == good


@pytest.mark.parametrize("kind", sorted(_COLUMN_KINDS))
def test_label_and_truth_caches_store_no_failed_or_empty_load(tmp_path, table_cache, kind):
    load, data, _ = _COLUMN_KINDS[kind]
    path = tmp_path / "in.jsonl"
    path.write_bytes(b"\n")
    assert load(path) == load(path) == {}
    path.write_bytes(data + data)
    messages = []
    for _ in range(2):
        with pytest.raises(DataError) as exc:
            load(path)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and "duplicate" in messages[0]
    assert _cache_files(table_cache) == []


# Each column kind's loader and a good record, in its keys' order.
_COLUMN_RECORDS = {
    "labels": (load_labels, {"id": "b", "gender": "female"}),
    "truth": (load_truth, {"text_id": "b", "image_id": "i"}),
    "captions": (load_captions, {"id": "b", "image_id": "i", "text": "A dog."}),
}


def _faulty_record(kind, fault):
    """A record of `kind` with `fault`, and how the loader's error names it
    after the line number."""
    record = dict(_COLUMN_RECORDS[kind][1])
    first, *rest = record
    if fault == "missing key":
        for key in rest:
            del record[key]
        return record, f": record needs {rest[0]!r}"
    if fault == "empty string":
        record[rest[-1]] = ""
        return record, f" ({first} 'b'): {rest[-1]} must be a non-empty string, got ''"
    if fault == "non-string":
        record[first] = ["b"]
        return record, f": {first} must be a non-empty string, got ['b']"
    if fault == "duplicate":
        record[first] = "a"
        return record, f": duplicate {first} 'a'"
    record["gender"] = "robot"
    return record, " (id 'b'): unknown gender label 'robot' (expected male/female/neutral)"


@pytest.mark.parametrize(
    "kind, fault",
    [(kind, fault) for kind in sorted(_COLUMN_RECORDS)
     for fault in ("missing key", "empty string", "non-string", "duplicate")]
    + [("labels", "unknown gender")],
)
def test_column_loaders_refuse_each_fault_at_its_line(tmp_path, kind, fault):
    """Labels, truth and captions share one loader and one wording per fault;
    the first bad line is reported, and a refused file is never cached."""
    load, good = _COLUMN_RECORDS[kind]
    record, problem = _faulty_record(kind, fault)
    first = next(iter(good))
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps({**good, first: "a"}) + "\n\n" + json.dumps(record) + "\nnot json\n")
    for _ in range(2):
        with pytest.raises(DataError) as err:
            load(path)
        assert str(err.value) == f"{path}, line 3{problem}"


# Each column kind: its loader, an input, the entry its parse stores, as
# the loaders have written it since entries were first cached, and the value.
_HAND_ENTRIES = {
    "labels": (
        load_labels,
        b'{"id": "b", "gender": "Female"}\n{"id": "a\\u0000", "gender": "male"}\n',
        b'[["b","a\\u0000"],["female","male"]]',
        {"b": GenderLabel.FEMALE, "a\x00": GenderLabel.MALE},
    ),
    "truth": (
        load_truth,
        b'{"text_id": "t2", "image_id": "caf\\u00e9"}\n{"text_id": "t1", "image_id": "a"}\n',
        b'[["t2","t1"],["caf\xc3\xa9","a"]]',
        {"t2": "café", "t1": "a"},
    ),
    "captions": (
        load_captions,
        b'{"id": "c2", "image_id": "i1", "text": "A \\"man\\"."}\n{"id": "c1", "image_id": "i1", "text": "x"}\n',
        b'[["c2","c1"],["i1","i1"],["A \\"man\\".","x"]]',
        (["c2", "c1"], ["i1", "i1"], ['A "man".', "x"]),
    ),
}


@pytest.mark.parametrize("kind", sorted(_HAND_ENTRIES))
def test_a_column_entry_in_the_stored_format_is_a_hit(tmp_path, table_cache, monkeypatch, kind):
    load, data, entry, value = _HAND_ENTRIES[kind]
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    (table_cache / _entry_name(path, kind)).write_bytes(entry)
    parses = _count_parses(monkeypatch)
    assert load(path) == value
    assert parses == []
    # The parse stores these very bytes.
    (table_cache / _entry_name(path, kind)).unlink()
    assert load(path) == value
    assert len(parses) == 1
    assert (table_cache / _entry_name(path, kind)).read_bytes() == entry


def test_jsonl_lines_end_and_strip_as_python_text(tmp_path):
    """A line ends at \\n, \\r\\n or a bare \\r. The whitespace `str.strip`
    removes, Unicode's included (U+00A0, U+3000, \\x0b, \\x1c), is ignored
    around a record, and a line holding only such whitespace is skipped.
    U+2028 and U+0085 end no line."""
    path = tmp_path / "labels.jsonl"
    a, b = '{"id": "a", "gender": "male"}', '{"id": "b", "gender": "female"}'
    for text in (
        a + "\n\u00a0\n" + b + "\n",
        a + "\n\x1c\n" + b,
        a + "\u00a0\n" + b + "\x0b\n",
        "\u3000" + a + "\n\t" + b + "\x0c",
        a + "\r" + b + "\r",
        a + "\r\n" + b + "\r\n",
    ):
        path.write_bytes(text.encode("utf-8"))
        assert load_labels(path) == {"a": GenderLabel.MALE, "b": GenderLabel.FEMALE}
    # Line numbers count every line end.
    for text, line in ((a + "\r\n" + a, 2), (a + "\r\r" + a, 3), (a + "\n\r\n" + a, 3)):
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataError, match=f", line {line}: duplicate id 'a'$"):
            load_labels(path)
    for separator in ("\u2028", "\x85"):
        path.write_bytes((a + separator + b + "\n").encode("utf-8"))
        with pytest.raises(DataError, match=", line 1: invalid JSON"):
            load_labels(path)


# Each JSON document: its name in errors, its required keys, a saved instance
# and its loader, and how to save what the loader returns.
_JSON_DOCUMENTS = {
    "clip plan": (
        ("dim", "mi", "clipped"),
        lambda path: ClipPlan(dim=3, mi=[0.5, 0.0, 1 / 3], clipped=[2, 0]).save(path),
        ClipPlan.load,
        lambda plan, path: plan.save(path),
    ),
    "lexicon": (
        ("masculine", "feminine", "replacement"),
        lambda path: GenderLexicon.default().save(path),
        GenderLexicon.load,
        lambda lexicon, path: lexicon.save(path),
    ),
    "checkpoint": (
        ("w_img", "w_txt"),
        lambda path: LinearEncoders.init(3, 2, np.random.default_rng(1)).save(path, TrainerConfig(seed=4)),
        LinearEncoders.load,
        lambda loaded, path: loaded[0].save(path, loaded[1]),
    ),
}


@pytest.mark.parametrize("what", sorted(_JSON_DOCUMENTS))
def test_json_documents_round_trip_and_are_strict(tmp_path, what):
    """Plans, lexicons and checkpoints decode as strictly as JSONL lines."""
    keys, save, load, resave = _JSON_DOCUMENTS[what]
    path, again = tmp_path / "doc.json", tmp_path / "again.json"
    save(path)
    resave(load(path), again)
    assert again.read_bytes() == path.read_bytes()
    body = path.read_bytes().strip()
    # An extra key is ignored, so only its value can make the document fail.
    path.write_bytes(b'{"extra": 0, ' + body[1:])
    load(path)
    for value in (b"NaN", b"Infinity", b"-Infinity", b"1e400", b"1" + b"0" * 400, b'"\\ud800"'):
        path.write_bytes(b'{"extra": ' + value + b", " + body[1:])
        with pytest.raises(DataError, match=f"^invalid {what} JSON \\("):
            load(path)
    path.write_bytes(b'{"extra": "caf\xe9", ' + body[1:])
    with pytest.raises(DataError, match="not UTF-8 text"):
        load(path)
    for text in (b"[" + body + b"]", b"5", b'"' + keys[0].encode() + b'"'):
        path.write_bytes(text)
        with pytest.raises(DataError, match=f"^{what} JSON must be an object$"):
            load(path)
    for key in keys:
        obj = json.loads(body)
        del obj[key]
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=f"^{what} JSON missing {key!r}$"):
            load(path)


def test_loaders_record_the_digest_of_the_bytes_they_parse(tmp_path, table_cache, monkeypatch):
    table = _cacheable_table()
    save_embeddings(table, tmp_path / "t.jsonl")
    save_labels({"a": GenderLabel.MALE}, tmp_path / "labels.jsonl")
    save_truth({"t": "a"}, tmp_path / "truth.jsonl")
    (tmp_path / "captions.jsonl").write_text('{"id": "c", "image_id": "a", "text": "A man"}\n')
    ClipPlan(dim=2, mi=[0.5, 0.0], clipped=[0]).save(tmp_path / "plan.json")
    GenderLexicon.default().save(tmp_path / "lexicon.json")
    LinearEncoders.init(3, 2, np.random.default_rng(1)).save(tmp_path / "enc.json")
    loaders = {
        "t.jsonl": load_embeddings,
        "labels.jsonl": load_labels,
        "truth.jsonl": load_truth,
        "captions.jsonl": load_captions,
        "plan.json": ClipPlan.load,
        "lexicon.json": GenderLexicon.load,
        "enc.json": LinearEncoders.load,
    }
    want = {str(tmp_path / name): hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in loaders}
    parses = _count_parses(monkeypatch)
    # Each JSONL input parsed, read from the cache, and parsed with the cache off.
    for cache in (str(table_cache), str(table_cache), ""):
        monkeypatch.setenv("SEARCHBIAS_CACHE_DIR", cache)
        with core.recording_inputs() as record:
            for name, load in loaders.items():
                load(tmp_path / name)
        assert record == want
    assert len(parses) == 8
    assert _cache_files(table_cache) == sorted(
        _entry_name(tmp_path / name, kind)
        for name, kind in [("t.jsonl", "table"), ("labels.jsonl", "labels"),
                           ("truth.jsonl", "truth"), ("captions.jsonl", "captions")]
    )
    # Outside a recording scope nothing is recorded; an input that fails to
    # load is not recorded inside one.
    assert core._recorded.get() is None
    (tmp_path / "bad.jsonl").write_text('{"id": "a"}\n')
    with core.recording_inputs() as record:
        with pytest.raises(DataError):
            load_labels(tmp_path / "bad.jsonl")
    assert record == {}


def test_a_path_read_twice_with_other_bytes_is_an_error(tmp_path):
    path = tmp_path / "labels.jsonl"
    save_labels({"a": GenderLabel.MALE}, path)
    with core.recording_inputs() as record:
        load_labels(path)
        load_labels(path)  # the same bytes again
        save_labels({"a": GenderLabel.FEMALE}, path)
        with pytest.raises(DataError) as err:
            load_labels(path)
    assert str(err.value) == f"{path}: changed between two reads"
    assert list(record) == [str(path)]


def test_label_and_truth_writers_write_the_json_dumps_bytes(tmp_path):
    labels = {s: list(GenderLabel)[i % 3] for i, s in enumerate(AWKWARD_STRINGS)}
    save_labels(labels, tmp_path / "labels")
    expected = _json_lines({"id": i, "gender": label.value} for i, label in labels.items())
    assert (tmp_path / "labels").read_bytes() == expected

    truth = dict(zip(AWKWARD_STRINGS, reversed(AWKWARD_STRINGS)))
    save_truth(truth, tmp_path / "truth")
    expected = _json_lines({"text_id": t, "image_id": i} for t, i in truth.items())
    assert (tmp_path / "truth").read_bytes() == expected


def test_labels_round_trip_and_errors(tmp_path):
    labels = {"a": GenderLabel.MALE, "b": GenderLabel.FEMALE, "c": GenderLabel.NEUTRAL}
    path = tmp_path / "labels.jsonl"
    save_labels(labels, path)
    assert load_labels(path) == labels

    path.write_text('{"id": "a", "gender": "robot"}\n')
    with pytest.raises(DataError, match="line 1"):
        load_labels(path)
    path.write_text('{"id": "a", "gender": "male"}\n{"id": "a", "gender": "male"}\n')
    with pytest.raises(DataError, match="duplicate"):
        load_labels(path)
    path.write_text('{"id": "a", "gender": "male"}\n{"id": 7, "gender": "male"}\n')
    with pytest.raises(DataError) as err:
        load_labels(path)
    assert str(err.value) == f"{path}, line 2: id must be a non-empty string, got 7"

    # Names in any case parse; every other value is named in the error.
    path.write_text('{"id": "a", "gender": "MALE"}\n{"id": "b", "gender": "Female"}\n')
    assert load_labels(path) == {"a": GenderLabel.MALE, "b": GenderLabel.FEMALE}
    for gender, problem in (
        ('"other"', "unknown gender label 'other' (expected male/female/neutral)"),
        ('""', "gender must be a non-empty string, got ''"),
        ("1", "gender must be a non-empty string, got 1"),
        ("true", "gender must be a non-empty string, got True"),
        ("null", "gender must be a non-empty string, got None"),
        ('["male"]', "gender must be a non-empty string, got ['male']"),
    ):
        path.write_text('{"id": "a", "gender": "male"}\n{"id": "b", "gender": %s}\n' % gender)
        with pytest.raises(DataError) as err:
            load_labels(path)
        assert str(err.value) == f"{path}, line 2 (id 'b'): {problem}"


def test_truth_round_trip_and_errors(tmp_path):
    truth = {"t1": "i3", "t2": "i1"}
    path = tmp_path / "truth.jsonl"
    save_truth(truth, path)
    assert load_truth(path) == truth

    path.write_text('{"text_id": "t1"}\n')
    with pytest.raises(DataError, match="line 1"):
        load_truth(path)
    path.write_text('{"text_id": "t1", "image_id": "i3"}\n{"text_id": "t2", "image_id": ""}\n')
    with pytest.raises(DataError) as err:
        load_truth(path)
    assert str(err.value) == f"{path}, line 2 (text_id 't2'): image_id must be a non-empty string, got ''"


def test_gender_label_parse():
    assert GenderLabel.parse("male") is GenderLabel.MALE
    assert GenderLabel.parse("Female") is GenderLabel.FEMALE
    with pytest.raises(DataError):
        GenderLabel.parse("other")


def test_gender_codes_order_values_and_missing_label():
    M, F, N = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL
    assert (M.code, F.code, N.code) == (1, -1, 0)
    labels = {"a": F, "b": N, "c": M}
    codes = gender_codes(["c", "a", "b", "a"], labels)
    assert codes.dtype == np.int8
    assert codes.tolist() == [1, -1, 0, -1]
    assert gender_codes((), labels).shape == (0,)
    with pytest.raises(DataError, match="image 'x' has no gender label"):
        gender_codes(["a", "x", "y"], labels)


def test_dataset_validation():
    images = EmbeddingTable(["i1", "i2"], [[1.0, 0.0], [0.0, 1.0]])
    texts = EmbeddingTable(["t1"], [[1.0, 1.0]])
    labels = {"i1": GenderLabel.MALE, "i2": GenderLabel.FEMALE}
    Dataset(images=images, texts=texts, labels=labels, truth={"t1": "i1"})
    with pytest.raises(DataError, match="dim"):
        Dataset(images=images, texts=EmbeddingTable(["t1"], [[1.0]]), labels=labels, truth={})
    with pytest.raises(DataError, match="label"):
        Dataset(images=images, texts=texts, labels={"i1": GenderLabel.MALE}, truth={})
    with pytest.raises(DataError, match="unknown image"):
        Dataset(images=images, texts=texts, labels=labels, truth={"t1": "nope"})


def test_synth_is_deterministic():
    a = synth_dataset(11, 50, 30, 8, [0], skew=0.6)
    b = synth_dataset(11, 50, 30, 8, [0], skew=0.6)
    assert a.images == b.images and a.texts == b.texts
    assert a.labels == b.labels and a.truth == b.truth
    c = synth_dataset(12, 50, 30, 8, [0], skew=0.6)
    assert c.images != a.images


def test_synth_saved_files_are_pinned(tmp_path):
    """The saved bytes at one small shape with planted dims stay fixed.

    The benchmark draws every workload's inputs from synth_dataset, so any
    drift here would change the benchmark's inputs without notice.
    """
    ds = synth_dataset(11, 60, 25, 6, bias_dims=(1, 4), skew=0.6, p_neutral=0.25, mu=1.5)
    save_embeddings(ds.images, tmp_path / "images")
    save_embeddings(ds.texts, tmp_path / "texts")
    save_labels(ds.labels, tmp_path / "labels")
    save_truth(ds.truth, tmp_path / "truth")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("images", "texts", "labels", "truth")
    }
    assert digests == {
        "images": "0244fc512f5aa6958c69420292b8e65cff179a73a074ff596da114ce16c49bcf",
        "texts": "51f2ed8f2741bca89d28c69dcca93519b44994d0aa881c1802f317588c923b81",
        "labels": "4edc73872e64131f98bae6b1e4b51dd5da6fd9bbdbe62b405b5647a42113bca6",
        "truth": "bba08f585ade55d1ad4ab8780ff2c4c28f73d41ae437d164db9b672f7b6367ec",
    }


def test_synth_label_distribution():
    ds = synth_dataset(0, 20000, 1, 4, skew=0.7, p_neutral=0.2)
    counts = {lab: 0 for lab in GenderLabel}
    for lab in ds.labels.values():
        counts[lab] += 1
    n = len(ds.images)
    assert abs(counts[GenderLabel.NEUTRAL] / n - 0.2) < 0.02
    gendered = counts[GenderLabel.MALE] + counts[GenderLabel.FEMALE]
    assert abs(counts[GenderLabel.MALE] / gendered - 0.7) < 0.02


def test_synth_plants_gender_shift():
    mu = 2.0
    ds = synth_dataset(1, 5000, 1, 6, [2, 4], skew=0.5, mu=mu)
    vecs = ds.images.vectors
    male = np.array([ds.labels[i] is GenderLabel.MALE for i in ds.images.ids])
    female = np.array([ds.labels[i] is GenderLabel.FEMALE for i in ds.images.ids])
    for d in (2, 4):
        assert abs(vecs[male, d].mean() - mu) < 0.1
        assert abs(vecs[female, d].mean() + mu) < 0.1
    for d in (0, 1, 3, 5):  # unplanted dims stay centered
        assert abs(vecs[male, d].mean()) < 0.1


def test_synth_texts_are_noisy_truth_copies():
    ds = synth_dataset(2, 200, 100, 16, text_noise=0.1)
    for tid in list(ds.texts.ids)[:20]:
        diff = ds.texts.row(tid) - ds.images.row(ds.truth[tid])
        # ~N(0, 0.1^2) per coordinate; norm far below unrelated-image distance
        assert np.linalg.norm(diff) < 0.1 * math.sqrt(16) * 3


def test_synth_validation():
    with pytest.raises(DataError):
        synth_dataset(0, 1, 1, 4)
    with pytest.raises(DataError):
        synth_dataset(0, 10, 0, 4)
    with pytest.raises(DataError):
        synth_dataset(0, 10, 10, 4, [4])
    with pytest.raises(DataError):
        synth_dataset(0, 10, 10, 4, skew=1.5)
    with pytest.raises(DataError, match="^dim must be >= 1$"):
        synth_dataset(0, 10, 10, 0)
    with pytest.raises(DataError, match=r"^p_neutral must be in \[0, 1\]$"):
        synth_dataset(0, 10, 10, 4, p_neutral=1.5)
