"""End-to-end CLI behavior: outputs, manifests, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import threading
from pathlib import Path

import numpy as np
import pytest

import searchbias.cli as cli
import searchbias.core as core
import searchbias.retrieval as retrieval
import searchbias.trainer as trainer
from searchbias.cli import main
from searchbias.clipper import ClipPlan
from searchbias.core import DataError, load_embeddings
from searchbias.gender_text import GenderLexicon
from searchbias.retrieval import retrieve_all


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(
        [
            "synth",
            "--seed", "0",
            "--n-images", "200",
            "--n-texts", "120",
            "--dim", "12",
            "--bias-dims", "0,1",
            "--skew", "0.7",
            "--mu", "2",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    return out


def dataset_args(data_dir):
    return [
        "--images", str(data_dir / "images.jsonl"),
        "--texts", str(data_dir / "texts.jsonl"),
        "--labels", str(data_dir / "labels.jsonl"),
        "--truth", str(data_dir / "truth.jsonl"),
    ]


def read_bytes(path):
    return path.read_bytes()


def test_synth_outputs_and_manifest(data_dir):
    for name in ("images.jsonl", "texts.jsonl", "labels.jsonl", "truth.jsonl"):
        assert (data_dir / name).exists()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 0
    assert manifest["args"]["n_images"] == 200
    assert manifest["inputs"] == {}
    assert "version" in manifest


def test_synth_rerun_is_byte_identical(data_dir, tmp_path):
    argv = [
        "synth", "--seed", "0", "--n-images", "200", "--n-texts", "120",
        "--dim", "12", "--bias-dims", "0,1", "--skew", "0.7", "--mu", "2",
        "--out-dir", str(data_dir),
    ]
    before = {p.name: read_bytes(p) for p in data_dir.iterdir()}
    assert main(argv) == 0
    after = {p.name: read_bytes(p) for p in data_dir.iterdir()}
    assert before == after


def test_retrieve_results_schema(data_dir, tmp_path):
    rc = main(
        [
            "retrieve",
            "--images", str(data_dir / "images.jsonl"),
            "--texts", str(data_dir / "texts.jsonl"),
            "-k", "7",
            "--threads", "3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "results.jsonl").read_text().splitlines()
    assert len(lines) == 120
    for line in lines[:10]:
        obj = json.loads(line)
        ranked = obj["ranked"]
        assert len(ranked) == 7
        scores = [r["score"] for r in ranked]
        assert scores == sorted(scores, reverse=True)
        ids = [r["image_id"] for r in ranked]
        assert len(set(ids)) == len(ids)


def test_evaluate_report_and_curve(data_dir, tmp_path):
    rc = main(
        ["evaluate", *dataset_args(data_dir), "--k-list", "1,5,10", "--per-query",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_queries"] == 120
    assert [m["k"] for m in report["metrics"]] == [1, 5, 10]
    for m in report["metrics"]:
        assert set(m) == {"k", "bias_at_k", "male_share", "recall_at_k"}
        assert m["male_share"] == (1.0 + m["bias_at_k"]) / 2.0

    with open(tmp_path / "curve.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == list(range(1, 11))
    k10 = next(m for m in report["metrics"] if m["k"] == 10)
    assert float(rows[-1]["bias_at_k"]) == k10["bias_at_k"]

    with open(tmp_path / "per_query.csv") as fh:
        pq = list(csv.DictReader(fh))
    assert len(pq) == 120 * 10
    deltas_at_10 = [float(r["delta"]) for r in pq if r["k"] == "10"]
    assert np.mean(deltas_at_10) == pytest.approx(k10["bias_at_k"], abs=1e-12)


def test_evaluate_rerun_byte_identical(data_dir, tmp_path):
    argv = ["evaluate", *dataset_args(data_dir), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    before = {p.name: read_bytes(p) for p in tmp_path.iterdir()}
    assert main(argv) == 0
    after = {p.name: read_bytes(p) for p in tmp_path.iterdir()}
    assert before == after


def test_evaluate_cold_and_warm_table_cache_write_the_same_bytes(data_dir, tmp_path, table_cache):
    out = tmp_path / "eval"
    argv = ["evaluate", *dataset_args(data_dir), "--k-list", "1,5", "--per-query",
            "--out-dir", str(out)]
    assert list(table_cache.iterdir()) == []
    assert main(argv) == 0
    cold = {p.name: read_bytes(p) for p in out.iterdir()}
    # One entry per JSONL input: images and texts, labels and truth.
    assert sorted(p.suffix for p in table_cache.iterdir()) == [".labels", ".table", ".table", ".truth"]
    for p in out.iterdir():
        p.unlink()
    assert main(argv) == 0
    warm = {p.name: read_bytes(p) for p in out.iterdir()}
    assert "manifest.json" in warm
    assert warm == cold


def test_clip_fit_apply_and_composition_equivalence(data_dir, tmp_path):
    plan_dir = tmp_path / "plan"
    rc = main(
        ["clip-fit", "--images", str(data_dir / "images.jsonl"),
         "--labels", str(data_dir / "labels.jsonl"), "-m", "2", "--out-dir", str(plan_dir)]
    )
    assert rc == 0
    plan = json.loads((plan_dir / "clip_plan.json").read_text())
    assert sorted(plan["clipped"]) == [0, 1]  # the planted dims

    # Route A: evaluate with the plan applied internally.
    eval_a = tmp_path / "eval_a"
    assert main(
        ["evaluate", *dataset_args(data_dir), "--clip-plan", str(plan_dir / "clip_plan.json"),
         "--out-dir", str(eval_a)]
    ) == 0

    # Route B: clip both tables explicitly, then evaluate the clipped files.
    img_dir, txt_dir = tmp_path / "imgs", tmp_path / "txts"
    for src, dest in (("images.jsonl", img_dir), ("texts.jsonl", txt_dir)):
        assert main(
            ["clip-apply", "--embeddings", str(data_dir / src),
             "--plan", str(plan_dir / "clip_plan.json"), "--out-dir", str(dest)]
        ) == 0
    eval_b = tmp_path / "eval_b"
    assert main(
        ["evaluate",
         "--images", str(img_dir / "clipped.jsonl"),
         "--texts", str(txt_dir / "clipped.jsonl"),
         "--labels", str(data_dir / "labels.jsonl"),
         "--truth", str(data_dir / "truth.jsonl"),
         "--out-dir", str(eval_b)]
    ) == 0

    assert read_bytes(eval_a / "report.json") == read_bytes(eval_b / "report.json")
    assert read_bytes(eval_a / "curve.csv") == read_bytes(eval_b / "curve.csv")

    clipped = load_embeddings(img_dir / "clipped.jsonl")
    assert clipped.dim == 10


def test_label_and_neutralize(tmp_path, capsys):
    caps = tmp_path / "caps.jsonl"
    caps.write_text(
        '{"id": "c1", "image_id": "i1", "text": "A man with a red helmet."}\n'
        '{"id": "c2", "image_id": "i1", "text": "Someone on a moped."}\n'
        '{"id": "c3", "image_id": "i2", "text": "A group of young men and women sitting."}\n'
    )
    out = tmp_path / "lab"
    assert main(["label", "--captions", str(caps), "--out-dir", str(out)]) == 0
    labels = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()]
    assert labels == [
        {"id": "i1", "gender": "male"},
        {"id": "i2", "gender": "neutral"},
    ]

    out2 = tmp_path / "neut"
    assert main(["neutralize", "--captions", str(caps), "--out-dir", str(out2)]) == 0
    texts = [json.loads(line)["text"] for line in (out2 / "neutralized.jsonl").read_text().splitlines()]
    assert texts == [
        "A person with a red helmet.",
        "Someone on a moped.",
        "A group of young people sitting.",
    ]

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out3 = tmp_path / "lab_empty"
    capsys.readouterr()
    assert main(["label", "--captions", str(empty), "--out-dir", str(out3)]) == 0
    assert "warning" in capsys.readouterr().err
    assert (out3 / "labels.jsonl").read_text() == ""


def test_custom_lexicon_flag(tmp_path):
    caps = tmp_path / "caps.jsonl"
    caps.write_text('{"id": "c1", "image_id": "i1", "text": "The king waved."}\n')
    lex = tmp_path / "lex.json"
    lex.write_text(
        json.dumps(
            {
                "masculine": ["king"],
                "feminine": ["queen"],
                "neutral": ["monarch"],
                "replacement": {"king": "monarch", "queen": "monarch"},
            }
        )
    )
    out = tmp_path / "out"
    assert main(
        ["neutralize", "--captions", str(caps), "--lexicon", str(lex), "--out-dir", str(out)]
    ) == 0
    obj = json.loads((out / "neutralized.jsonl").read_text())
    assert obj["text"] == "The monarch waved."


def test_train_outputs(data_dir, tmp_path):
    rc = main(
        ["train", *dataset_args(data_dir), "--gamma", "0.2", "--alpha", "0.5",
         "--lr", "0.01", "--epochs", "2", "--batch-size", "32", "--emb-dim", "6",
         "--seed", "4", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    ckpt = json.loads((tmp_path / "encoders.json").read_text())
    assert ckpt["cfg"]["alpha"] == 0.5 and ckpt["cfg"]["seed"] == 4
    assert len(ckpt["w_img"]) == 6 and len(ckpt["w_img"][0]) == 12
    with open(tmp_path / "training_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epoch"] for r in rows] == ["1", "2"]


def test_train_validation_error_leaves_no_files(data_dir, tmp_path, monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise DataError("validation failed")
        return retrieve_all(*args, **kwargs)

    monkeypatch.setattr(trainer, "retrieve_all", failing)
    out = tmp_path / "out"
    rc = main(
        ["train", *dataset_args(data_dir), "--epochs", "3", "--batch-size", "32",
         "--emb-dim", "6", "--out-dir", str(out)]
    )
    assert rc == 2 and len(calls) == 2
    for name in ("encoders.json", "training_log.csv", "manifest.json"):
        assert not (out / name).exists()


def test_sweep_alpha_rows(data_dir, tmp_path):
    rc = main(
        ["sweep-alpha", *dataset_args(data_dir), "--alphas", "1,0", "--seeds", "0,1",
         "--gamma", "0.2", "--lr", "0.01", "--epochs", "1", "--batch-size", "32",
         "--emb-dim", "6", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "alpha_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["alpha"]) for r in rows] == [0.0, 1.0]  # sorted ascending
    for row in rows:
        assert 0.0 <= float(row["recall_at_10"]) <= 1.0
        assert -1.0 <= float(row["bias_at_10"]) <= 1.0


def test_sweep_alpha_rejects_an_empty_validation_split(data_dir, tmp_path):
    base = ["sweep-alpha", *dataset_args(data_dir), "--alphas", "0,1", "--epochs", "1",
            "--batch-size", "32", "--emb-dim", "6", "--out-dir", str(tmp_path)]
    # 120 texts: 0.004 rounds to an empty split, 0 asks for none.
    for val_frac in ("0.004", "0"):
        assert main([*base, "--val-frac", val_frac]) == 2
    assert not (tmp_path / "alpha_sweep.csv").exists()
    assert main([*base, "--val-frac", "0.005"]) == 0


def test_non_finite_trainer_inputs_are_invalid(data_dir, tmp_path):
    train = ["train", *dataset_args(data_dir), "--epochs", "1", "--batch-size", "32",
             "--emb-dim", "6", "--out-dir", str(tmp_path)]
    for flag, value in (("--lr", "nan"), ("--lr", "inf"), ("--gamma", "inf"), ("--gamma", "nan")):
        assert main([*train, flag, value]) == 2, (flag, value)
    assert not (tmp_path / "encoders.json").exists()
    sweep = ["sweep-alpha", *dataset_args(data_dir), "--alphas", "0", "--epochs", "1",
             "--batch-size", "32", "--emb-dim", "6", "--out-dir", str(tmp_path)]
    for val_frac in ("nan", "inf", "-0.5", "1"):
        assert main([*sweep, "--val-frac", val_frac]) == 2, val_frac


def test_mistyped_plan_and_lexicon_files_are_invalid(data_dir, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    images = str(data_dir / "images.jsonl")
    for text in ("7", '{"dim": 12, "mi": [0.0], "clipped": []}',
                 '{"dim": "12", "mi": [], "clipped": []}'):
        plan.write_text(text)
        assert main(["clip-apply", "--embeddings", images, "--plan", str(plan),
                     "--out-dir", str(tmp_path)]) == 2
        assert main(["evaluate", *dataset_args(data_dir), "--clip-plan", str(plan),
                     "--out-dir", str(tmp_path)]) == 2
    caps = tmp_path / "caps.jsonl"
    caps.write_text('{"id": "c1", "image_id": "i1", "text": "A man"}\n')
    lexicon = tmp_path / "lex.json"
    lexicon.write_text('{"masculine": 1, "feminine": [], "neutral": [], "replacement": {}}')
    assert main(["label", "--captions", str(caps), "--lexicon", str(lexicon),
                 "--out-dir", str(tmp_path)]) == 2
    # Bytes that are not UTF-8 are invalid input too, named by path.
    for path in (plan, lexicon):
        path.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["clip-apply", "--embeddings", images, "--plan", str(plan),
                 "--out-dir", str(tmp_path)]) == 2
    assert f"{plan}: not UTF-8 text" in capsys.readouterr().err
    assert main(["evaluate", *dataset_args(data_dir), "--clip-plan", str(plan),
                 "--out-dir", str(tmp_path)]) == 2
    assert f"{plan}: not UTF-8 text" in capsys.readouterr().err
    assert main(["neutralize", "--captions", str(caps), "--lexicon", str(lexicon),
                 "--out-dir", str(tmp_path)]) == 2
    assert f"{lexicon}: not UTF-8 text" in capsys.readouterr().err


def test_undecodable_and_out_of_range_inputs_are_invalid(data_dir, tmp_path, capsys):
    ok = tmp_path / "ok.jsonl"
    ok.write_text('{"id": "a", "vector": [1.0, 2.0]}\n')
    latin1 = tmp_path / "latin1.jsonl"
    huge = tmp_path / "huge.jsonl"
    for path, line in (
        (latin1, '{"id": "caf\xe9", "vector": [1.0, 2.0]}\n'.encode("latin-1")),
        (huge, ('{"id": "b", "vector": [1' + "0" * 400 + ', 2.0]}\n').encode()),
    ):
        path.write_bytes(b'{"id": "a", "vector": [1.0, 2.0]}\n' + line)
        assert main(["retrieve", "--images", str(path), "--texts", str(ok),
                     "--out-dir", str(tmp_path)]) == 2
        assert f"{path}, line 2: invalid JSON" in capsys.readouterr().err

    labels = tmp_path / "labels.jsonl"
    labels.write_bytes((data_dir / "labels.jsonl").read_bytes() + '{"id": "\xe9", "gender": "male"}\n'.encode("latin-1"))
    args = dataset_args(data_dir)
    args[args.index("--labels") + 1] = str(labels)
    assert main(["evaluate", *args, "--out-dir", str(tmp_path)]) == 2
    assert f"{labels}, line 201: invalid JSON" in capsys.readouterr().err

    caps = tmp_path / "caps.jsonl"
    caps.write_bytes(b'{"id": "c1", "image_id": "i1", "text": "A man"}\n'
                     + '{"id": "c2", "image_id": "i1", "text": "A caf\xe9"}\n'.encode("latin-1"))
    assert main(["label", "--captions", str(caps), "--out-dir", str(tmp_path)]) == 2
    assert f"{caps}, line 2: invalid JSON" in capsys.readouterr().err


def test_mistyped_caption_id_is_invalid(tmp_path, capsys):
    caps = tmp_path / "caps.jsonl"
    caps.write_text('{"id": ["c1"], "image_id": "i1", "text": "A man"}\n')
    assert main(["label", "--captions", str(caps), "--out-dir", str(tmp_path)]) == 2
    assert f"{caps}, line 1: caption id must be a non-empty string" in capsys.readouterr().err


def test_header_dim_that_contradicts_the_images_is_invalid(data_dir, tmp_path, capsys):
    texts = tmp_path / "texts.jsonl"
    texts.write_text('{"dim": 11}\n' + (data_dir / "texts.jsonl").read_text())
    argv = dataset_args(data_dir)
    argv[argv.index("--texts") + 1] = str(texts)
    assert main(["evaluate", *argv, "--out-dir", str(tmp_path / "eval")]) == 2
    assert f"{texts}, line 1: header dim 11 does not match expected dim 12" in capsys.readouterr().err

    terms = tmp_path / "terms.jsonl"
    terms.write_text('{"dim": 11}\n')
    assert main(["occupation-bias", "--terms", str(terms), "--images", str(data_dir / "images.jsonl"),
                 "--labels", str(data_dir / "labels.jsonl"), "--out-dir", str(tmp_path / "occ")]) == 2
    assert f"{terms}, line 1: header dim 11 does not match expected dim 12" in capsys.readouterr().err


def _pinned_captions(path):
    """A seeded caption corpus: lexicon words in mixed case beside punctuation,
    digits, escapes and non-ASCII text, under ids that need escaping too."""
    rng = random.Random(5)
    words = [
        "man", "Women", "GIRL", "father's", "male", "female", "son", "person", "human",
        "men and women", "a", "an", "actor", "dog", "is", "caf\u00e9", "\u212aing", "\u017fon",
        "\u0130man", '"quoted"', "back\\slash", "tab\there", "bell\x07", "\U0001f600", "42man",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(150):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
            record = {
                "id": f"c{i}\u00e9" if i % 7 == 0 else f"c{i}",
                "image_id": f'img"{i % 50}',
                "text": text + rng.choice([".", "!", "", "?"]),
            }
            fh.write(json.dumps(record) + "\n")


def test_label_and_neutralize_cold_and_warm_caption_cache_write_the_same_bytes(tmp_path, table_cache):
    caps = tmp_path / "caps.jsonl"
    _pinned_captions(caps)
    runs = []
    for _ in range(2):
        for command in ("label", "neutralize"):
            assert main([command, "--captions", str(caps), "--out-dir", str(tmp_path / command)]) == 0
        runs.append({p: p.read_bytes() for command in ("label", "neutralize")
                     for p in (tmp_path / command).iterdir()})
        # One entry, the captions', which the neutralize of the cold run already read.
        assert [p.suffix for p in table_cache.iterdir()] == [".captions"]
        for p in runs[-1]:
            p.unlink()
    assert len(runs[0]) == 4 and runs[1] == runs[0]


def test_caption_and_table_outputs_are_pinned(tmp_path):
    """label, neutralize, clip-apply and synth write these exact bytes."""
    caps = tmp_path / "caps.jsonl"
    _pinned_captions(caps)
    synth = tmp_path / "synth"
    assert main(["synth", "--seed", "4", "--n-images", "40", "--n-texts", "15", "--dim", "5",
                 "--bias-dims", "1", "--mu", "1.5", "--out-dir", str(synth)]) == 0
    plan = tmp_path / "plan.json"
    ClipPlan(dim=5, mi=[0.0] * 5, clipped=[3, 0]).save(plan)
    assert main(["label", "--captions", str(caps), "--out-dir", str(tmp_path / "label")]) == 0
    assert main(["neutralize", "--captions", str(caps), "--out-dir", str(tmp_path / "neut")]) == 0
    assert main(["clip-apply", "--embeddings", str(synth / "images.jsonl"), "--plan", str(plan),
                 "--out-dir", str(tmp_path / "clip")]) == 0
    names = [
        "synth/images.jsonl", "synth/texts.jsonl", "synth/labels.jsonl", "synth/truth.jsonl",
        "label/labels.jsonl", "neut/neutralized.jsonl", "clip/clipped.jsonl",
    ]
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    # Computed with the writers and caption tools before the orjson row
    # formatter and the caption prefilter.
    assert digests == {
        "synth/images.jsonl": "c39e546fd7c6ccdb7af45533be28d7935e2712f5edd39d0894593008dc6870ae",
        "synth/texts.jsonl": "20afe590d6c369e0cf494b0623821f1fca4f1efa4941b6e2c21f56d089fe5057",
        "synth/labels.jsonl": "b2db6ce2a11fb3cdcac722c8301f3850045d26385ebd56945b6bfb8d473b7191",
        "synth/truth.jsonl": "1883fccc85f22e8b8ccdcf8cd6e4c969620ff4e044eb9af16ab97e2a5da83bd8",
        "label/labels.jsonl": "834304887040b3a2c15c41dadff7c71fb8d6d7fdfe6deb4de981349b62455251",
        "neut/neutralized.jsonl": "035ccaa59b6485a804b56245a15dcfad5b5d11b21f2abd2b48534c7e80857250",
        "clip/clipped.jsonl": "e8df7ca390f686dc26c049ea58541d8028a063ed344a2c513faefcf9dcb4c0f6",
    }


def _interleaved_captions(path):
    """Seeded captions whose image ids interleave, about half of them holding
    non-ASCII text and a tenth a line break."""
    rng = random.Random(24)
    themes = [
        ["man", "Men", "Male", "son's", "BOY", "3men"],
        ["WOMAN", "girl's", "female", "wife", "Lady"],
        ["person", "dog", "a", "the", "and", "riding", "x-ray", "mankind", "german", "Kman"],
    ]
    odd = ["\u212aing", "caf\u00e9", "\u0130man", "man\u0130", "\u212aman", "\u017fon", "\U0001f600",
           "na\u00efve", "\xa0"]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(400):
            theme = themes[rng.choice([0, 1, 2, 2, 2])]
            text = " ".join(rng.choice(theme + themes[2]) for _ in range(rng.randint(1, 6)))
            if rng.random() < 0.5:
                cut = rng.randint(0, len(text))
                text = text[:cut] + rng.choice(odd) + text[cut:]
            if rng.random() < 0.1:
                text += rng.choice(["\n", "\r\n"]) + rng.choice(themes[2])
            record = {"id": f"c{i}", "image_id": f"img{rng.randrange(150)}", "text": text}
            fh.write(json.dumps(record) + "\n")


def test_label_of_interleaved_captions_is_pinned(tmp_path, table_cache):
    """label writes these labels from one scan of the caption column, and the
    same out-dir bytes from a cold and a warm caption cache."""
    caps = tmp_path / "caps.jsonl"
    _interleaved_captions(caps)
    out = tmp_path / "label"
    runs = []
    for _ in range(2):
        assert main(["label", "--captions", str(caps), "--out-dir", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        for p in out.iterdir():
            p.unlink()
    assert [p.suffix for p in table_cache.iterdir()] == [".captions"]
    assert sorted(runs[0]) == ["labels.jsonl", "manifest.json"] and runs[1] == runs[0]
    genders = [json.loads(line)["gender"] for line in runs[0]["labels.jsonl"].splitlines()]
    assert {g: genders.count(g) for g in set(genders)} == {"male": 39, "female": 25, "neutral": 78}
    # Computed with the per-image labeler, before the column scan.
    assert hashlib.sha256(runs[0]["labels.jsonl"]).hexdigest() == (
        "4191fbb630c0c1a7b1abfe4870e0eec86405afd03e432d805976e6a4d1fb16e1"
    )


_COMMANDS = [
    "synth", "label", "neutralize", "retrieve", "evaluate", "clip-fit", "clip-apply", "train",
    "sweep-alpha", "sweep-m", "occupation-bias",
]
_REFUSED_ARGVS = [
    ["-h"], ["--version"], [], ["lable"], ["--bogus"], ["label", "label"], ["label", "--version"],
    *([name, "-h"] for name in _COMMANDS),
    *([name, "--bogus"] for name in _COMMANDS),
    *([name, "--seed", "x"] for name in _COMMANDS),
    *([name] for name in _COMMANDS if name != "synth"),  # a required flag is missing
]


def _parse_output(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _REFUSED_ARGVS, ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(argv, monkeypatch):
    """main builds only the subcommand argv names, and its usage, help and
    error text match the parser of every subcommand byte for byte."""
    monkeypatch.setenv("COLUMNS", "100")
    expected = _parse_output(lambda a: cli.build_parser().parse_args(a), argv)
    assert expected[0] in (0, 2) and expected[1] + expected[2]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or build(*a))
    assert _parse_output(main, argv) == expected
    assert built == [(argv[0] if argv else None,)]


def test_the_parser_tests_cover_every_command(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["lable"])
    assert capsys.readouterr().err.endswith(f"(choose from {', '.join(map(repr, _COMMANDS))})\n")


_AWKWARD_TEXT_IDS = [
    "a,b", 'say "hi"', "line\nbreak", "carriage\rreturn", " leading space", "café",
    "K\U0001f600", "both,\"\r\n", '"', "trailing ", "tab\there", "plain",
]


def _awkward_eval_inputs(tmp_path):
    """A seeded synth dataset whose text ids need quoting in a CSV."""
    synth = tmp_path / "synth"
    assert main(["synth", "--seed", "6", "--n-images", "30", "--n-texts", "12", "--dim", "5",
                 "--bias-dims", "0", "--skew", "0.6", "--mu", "1.5", "--out-dir", str(synth)]) == 0
    rename = dict(zip(load_embeddings(synth / "texts.jsonl").ids, _AWKWARD_TEXT_IDS))
    for name, key in (("texts.jsonl", "id"), ("truth.jsonl", "text_id")):
        lines = (synth / name).read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        for record in records:
            record[key] = rename[record[key]]
        (synth / name).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return [
        "--images", str(synth / "images.jsonl"),
        "--texts", str(synth / "texts.jsonl"),
        "--labels", str(synth / "labels.jsonl"),
        "--truth", str(synth / "truth.jsonl"),
    ]


def test_evaluate_outputs_are_pinned(tmp_path):
    """evaluate --per-query writes these exact bytes, ids quoted so csv.reader reads them back."""
    out = tmp_path / "eval"
    assert main(["evaluate", *_awkward_eval_inputs(tmp_path), "--k-list", "1,3,7",
                 "--per-query", "--out-dir", str(out)]) == 0
    per_query = (out / "per_query.csv").read_bytes()
    assert per_query.startswith(b'text_id,k,delta\n"a,b",1,')
    # A lone "\r" is quoted like "\n", which csv.writer with a "\n" terminator does not do.
    assert b'\n"line\nbreak",7,' in per_query and b'\n"carriage\rreturn",1,' in per_query
    with open(out / "per_query.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["text_id", "k", "delta"]
    assert [row[0] for row in rows[1::7]] == _AWKWARD_TEXT_IDS
    assert [row[1] for row in rows[1:8]] == [str(k) for k in range(1, 8)]
    names = ["per_query.csv", "curve.csv", "report.json"]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    # Computed with the per-query writer that ran csv.writer over one list per
    # row; per_query.csv's then differed only in the bare "carriage\rreturn".
    assert digests == {
        "per_query.csv": "d6f9e85d77ed0a677def5dd4eb9720eb1186537f144fdb9e80c873d318d65638",
        "curve.csv": "43902693dfeb0cd9f1b7c995a91ab05c34a844c831c95955d23a9f6b4d769774",
        "report.json": "cb2dad1b4b2a22f5cb352a194f8a56e6fabaed255e2f0558a19b5ad4e1051a31",
    }


def test_retrieve_outputs_are_pinned(tmp_path, monkeypatch):
    """retrieve writes these exact bytes for k below and above the image count
    (30), whatever the thread count and however the queries fall into blocks."""
    data = _awkward_eval_inputs(tmp_path)[:4]
    digests = {}
    for blocks in ("default", "one row"):
        if blocks == "one row":
            monkeypatch.setattr(retrieval, "_BLOCK_BYTES", 1)
            monkeypatch.setattr(retrieval, "_MIN_ROWS", 1)
        for k in (7, 33):
            for threads in (1, 3):
                out = tmp_path / f"retrieve-{blocks}-{k}-{threads}"
                assert main(["retrieve", *data, "-k", str(k), "--threads", str(threads),
                             "--out-dir", str(out)]) == 0
                digest = hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest()
                digests.setdefault(k, set()).add(digest)
    lines = (tmp_path / "retrieve-default-33-1" / "results.jsonl").read_text().splitlines()
    assert [len(json.loads(line)["ranked"]) for line in lines] == [30] * 12
    # Computed with the retrieval that built one (image_id, score) tuple per entry.
    assert digests == {
        7: {"b99bf8b34abe0786986f3a49e4afbbed749be835d9ac7654d414e985338847f8"},
        33: {"75ad3709332dafe4276dd175ee0f0044e060697f2a2e236d36398aa82d05dff8"},
    }


def test_evaluate_above_the_image_count_is_pinned(tmp_path):
    """evaluate --per-query with cutoffs past the image count (30) writes these
    exact bytes: past it, no label counts and every hit stays where it was."""
    out = tmp_path / "eval"
    assert main(["evaluate", *_awkward_eval_inputs(tmp_path), "--k-list", "1,30,45",
                 "--per-query", "--out-dir", str(out)]) == 0
    with open(out / "curve.csv", encoding="utf-8", newline="") as fh:
        curve = list(csv.reader(fh))[1:]
    assert len(curve) == 45 and all(row[1:] == curve[29][1:] for row in curve[30:])
    names = ["per_query.csv", "curve.csv", "report.json"]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    # Computed with the metric curve that flattened (image_id, score) tuples.
    assert digests == {
        "per_query.csv": "a25bcf22bfe1fee4e3335ce400ace60bad61697c14ac2d216f5a796efd448b90",
        "curve.csv": "3b7ac8a4ca7edec10b55c2086cc7c6d8838f2a82a1bca57503eb838237de868e",
        "report.json": "c722dd096d98ba167063c6613d9773eef3e2c6a848f1815f405b5938263afd24",
    }


def test_evaluate_counts_a_truth_image_missing_from_the_table_as_a_miss(data_dir, tmp_path):
    """A truth id that names no image in --images is a miss, not an error."""
    truth = tmp_path / "truth.jsonl"
    lines = (data_dir / "truth.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    # The first query's truth names an image no table holds; the second's an
    # id that differs from its true image only by a trailing NUL.
    records[0]["image_id"] = "no such image"
    records[1]["image_id"] += "\x00"
    truth.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    args = dataset_args(data_dir)
    args[args.index("--truth") + 1] = str(truth)
    assert main(["evaluate", *args, "--k-list", "1,200,250", "--out-dir", str(tmp_path / "miss")]) == 0
    assert main(["evaluate", *dataset_args(data_dir), "--k-list", "1,200,250",
                 "--out-dir", str(tmp_path / "base")]) == 0
    missed = json.loads((tmp_path / "miss" / "report.json").read_text())["metrics"]
    base = json.loads((tmp_path / "base" / "report.json").read_text())["metrics"]
    n = len(records)
    # Every query's truth is among all 200 images; two of them now are not.
    assert base[1]["recall_at_k"] == base[2]["recall_at_k"] == 1.0
    assert [m["recall_at_k"] for m in missed[1:]] == [(n - 2) / n] * 2
    assert [m["bias_at_k"] for m in missed] == [m["bias_at_k"] for m in base]


def test_per_query_writer_matches_csv_writer_rows(tmp_path):
    """Signed zeros, exponents and round-off digits come out as csv.writer writes
    them, and every id but one whose only special character is "\\r" is quoted as
    csv.writer quotes it."""
    values = [-0.0, 0.0, 1e-05, 0.1 + 0.2, 1.0, -1.0, 1 / 3, 5e-324]
    deltas = np.array([values, values[::-1], values[2:] + values[:2]])
    text_ids = ["a,b", "café\r", " x"]
    cli._write_per_query(tmp_path / "new.csv", text_ids, deltas)
    rows = [
        [text_id, k, delta]
        for text_id, row in zip(text_ids, deltas.tolist())
        for k, delta in enumerate(row, start=1)
    ]
    with open(tmp_path / "old.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["text_id", "k", "delta"])
        writer.writerows(rows)
    written = (tmp_path / "new.csv").read_bytes()
    # csv.writer leaves "café\r" bare; the per-query writer quotes it.
    old = (tmp_path / "old.csv").read_bytes()
    assert written == old.replace(b"\ncaf\xc3\xa9\r,", b'\n"caf\xc3\xa9\r",')
    assert written.count(b'\n"caf\xc3\xa9\r",') == len(values)
    assert b'"a,b",1,-0.0\n"a,b",2,0.0\n"a,b",3,1e-05\n"a,b",4,0.30000000000000004\n' in written
    with open(tmp_path / "new.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [[t, str(k), repr(d)] for t, k, d in rows]


def test_per_query_ids_read_back_through_csv_reader(tmp_path):
    """Every id, however awkward, is the first field csv.reader reads from its rows."""
    rng = random.Random(9)
    alphabet = ['a', 'é', ',', '"', '\r', '\n', ' ', '\t', "'", '\U0001f600']
    text_ids = _AWKWARD_TEXT_IDS + [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))) for _ in range(400)
    ]
    cli._write_per_query(tmp_path / "pq.csv", text_ids, np.zeros((len(text_ids), 2)))
    with open(tmp_path / "pq.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [[t, str(k), "0.0"] for t in text_ids for k in (1, 2)]


def _pinned_trainer_inputs(tmp_path):
    """A seeded synth dataset and a text-labels file flagging half the texts neutral."""
    synth = tmp_path / "synth"
    assert main(["synth", "--seed", "5", "--n-images", "150", "--n-texts", "90", "--dim", "6",
                 "--bias-dims", "0", "--skew", "0.7", "--mu", "1.5", "--p-neutral", "0.3",
                 "--text-noise", "1.5", "--out-dir", str(synth)]) == 0
    ids = load_embeddings(synth / "texts.jsonl").ids
    genders = ["neutral", "male", "neutral", "female"]
    (synth / "text_labels.jsonl").write_text(
        "".join(json.dumps({"id": t, "gender": genders[i % 4]}) + "\n" for i, t in enumerate(ids))
    )
    data = [
        "--images", str(synth / "images.jsonl"),
        "--texts", str(synth / "texts.jsonl"),
        "--labels", str(synth / "labels.jsonl"),
        "--truth", str(synth / "truth.jsonl"),
    ]
    return data, ["--text-labels", str(synth / "text_labels.jsonl")]


def test_sweep_alpha_and_train_outputs_are_pinned(tmp_path):
    """sweep-alpha and train write these exact bytes, with and without MC negatives
    and text labels; 81 training pairs in batches of 16 leave a one-pair tail."""
    data, text_labels = _pinned_trainer_inputs(tmp_path)
    common = ["--gamma", "0.3", "--lr", "0.05", "--epochs", "3", "--batch-size", "16",
              "--emb-dim", "4"]
    assert main(["sweep-alpha", *data, *common, "--alphas", "1,0,0.5", "--seeds", "0,1",
                 "--mc-negatives", *text_labels, "--out-dir", str(tmp_path / "mc")]) == 0
    assert main(["sweep-alpha", *data, *common, "--alphas", "0,0.5,1", "--seeds", "0,1",
                 "--out-dir", str(tmp_path / "full")]) == 0
    assert main(["train", *data, *common, "--alpha", "0.5", "--seed", "1", "--mc-negatives",
                 *text_labels, "--out-dir", str(tmp_path / "train")]) == 0
    names = ["mc/alpha_sweep.csv", "full/alpha_sweep.csv", "train/training_log.csv",
             "train/encoders.json"]
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    # Computed with the trainer that ran each alpha and seed as its own pass.
    assert digests == {
        "mc/alpha_sweep.csv": "3b4f6f2e2b71f4f82298a90d459d8752aba831032c2a11d2b36061dafbf74d9b",
        "full/alpha_sweep.csv": "5a65c22432b6ff1e0eddd91529a1dbd489fa79f9f00b30878565fd9e49c17217",
        "train/training_log.csv": "0f2e88c6849dafc128006d9d2e5c2af163a96664071117d90c1a938bdc98df43",
        "train/encoders.json": "668826aca396d0879502bab92765dfac0a1c15a3b2dbc4778ce0e9f49ff926e3",
    }


def test_sweep_alpha_validates_each_run_once_and_train_each_epoch(data_dir, tmp_path, monkeypatch):
    """sweep-alpha scores only each (alpha, seed) run's final encoders; train
    validates every epoch."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return retrieve_all(*args, **kwargs)

    monkeypatch.setattr(trainer, "retrieve_all", counting)
    common = [*dataset_args(data_dir), "--epochs", "3", "--batch-size", "32", "--emb-dim", "6"]
    assert main(["sweep-alpha", *common, "--alphas", "0,1", "--seeds", "0,1",
                 "--out-dir", str(tmp_path / "sweep")]) == 0
    assert len(calls) == 4
    calls.clear()
    assert main(["train", *common, "--out-dir", str(tmp_path / "train")]) == 0
    assert len(calls) == 3


def _check_sweep_alpha_rejects_an_empty_list(flag, data_dir, tmp_path, capsys, monkeypatch):
    """An empty comma list for `flag` exits 2 before any input is loaded."""
    def no_load(*args, **kwargs):
        raise AssertionError("inputs loaded")

    monkeypatch.setattr(cli, "load_embeddings", no_load)
    out = tmp_path / "out"
    for values in (",", " , "):
        assert main(["sweep-alpha", *dataset_args(data_dir), flag, values,
                     "--out-dir", str(out)]) == 2
        assert flag in capsys.readouterr().err
    assert not out.exists()


def test_sweep_alpha_rejects_an_empty_alpha_list(data_dir, tmp_path, capsys, monkeypatch):
    _check_sweep_alpha_rejects_an_empty_list("--alphas", data_dir, tmp_path, capsys, monkeypatch)


def test_sweep_alpha_rejects_an_empty_seed_list(data_dir, tmp_path, capsys, monkeypatch):
    _check_sweep_alpha_rejects_an_empty_list("--seeds", data_dir, tmp_path, capsys, monkeypatch)


def test_sweep_alpha_divergence_names_the_run(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    # The first update overflows for every alpha; the lowest one is named.
    assert main(["sweep-alpha", *dataset_args(data_dir), "--alphas", "1,0.5,0", "--seeds", "2,3",
                 "--lr", "1e308", "--epochs", "1", "--batch-size", "32", "--emb-dim", "6",
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "training diverged: non-finite encoder update at epoch 1" in err
    assert "(alpha 0.0, seed 2)" in err
    assert not out.exists()


def test_sweep_m_first_row_matches_unclipped_eval(data_dir, tmp_path):
    eval_dir = tmp_path / "eval"
    assert main(["evaluate", *dataset_args(data_dir), "--out-dir", str(eval_dir)]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    by_k = {m["k"]: m for m in report["metrics"]}

    sweep_dir = tmp_path / "sweep"
    assert main(
        ["sweep-m", *dataset_args(data_dir), "--m-list", "0,2,4", "--seed", "3",
         "--out-dir", str(sweep_dir)]
    ) == 0
    with open(sweep_dir / "m_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["m"]) for r in rows] == [0, 2, 4]
    first = rows[0]
    assert float(first["bias_at_10"]) == by_k[10]["bias_at_k"]
    assert float(first["recall_at_1"]) == by_k[1]["recall_at_k"]
    assert float(first["recall_at_5"]) == by_k[5]["recall_at_k"]
    assert float(first["recall_at_10"]) == by_k[10]["recall_at_k"]
    for row in rows:
        assert float(row["bias_at_10_sd"]) > 0.0

    assert main(
        ["sweep-m", *dataset_args(data_dir), "--m-list", "0,12", "--out-dir", str(sweep_dir)]
    ) == 2  # max m must stay below dim


def test_occupation_bias_output(data_dir, tmp_path):
    terms = tmp_path / "terms.jsonl"
    rng = np.random.default_rng(8)
    with open(terms, "w") as fh:
        for i in range(4):
            vec = rng.standard_normal(12).tolist()
            fh.write(json.dumps({"id": f"occ{i}", "vector": vec}) + "\n")
    out = tmp_path / "occ"
    rc = main(
        ["occupation-bias", "--terms", str(terms),
         "--images", str(data_dir / "images.jsonl"),
         "--labels", str(data_dir / "labels.jsonl"),
         "--out-dir", str(out)]
    )
    assert rc == 0
    obj = json.loads((out / "occupation_bias.json").read_text())
    assert set(obj) == {"mean_abs_bias", "per_occupation", "skipped"}
    assert len(obj["per_occupation"]) == 4
    want = np.mean([abs(v) for v in obj["per_occupation"].values()])
    assert obj["mean_abs_bias"] == pytest.approx(want, abs=1e-12)


def test_occupation_bias_names_an_empty_term_table(data_dir, tmp_path, capsys):
    terms = tmp_path / "terms.jsonl"
    terms.write_text('{"dim": 12}\n')
    out = tmp_path / "occ"
    assert main(["occupation-bias", "--terms", str(terms),
                 "--images", str(data_dir / "images.jsonl"),
                 "--labels", str(data_dir / "labels.jsonl"), "--out-dir", str(out)]) == 2
    assert "error: the occupation term table is empty" in capsys.readouterr().err
    assert not out.exists()


def test_occupation_bias_names_a_missing_gender_class(data_dir, tmp_path, capsys):
    terms = tmp_path / "terms.jsonl"
    terms.write_text('{"id": "nurse", "vector": %s}\n' % json.dumps([1.0] * 12))
    labels = tmp_path / "labels.jsonl"
    with open(data_dir / "labels.jsonl") as src, open(labels, "w") as dst:
        for line in src:
            dst.write(json.dumps({**json.loads(line), "gender": "male"}) + "\n")
    out = tmp_path / "occ"
    assert main(["occupation-bias", "--terms", str(terms),
                 "--images", str(data_dir / "images.jsonl"),
                 "--labels", str(labels), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: no Female images; similarity gap undefined\n"
    assert not out.exists()


def test_manifest_inputs_are_the_digests_of_every_file_flag(data_dir, tmp_path):
    """Each command records exactly the files its flags name, by the SHA-256 of their bytes."""
    files = {f"--{name}": str(data_dir / f"{name}.jsonl") for name in ("images", "texts", "labels", "truth")}
    files["--embeddings"] = files["--images"]
    files["--plan"] = files["--clip-plan"] = str(tmp_path / "plan.json")
    ClipPlan(dim=12, mi=[0.5] + [0.0] * 11, clipped=[0]).save(files["--plan"])
    files["--lexicon"] = str(tmp_path / "lexicon.json")
    GenderLexicon.default().save(files["--lexicon"])
    files["--captions"] = str(tmp_path / "captions.jsonl")
    (tmp_path / "captions.jsonl").write_text('{"id": "c1", "image_id": "i1", "text": "A man"}\n')
    files["--text-labels"] = str(tmp_path / "text_labels.jsonl")
    (tmp_path / "text_labels.jsonl").write_text("".join(
        json.dumps({"id": t, "gender": "neutral"}) + "\n" for t in load_embeddings(files["--texts"]).ids
    ))
    files["--terms"] = str(tmp_path / "terms.jsonl")
    (tmp_path / "terms.jsonl").write_text(json.dumps({"id": "nurse", "vector": [1.0] * 12}) + "\n")
    data = ["--images", "--texts", "--labels", "--truth"]
    training = ["--text-labels", "--epochs", "1", "--batch-size", "32", "--emb-dim", "4"]
    commands = {
        "label": ["--captions", "--lexicon"],
        "neutralize": ["--captions", "--lexicon"],
        "retrieve": ["--images", "--texts"],
        "evaluate": [*data, "--clip-plan"],
        "clip-fit": ["--images", "--labels", "-m", "1"],
        "clip-apply": ["--embeddings", "--plan"],
        "train": [*data, *training],
        "sweep-alpha": [*data, *training, "--alphas", "0,1"],
        "sweep-m": [*data, "--m-list", "0,1"],
        "occupation-bias": ["--terms", "--images", "--labels"],
    }
    for command, argv in commands.items():
        # Each file flag is followed by its path; the other arguments pass as they are.
        paths = [files[arg] for arg in argv if arg in files]
        argv = [part for arg in argv for part in ([arg, files[arg]] if arg in files else [arg])]
        out = tmp_path / command
        assert main([command, *argv, "--out-dir", str(out)]) == 0, command
        manifest = json.loads((out / "manifest.json").read_text())
        want = {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths}
        assert manifest["inputs"] == want, command


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_retrieve_reads_a_named_pipe_once_and_records_its_bytes(data_dir, tmp_path):
    fifo = tmp_path / "images.fifo"
    os.mkfifo(fifo)
    data = (data_dir / "images.jsonl").read_bytes()

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    out = tmp_path / "out"
    argv = ["retrieve", "--images", str(fifo), "--texts", str(data_dir / "texts.jsonl"),
            "--out-dir", str(out)]
    codes = []
    # Daemon threads: a command that opened the pipe again would block forever.
    threads = [
        threading.Thread(target=write, daemon=True),
        threading.Thread(target=lambda: codes.append(main(argv)), daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert codes == [0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"][str(fifo)] == hashlib.sha256(data).hexdigest()


def test_warm_evaluate_hashes_each_table_once(data_dir, tmp_path, monkeypatch):
    """The manifest reads no input again: with every input cached, the only
    hashing by path is one cache lookup per input."""
    argv = ["evaluate", *dataset_args(data_dir), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    cold = (tmp_path / "out" / "manifest.json").read_bytes()
    hashed = []
    digest = core._sha256

    def sha256(path):
        hashed.append(str(path))
        return digest(path)

    monkeypatch.setattr(core, "_sha256", sha256)
    assert main(argv) == 0
    assert hashed == [str(data_dir / name) for name in ("images.jsonl", "texts.jsonl", "labels.jsonl", "truth.jsonl")]
    assert (tmp_path / "out" / "manifest.json").read_bytes() == cold
    assert not hasattr(cli, "_sha256")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evaluate", "--k-list", "0"], "--k-list needs at least one k >= 1"),
        (["evaluate", "--k-list", ","], "--k-list needs at least one k >= 1"),
        (["sweep-alpha", "--epochs", "0"], "sweep-alpha needs --epochs >= 1"),
        (["sweep-alpha", "--val-frac", "1"], "val_frac must be in [0, 1)"),
        (["sweep-m", "--m-list=-1,2"], "--m-list needs m values >= 0"),
        (["sweep-m", "--m-list", ","], "--m-list needs m values >= 0"),
        (["sweep-alpha", "--alphas", "0,2"], "alpha must be in [0, 1]"),
        (["sweep-alpha", "--batch-size", "2"], "batch_size must be >= 4"),
        (["train", "--gamma", "0"], "gamma must be finite and > 0"),
        (["train", "--val-frac", "1"], "val_frac must be in [0, 1)"),
        (["evaluate", "--threads", "0"], "threads must be >= 1"),
        (["train", "--threads=-3"], "threads must be >= 1"),
    ],
)
def test_flags_are_checked_before_any_input_is_read(data_dir, tmp_path, capsys, monkeypatch, argv, message):
    def no_load(*args, **kwargs):
        raise AssertionError("inputs loaded")

    monkeypatch.setattr(cli, "load_embeddings", no_load)
    out = tmp_path / "out"
    assert main([*argv, *dataset_args(data_dir), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["clip-fit", "sweep-m"])
def test_bins_is_checked_before_any_input_is_read(data_dir, tmp_path, capsys, command):
    """A missing --images is not reached: --bins 0 is refused first."""
    out = tmp_path / "out"
    flags = ["-m", "1"] if command == "clip-fit" else [*dataset_args(data_dir), "--m-list", "0,1"]
    argv = [command, *flags, "--images", str(tmp_path / "missing.jsonl"),
            "--labels", str(data_dir / "labels.jsonl"), "--bins", "0", "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bins must be >= 1\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["retrieve", "-k", "0", "--texts"], "k must be >= 1"),
        (["clip-fit", "-m", "-1", "--labels"], "m must be >= 0"),
    ],
)
def test_sign_of_k_and_m_is_checked_before_any_input_is_read(tmp_path, capsys, argv, message):
    """A missing --images is not reached: retrieve -k 0 and clip-fit -m -1 are refused first."""
    out = tmp_path / "out"
    assert main([*argv, str(tmp_path / "missing.jsonl"), "--images", str(tmp_path / "missing.jsonl"),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "vector": "nope"}\n')
    ok = tmp_path / "ok.jsonl"
    ok.write_text('{"id": "a", "vector": [1.0]}\n')

    assert main(["retrieve", "--images", str(bad), "--texts", str(ok),
                 "--out-dir", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err

    assert main(["retrieve", "--images", str(tmp_path / "missing.jsonl"),
                 "--texts", str(ok), "--out-dir", str(tmp_path)]) == 2

    def boom(*args, **kwargs):
        raise RuntimeError("numerical failure")

    monkeypatch.setattr(cli, "synth_dataset", boom)
    assert main(["synth", "--out-dir", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "searchbias" in capsys.readouterr().out
