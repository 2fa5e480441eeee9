"""Benchmark workloads: input shapes, input generation and the command pipeline.

Each workload is one researcher's session: a fixed list of `searchbias`
commands run in turn by one client (a closed loop). Inputs are generated from
the seed with `synth_dataset` plus benchmark-owned generators (captions,
occupation terms, text labels, a clip plan) and written as JSONL.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from searchbias.clipper import ClipPlan
from searchbias.core import (
    EmbeddingTable,
    save_embeddings,
    save_labels,
    save_truth,
    synth_dataset,
)

# Every command runs one retrieval worker (the CLI default). On the 2-core
# shared benchmark host a second worker made `evaluate` about 6 % faster and its
# run-to-run spread five times wider.
THREADS = "1"

# Gendered vocabulary of the default lexicon, kept here as the oracle's own
# specification of what `neutralize` must remove.
MASCULINE = (
    "man", "men", "male", "boy", "gentleman", "father", "brother", "son", "husband", "boyfriend",
)
FEMININE = (
    "woman", "women", "female", "girl", "lady", "mother", "mom", "sister", "daughter", "wife",
    "girlfriend",
)
_MALE_NOUNS = ("man", "boy", "gentleman", "father", "brother", "son", "husband", "boyfriend")
_FEMALE_NOUNS = ("woman", "girl", "lady", "mother", "mom", "sister", "daughter", "wife", "girlfriend")
_NEUTRAL_NOUNS = ("person", "child", "adult", "kid", "guy", "baby")
_ROLES = ("surfer", "doctor", "skier", "officer", "engineer", "artist", "umpire")
_ACTIONS = (
    "riding a bike down the street",
    "holding an umbrella in the rain",
    "eating a sandwich at a table",
    "standing next to a brown horse",
    "playing tennis on a clay court",
    "sitting on a wooden bench",
    "talking on a phone near a bus",
    "surfing a large wave",
    "flying a kite in the park",
    "cutting a cake in a kitchen",
)

# Command name -> end-to-end metric that times it.
COMMAND_METRIC = {
    "clip-fit": "clip_fit_s",
    "evaluate": "evaluate_s",
    "clip-apply": "clip_apply_s",
    "occupation-bias": "occupation_s",
    "label": "label_s",
    "neutralize": "neutralize_s",
    "sweep-alpha": "sweep_alpha_s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    main_command: str  # the command `main_cmd_s` times (summed if it runs twice)
    full: dict
    smoke: dict
    make_inputs: Callable[[str, int, dict], None]
    commands: Callable[[str, str, dict], list]


def _save_dataset(ds, in_dir):
    save_embeddings(ds.images, os.path.join(in_dir, "images.jsonl"))
    save_embeddings(ds.texts, os.path.join(in_dir, "texts.jsonl"))
    save_labels(ds.labels, os.path.join(in_dir, "labels.jsonl"))
    save_truth(ds.truth, os.path.join(in_dir, "truth.jsonl"))


def _dataset_flags(in_dir):
    return [
        "--images", os.path.join(in_dir, "images.jsonl"),
        "--texts", os.path.join(in_dir, "texts.jsonl"),
        "--truth", os.path.join(in_dir, "truth.jsonl"),
    ]


def _cmd(name, *argv, out_dir):
    return name, [name, *argv, "--threads", THREADS, "--out-dir", out_dir]


# --- coco-clip: the clipping experiment at 512-d ---------------------------


def coco_inputs(in_dir, seed, shape):
    ds = synth_dataset(
        seed, shape["n_images"], shape["n_texts"], shape["dim"],
        bias_dims=range(shape["planted"]), skew=0.7, text_noise=shape["text_noise"],
    )
    _save_dataset(ds, in_dir)
    # Occupation terms lean male or female along the planted dims.
    rng = np.random.default_rng([seed, 1])
    terms = rng.standard_normal((shape["n_terms"], shape["dim"]))
    lean = rng.choice([-0.5, 0.5], size=shape["n_terms"])
    terms[:, : shape["planted"]] += lean[:, None]
    ids = [f"term{i:03d}" for i in range(shape["n_terms"])]
    save_embeddings(EmbeddingTable(ids, terms), os.path.join(in_dir, "terms.jsonl"))


def coco_commands(in_dir, out_dir, shape):
    images = os.path.join(in_dir, "images.jsonl")
    labels = os.path.join(in_dir, "labels.jsonl")
    plan = os.path.join(out_dir, "plan", "clip_plan.json")
    evaluate = ["--labels", labels, *_dataset_flags(in_dir), "--k-list", "1,5,10"]
    return [
        _cmd("clip-fit", "--images", images, "--labels", labels, "-m", str(shape["m"]),
             out_dir=os.path.join(out_dir, "plan")),
        _cmd("evaluate", *evaluate, out_dir=os.path.join(out_dir, "eval")),
        _cmd("evaluate", *evaluate, "--clip-plan", plan,
             out_dir=os.path.join(out_dir, "eval_clipped")),
        _cmd("occupation-bias", "--terms", os.path.join(in_dir, "terms.jsonl"),
             "--images", images, "--labels", labels, out_dir=os.path.join(out_dir, "occupation")),
    ]


# --- corpus-deep: many low-dimensional rows, captions, a deep ranking -------


def make_captions(labels, per_image, rng):
    """Captions whose gendered words reproduce each image's planted label.

    A male (female) image gets at least one caption naming a masculine
    (feminine) word and none naming the other gender; a neutral image names
    no gendered word, or sometimes both genders in one caption.
    """
    nouns = {"male": _MALE_NOUNS, "female": _FEMALE_NOUNS}
    records = []
    for image_id, label in labels.items():
        gender = label.value
        gendered = rng.random(per_image) < 0.6
        if gender != "neutral" and not gendered.any():
            gendered[0] = True
        conflict = gender == "neutral" and rng.random() < 0.2
        for j in range(per_image):
            action = _ACTIONS[rng.integers(len(_ACTIONS))]
            if gender != "neutral" and gendered[j]:
                if rng.random() < 0.3:
                    role = _ROLES[rng.integers(len(_ROLES))]
                    article = "An" if role[0] in "aeiou" else "A"
                    text = f"{article} {gender} {role} {action}."
                else:
                    noun = nouns[gender][rng.integers(len(nouns[gender]))]
                    text = f"A {noun} {action}."
            elif conflict and j == 0:
                text = f"A man and a woman {action}." if rng.random() < 0.5 else f"Men and women {action}."
            else:
                text = f"A {_NEUTRAL_NOUNS[rng.integers(len(_NEUTRAL_NOUNS))]} {action}."
            records.append({"id": f"cap{len(records):07d}", "image_id": image_id, "text": text})
    return records


def deep_inputs(in_dir, seed, shape):
    ds = synth_dataset(
        seed, shape["n_images"], shape["n_texts"], shape["dim"],
        bias_dims=range(shape["planted"]), skew=0.7, text_noise=shape["text_noise"],
    )
    _save_dataset(ds, in_dir)
    captions = make_captions(ds.labels, shape["captions_per_image"], np.random.default_rng([seed, 2]))
    with open(os.path.join(in_dir, "captions.jsonl"), "w", encoding="utf-8") as fh:
        for rec in captions:
            fh.write(json.dumps(rec) + "\n")
    dim = shape["dim"]
    ClipPlan(dim=dim, mi=[0.0] * dim, clipped=list(range(shape["planted"]))).save(
        os.path.join(in_dir, "plan.json")
    )


def deep_commands(in_dir, out_dir, shape):
    captions = os.path.join(in_dir, "captions.jsonl")
    k_list = ",".join(str(k) for k in shape["k_list"])
    return [
        _cmd("label", "--captions", captions, out_dir=os.path.join(out_dir, "label")),
        _cmd("neutralize", "--captions", captions, out_dir=os.path.join(out_dir, "neutral")),
        _cmd("evaluate", "--labels", os.path.join(out_dir, "label", "labels.jsonl"),
             *_dataset_flags(in_dir), "--k-list", k_list, "--per-query",
             out_dir=os.path.join(out_dir, "eval")),
        _cmd("clip-apply", "--embeddings", os.path.join(in_dir, "images.jsonl"),
             "--plan", os.path.join(in_dir, "plan.json"), out_dir=os.path.join(out_dir, "clip")),
    ]


# --- fair-sweep: the fair-negative trainer across alphas ---------------------


def fair_inputs(in_dir, seed, shape):
    ds = synth_dataset(
        seed, shape["n_images"], shape["n_texts"], shape["dim"],
        bias_dims=range(shape["planted"]), skew=0.7, mu=2.0,
    )
    _save_dataset(ds, in_dir)
    # Every text is a gender-neutral query, as after a neutralization pass.
    with open(os.path.join(in_dir, "text_labels.jsonl"), "w", encoding="utf-8") as fh:
        for tid in ds.texts.ids:
            fh.write(json.dumps({"id": tid, "gender": "neutral"}) + "\n")


def fair_commands(in_dir, out_dir, shape):
    return [
        _cmd("sweep-alpha", "--labels", os.path.join(in_dir, "labels.jsonl"),
             *_dataset_flags(in_dir), "--alphas", "0,0.5,1", "--gamma", "0.2", "--lr", "0.002",
             "--epochs", str(shape["epochs"]), "--batch-size", "64", "--emb-dim", "32",
             "--text-labels", os.path.join(in_dir, "text_labels.jsonl"),
             out_dir=os.path.join(out_dir, "sweep")),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coco-clip", "evaluate",
            full=dict(n_images=1000, n_texts=600, dim=512, planted=8, text_noise=5.0, m=100,
                      n_terms=20),
            smoke=dict(n_images=400, n_texts=20, dim=64, planted=8, text_noise=2.0, m=16,
                       n_terms=4),
            make_inputs=coco_inputs, commands=coco_commands,
        ),
        Workload(
            "corpus-deep", "evaluate",
            full=dict(n_images=6000, n_texts=200, dim=32, planted=4, text_noise=1.5,
                      captions_per_image=3, k_list=(1, 10, 50, 100)),
            smoke=dict(n_images=200, n_texts=20, dim=16, planted=4, text_noise=1.5,
                       captions_per_image=5, k_list=(1, 10, 50, 100)),
            make_inputs=deep_inputs, commands=deep_commands,
        ),
        Workload(
            "fair-sweep", "sweep-alpha",
            full=dict(n_images=1000, n_texts=2000, dim=64, planted=3, epochs=6),
            smoke=dict(n_images=100, n_texts=200, dim=16, planted=3, epochs=2),
            make_inputs=fair_inputs, commands=fair_commands,
        ),
    )
}
