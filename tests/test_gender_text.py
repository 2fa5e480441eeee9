"""Caption gender detection and gender-neutral rewriting."""

import json

import numpy as np
import pytest

from searchbias.core import DataError, GenderLabel
from searchbias.gender_text import (
    Caption,
    CaptionGender,
    GenderLexicon,
    caption_gender,
    image_gender,
    load_captions,
    neutralize,
    save_captions,
    tokenize,
)

REFERENCE_REWRITES = [
    (
        "A man with a red helmet on a small moped on a dirt road.",
        "A person with a red helmet on a small moped on a dirt road.",
    ),
    (
        "A little girl is getting ready to blow out a candle on a small dessert.",
        "A little child is getting ready to blow out a candle on a small dessert.",
    ),
    (
        "A female surfboarder dressed in black holding a white surfboard.",
        "A surfboarder dressed in black holding a white surfboard.",
    ),
    (
        "A group of young men and women sitting at a table.",
        "A group of young people sitting at a table.",
    ),
]


def test_reference_rewrites_verbatim():
    for before, after in REFERENCE_REWRITES:
        assert neutralize(before) == after


def test_tokenize():
    assert tokenize("A man's best friend!") == ["a", "man", "s", "best", "friend"]
    assert tokenize("") == []
    assert tokenize("Hello, WORLD") == ["hello", "world"]


def test_caption_gender():
    assert caption_gender("A man with a red helmet on a small moped") is CaptionGender.HAS_MASC
    assert caption_gender("A female surfboarder dressed in black") is CaptionGender.HAS_FEM
    assert caption_gender("A group of young men and women sitting") is CaptionGender.HAS_BOTH
    assert caption_gender("A bowl of fruit on a table") is CaptionGender.NONE
    assert caption_gender("The man's hat") is CaptionGender.HAS_MASC  # possessive stem
    assert caption_gender("A person walking") is CaptionGender.NONE  # neutral words don't count
    assert caption_gender("Manic humans managing") is CaptionGender.NONE  # no substring matches


def test_image_gender_rules():
    assert image_gender(["A man riding", "A dog nearby"]) is GenderLabel.MALE
    assert image_gender(["A woman riding", "Trees in fog"]) is GenderLabel.FEMALE
    assert image_gender(["A man riding", "A woman nearby"]) is GenderLabel.NEUTRAL
    assert image_gender(["A man and a woman"]) is GenderLabel.NEUTRAL
    assert image_gender(["A dog", "A cat"]) is GenderLabel.NEUTRAL
    assert image_gender(["A man", "A dog"]) is image_gender(["A dog", "A man"])
    with pytest.raises(DataError):
        image_gender([])


def test_neutralize_replacement_cases():
    assert neutralize("The woman waved.") == "The person waved."
    assert neutralize("WOMAN AT WORK") == "PERSON AT WORK"
    assert neutralize("Boy meets dog.") == "Child meets dog."
    assert neutralize("His father and mother arrived.") == "His parent and parent arrived."
    assert neutralize("The husband hugged his wife.") == "The spouse hugged his spouse."


def test_neutralize_attributive_removal():
    assert neutralize("A female surfer rides a wave.") == "A surfer rides a wave."
    assert neutralize("A male nurse smiled.") == "A nurse smiled."
    # Sentence-initial removal promotes the next word's capitalization.
    assert neutralize("Male surfer riding a wave.") == "Surfer riding a wave."
    # Non-attributive use falls back to replacement.
    assert neutralize("The female is smiling.") == "The person is smiling."
    assert neutralize("A male and a female.") == "A person and a person."


def test_neutralize_article_agreement():
    assert neutralize("A male actor bowed.") == "An actor bowed."
    assert neutralize("An male performer bowed.") == "A performer bowed."


def test_neutralize_phrase_rule():
    assert neutralize("Men and women at the beach.") == "People at the beach."
    assert neutralize("women and men talking") == "people talking"


def test_neutralize_leaves_neutral_text_alone():
    text = "A person and their dog walk through a crowd."
    assert neutralize(text) == text
    assert neutralize("") == ""


def test_custom_lexicon():
    lex = GenderLexicon(
        masculine=frozenset({"king"}),
        feminine=frozenset({"queen"}),
        neutral=frozenset({"monarch"}),
        replacement={"king": "monarch", "queen": "monarch"},
    )
    assert caption_gender("The king waved", lex) is CaptionGender.HAS_MASC
    assert neutralize("The king met the queen.", lex) == "The monarch met the monarch."
    # Default lexicon words mean nothing to a custom lexicon.
    assert caption_gender("A man walked", lex) is CaptionGender.NONE


def test_lexicon_round_trip_and_validation(tmp_path):
    lex = GenderLexicon.default()
    path = tmp_path / "lex.json"
    lex.save(path)
    assert GenderLexicon.load(path) == lex
    obj = json.loads(lex.to_json())
    assert set(obj) == {"masculine", "feminine", "neutral", "replacement"}

    with pytest.raises(DataError):
        GenderLexicon(
            masculine=frozenset({"man"}),
            feminine=frozenset({"man"}),
            neutral=frozenset(),
            replacement={},
        )
    with pytest.raises(DataError):
        GenderLexicon(
            masculine=frozenset({"man"}),
            feminine=frozenset(),
            neutral=frozenset(),
            replacement={"woman": "person"},  # key outside the gendered sets
        )

    # JSON of the wrong types, as a user's lexicon file may hold.
    good = {"masculine": ["king"], "feminine": ["queen"], "neutral": [], "replacement": {}}
    assert GenderLexicon.from_json(json.dumps(good)).masculine == frozenset({"king"})
    for bad in (
        7,
        ["masculine"],
        {**good, "masculine": 1},
        {**good, "masculine": "king"},
        {**good, "feminine": [1]},
        {**good, "neutral": None},
        {**good, "replacement": ["king"]},
        {**good, "replacement": {"king": 3}},
    ):
        with pytest.raises(DataError):
            GenderLexicon.from_json(json.dumps(bad))


def fuzz_corpus(n, seed):
    """Random sentences mixing gendered, neutral, and filler vocabulary."""
    rng = np.random.default_rng(seed)
    gendered = ["man", "men", "male", "boy", "father", "woman", "women", "female",
                "girl", "mother", "wife", "husband", "lady", "son", "daughter"]
    filler = ["dog", "red", "park", "riding", "table", "a", "an", "the", "and",
              "person", "people", "is", "are", "with", "young", "tall", "crowd"]
    sentences = []
    for _ in range(n):
        length = int(rng.integers(2, 12))
        words = []
        for _ in range(length):
            pool = gendered if rng.random() < 0.35 else filler
            word = pool[int(rng.integers(0, len(pool)))]
            style = rng.random()
            if style < 0.15:
                word = word.capitalize()
            elif style < 0.2:
                word = word.upper()
            words.append(word)
        text = " ".join(words)
        if rng.random() < 0.5:
            text = text[0].upper() + text[1:] + "."
        sentences.append(text)
    return sentences


def test_neutralize_idempotent_and_complete_on_fuzz():
    for text in fuzz_corpus(800, seed=7):
        once = neutralize(text)
        assert caption_gender(once) is CaptionGender.NONE, (text, once)
        assert neutralize(once) == once, (text, once)


def test_captions_round_trip_and_errors(tmp_path):
    caps = [
        Caption(id="c1", image_id="i1", text="A dog."),
        Caption(id="c2", image_id="i1", text="A man sleeping."),
    ]
    path = tmp_path / "caps.jsonl"
    save_captions(caps, path)
    assert load_captions(path) == caps

    path.write_text('{"id": "c1", "image_id": "i1", "text": "x"}\n{"id": "c1", "image_id": "i2", "text": "y"}\n')
    with pytest.raises(DataError, match="duplicate"):
        load_captions(path)
    path.write_text('{"id": "c1", "image_id": "i1"}\n')
    with pytest.raises(DataError, match="line 1"):
        load_captions(path)
    with pytest.raises(DataError):
        Caption(id="c1", image_id="i1", text="")
