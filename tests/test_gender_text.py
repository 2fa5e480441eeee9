"""Caption gender detection and gender-neutral rewriting."""

import copy
import dataclasses
import hashlib
import json
import pickle
import re

import numpy as np
import orjson
import pytest

from searchbias import core
from searchbias.core import DataError, GenderLabel, load_captions, load_labels, save_captions
from searchbias.gender_text import GenderLexicon, caption_hits, image_gender, neutralize, tokenize

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


# Each (masculine, feminine) pair of a caption's hits by name; the pinned
# digests below hash these names.
_GENDER_OF_HITS = {
    (True, True): "has_both",
    (True, False): "has_masc",
    (False, True): "has_fem",
    (False, False): "none",
}


def _genders(texts, lexicon=None):
    """The name of each text's hits, from one `caption_hits` scan."""
    masc, fem = caption_hits(texts, lexicon)
    return [_GENDER_OF_HITS[hit] for hit in zip(masc.tolist(), fem.tolist())]


def _one_image(texts, lexicon=None):
    """The label of one image whose captions are `texts`."""
    return image_gender(texts, ["i"] * len(texts), lexicon)["i"]


def test_reference_rewrites_verbatim():
    for before, after in REFERENCE_REWRITES:
        assert neutralize(before) == after


def test_tokenize():
    assert tokenize("A man's best friend!") == ["a", "man", "s", "best", "friend"]
    assert tokenize("") == []
    assert tokenize("Hello, WORLD") == ["hello", "world"]


def test_caption_hits():
    assert _genders(
        [
            "A man with a red helmet on a small moped",
            "A female surfboarder dressed in black",
            "A group of young men and women sitting",
            "A bowl of fruit on a table",
            "The man's hat",  # possessive stem
            "A person walking",  # neutral words don't count
            "Manic humans managing",  # no substring matches
        ]
    ) == ["has_masc", "has_fem", "has_both", "none", "has_masc", "none", "none"]


def test_image_gender_rules():
    texts = ["A man riding", "A dog nearby", "A woman riding", "Trees in fog", "A man riding",
             "A woman nearby", "A man and a woman", "A dog", "A cat"]
    assert image_gender(texts, ["m", "m", "f", "f", "b", "b", "one", "n", "n"]) == {
        "m": GenderLabel.MALE,
        "f": GenderLabel.FEMALE,
        "b": GenderLabel.NEUTRAL,
        "one": GenderLabel.NEUTRAL,
        "n": GenderLabel.NEUTRAL,
    }
    assert _one_image(["A man", "A dog"]) is _one_image(["A dog", "A man"]) is GenderLabel.MALE
    assert image_gender([], []) == {}


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
        replacement={"king": "monarch", "queen": "monarch"},
    )
    assert neutralize("The king met the queen.", lex) == "The monarch met the monarch."
    # Default lexicon words mean nothing to a custom lexicon.
    assert _genders(["The king waved", "A man walked"], lex) == ["has_masc", "none"]


def test_lexicon_round_trip_and_validation(tmp_path):
    lex = GenderLexicon.default()
    path = tmp_path / "lex.json"
    lex.save(path)
    assert GenderLexicon.load(path) == lex
    obj = json.loads(lex.to_json())
    assert set(obj) == {"masculine", "feminine", "replacement"}

    with pytest.raises(DataError):
        GenderLexicon(
            masculine=frozenset({"man"}),
            feminine=frozenset({"man"}),
            replacement={},
        )
    with pytest.raises(DataError):
        GenderLexicon(
            masculine=frozenset({"man"}),
            feminine=frozenset(),
            replacement={"woman": "person"},  # key outside the gendered sets
        )

    # JSON of the wrong types, as a user's lexicon file may hold.
    good = {"masculine": ["king"], "feminine": ["queen"], "replacement": {}}
    assert GenderLexicon.from_json(json.dumps(good)).masculine == frozenset({"king"})
    for bad in (
        7,
        ["masculine"],
        {**good, "masculine": 1},
        {**good, "masculine": "king"},
        {**good, "feminine": [1]},
        {**good, "replacement": ["king"]},
        {**good, "replacement": {"king": 3}},
    ):
        with pytest.raises(DataError):
            GenderLexicon.from_json(json.dumps(bad))


def test_lexicon_json_ignores_the_neutral_list_older_files_hold(tmp_path):
    """Lexicon files once held a "neutral" word list that no rule read."""
    lex = GenderLexicon.default()
    assert list(json.loads(lex.to_json())) == ["feminine", "masculine", "replacement"]
    old = {
        **json.loads(lex.to_json()),
        "neutral": ["person", "people", "human", "adult", "baby", "child", "kid", "children",
                    "guy", "teenage", "crowd"],
    }
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old, sort_keys=True) + "\n")
    assert GenderLexicon.load(path) == lex
    king = GenderLexicon(masculine=frozenset({"king"}), feminine=frozenset({"queen"}), replacement={})
    for text in ('{"masculine": ["king"], "feminine": ["queen"], "replacement": {}}',
                 '{"masculine": ["king"], "feminine": ["queen"], "neutral": [], "replacement": {}}'):
        assert GenderLexicon.from_json(text) == king


def test_default_lexicon_is_one_shared_read_only_instance():
    lex = GenderLexicon.default()
    assert lex is GenderLexicon.default()
    assert lex == GenderLexicon()
    with pytest.raises(TypeError):
        lex.replacement["man"] = "king"
    with pytest.raises(TypeError):
        del lex.replacement["man"]
    assert lex.replacement["man"] == "person"
    assert neutralize("A man walked") == "A person walked"
    # Copies, pickles and replace() still give working lexicons.
    for copied in (copy.copy(lex), copy.deepcopy(lex), pickle.loads(pickle.dumps(lex))):
        assert copied == lex and copied is not lex
    king = dataclasses.replace(lex, replacement={"man": "king"})
    assert king != lex and dict(king.replacement) == {"man": "king"}
    assert neutralize("A man walked", king) == "A king walked"
    assert GenderLexicon.from_json(lex.to_json()) == lex
    assert GenderLexicon.default() is lex


def test_equal_lexicons_hash_equal():
    lex = GenderLexicon.default()
    rebuilt = GenderLexicon.from_json(lex.to_json())
    assert rebuilt == lex and rebuilt is not lex and hash(rebuilt) == hash(lex)
    king = GenderLexicon(
        masculine=frozenset({"King"}),
        feminine=frozenset({"queen"}),
        replacement={"KING": "Monarch", "queen": None},
    )
    same_king = GenderLexicon(
        masculine=frozenset({"king"}),
        feminine=frozenset({"QUEEN"}),
        replacement={"queen": None, "king": "monarch"},
    )
    assert king == same_king and hash(king) == hash(same_king)
    assert king != lex
    assert {lex, rebuilt, king, same_king, GenderLexicon()} == {lex, king}
    table = {lex: "default", king: "king"}
    assert table[rebuilt] == "default" and table[same_king] == "king"


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
    texts = fuzz_corpus(800, seed=7)
    onces = [neutralize(text) for text in texts]
    for text, once, gender in zip(texts, onces, _genders(onces)):
        assert gender == "none", (text, once)
        assert neutralize(once) == once, (text, once)


def test_captions_round_trip_and_errors(tmp_path):
    caps = (["c1", "c2"], ["i1", "i1"], ["A dog.", "A man sleeping."])
    path = tmp_path / "caps.jsonl"
    save_captions(caps, path)
    assert load_captions(path) == caps
    copy = tmp_path / "copy.jsonl"
    save_captions(load_captions(path), copy)
    assert copy.read_bytes() == path.read_bytes()

    path.write_text('{"id": "c1", "image_id": "i1", "text": "x"}\n{"id": "c1", "image_id": "i2", "text": "y"}\n')
    with pytest.raises(DataError, match="duplicate"):
        load_captions(path)
    path.write_text('{"id": "c1", "image_id": "i1"}\n')
    with pytest.raises(DataError, match="line 1"):
        load_captions(path)
    # Fields are checked before the duplicate test, which hashes the id.
    for bad_id in ('["c1"]', '{"a": 1}', "7", '""'):
        path.write_text(f'{{"id": {bad_id}, "image_id": "i1", "text": "x"}}\n')
        with pytest.raises(DataError, match="line 1: id must be a non-empty string, got "):
            load_captions(path)
    path.write_text('{"id": "c1", "image_id": "i1", "text": ""}\n')
    with pytest.raises(DataError, match=r"line 1 \(id 'c1'\): text must be a non-empty string, got ''$"):
        load_captions(path)


@pytest.mark.parametrize(
    ("lines", "message"),
    [
        (['{"image_id": "i1"}'], "line 1: record needs 'id'"),
        (['{"id": "c1", "image_id": "i1"}'], "line 1: record needs 'text'"),
        (['{"id": 7, "image_id": "i1", "text": "x"}'], "line 1: id must be a non-empty string, got 7"),
        (['{"id": [], "image_id": "i1", "text": "x"}'], "line 1: id must be a non-empty string, got []"),
        (['{"id": "", "image_id": "i1", "text": "x"}'], "line 1: id must be a non-empty string, got ''"),
        (['{"id": "c1", "image_id": "", "text": "x"}'], "line 1 (id 'c1'): image_id must be a non-empty string, got ''"),
        (['{"id": "c1", "image_id": "i1", "text": ""}'], "line 1 (id 'c1'): text must be a non-empty string, got ''"),
        (['{"id": "c1", "image_id": "i1", "text": 3}'], "line 1 (id 'c1'): text must be a non-empty string, got 3"),
        (
            [
                '{"id": "c1", "image_id": "i1", "text": "x"}',
                '{"id": "c1", "image_id": "i2", "text": "y"}',
                '{"id": "c3"}',
            ],
            "line 2: duplicate id 'c1'",
        ),
    ],
)
def test_malformed_caption_messages(tmp_path, lines, message):
    path = tmp_path / "caps.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(DataError) as info:
        load_captions(path)
    assert str(info.value) == f"{path}, {message}"


def _count_caption_parses(monkeypatch):
    """The paths of the JSONL parses made from now on, by any loader."""
    calls = []
    parse = core._parse_jsonl

    def counted(path, *args):
        calls.append(path)
        return parse(path, *args)

    monkeypatch.setattr(core, "_parse_jsonl", counted)
    return calls


def _entry(cache, path, kind):
    return cache / f"{hashlib.sha256(path.read_bytes()).hexdigest()}.{kind}"


_CAPTIONS = (["c2", "c1\x00", "c3"], ["i1", "i2", "i1"], ["A man.", "caf\u00e9 \U0001f600", "A dog."])


def test_captions_cache_skips_the_parse(tmp_path, monkeypatch, table_cache):
    path = tmp_path / "caps.jsonl"
    save_captions(_CAPTIONS, path)
    parses = _count_caption_parses(monkeypatch)
    loaded = [load_captions(path)]
    assert len(parses) == 1
    assert [p.name for p in table_cache.iterdir()] == [_entry(table_cache, path, "captions").name]
    loaded.append(load_captions(path))
    assert len(parses) == 1
    assert loaded == [_CAPTIONS, _CAPTIONS]


def test_captions_and_labels_of_one_file_get_an_entry_each(tmp_path, monkeypatch, table_cache):
    path = tmp_path / "both.jsonl"
    path.write_text('{"id": "c1", "image_id": "i1", "text": "A man.", "gender": "male"}\n')
    parses = _count_caption_parses(monkeypatch)
    for _ in range(2):
        assert load_captions(path) == (["c1"], ["i1"], ["A man."])
        assert load_labels(path) == {"c1": GenderLabel.MALE}
    assert len(parses) == 2
    assert sorted(p.name for p in table_cache.iterdir()) == sorted(
        _entry(table_cache, path, kind).name for kind in ("captions", "labels")
    )


def _set_item(i, j, item):
    def damage(columns):
        columns[i][j] = item

    return damage


_DAMAGED_CAPTIONS = {
    "truncated": None,
    "unequal columns": lambda columns: columns[2].pop(),
    "empty id": _set_item(0, 0, ""),
    "empty image id": _set_item(1, 2, ""),
    "empty text": _set_item(2, 1, ""),
    "duplicate id": _set_item(0, 2, "c2"),
    "non-string id": _set_item(0, 0, 7),
    "non-string text": _set_item(2, 0, None),
    "two columns": lambda columns: columns.pop(),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGED_CAPTIONS))
def test_captions_cache_ignores_and_rewrites_a_bad_entry(tmp_path, monkeypatch, table_cache, damage):
    path = tmp_path / "caps.jsonl"
    save_captions(_CAPTIONS, path)
    load_captions(path)
    entry = _entry(table_cache, path, "captions")
    good = entry.read_bytes()
    edit = _DAMAGED_CAPTIONS[damage]
    if edit is None:
        entry.write_bytes(good[:-3])
    else:
        columns = orjson.loads(good)
        edit(columns)
        entry.write_bytes(orjson.dumps(columns))
    assert entry.read_bytes() != good
    parses = _count_caption_parses(monkeypatch)
    assert load_captions(path) == _CAPTIONS
    assert len(parses) == 1
    assert entry.read_bytes() == good


def test_captions_cache_stores_no_empty_or_failed_load(tmp_path, table_cache):
    path = tmp_path / "caps.jsonl"
    path.write_text("\n")
    assert load_captions(path) == load_captions(path) == ([], [], [])
    path.write_text('{"id": "c1", "image_id": "i1", "text": "x"}\n{"id": "c1", "image_id": "i1", "text": "y"}\n')
    for _ in range(2):
        with pytest.raises(DataError, match="line 2: duplicate id 'c1'"):
            load_captions(path)
    assert list(table_cache.iterdir()) == []


def test_save_captions_writes_the_json_dumps_bytes(tmp_path):
    awkward = [
        'quote " and back\\slash',
        "control \x00\x1f\x7f \t\n",
        "caf\u00e9 \u212a \u0130 \u017f \u2028",
        "astral \U0001f600",
        "lone \ud800 surrogate",
    ]
    caps = (
        [f"c{i}{a}" for i, a in enumerate(awkward)],
        [f"{a}i{i % 2}" for i, a in enumerate(awkward)],
        [f"A man {a}." for a in awkward],
    )
    path = tmp_path / "caps.jsonl"
    save_captions(caps, path)
    expected = "".join(
        json.dumps({"id": cid, "image_id": iid, "text": text}) + "\n" for cid, iid, text in zip(*caps)
    )
    assert path.read_bytes() == expected.encode("ascii")


def _reference_hits(text, lexicon):
    """(masculine, feminine) hits of one text, from its token set."""
    tokens = set(tokenize(text))
    return not tokens.isdisjoint(lexicon.masculine), not tokens.isdisjoint(lexicon.feminine)


def _reference_label(texts, lexicon):
    """An image's label from the token sets of its captions."""
    hits = [_reference_hits(text, lexicon) for text in texts]
    masc, fem = any(m for m, _ in hits), any(f for _, f in hits)
    return GenderLabel.MALE if masc and not fem else GenderLabel.FEMALE if fem and not masc else GenderLabel.NEUTRAL


def _without_prefilter(lexicon):
    """A copy of `lexicon` whose prefilter sends every text down the full path."""
    copy = dataclasses.replace(lexicon)
    object.__setattr__(copy, "_prefilter", re.compile(""))
    return copy


def _lexicon_text(rng, words):
    """Lexicon and filler words in mixed case, joined by spaces, punctuation,
    digits and characters whose lowercase form is ASCII or longer."""
    joins = [" ", " ", " ", "", ", ", "-", "'s ", "3", "\u212a", "\u017f", "\u0130", "\u00e9", ". "]
    pieces = []
    for _ in range(int(rng.integers(1, 9))):
        word = words[int(rng.integers(len(words)))]
        style = rng.random()
        if style < 0.2:
            word = word.upper()
        elif style < 0.4:
            word = word.capitalize()
        pieces.append(word)
        pieces.append(joins[int(rng.integers(len(joins)))])
    return "".join(pieces).strip() or "x"


def test_prefilter_never_changes_the_caption_tools():
    filler = ["a", "an", "the", "and", "is", "person", "human", "german", "dog", "x-ray",
              "Men and women", "women and men", "king", "ing", "an", "actor"]
    custom = GenderLexicon(
        masculine=frozenset({"king", "he-man", "mr.", "sir"}),
        feminine=frozenset({"queen", "ms.", "dame"}),
        replacement={"king": "monarch", "queen": "monarch", "sir": None, "he-man": "hero"},
    )
    for seed, lexicon in ((1, GenderLexicon.default()), (2, custom)):
        full = _without_prefilter(lexicon)
        words = sorted(lexicon.masculine | lexicon.feminine) + filler
        rng = np.random.default_rng(seed)
        texts = [_lexicon_text(rng, words) for _ in range(3000)]
        # Both paths must be exercised: some texts miss the prefilter.
        skipped = sum(not lexicon._prefilter.search(t.lower()) for t in texts)
        assert 100 < skipped < len(texts) - 100
        for text in texts:
            assert neutralize(text, lexicon) == neutralize(text, full), text
        masc, fem = caption_hits(texts, lexicon)
        assert list(zip(masc.tolist(), fem.tolist())) == [_reference_hits(t, lexicon) for t in texts]
        # Images of three captions each.
        labels = image_gender(texts, [i // 3 for i in range(len(texts))], lexicon)
        assert labels == {i // 3: _reference_label(texts[i : i + 3], lexicon) for i in range(0, len(texts), 3)}

    # The phrase rule runs under any lexicon, so "men" always passes the prefilter.
    assert neutralize("Men and women run", custom) == "People run"
    # Tokens come from the original text: the Kelvin sign is not the letter k.
    assert _genders(["\u212aing and queen"], custom) == ["has_fem"]
    assert neutralize("A \u212aing", custom) == "A \u212aing"
    assert neutralize("\u0130man and \u017fon", GenderLexicon.default()) == "\u0130person and \u017fon"


def test_prefilter_matches_whole_words_of_ascii_text():
    prefilter = GenderLexicon.default()._prefilter
    for text in ("a person", "mason", "mankind"):
        assert not prefilter.search(text.lower()), text
    for text in ("Women's", "3men", "MEN AND WOMEN"):
        assert prefilter.search(text.lower()), text
    # Lowering can put an ASCII letter beside a token of a non-ASCII text
    # ("\u212aman" lowers to "kman"), so such a text skips the prefilter.
    assert not prefilter.search("\u212aman".lower())
    assert _genders(["\u212aman"]) == ["has_masc"]
    assert neutralize("\u212aman") == "\u212aperson"
    assert neutralize("man\u0130") == "person\u0130"


def _pinned_corpus(rng, words, n):
    """Seeded captions for the pinned digests: `_lexicon_text` sentences plus
    whitespace a caption may hold around and inside the gendered words."""
    spaces = ["\r", "\t", "\x85", "\xa0", "\u2003", " \t", "\r\n"]
    phrases = [
        "men and women", "Men\xa0and women", "men and\u2003women", "women\tand\u2003men", "MEN\x85AND\rWOMEN",
        "a male female actor", "An female male owl", "the male, female", "Male", "Male female",
    ]
    texts = []
    for _ in range(n):
        text = _lexicon_text(rng, words)
        for _ in range(int(rng.integers(0, 3))):
            if rng.random() < 0.5:
                # A phrase goes in at the start of a word, followed by a space.
                cuts = [0] + [i + 1 for i, c in enumerate(text) if c == " "]
                cut = cuts[int(rng.integers(len(cuts)))]
                text = text[:cut] + phrases[int(rng.integers(len(phrases)))] + " " + text[cut:]
            else:
                cut = int(rng.integers(len(text) + 1))
                text = text[:cut] + spaces[int(rng.integers(len(spaces)))] + text[cut:]
        texts.append(text)
    return texts


def test_caption_tools_are_pinned():
    """neutralize and caption_hits give these exact results on a seeded corpus."""
    filler = ["a", "an", "the", "and", "is", "person", "human", "german", "dog", "x-ray",
              "Men and women", "women and men", "king", "ing", "an", "actor", "owl", "with"]
    custom = GenderLexicon(
        masculine=frozenset({"king", "he-man", "mr.", "sir", "lord"}),
        feminine=frozenset({"queen", "ms.", "dame", "lady"}),
        replacement={"king": "monarch", "queen": "monarch", "sir": None, "dame": None,
                     "he-man": "hero", "lady": "an"},
    )
    digests = {}
    for seed, name, lexicon in ((11, "default", GenderLexicon.default()), (12, "custom", custom)):
        words = sorted(lexicon.masculine | lexicon.feminine) + filler
        texts = _pinned_corpus(np.random.default_rng(seed), words, 4000)
        texts += ["Male surfer riding", "a male female actor", "A male an female owl", "Male"]
        neutral = [neutralize(text, lexicon) for text in texts]
        genders = _genders(texts, lexicon)
        for key, values in (("neutralize", neutral), ("caption_gender", genders)):
            blob = json.dumps(values).encode("ascii")
            digests[f"{name}/{key}"] = hashlib.sha256(blob).hexdigest()
    # Computed with the caption tools before neutralize edited one split list.
    assert digests == {
        "default/neutralize": "c7e25ddd4c87889769215ca8ee795789d26b2e462fdcb9063da57301cf634743",
        "default/caption_gender": "2aca07427085f8c1ab9e2df5198d6dda6e819d5b37e02728e724bfac1d62b83e",
        "custom/neutralize": "b3b7d578b8633986e25704136d809ef3ef0ef6150d8d7a6ea635802992cbadeb",
        "custom/caption_gender": "84bee5dac3f3ff54fdd315e04416b97a26cba0b8b3c7c6c9452ccb240e1d69fa",
    }


_SCAN_FILLER = ["a", "an", "the", "and", "is", "person", "human", "german", "dog", "x-ray",
                "Men and women", "women and men", "king", "ing", "actor", "owl", "mankind", "Kman"]
_SCAN_CUSTOM = GenderLexicon(
    masculine=frozenset({"king", "he-man", "mr.", "sir", "lord", "\u212aaiser"}),
    feminine=frozenset({"queen", "ms.", "dame", "lady"}),
    replacement={"king": "monarch", "queen": "monarch"},
)


@pytest.mark.parametrize("name", ["default", "custom"])
def test_caption_hits_are_the_token_sets(name):
    """The column scan agrees with each caption's own token set."""
    lexicon = GenderLexicon.default() if name == "default" else _SCAN_CUSTOM
    words = sorted(lexicon.masculine | lexicon.feminine) + _SCAN_FILLER
    rng = np.random.default_rng(24)
    texts = _pinned_corpus(rng, words, 2000) + [_lexicon_text(rng, words) for _ in range(2000)]
    assert 0.5 < sum(not text.isascii() for text in texts) / len(texts) < 0.95
    masc, fem = caption_hits(texts, lexicon)
    got = list(zip(masc.tolist(), fem.tolist()))
    expected = [_reference_hits(text, lexicon) for text in texts]
    assert got == expected
    assert set(expected) == set(_GENDER_OF_HITS)  # every combination occurs


def test_caption_hits_edge_cases():
    texts = [
        "a man\nand a dog",  # a caption may hold a line break...
        "the\r\nwoman",
        "dog",  # ...and the captions after it keep their own hits
        "Kman",  # not a token of the lexicon
        "man\u0130",  # \u0130 lowers to "i" and a combining dot
        "\u212aman",  # the Kelvin sign lowers to "k"
        "lone \ud800man",
        "\U0001f600woman\U0001f600 \U0001f600",
        "men\n",
        "\nwomen",
        "mankind",
        "\u212aing queen",
    ]
    assert _genders(texts) == [
        "has_masc",
        "has_fem",
        "none",
        "none",
        "has_masc",
        "has_masc",
        "has_masc",
        "has_fem",
        "has_masc",
        "has_fem",
        "none",
        "none",
    ]
    # The lexicon's Kelvin-sign word is lowered to "kaiser", the token of "Kaiser".
    assert _genders(["\u212aing queen", "Der Kaiser", "Der \u212aaiser"], _SCAN_CUSTOM) == [
        "has_fem", "has_masc", "none",
    ]
    for hits in (caption_hits([]), caption_hits([], _SCAN_CUSTOM)):
        assert [h.tolist() for h in hits] == [[], []]


def test_a_lexicon_of_no_letter_words_labels_everything_neutral():
    lexicon = GenderLexicon(
        masculine=frozenset({"he-man", "mr.", "m2", "\u017fir"}),
        feminine=frozenset({"ms.", "mrs.", ""}),
        replacement={},
    )
    texts = ["he-man", "mr. smith", "Ms. Jones", "m2", "\u017fir", "sir", "", "a man and a woman"]
    masc, fem = caption_hits(texts, lexicon)
    assert not masc.any() and not fem.any()
    assert image_gender(texts, [f"i{i % 3}" for i in range(len(texts))], lexicon) == {
        "i0": GenderLabel.NEUTRAL, "i1": GenderLabel.NEUTRAL, "i2": GenderLabel.NEUTRAL,
    }


def test_image_labels_come_in_first_appearance_order():
    texts = ["A man", "A dog", "A woman", "A girl", "A boy", "Trees", "A man and a lady"]
    ids = ["b", "a", "c", "a", "b", "d", "e"]
    labels = image_gender(texts, ids)
    assert list(labels.items()) == [
        ("b", GenderLabel.MALE),
        ("a", GenderLabel.FEMALE),
        ("c", GenderLabel.FEMALE),
        ("d", GenderLabel.NEUTRAL),
        ("e", GenderLabel.NEUTRAL),
    ]
    # Each image's label is the one its captions get alone.
    for image_id, label in labels.items():
        assert _one_image([t for t, i in zip(texts, ids) if i == image_id]) is label
    with pytest.raises(ValueError, match="6 image ids for 7 captions"):
        image_gender(texts, ids[:-1])
