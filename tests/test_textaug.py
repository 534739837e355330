import itertools
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import bruteforce_spell_oracle

from lecnce.errors import ClientFailureError, EmptyCorpusError, EmptyWordError
from lecnce.numerics import make_rng
from lecnce.textaug import (
    ALPHABET,
    MockAugmenterClient,
    assign_pseudo_steps,
    augment_text,
    build_step_kb,
    edit_candidates,
    load_step_kb,
    load_vocabulary,
    mock_clients,
    sample_text,
    spell_correct,
    tokenize,
)


def osa_distance(a: str, b: str) -> int:
    """Optimal string alignment distance: the four edit ops, no double-touch."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[la][lb]


def enumerate_distance_one(word: str) -> set[str]:
    """All strings within OSA distance 1, by exhaustive enumeration."""
    out = set()
    for length in (len(word) - 1, len(word), len(word) + 1):
        if length < 0:
            continue
        for chars in itertools.product(ALPHABET, repeat=length):
            s = "".join(chars)
            if s != word and osa_distance(word, s) == 1:
                out.add(s)
    return out


def independent_edits1(word: str) -> set[str]:
    """Second implementation of one-edit generation, via index loops."""
    out = set()
    for i in range(len(word)):
        out.add(word[:i] + word[i + 1 :])
        for ch in ALPHABET:
            out.add(word[:i] + ch + word[i + 1 :])
    for i in range(len(word) - 1):
        out.add(word[:i] + word[i + 1] + word[i] + word[i + 2 :])
    for i in range(len(word) + 1):
        for ch in ALPHABET:
            out.add(word[:i] + ch + word[i:])
    out.discard(word)
    return out


class TestEditCandidates:
    def test_ab_raw_counts_and_set(self):
        word = "ab"
        splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
        deletes = [l + r[1:] for l, r in splits if r]
        transposes = [l + r[1] + r[0] + r[2:] for l, r in splits if len(r) > 1]
        replaces = [l + c + r[1:] for l, r in splits if r for c in ALPHABET]
        inserts = [l + c + r for l, r in splits for c in ALPHABET]
        assert (len(deletes), len(transposes), len(replaces), len(inserts)) == (2, 1, 52, 78)
        assert len(deletes) + len(transposes) + len(replaces) + len(inserts) == 133
        assert edit_candidates("ab", 1) == enumerate_distance_one("ab")

    def test_single_letter(self):
        cands = edit_candidates("a", 1)
        assert "" in cands
        for ch in ALPHABET:
            assert ch + "a" in cands and "a" + ch in cands

    def test_word_not_in_own_set(self):
        for word in ("a", "ab", "duct", "grasper"):
            assert word not in edit_candidates(word, 1)
            assert word not in edit_candidates(word, 2)

    def test_matches_exhaustive_enumeration_short(self):
        for word in ("a", "xy"):
            assert edit_candidates(word, 1) == enumerate_distance_one(word)

    def test_matches_independent_generation(self):
        rng = make_rng(1)
        for length in range(1, 7):
            word = "".join(ALPHABET[i] for i in rng.integers(0, 26, size=length))
            assert edit_candidates(word, 1) == independent_edits1(word)

    def test_distance_two_superset(self):
        for word in ("ab", "duct", "hook"):
            assert edit_candidates(word, 2) >= edit_candidates(word, 1)

    def test_distance_two_members_within_two_edits(self):
        word = "duct"
        two = edit_candidates(word, 2)
        rng = make_rng(2)
        sample = rng.choice(sorted(two), size=60, replace=False)
        for cand in sample:
            assert 1 <= osa_distance(word, str(cand)) <= 2

    def test_empty_word(self):
        with pytest.raises(EmptyWordError):
            edit_candidates("", 1)


@pytest.fixture()
def vocab():
    return {"grasper": 10, "grasp": 3, "duct": 8, "hook": 5, "dissect": 6, "abc": 2, "abd": 2}


class TestSpellCorrect:
    def test_in_vocab_identity(self, vocab):
        assert spell_correct("grasper", vocab) == "grasper"

    def test_frequency_priority(self, vocab):
        # both "grasper" and "grasp" are one edit away; higher frequency wins
        assert spell_correct("graspr", vocab) == "grasper"

    def test_no_candidate_unchanged(self, vocab):
        assert spell_correct("zzzzzz", vocab) == "zzzzzz"

    def test_distance_two_fallback(self, vocab):
        assert spell_correct("hoook", vocab) == "hook"  # distance 1
        assert spell_correct("hooook", vocab) == "hook"  # distance 2

    def test_lexicographic_tie_break(self, vocab):
        # "abe" is one edit from both "abc" and "abd" (frequency 2 each)
        assert spell_correct("abe", vocab) == "abc"

    def test_distance_one_preferred_over_two(self):
        # "cat" is one edit from "cart"; "cartsy" is two: distance beats frequency
        vocab = {"cat": 1, "cartsy": 100}
        assert spell_correct("cart", vocab) == "cat"

    def test_non_alphabetic_passthrough(self, vocab):
        assert spell_correct("12mm", vocab) == "12mm"
        assert spell_correct("", vocab) == ""

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="abcdef", min_size=1, max_size=5))
    def test_idempotent(self, word):
        fixed = {"abc": 5, "bed": 3, "face": 7, "cafe": 7}
        once = spell_correct(word, fixed)
        assert spell_correct(once, fixed) == once

    def test_agrees_with_bruteforce_oracle(self, vocab):
        rng = make_rng(3)
        words = ["grasperx", "ductt", "hok", "disect", "qqq", "grsper"]
        for word in words:
            expected = word
            for dist in (1, 2):
                if word in vocab:
                    expected = word
                    break
                hits = sorted(
                    (c for c in edit_candidates(word, dist) if c in vocab),
                    key=lambda w: (-vocab[w], w),
                )
                if hits:
                    expected = hits[0]
                    break
            assert spell_correct(word, vocab) == expected


class TestSpellCorrectSearch:
    """spell_correct against the enumerate-then-filter oracle, on both of its search paths."""

    def test_sample_vocabulary_far_words(self):
        vocab = load_vocabulary(resources.files("lecnce") / "assets" / "vocab_sample.tsv")
        for word in ("zzzzzz", "cholecystectmy", "cholecystectomy", "galblader", "dissectoin", "xhook"):
            assert spell_correct(word, vocab) == bruteforce_spell_oracle(word, vocab)

    def test_dense_vocabulary(self):
        # more short vocabulary words than a short word has one-edit neighbours
        rng = make_rng(8)
        vocab = {
            "".join(chars): int(rng.integers(1, 4))
            for length in range(1, 5)
            for chars in itertools.product("abcd", repeat=length)
            if rng.random() < 0.5
        }
        vocab.update({"é": 9, "abé": 9, "": 9, "ABC": 9})
        for word in ("e", "ee", "eee", "eeee", "ae", "ceef", "abcdef", "éa", "zzz"):
            assert spell_correct(word, vocab) == bruteforce_spell_oracle(word, vocab)

    def test_letters_outside_a_to_z(self):
        # "abé" shares the neighbour "ab" with "abc" but no a-z edit inserts "é";
        # "ééa" reaches "a" only through "éa", which no edit of "a" produces
        for word, vocab in (("abc", {"abé": 5}), ("ééa", {"a": 1}), ("ééa", {"éa": 2, "a": 1})):
            assert spell_correct(word, vocab) == bruteforce_spell_oracle(word, vocab)
        assert spell_correct("abc", {"abé": 5}) == "abc"
        assert spell_correct("ééa", {"a": 1}) == "a"

    @settings(max_examples=100, deadline=None)
    @given(
        word=st.text(alphabet="abcdeé", min_size=1, max_size=5),
        vocab=st.dictionaries(st.text(alphabet="abcdefgé", max_size=8), st.integers(1, 3), max_size=12),
    )
    def test_property_matches_oracle(self, word, vocab):
        assert spell_correct(word, vocab) == bruteforce_spell_oracle(word, vocab)


class TestVocabularyFile:
    def test_roundtrip(self, tmp_path, vocab):
        path = tmp_path / "vocab.tsv"
        path.write_text("".join(f"{word}\t{vocab[word]}\n" for word in sorted(vocab)))
        assert load_vocabulary(path) == vocab
        first_line = path.read_text().splitlines()[0]
        assert "\t" in first_line


class TestMockClients:
    def test_pure_function(self):
        client = MockAugmenterClient("dictionary")
        outputs = {client.complete("clipping cutting") for _ in range(1000)}
        assert len(outputs) == 1

    def test_behaviors_differ(self):
        text = "dissection of the gallbladder"
        outs = {b: MockAugmenterClient(b).complete(text) for b in ("recipe", "dictionary", "summarizer")}
        assert len(set(outs.values())) == 3

    def test_payload_shape(self):
        payload = MockAugmenterClient("recipe").request_payload("toy procedure")
        assert set(payload) == {"behavior", "system_prompt", "examples", "input"}
        assert payload["behavior"] == "recipe" and payload["input"] == "toy procedure"

    def test_unknown_behavior(self):
        with pytest.raises(ValueError):
            MockAugmenterClient("poet")


class TestBuildStepKb:
    def test_mock_deterministic(self):
        client = MockAugmenterClient("recipe")
        a = build_step_kb(["toy procedure"], client)
        b = build_step_kb(["toy procedure"], client)
        assert a == b
        assert a["toy procedure"] and all(isinstance(s, str) for s in a["toy procedure"])

    def test_empty_titles(self):
        assert build_step_kb([], MockAugmenterClient("recipe")) == {}

    def test_three_titles_order_preserved(self):
        titles = ["alpha repair", "beta removal", "gamma bypass"]
        kb = build_step_kb(titles, MockAugmenterClient("recipe"))
        assert list(kb) == titles

    def test_wrong_behavior(self):
        with pytest.raises(ValueError):
            build_step_kb(["x"], MockAugmenterClient("dictionary"))

    def test_kb_file_roundtrip(self, tmp_path):
        kb = build_step_kb(["toy procedure"], MockAugmenterClient("recipe"))
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(kb))
        assert load_step_kb(path) == kb


def tfidf_oracle(narrations, steps):
    """Independent TF-IDF cosine implementation with dict arithmetic."""
    import math

    step_tokens = [tokenize(s) for s in steps]
    vocab = sorted({t for toks in step_tokens for t in toks})
    n = len(steps)
    idf = {}
    for t in vocab:
        df = sum(1 for toks in step_tokens if t in toks)
        idf[t] = math.log((1 + n) / (1 + df)) + 1.0

    def vec(tokens):
        v = {}
        for t in tokens:
            if t in idf:
                v[t] = v.get(t, 0.0) + idf[t]
        return v

    def cos(u, v):
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0 or nv == 0:
            return 0.0
        return sum(u[t] * v.get(t, 0.0) for t in u) / (nu * nv)

    step_vecs = [vec(toks) for toks in step_tokens]
    out = []
    for narr in narrations:
        sims = [cos(vec(tokenize(narr)), sv) for sv in step_vecs]
        best = max(range(len(steps)), key=lambda i: (sims[i], -i))
        out.append(best)
    return out


class TestAssignPseudoSteps:
    STEPS = [
        "insert the trocars and prepare the field",
        "dissect the cystic duct and artery",
        "remove the gallbladder into the specimen bag",
    ]

    def test_identical_text_maps_to_itself(self):
        for idx, step in enumerate(self.STEPS):
            assert assign_pseudo_steps([step], self.STEPS) == [idx]

    def test_no_overlap_goes_to_zero(self):
        assert assign_pseudo_steps(["xylophone quartz"], self.STEPS) == [0]

    def test_matches_bruteforce_tfidf(self):
        narrations = [
            "now we dissect the duct",
            "the gallbladder goes into the bag",
            "trocars are inserted",
            "cystic artery is clipped and cut",
            "specimen removal time",
        ]
        assert assign_pseudo_steps(narrations, self.STEPS) == tfidf_oracle(narrations, self.STEPS)

    def test_indices_in_range(self):
        rng = make_rng(4)
        words = ["duct", "bag", "field", "artery", "clip", "wash"]
        narrations = [" ".join(rng.choice(words, size=3)) for _ in range(20)]
        out = assign_pseudo_steps(narrations, self.STEPS)
        assert all(0 <= i < len(self.STEPS) for i in out)

    def test_empty_steps(self):
        with pytest.raises(EmptyCorpusError):
            assign_pseudo_steps(["x"], [])


class TestAugmentText:
    def test_keystep_routes_to_dictionary(self):
        clients = mock_clients()
        text = "calot triangle dissection"
        assert augment_text(text, "keystep", clients=clients) == clients["dictionary"].complete(text)

    def test_abstract_routes_to_summarizer(self):
        clients = mock_clients()
        text = "this video shows a laparoscopic procedure with several phases"
        assert augment_text(text, "abstract", clients=clients) == clients["summarizer"].complete(text)

    def test_narration_spell_corrects_and_appends_step(self, vocab):
        kb = {"toy": ["grasp the duct", "cut the artery"]}
        out = augment_text("graspr the duct", "narration", kb=kb, vocab=vocab, title="toy")
        assert out.startswith("grasper the duct")
        assert "grasp the duct" in out

    def test_narration_without_kb(self, vocab):
        assert augment_text("graspr the duct", "narration", vocab=vocab) == "grasper the duct"

    def test_missing_client(self):
        with pytest.raises(ClientFailureError):
            augment_text("x", "keystep", clients={})

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            augment_text("x", "chapter", clients=mock_clients())


class TestSampleText:
    def test_extremes(self):
        rng = make_rng(5)
        assert all(sample_text("o", "a", 1.0, rng) == "a" for _ in range(100))
        assert all(sample_text("o", "a", 0.0, rng) == "o" for _ in range(100))

    def test_empirical_rate(self):
        rng = make_rng(6)
        n = 10_000
        hits = sum(sample_text(0, 1, 0.5, rng) for _ in range(n))
        # 99% binomial interval for p=0.5: 0.5 +- 2.576 * sqrt(0.25/n)
        half_width = 2.576 * np.sqrt(0.25 / n)
        assert 0.5 - half_width <= hits / n <= 0.5 + half_width

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            sample_text("o", "a", 1.5, make_rng(7))
