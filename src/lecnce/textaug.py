"""Hierarchical text augmentation: spell correction over a frequency
vocabulary, pseudo-step knowledge bases from a pluggable augmenter client,
similarity-based step assignment, and level-specific rewrite routing.

The augmenter client abstracts a large text model with three prompted
behaviors: ``recipe`` (ordered pseudo-steps from a procedure title),
``dictionary`` (expand a short keystep into a description) and
``summarizer`` (compress an abstract).  The shipped
:class:`MockAugmenterClient` is a pure function of its input, so every
pipeline built on it is deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import ClientFailureError, EmptyCorpusError, EmptyWordError

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_LETTERS = frozenset(ALPHABET)
BEHAVIORS = ("recipe", "dictionary", "summarizer")
TEXT_LEVELS = ("narration", "keystep", "abstract")

_SYSTEM_PROMPTS = {
    "recipe": "List the ordered steps needed to complete the given procedure, one per line.",
    "dictionary": "Expand the given step name into a one-sentence description of the events, anatomy and instruments involved.",
    "summarizer": "Compress the given text to its key concepts in one short sentence.",
}


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens."""
    return re.findall(r"[a-z0-9]+", text.lower())


# ---------------------------------------------------------------------------
# vocabulary and spell correction
# ---------------------------------------------------------------------------


def load_vocabulary(path) -> dict[str, int]:
    """Read a word<TAB>frequency file into a dict."""
    vocab: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            word, freq = line.split("\t")
            vocab[word] = int(freq)
    return vocab


def _edits1(word: str) -> set[str]:
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    deletes = [l + r[1:] for l, r in splits if r]
    transposes = [l + r[1] + r[0] + r[2:] for l, r in splits if len(r) > 1]
    replaces = [l + ch + r[1:] for l, r in splits if r for ch in ALPHABET]
    inserts = [l + ch + r for l, r in splits for ch in ALPHABET]
    out = set(deletes + transposes + replaces + inserts)
    out.discard(word)
    return out


def edit_candidates(word: str, max_distance: int = 2) -> set[str]:
    """Strings reachable by at most ``max_distance`` single-character edits.

    Edits are deletions, transpositions of adjacent characters,
    replacements and insertions over a-z.  Identity results are excluded,
    and the distance-2 set is the distance-1 set united with one further
    edit of each of its members.
    """
    if not word:
        raise EmptyWordError("word must be non-empty")
    if max_distance not in (1, 2):
        raise ValueError(f"max_distance must be 1 or 2, got {max_distance}")
    one = _edits1(word)
    if max_distance == 1:
        return one
    two = set(one)
    for cand in one:
        two |= _edits1(cand)
    two.discard(word)
    return two


def spell_correct(word: str, vocab: dict[str, int]) -> str:
    """Closest vocabulary word by edit distance, highest frequency first.

    A word already in the vocabulary (or with no in-vocabulary candidate
    within two edits, or not lowercase alphabetic) is returned unchanged.
    Frequency ties break lexicographically.  The result is that of
    searching ``edit_candidates(word, 1)``, then ``edit_candidates(word, 2)``.
    """
    if word in vocab:
        return word
    if not word or not word.isalpha() or word != word.lower():
        return word
    one = _edits1(word)
    hits = [c for c in one if c in vocab]
    if not hits:
        hits = _distance2_hits(word, one, vocab)
    if hits:
        return min(hits, key=lambda w: (-vocab[w], w))
    return word


def _distance2_hits(word: str, one: set[str], vocab: dict[str, int]) -> list[str]:
    """Vocabulary words in ``edit_candidates(word, 2)``, given none is one edit away.

    Over a-z every single edit has an inverse single edit, so a word made of
    a-z is two edits from another one exactly when their one-edit sets
    meet.  Only vocabulary words within two of ``word``'s length can be
    two edits away; when they are fewer than ``word``'s one-edit
    neighbours, testing each of them is cheaper than enumerating the
    distance-2 set.
    """
    if set(word) <= _LETTERS:
        near = [w for w in vocab if abs(len(w) - len(word)) <= 2]
        if len(near) < len(one):
            # a vocabulary word with letters outside a-z is never an edit of a-z strings
            return [w for w in near if set(w) <= _LETTERS and not one.isdisjoint(_edits1(w))]
    return [c for c in edit_candidates(word, 2) if c in vocab]


# ---------------------------------------------------------------------------
# augmenter clients
# ---------------------------------------------------------------------------


def _mock_recipe(title: str) -> str:
    toks = tokenize(title) or ["procedure"]
    subject = " ".join(toks)
    steps = [
        f"prepare the operative field for {subject}",
        f"expose the {toks[0]} region",
        f"dissect and isolate the {toks[-1]}",
        f"carry out the main task of {subject}",
        f"inspect the {toks[0]} and close",
    ]
    return "\n".join(f"{i + 1}. {s}" for i, s in enumerate(steps))


def _mock_dictionary(keystep: str) -> str:
    toks = tokenize(keystep) or ["step"]
    return (
        f"{keystep.strip()}: the stage in which the operator handles "
        f"{' and '.join(toks)} using the dedicated instruments on the target anatomy"
    )


def _mock_summarizer(abstract: str) -> str:
    toks = tokenize(abstract)
    return "summary: " + " ".join(toks[:8]) if toks else "summary:"


_MOCK_FNS = {"recipe": _mock_recipe, "dictionary": _mock_dictionary, "summarizer": _mock_summarizer}


@dataclass
class MockAugmenterClient:
    """Deterministic stand-in for a text-model backend; a pure function of (behavior, input)."""

    behavior: str

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"behavior must be one of {BEHAVIORS}, got {self.behavior!r}")

    def request_payload(self, text: str) -> dict:
        return {
            "behavior": self.behavior,
            "system_prompt": _SYSTEM_PROMPTS[self.behavior],
            "examples": [],
            "input": text,
        }

    def complete(self, text: str) -> str:
        return _MOCK_FNS[self.behavior](text)


def mock_clients() -> dict[str, MockAugmenterClient]:
    """One deterministic client per behavior."""
    return {b: MockAugmenterClient(behavior=b) for b in BEHAVIORS}


# ---------------------------------------------------------------------------
# knowledge base and step assignment
# ---------------------------------------------------------------------------


def build_step_kb(titles: list[str], client) -> dict[str, list[str]]:
    """Ordered pseudo-step lists, one per title, from a recipe-behavior client."""
    if getattr(client, "behavior", None) != "recipe":
        raise ValueError(f"build_step_kb needs a recipe client, got behavior {getattr(client, 'behavior', None)!r}")
    kb: dict[str, list[str]] = {}
    for title in titles:
        try:
            text = client.complete(title)
        except ClientFailureError as exc:
            raise ClientFailureError(f"recipe generation failed for title {title!r}: {exc}") from exc
        steps = []
        for line in text.splitlines():
            line = re.sub(r"^\s*\d+[.)]\s*", "", line).strip()
            if line:
                steps.append(line)
        if not steps:
            raise ClientFailureError(f"recipe client returned no steps for title {title!r}")
        kb[title] = steps
    return kb


def load_step_kb(path) -> dict[str, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _tfidf_vectors(docs: list[list[str]], vocab: list[str], idf: np.ndarray) -> np.ndarray:
    index = {t: i for i, t in enumerate(vocab)}
    out = np.zeros((len(docs), len(vocab)))
    for r, toks in enumerate(docs):
        for t in toks:
            i = index.get(t)
            if i is not None:
                out[r, i] += 1.0
    return out * idf


def assign_pseudo_steps(narrations: list[str], steps: list[str]) -> list[int]:
    """Index of the most TF-IDF-cosine-similar step for each narration.

    IDF is fit on the step list; ties (including all-zero similarity)
    resolve to the lowest step index.
    """
    if not steps:
        raise EmptyCorpusError("step list is empty")
    step_tokens = [tokenize(s) for s in steps]
    vocab = sorted({t for toks in step_tokens for t in toks})
    n = len(steps)
    df = np.array([sum(1 for toks in step_tokens if t in toks) for t in vocab], dtype=np.float64)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    step_vecs = _tfidf_vectors(step_tokens, vocab, idf)
    step_norms = np.linalg.norm(step_vecs, axis=1)

    assignments = []
    for narr in narrations:
        vec = _tfidf_vectors([tokenize(narr)], vocab, idf)[0]
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            assignments.append(0)
            continue
        denom = np.where(step_norms > 0, step_norms * norm, 1.0)
        sims = np.where(step_norms > 0, step_vecs @ vec / denom, 0.0)
        assignments.append(int(np.argmax(sims)))
    return assignments


# ---------------------------------------------------------------------------
# level routing and sampling
# ---------------------------------------------------------------------------


def augment_text(
    text: str,
    level: str,
    kb: dict[str, list[str]] | None = None,
    clients: dict | None = None,
    vocab: dict[str, int] | None = None,
    title: str | None = None,
) -> str:
    """Rewrite one text according to its hierarchy level.

    narration: spell-correct each token against ``vocab`` and append the
    most similar pseudo-step from the knowledge base; keystep: dictionary
    expansion; abstract: summarizer compression.
    """
    if level == "narration":
        words = text.split()
        if vocab:
            words = [spell_correct(w, vocab) for w in words]
        corrected = " ".join(words)
        steps = _kb_steps(kb, title)
        if steps:
            idx = assign_pseudo_steps([corrected], steps)[0]
            return f"{corrected}. {steps[idx]}"
        return corrected
    if level == "keystep":
        return _client_for(clients, "dictionary").complete(text)
    if level == "abstract":
        return _client_for(clients, "summarizer").complete(text)
    raise ValueError(f"unknown level {level!r}; expected one of {TEXT_LEVELS}")


def _kb_steps(kb, title):
    if not kb:
        return None
    if title is not None:
        if title not in kb:
            raise KeyError(f"title {title!r} not in knowledge base")
        return kb[title]
    return next(iter(kb.values()))


def _client_for(clients, behavior: str):
    if not clients or behavior not in clients:
        raise ClientFailureError(f"no client available for behavior {behavior!r}")
    return clients[behavior]


def sample_text(original, augmented, p_augmented: float, rng: np.random.Generator):
    """Return ``augmented`` with probability ``p_augmented``, else ``original``."""
    if not 0.0 <= p_augmented <= 1.0:
        raise ValueError(f"p_augmented must be in [0, 1], got {p_augmented}")
    return augmented if rng.random() < p_augmented else original
