"""Hierarchical text augmentation: spell correction over a frequency
vocabulary, pseudo-step knowledge bases, similarity-based step assignment,
and level-specific rewrite routing.

The paper prompts a large text model in three ways: a procedure title
becomes ordered pseudo-steps, a keystep a dictionary-style description,
and an abstract a summary.  Here :func:`recipe_steps`,
:func:`expand_keystep` and :func:`summarize` are deterministic stand-ins
for those prompts, pure functions of their input, so every pipeline built
on them is deterministic.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FieldValueError, InputError, read_json, read_text

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_LETTERS = frozenset(ALPHABET)
TEXT_LEVELS = ("narration", "keystep", "abstract")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens."""
    return re.findall(r"[a-z0-9]+", text.lower())


# ---------------------------------------------------------------------------
# vocabulary and spell correction
# ---------------------------------------------------------------------------


def load_vocabulary(path) -> dict[str, int]:
    """Read a word<TAB>frequency file into a dict; a malformed line raises :class:`InputError`."""
    vocab: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line:
            continue
        try:
            word, freq = line.split("\t")
            vocab[word] = int(freq)
        except ValueError:
            raise InputError(f"{path} line {lineno}: expected word<TAB>integer frequency, got {line!r}") from None
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
        raise FieldValueError("word", "must be non-empty")
    if max_distance not in (1, 2):
        raise FieldValueError("max_distance", f"must be 1 or 2, got {max_distance}")
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
# the three rewrites, the knowledge base and step assignment
# ---------------------------------------------------------------------------


def recipe_steps(title: str) -> list[str]:
    """Five ordered pseudo-steps of the procedure named by ``title``."""
    toks = tokenize(title) or ["procedure"]
    subject = " ".join(toks)
    return [
        f"prepare the operative field for {subject}",
        f"expose the {toks[0]} region",
        f"dissect and isolate the {toks[-1]}",
        f"carry out the main task of {subject}",
        f"inspect the {toks[0]} and close",
    ]


def expand_keystep(keystep: str) -> str:
    """A dictionary-style description of a short keystep."""
    toks = tokenize(keystep) or ["step"]
    return (
        f"{keystep.strip()}: the stage in which the operator handles "
        f"{' and '.join(toks)} using the dedicated instruments on the target anatomy"
    )


def summarize(abstract: str) -> str:
    """The first eight tokens of an abstract behind a ``summary:`` tag."""
    toks = tokenize(abstract)
    return "summary: " + " ".join(toks[:8]) if toks else "summary:"


def build_step_kb(titles: list[str]) -> dict[str, list[str]]:
    """Ordered pseudo-step lists, one per title."""
    return {title: recipe_steps(title) for title in titles}


def load_step_kb(path) -> dict[str, list[str]]:
    """Read a JSON object of title -> non-empty list of steps; anything else raises :class:`InputError`."""
    kb = read_json(path)
    if not isinstance(kb, dict):
        raise InputError(f"{path}: a knowledge base must be a JSON object, got a {type(kb).__name__}")
    for title, steps in kb.items():
        if not (isinstance(steps, list) and steps and all(isinstance(step, str) for step in steps)):
            raise InputError(f"{path}: steps of title {title!r} must be a non-empty list of strings, got {steps!r}")
    return kb


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
        raise FieldValueError("steps", "must be non-empty")
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


def augment_narration(text: str, kb: dict[str, list[str]] | None, vocab: dict[str, int] | None) -> tuple[str, int | None]:
    """A narration as :func:`augment_text` rewrites it, and the index of the step appended to it (None without ``kb``)."""
    words = text.split()
    if vocab:
        words = [spell_correct(w, vocab) for w in words]
    corrected = " ".join(words)
    if not kb:
        return corrected, None
    steps = next(iter(kb.values()))
    idx = assign_pseudo_steps([corrected], steps)[0]
    return f"{corrected}. {steps[idx]}", idx


def augment_text(text: str, level: str, kb: dict[str, list[str]] | None = None, vocab: dict[str, int] | None = None) -> str:
    """Rewrite one text according to its hierarchy level.

    narration: spell-correct each token against ``vocab`` and append the
    most similar pseudo-step of the knowledge base's first title
    (:func:`augment_narration`); keystep: :func:`expand_keystep`;
    abstract: :func:`summarize`.
    """
    if level == "narration":
        return augment_narration(text, kb, vocab)[0]
    if level == "keystep":
        return expand_keystep(text)
    if level == "abstract":
        return summarize(text)
    raise FieldValueError("level", f"must be one of {TEXT_LEVELS}, got {level!r}")


def sample_text(original, augmented, p: float, rng: np.random.Generator):
    """Return ``augmented`` with probability ``p``, else ``original``."""
    if not 0.0 <= p <= 1.0:
        raise FieldValueError("p", f"must be in [0, 1], got {p}")
    return augmented if rng.random() < p else original
