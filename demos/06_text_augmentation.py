"""The text side: spell correction over a frequency vocabulary, a pseudo-step
knowledge base, similarity-based step assignment, level-specific rewriting,
and stochastic selection.  The three rewrites (title -> pseudo-steps,
keystep -> description, abstract -> summary) are deterministic stand-ins for
the paper's LLM prompts.
"""

from importlib import resources

from lecnce.numerics import make_rng
from lecnce.textaug import (
    assign_pseudo_steps,
    augment_text,
    build_step_kb,
    edit_candidates,
    load_vocabulary,
    sample_text,
    spell_correct,
)

vocab = load_vocabulary(resources.files("lecnce") / "assets" / "vocab_sample.tsv")
print(f"sample vocabulary: {len(vocab)} words")

print("\n== spell correction ==")
for word in ("graspr", "disect", "galbladder", "hooook", "zzzzzz"):
    print(f"  {word!r:14s} -> {spell_correct(word, vocab)!r}")
print(f"  one-edit candidates of 'duct': {len(edit_candidates('duct', 1))}; within two edits: {len(edit_candidates('duct', 2))}")

print("\n== pseudo-step knowledge base (deterministic recipe stand-in) ==")
kb = build_step_kb(["laparoscopic gallbladder removal"])
steps = next(iter(kb.values()))
for i, step in enumerate(steps):
    print(f"  {i}. {step}")

print("\n== step assignment by TF-IDF similarity ==")
narrations = [
    "now i dissect around the gallbladder",
    "prepare the field first",
    "closing up after inspection",
]
for narr, idx in zip(narrations, assign_pseudo_steps(narrations, steps)):
    print(f"  {narr!r} -> step {idx}: {steps[idx]!r}")

print("\n== level routing ==")
print("  narration:", augment_text("graspr the duct", "narration", kb=kb, vocab=vocab))
print("  keystep:  ", augment_text("clipping cutting", "keystep"))
print("  abstract: ", augment_text(
    "this lecture demonstrates a complete laparoscopic cholecystectomy with commentary", "abstract"))

print("\n== original-vs-augmented sampling ==")
print("  (training does not call sample_text: it encodes the generated text features as they are)")
rng = make_rng(0)
picks = [sample_text("original", "augmented", 0.5, rng) for _ in range(10)]
print("  10 draws at p=0.5:", picks)
