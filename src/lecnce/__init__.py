"""Hierarchical video-text contrastive training with DTW-based
procedure-aware regularization, small enough to verify end to end on one
CPU core.

The package trains one shared pair of tiny dual encoders on synthetic
procedural data with three nested objectives: clip-level narration
contrast plus two-view visual self-supervision, and phase/video-level
contrast regularized by a hinge between forward and temporally reversed
alignment costs.  Text augmentation, evaluation protocols (zero-shot,
retrieval, linear probing) and a CLI round out the loop.  The root
exports only ``__version__``: import from the submodules.
"""

__version__ = "0.1.0"
