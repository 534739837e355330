"""Hierarchical video-text contrastive training with DTW-based
procedure-aware regularization, small enough to verify end to end on one
CPU core.

The package trains one shared pair of tiny dual encoders on synthetic
procedural data with three nested objectives: clip-level narration
contrast plus two-view visual self-supervision, and phase/video-level
contrast regularized by a hinge between forward and temporally reversed
alignment costs.  Text augmentation, evaluation protocols (zero-shot,
retrieval, linear probing) and a CLI round out the loop.
"""

from . import alignment, cli, datagen, encoders, errors, evalkit, losses, numerics, textaug, trainer
from .alignment import AlignmentResult, CostMatrix, dtw_dp, dtw_greedy, dtw_subgradient, reverse_columns
from .datagen import Dataset, HierarchicalSample, ProcedureSpec, generate_dataset, split_holdout
from .encoders import EncoderParams, OptimizerState, adamw_step, backward, forward, init_params
from .evalkit import EvalReport, accuracy_f1, linear_probe, modality_gap, pool_video_embedding, recall_at_k, zero_shot_classify
from .losses import LossConfig, LossValue, build_cost_matrix, clip_lecnce, dtw_hinge, hier_lecnce, info_nce
from .numerics import cosine_similarity_matrix, finite_diff_grad, l2_normalize, make_rng, softmax_rows
from .textaug import MockAugmenterClient, assign_pseudo_steps, augment_text, build_step_kb, edit_candidates, sample_text, spell_correct
from .trainer import TrainConfig, TrainLog, train_run, train_step

__version__ = "0.1.0"
