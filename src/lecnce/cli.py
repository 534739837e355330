"""Command-line entry point: data generation, training, evaluation, text
augmentation and DTW inspection, driven by one strict JSON config schema.

Exit codes: 0 success, 1 validation error (bad usage, bad config, missing
inputs), 2 runtime error.  All randomness is governed by ``--seed``, the
config's ``seed``, or the ``LECNCE_SEED`` environment variable, in that
order of precedence.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

import numpy as np

from . import encoders as enc
from . import evalkit, textaug
from .alignment import CostMatrix, align, reverse_columns
from .datagen import ProcedureSpec, generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, LecnceError, UnknownKeyError
from .losses import LossConfig
from .numerics import cosine_similarity_matrix, make_rng
from .trainer import TrainConfig, train_run

SEED_ENV_VAR = "LECNCE_SEED"

CONFIG_DEFAULTS: dict = {
    "seed": None,
    "data": {
        "step_library_size": 12,
        "latent_dim": 16,
        "visual_dim": 32,
        "text_dim": 24,
        "steps_per_procedure": 6,
        "frames_per_step": 8,
        "noise_sigma": 0.1,
        "order_noise": 0.0,
        "n_procedures": 40,
        "holdout_fraction": 0.2,
    },
    "loss": {
        "temperature_infonce": 0.07,
        "beta": 0.1,
        "phi": 0.1,
        "lambda": 0.01,
        "hinge_form": "standard",
        "symmetric": True,
    },
    "train": {
        "schedule": [5, 3, 3],
        "batch_sizes": [16, 8, 4],
        "frames": [4, 16, 64],
        "epochs": 30,
        "learning_rate": 1e-3,
        "weight_decay": 0.01,
        "p_augmented": 0.5,
        "dtw_algorithm": "greedy",
        "visual_layers": [32, 32],
        "text_layers": [24, 32],
        "activation": "identity",
    },
    "eval": {
        "recall_ks": [1, 5, 10],
        "retrieval_size": 32,
        "probe_lr": 0.001,
        "probe_weight_decay": 0.0005,
        "probe_epochs": 40,
        "shots": 100,
    },
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _merge_strict(defaults: dict, overrides: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in overrides.items():
        dotted = f"{prefix}{key}"
        if key not in defaults:
            raise UnknownKeyError(f"unknown config key {dotted!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted!r} must be an object")
            out[key] = _merge_strict(defaults[key], value, prefix=f"{dotted}.")
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    """Parse and validate a config file; unknown keys are rejected by name."""
    if path is None:
        return copy.deepcopy(CONFIG_DEFAULTS)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    config = _merge_strict(CONFIG_DEFAULTS, raw)
    _check_train_section(config["train"])
    return config


def _check_train_section(train: dict) -> None:
    """Reject train values that would otherwise fail mid-run, naming the key."""
    for key in ("schedule", "batch_sizes", "frames"):
        value = train[key]
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(f"config key 'train.{key}' must list 3 values (clip, phase, video), got {value!r}")
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in train["frames"]):
        raise ConfigError(f"config key 'train.frames' entries must be integers >= 1, got {train['frames']!r}")
    lr = train["learning_rate"]
    if not (isinstance(lr, (int, float)) and not isinstance(lr, bool) and math.isfinite(lr) and lr > 0):
        raise ConfigError(f"config key 'train.learning_rate' must be a finite number > 0, got {lr!r}")


def resolve_seed(flag_seed, config: dict) -> int:
    """Precedence: --seed flag, config seed, LECNCE_SEED, then 0."""
    if flag_seed is not None:
        return int(flag_seed)
    if config.get("seed") is not None:
        return int(config["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return 0


def _loss_config(config: dict) -> LossConfig:
    section = dict(config["loss"])
    section["lambda_dtw"] = section.pop("lambda")
    return LossConfig(**section)


def _train_config(config: dict, seed: int) -> TrainConfig:
    t = config["train"]
    if t["visual_layers"][0] != config["data"]["visual_dim"]:
        raise ConfigError(
            f"train.visual_layers[0]={t['visual_layers'][0]} must equal data.visual_dim={config['data']['visual_dim']}"
        )
    if t["text_layers"][0] != config["data"]["text_dim"]:
        raise ConfigError(
            f"train.text_layers[0]={t['text_layers'][0]} must equal data.text_dim={config['data']['text_dim']}"
        )
    if t["visual_layers"][-1] != t["text_layers"][-1]:
        raise ConfigError("visual and text encoders must share the final joint dimension")
    return TrainConfig(
        loss=_loss_config(config),
        schedule=tuple(t["schedule"]),
        batch_sizes=tuple(t["batch_sizes"]),
        frames=tuple(t["frames"]),
        epochs=t["epochs"],
        learning_rate=t["learning_rate"],
        weight_decay=t["weight_decay"],
        seed=seed,
        p_augmented=t["p_augmented"],
        dtw_algorithm=t["dtw_algorithm"],
        visual_layers=tuple(t["visual_layers"]),
        text_layers=tuple(t["text_layers"]),
        activation=t["activation"],
    )


def _procedure_spec(config: dict, seed: int) -> tuple[ProcedureSpec, int, float]:
    d = dict(config["data"])
    n_procedures = d.pop("n_procedures")
    holdout_fraction = d.pop("holdout_fraction")
    return ProcedureSpec(seed=seed, **d), n_procedures, holdout_fraction


def _write_run_records(out_dir: str, config: dict, seed: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    resolved = copy.deepcopy(config)
    resolved["seed"] = seed
    with open(os.path.join(out_dir, "resolved_config.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(os.path.join(out_dir, "seed.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed}, fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate_data(args) -> int:
    config = load_config(args.spec)
    seed = resolve_seed(args.seed, config)
    spec, n_procedures, holdout_fraction = _procedure_spec(config, seed)
    train, holdout = generate_dataset(spec, n_procedures, holdout_fraction)
    save_dataset(train, holdout, args.out)
    _write_run_records(args.out, config, seed)
    n_train = sum(len(train.by_level(lvl)) for lvl in train.samples)
    n_hold = sum(len(holdout.by_level(lvl)) for lvl in holdout.samples)
    print(f"wrote {n_train} train / {n_hold} holdout samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(args.seed, config)
    cfg = _train_config(config, seed)
    train, _ = load_dataset(args.data)
    _write_run_records(args.out, config, seed)
    _, log = train_run(cfg, train, out_dir=args.out)
    totals = [r.total for r in log.records]
    print(f"trained {len(log.records)} steps; first loss {totals[0]:.4f}, last loss {totals[-1]:.4f}")
    print(f"wrote trainlog.csv and checkpoints to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(args.seed, config)
    if args.shots is not None:
        config["eval"]["shots"] = args.shots
    opts = config["eval"]
    ck = enc.load_checkpoint(args.checkpoint)
    visual, text = ck["visual"], ck["text"]
    train, holdout = load_dataset(args.data)
    truth = train.ground_truth

    run_all = not (args.zero_shot or args.retrieval or args.probe)
    report = evalkit.EvalReport()

    holdout_video_frames = np.concatenate([s.frame_features for s in holdout.by_level("video")], axis=0)
    holdout_video_labels = np.concatenate([s.step_labels for s in holdout.by_level("video")])
    frame_embs = enc.forward(visual, holdout_video_frames)

    if run_all or args.zero_shot:
        class_embs = enc.forward(text, truth.class_text_features())
        preds = evalkit.zero_shot_classify(frame_embs, class_embs)
        acc, macro, per_class = evalkit.accuracy_f1(preds, holdout_video_labels, truth.concepts.shape[0])
        report.accuracy, report.macro_f1, report.per_class_f1 = acc, macro, per_class

    # stride the held-out clips so the retrieval set covers all procedures
    all_clips = holdout.by_level("clip")
    clips = all_clips[:: max(1, len(all_clips) // opts["retrieval_size"])][: opts["retrieval_size"]]
    clip_rows = np.stack([evalkit.pool_video_embedding(enc.forward(visual, s.frame_features)) for s in clips])
    narr_rows = enc.forward(text, np.stack([s.parent_text_feature for s in clips]))
    if run_all or args.retrieval:
        sim = cosine_similarity_matrix(narr_rows, clip_rows)
        report.recall = evalkit.recall_at_k(sim, opts["recall_ks"])

    if run_all or args.probe:
        shots = float(config["eval"]["shots"])
        if not 0 < shots <= 100:
            raise ConfigError(f"eval.shots must be in (0, 100], got {shots}")
        train_videos = train.by_level("video")
        n_pick = max(1, int(np.floor(len(train_videos) * shots / 100.0)))
        picked = train_videos[:n_pick]
        feats = enc.forward(visual, np.concatenate([s.frame_features for s in picked], axis=0))
        labels = np.concatenate([s.step_labels for s in picked])
        probe = evalkit.linear_probe(
            feats,
            labels,
            lr=opts["probe_lr"],
            weight_decay=opts["probe_weight_decay"],
            epochs=opts["probe_epochs"],
            rng=make_rng(seed),
            test_features=frame_embs,
            test_labels=holdout_video_labels,
        )
        print(f"probe accuracy {probe.accuracy:.4f}  macro_f1 {probe.macro_f1:.4f}")
        if not (run_all or args.zero_shot):
            report.accuracy, report.macro_f1, report.per_class_f1 = probe.accuracy, probe.macro_f1, probe.per_class_f1

    report.modality_gap = evalkit.modality_gap(clip_rows, narr_rows)

    _write_run_records(args.out, config, seed)
    with open(os.path.join(args.out, "eval_report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(f"wrote eval_report.json to {args.out}")
    if report.accuracy is not None:
        print(f"accuracy {report.accuracy:.4f}  macro_f1 {report.macro_f1:.4f}")
    if report.recall:
        r1 = report.recall["t2i"].get(1)
        if r1 is not None:
            print(f"recall@1 t2i {r1:.4f}")
    return 0


def _cmd_augment(args) -> int:
    vocab = textaug.load_vocabulary(args.vocab) if args.vocab else None
    kb = textaug.load_step_kb(args.kb) if args.kb else None
    if args.mock:
        clients = textaug.mock_clients()
    else:
        clients = {
            b: textaug.HttpAugmenterClient(behavior=b, url=args.endpoint or "", enabled=bool(args.endpoint))
            for b in textaug.BEHAVIORS
        }
    n = 0
    with open(args.infile, "r", encoding="utf-8") as src, open(args.out, "w", encoding="utf-8") as dst:
        for line in src:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            text, level = record["text"], record["level"]
            augmented = textaug.augment_text(text, level, kb=kb, clients=clients, vocab=vocab)
            out = {"original": text, "augmented": augmented}
            if level == "narration" and kb:
                steps = next(iter(kb.values()))
                out["step_index"] = textaug.assign_pseudo_steps([augmented], steps)[0]
            dst.write(json.dumps(out, sort_keys=True) + "\n")
            n += 1
    print(f"augmented {n} records into {args.out}")
    return 0


def _cmd_dtw_inspect(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        values = payload["values"]
        beta = payload.get("beta", 0.1)
    else:
        values, beta = payload, 0.1
    cost = CostMatrix(values=np.asarray(values, dtype=np.float64), beta=beta)
    if args.reversed:
        cost = reverse_columns(cost)
    result = align(cost, args.algorithm)
    print(json.dumps({
        "cost": result.cost,
        "path": [[i, j] for i, j in result.path],
        "algorithm": args.algorithm,
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lecnce", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate-data", help="generate a synthetic procedural dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--spec", default=None, help="config file; its data section shapes the generator")
    p.set_defaults(fn=_cmd_generate_data)

    p = sub.add_parser("train", help="run the alternating hierarchical training loop")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--retrieval", action="store_true")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--shots", type=float, default=None, help="percent of training procedures for the probe")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("augment", help="augment JSON-lines text records")
    p.add_argument("--vocab", default=None)
    p.add_argument("--kb", default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mock", action="store_true", help="use the deterministic mock client")
    p.add_argument("--endpoint", default=None, help="URL of a real augmenter backend")
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("dtw-inspect", help="align a cost matrix and dump the result as JSON")
    p.add_argument("--matrix", required=True)
    p.add_argument("--algorithm", choices=("greedy", "dp"), default="greedy")
    p.add_argument("--reversed", action="store_true")
    p.set_defaults(fn=_cmd_dtw_inspect)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LecnceError, ValueError, KeyError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
