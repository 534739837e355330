"""Command-line entry point: data generation, training, evaluation, text
augmentation and DTW inspection, driven by one strict JSON config schema.

Exit codes: 0 success, 1 validation error (bad usage, bad config, missing
inputs), 2 runtime error.  All randomness is governed by ``--seed``, the
config's ``seed``, or the ``LECNCE_SEED`` environment variable, in that
order of precedence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import encoders as enc
from . import evalkit, textaug
from .alignment import CostMatrix, align, reverse_columns
from .datagen import ProcedureSpec, SplitSpec, generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, FieldValueError, InputError, LecnceError, UnknownKeyError
from .losses import LossConfig
from .numerics import cosine_similarity_matrix, make_rng
from .trainer import TrainConfig, train_run

SEED_ENV_VAR = "LECNCE_SEED"

# config section -> the dataclasses whose fields are its keys; every default
# and type comes from those fields
SECTIONS = {
    "data": (ProcedureSpec, SplitSpec),
    "loss": (LossConfig,),
    "train": (TrainConfig,),
    "eval": (evalkit.EvalConfig,),
}
NOT_CONFIG_KEYS = ("seed", "loss")  # set from the resolved seed and the loss section
KEY_ALIASES = {"lambda_dtw": "lambda"}  # field name -> config key
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _config_fields(cls):
    """(config key, field, resolved type) of each config field of ``cls``."""
    hints = typing.get_type_hints(cls)  # the annotations are strings under postponed evaluation
    return [(KEY_ALIASES.get(f.name, f.name), f, hints[f.name]) for f in dataclasses.fields(cls) if f.name not in NOT_CONFIG_KEYS]


def _is_a(value, hint) -> bool:
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _checked(key: str, value, hint):
    """``value`` if it has type ``hint``; a tuple type takes a JSON list of its length."""
    args = typing.get_args(hint)
    if args:
        n = None if args[-1] is Ellipsis else len(args)
        what = f"a list of {n or 'one or more'} entries, each {_TYPE_NAMES[args[0]]}"
        ok = isinstance(value, list) and 0 < len(value) == (n or len(value)) and all(_is_a(v, args[0]) for v in value)
    else:
        what, ok = _TYPE_NAMES[hint], _is_a(value, hint)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    return value


def _read_json(path: str, what: str, error=InputError):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{what} parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Read a config, fill in the dataclass defaults and check it whole.

    Unknown keys, wrongly typed or non-finite values, values outside a
    dataclass's range and encoder dims that do not chain with the data dims
    raise :class:`ConfigError` naming the dotted key, so every config that
    loads can run.  ``overrides`` (section -> key -> value) apply on top of
    the file, under the same checks.
    """
    raw = {} if path is None else _read_json(path, "config", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    for key in raw:
        if key != "seed" and key not in SECTIONS:
            raise UnknownKeyError(f"unknown config key {key!r}")
    seed = raw.get("seed")
    if seed is not None and not (_checked("seed", seed, int) >= 0):
        raise ConfigError(f"config key 'seed' must be >= 0, got {seed}")
    config = {"seed": seed}
    for name, classes in SECTIONS.items():
        given = raw.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config key {name!r} must be an object")
        given = {**given, **(overrides or {}).get(name, {})}
        fields = [entry for cls in classes for entry in _config_fields(cls)]
        known = {key for key, _, _ in fields}
        for key in given:
            if key not in known:
                raise UnknownKeyError(f"unknown config key '{name}.{key}'")
        config[name] = {  # a JSON list stands for a tuple, in the defaults too
            key: _checked(f"{name}.{key}", given[key], hint) if key in given
            else list(f.default) if isinstance(f.default, tuple) else f.default
            for key, f, hint in fields
        }
    _, _, train, _ = build(config)
    if train.learning_rate == 0:  # valid for a frozen-encoder step, but a run that cannot learn
        raise ConfigError("config key 'train.learning_rate' must be > 0, got 0")
    for layers, dim in (("visual_layers", "visual_dim"), ("text_layers", "text_dim")):
        if getattr(train, layers)[0] != config["data"][dim]:
            raise ConfigError(f"config key 'train.{layers}' must start with data.{dim}={config['data'][dim]}, "
                              f"got {getattr(train, layers)[0]}")
    if train.visual_layers[-1] != train.text_layers[-1]:
        raise ConfigError("config keys 'train.visual_layers' and 'train.text_layers' must end in the same joint dim")
    return config


def build(config: dict, seed: int = 0) -> tuple[ProcedureSpec, SplitSpec, TrainConfig, evalkit.EvalConfig]:
    """The dataclasses a config from :func:`load_config` describes, seeded with ``seed``."""

    def make(cls, section, **extra):
        values = config[section]
        kwargs = {f.name: tuple(values[key]) if isinstance(values[key], list) else values[key]
                  for key, f, _ in _config_fields(cls)}
        try:
            return cls(**kwargs, **extra)
        except FieldValueError as exc:
            key = KEY_ALIASES.get(exc.field, exc.field)
            raise ConfigError(f"config key '{section}.{key}' {exc.requirement}") from None

    loss = make(LossConfig, "loss")
    return (make(ProcedureSpec, "data", seed=seed), make(SplitSpec, "data"),
            make(TrainConfig, "train", loss=loss, seed=seed), make(evalkit.EvalConfig, "eval"))


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


def _write_run_records(out_dir: str, config: dict, seed: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w", encoding="utf-8") as fh:
        json.dump({**config, "seed": seed}, fh, sort_keys=True, indent=1)
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
    spec, split, _, _ = build(config, seed)
    train, holdout = generate_dataset(spec, split.n_procedures, split.holdout_fraction)
    save_dataset(train, holdout, args.out)
    _write_run_records(args.out, config, seed)
    n_train = sum(len(train.by_level(lvl)) for lvl in train.samples)
    n_hold = sum(len(holdout.by_level(lvl)) for lvl in holdout.samples)
    print(f"wrote {n_train} train / {n_hold} holdout samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(args.seed, config)
    _, _, cfg, _ = build(config, seed)
    train, _ = load_dataset(args.data)
    _write_run_records(args.out, config, seed)
    _, log = train_run(cfg, train, out_dir=args.out)
    totals = [r.total for r in log.records]
    print(f"trained {len(log.records)} steps; first loss {totals[0]:.4f}, last loss {totals[-1]:.4f}")
    print(f"wrote trainlog.csv and checkpoints to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = load_config(args.config, None if args.shots is None else {"eval": {"shots": args.shots}})
    seed = resolve_seed(args.seed, config)
    _, _, _, opts = build(config, seed)
    run_all = not (args.zero_shot or args.retrieval or args.probe)
    train, holdout = load_dataset(args.data)
    # stride the held-out clips so the retrieval set covers all procedures
    all_clips = holdout.by_level("clip")
    clips = all_clips[:: max(1, len(all_clips) // opts.retrieval_size)][: opts.retrieval_size]
    if (run_all or args.retrieval) and max(opts.recall_ks) > len(clips):
        raise ConfigError(f"config key 'eval.recall_ks' asks for recall@{max(opts.recall_ks)}, "
                          f"but the held-out retrieval set has {len(clips)} clips")
    ck = enc.load_checkpoint(args.checkpoint)
    visual, text = ck["visual"], ck["text"]
    truth = train.ground_truth
    report = evalkit.EvalReport()

    holdout_video_frames = np.concatenate([s.frame_features for s in holdout.by_level("video")], axis=0)
    holdout_video_labels = np.concatenate([s.step_labels for s in holdout.by_level("video")])
    frame_embs = enc.forward(visual, holdout_video_frames)

    if run_all or args.zero_shot:
        class_embs = enc.forward(text, truth.class_text_features())
        preds = evalkit.zero_shot_classify(frame_embs, class_embs)
        acc, macro, per_class = evalkit.accuracy_f1(preds, holdout_video_labels, truth.concepts.shape[0])
        report.accuracy, report.macro_f1, report.per_class_f1 = acc, macro, per_class

    clip_rows = np.stack([evalkit.pool_video_embedding(enc.forward(visual, s.frame_features)) for s in clips])
    narr_rows = enc.forward(text, np.stack([s.parent_text_feature for s in clips]))
    if run_all or args.retrieval:
        sim = cosine_similarity_matrix(narr_rows, clip_rows)
        report.recall = evalkit.recall_at_k(sim, opts.recall_ks)

    if run_all or args.probe:
        train_videos = train.by_level("video")
        n_pick = max(1, int(np.floor(len(train_videos) * float(opts.shots) / 100.0)))
        picked = train_videos[:n_pick]
        feats = enc.forward(visual, np.concatenate([s.frame_features for s in picked], axis=0))
        labels = np.concatenate([s.step_labels for s in picked])
        probe = evalkit.linear_probe(
            feats,
            labels,
            lr=opts.probe_lr,
            weight_decay=opts.probe_weight_decay,
            epochs=opts.probe_epochs,
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


def _read_records(path: str) -> list[tuple[str, str]]:
    """(text, level) of each non-blank line of a JSON-lines file, checked before any work."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path} line {lineno}: not a JSON record ({exc.msg})") from None
            if not (isinstance(record, dict) and isinstance(record.get("text"), str)
                    and record.get("level") in textaug.TEXT_LEVELS):
                raise InputError(f"{path} line {lineno}: a record needs a string 'text' and a 'level' "
                                 f"in {textaug.TEXT_LEVELS}, got {record!r}")
            records.append((record["text"], record["level"]))
    return records


def _cmd_augment(args) -> int:
    vocab = textaug.load_vocabulary(args.vocab) if args.vocab else None
    kb = textaug.load_step_kb(args.kb) if args.kb else None
    clients = textaug.mock_clients()
    records = _read_records(args.infile)
    with open(args.out, "w", encoding="utf-8") as dst:
        for text, level in records:
            augmented = textaug.augment_text(text, level, kb=kb, clients=clients, vocab=vocab)
            out = {"original": text, "augmented": augmented}
            if level == "narration" and kb:
                steps = next(iter(kb.values()))
                out["step_index"] = textaug.assign_pseudo_steps([augmented], steps)[0]
            dst.write(json.dumps(out, sort_keys=True) + "\n")
    print(f"augmented {len(records)} records into {args.out}")
    return 0


def _read_cost_matrix(path: str) -> CostMatrix:
    """A ``{"values": [[...]], "beta": b}`` object or a bare list of rows, checked."""
    payload = _read_json(path, "matrix")
    payload = payload if isinstance(payload, dict) else {"values": payload}
    if "values" not in payload:
        raise InputError(f"matrix file {path} has no 'values' key")
    values, beta = payload["values"], payload.get("beta", CostMatrix.beta)
    if not (_is_a(beta, float) and beta > 0):
        raise InputError(f"matrix file {path}: 'beta' must be a finite number > 0, got {beta!r}")
    try:
        return CostMatrix(values=np.asarray(values, dtype=np.float64), beta=beta)
    except (LecnceError, ValueError, TypeError) as exc:
        raise InputError(f"matrix file {path}: 'values' must be a non-empty rectangular grid of finite, "
                         f"non-negative numbers ({exc})") from None


def _cmd_dtw_inspect(args) -> int:
    cost = _read_cost_matrix(args.matrix)
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

    p = sub.add_parser("augment", help="augment JSON-lines text records with the deterministic mock clients")
    p.add_argument("--vocab", default=None)
    p.add_argument("--kb", default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
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
    except (InputError, FileNotFoundError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LecnceError, ValueError, KeyError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
