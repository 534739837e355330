"""Command-line entry point: data generation, training, evaluation, text
augmentation and DTW inspection, driven by one strict JSON config schema.

Exit codes: 0 success, 1 validation error (bad usage, bad config, missing
or unreadable inputs), 2 runtime error.  All randomness is governed by
``--seed``, else the config's ``seed``, else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys
import typing

import numpy as np

from . import encoders as enc
from . import evalkit, textaug
from .alignment import DTW_ALGORITHMS, CostMatrix, align, reverse_columns
from .datagen import CLIP_LEN, ProcedureSpec, SplitSpec, generate_dataset, load_dataset, save_dataset
from .errors import (ConfigError, FieldValueError, InputError, LecnceError, NonFiniteError, UnknownKeyError, is_a,
                     read_json, read_text, write_file)
from .losses import LossConfig
from .trainer import TrainConfig, train_run

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


@functools.cache
def _config_fields(cls) -> tuple:
    """(config key, field, resolved type) of each config field of ``cls``, resolved once per class."""
    hints = typing.get_type_hints(cls)  # the annotations are strings under postponed evaluation
    return tuple((KEY_ALIASES.get(f.name, f.name), f, hints[f.name])
                 for f in dataclasses.fields(cls) if f.name not in NOT_CONFIG_KEYS)


def _checked(key: str, value, hint):
    """``value`` if it has type ``hint``; a tuple type takes a JSON list of its length."""
    args = typing.get_args(hint)
    if args:
        n = None if args[-1] is Ellipsis else len(args)
        what = f"a list of {n or 'one or more'} entries, each {_TYPE_NAMES[args[0]]}"
        ok = isinstance(value, list) and 0 < len(value) == (n or len(value)) and all(is_a(v, args[0]) for v in value)
    else:
        what, ok = _TYPE_NAMES[hint], is_a(value, hint)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    return value


def load_config(path: str | None) -> dict:
    """Read a config, fill in the dataclass defaults and check it whole.

    Unknown keys, wrongly typed or non-finite values, values outside a
    dataclass's range and encoder dims that do not chain with the data dims
    raise :class:`ConfigError` naming the dotted key, so every config that
    loads can run.
    """
    raw = {} if path is None else read_json(path, ConfigError)
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
    """Precedence: --seed flag, config seed, then 0; a negative --seed raises :class:`ConfigError`.

    :func:`load_config` has checked the config's seed.
    """
    if flag_seed is None:
        return config.get("seed") or 0
    if flag_seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {flag_seed}")
    return flag_seed


def _check_out_dir(out_dir: str) -> None:
    """Raise the error making ``out_dir`` would raise, before a command does any work and without making it."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out_dir)


def _write_run_records(out_dir: str, config: dict, seed: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    resolved = json.dumps({**config, "seed": seed}, sort_keys=True, indent=1)
    write_file(os.path.join(out_dir, "resolved_config.json"), resolved + "\n")
    write_file(os.path.join(out_dir, "seed.json"), json.dumps({"seed": seed}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate_data(args) -> int:
    config = load_config(args.spec)
    seed = resolve_seed(args.seed, config)
    spec, split, _, _ = build(config, seed)
    _check_out_dir(args.out)
    train, holdout = generate_dataset(spec, split.n_procedures, split.holdout_fraction)
    save_dataset(train, holdout, args.out)
    _write_run_records(args.out, config, seed)
    s = spec.steps_per_procedure
    per = s * spec.frames_per_step // CLIP_LEN + s + 1  # a procedure's clips, phases and video
    print(f"wrote {len(train.procedure_ids) * per} train / {len(holdout.procedure_ids) * per} holdout samples "
          f"to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(args.seed, config)
    _, _, cfg, _ = build(config, seed)
    _check_out_dir(args.out)
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
    _, _, _, opts = build(config, seed)
    protocols = tuple(name for name in evalkit.PROTOCOLS if getattr(args, name)) or evalkit.PROTOCOLS
    _check_out_dir(args.out)
    train, holdout = load_dataset(args.data)
    n_clips = len(evalkit.retrieval_clips(holdout, opts.retrieval_size))
    if "retrieval" in protocols and max(opts.recall_ks) > n_clips:
        raise ConfigError(f"config key 'eval.recall_ks' asks for recall@{max(opts.recall_ks)}, "
                          f"but the held-out retrieval set has {n_clips} clips")
    if "probe" in protocols and np.ptp(evalkit.probe_videos(train, opts.shots).labels) == 0:  # one step class
        raise ConfigError(f"config key 'eval.shots' gives the linear probe {opts.shots:g} % of the training videos, "
                          "which hold 1 step class; it needs at least 2")
    ck = enc.load_checkpoint(args.checkpoint)
    visual, text = ck["visual"], ck["text"]
    for what, got, other, want in (
        ("visual encoder's input dim", visual.input_dim, "data.visual_dim", train.spec.visual_dim),
        ("text encoder's input dim", text.input_dim, "data.text_dim", train.spec.text_dim),
        ("visual encoder's joint dim", visual.layer_dims[-1], "the text encoder's", text.layer_dims[-1]),
    ):
        if got != want:
            raise InputError(f"checkpoint {args.checkpoint}: its {what} is {got}, but {other} is {want}")
    report = evalkit.evaluate(visual, text, train, holdout, opts, protocols)
    probe = report.probe
    if probe is not None:
        print(f"probe accuracy {probe['accuracy']:.4f}  macro_f1 {probe['macro_f1']:.4f}  "
              f"({probe['iterations']} iterations, grad norm {probe['grad_norm']:.2e})")
        if probe["grad_norm"] >= evalkit.PROBE_TOL:
            print(f"warning: the linear probe stopped unconverged after {probe['iterations']} iterations, grad norm "
                  f"{probe['grad_norm']:.2e} >= {evalkit.PROBE_TOL:g}; eval.probe_epochs is {opts.probe_epochs}",
                  file=sys.stderr)
    _write_run_records(args.out, config, seed)
    write_file(os.path.join(args.out, "eval_report.json"), report.to_json())
    print(f"wrote eval_report.json to {args.out}")
    if report.accuracy is not None:
        print(f"accuracy {report.accuracy:.4f}  macro_f1 {report.macro_f1:.4f}")
    if 1 in report.recall.get("t2i", {}):
        print(f"recall@1 t2i {report.recall['t2i'][1]:.4f}")
    return 0


def _read_records(path: str) -> list[tuple[str, str]]:
    """(text, level) of each non-blank line of a JSON-lines file, checked before any work."""
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
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
    records = _read_records(args.infile)
    lines = []
    for text, level in records:
        if level == "narration":
            augmented, step = textaug.augment_narration(text, kb, vocab)
        else:
            augmented, step = textaug.augment_text(text, level), None
        out = {"original": text, "augmented": augmented}
        if step is not None:  # the index of the step appended to the narration
            out["step_index"] = step
        lines.append(json.dumps(out, sort_keys=True) + "\n")
    write_file(args.out, "".join(lines))
    print(f"augmented {len(records)} records into {args.out}")
    return 0


def _read_cost_matrix(path: str) -> CostMatrix:
    """A ``{"values": [[...]]}`` object or a bare list of rows, checked."""
    payload = read_json(path)
    payload = payload if isinstance(payload, dict) else {"values": payload}
    if "values" not in payload:
        raise InputError(f"matrix file {path} has no 'values' key")
    for key in payload:
        if key != "values":
            raise InputError(f"matrix file {path}: unknown key {key!r}; 'values' is the only key")
    values = payload["values"]
    grid_error = f"matrix file {path}: 'values' must be a non-empty rectangular grid of finite, non-negative numbers"
    if not (isinstance(values, list) and all(isinstance(row, list) and all(is_a(v, float) for v in row)
                                             for row in values)):
        raise InputError(f"{grid_error}, each a JSON number")
    try:
        return CostMatrix(values=np.asarray(values, dtype=np.float64))
    except (LecnceError, ValueError) as exc:
        raise InputError(f"{grid_error} ({exc})") from None


def _cmd_dtw_inspect(args) -> int:
    cost = _read_cost_matrix(args.matrix)
    if args.reversed:
        cost = reverse_columns(cost)
    try:
        result = align(cost, args.algorithm)
    except NonFiniteError as exc:
        raise InputError(f"matrix file {args.matrix}: {exc}") from None
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
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("augment", help="rewrite JSON-lines text records by level, deterministically")
    p.add_argument("--vocab", default=None)
    p.add_argument("--kb", default=None, help="title -> steps JSON; every narration is matched to its first title's steps")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("dtw-inspect", help="align a cost matrix and dump the result as JSON")
    p.add_argument("--matrix", required=True)
    p.add_argument("--algorithm", choices=tuple(DTW_ALGORITHMS), default="greedy")
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
    # a missing path, a directory given as a file or the reverse, or a file where a directory is to be
    # made is bad input; each of these OSErrors names the path in its message
    try:
        return args.fn(args)
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LecnceError, ValueError, KeyError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
