"""Pipeline benchmark: ``generate-data -> train -> eval`` through ``lecnce.cli.run``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

A run repeats rounds of the workload's pipelines until ``--seconds`` have
passed.  With ``--trace 0`` every round is untraced and the end-to-end
metrics are printed; with ``--trace 1`` untraced and traced rounds alternate
and the per-layer metrics are printed.  Each run writes
``BENCH_<workload>.json`` (``BENCH_<workload>_trace.json`` with ``--trace 1``;
medians, per-round values, checks, machine facts)
at the checkout root and keeps its outputs under ``.perfbench_runs/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, micro_grid
from yardstick import REFERENCE_S, Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEFAULT_SECONDS = 36
BRACKET = 5  # yardstick runs before each command


class MissingProgram(Exception):
    pass


def use_checkout_sources() -> None:
    """Import ``lecnce`` from this checkout's ``src/`` and from nowhere else."""
    if not (SRC / "lecnce" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources at {SRC}/lecnce")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lecnce

    if Path(lecnce.__file__).resolve().parent != SRC / "lecnce":
        raise MissingProgram(f"lecnce was imported from {lecnce.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class Ops:
    """Operations attempted (CLI commands and checks) and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed.append(f"{name}: {error}")


class StepTimer:
    """Times every ``trainer.train_step`` call, each after one yardstick run.

    Bound where ``train_run`` looks the step up; ``steps`` collects
    (level, step ms, yardstick seconds) and ``yard`` the yardstick seconds.
    """

    def __init__(self, trainer_module, yard: Yardstick):
        self.module = trainer_module
        self.original = trainer_module.train_step
        self.steps: list[tuple[str, float, float]] = []
        self.yard: list[float] = []
        self.yardstick = yard

    def reset(self) -> None:
        del self.steps[:], self.yard[:]

    def __enter__(self):
        original, steps, yard, yardstick = self.original, self.steps, self.yard, self.yardstick
        perf_counter = time.perf_counter

        def timed_step(level, *args, **kwargs):
            y = yardstick()
            yard.append(y)
            t0 = perf_counter()
            record = original(level, *args, **kwargs)
            steps.append((level, (perf_counter() - t0) * 1000.0, y))
            return record

        self.module.train_step = timed_step
        return self

    def __exit__(self, *exc):
        self.module.train_step = self.original


def _cli(argv: list[str], tracer, command: str) -> tuple[float, str | None]:
    """Run one CLI command in-process; returns (wall seconds, error or None)."""
    from lecnce import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        if tracer is None:
            t0 = time.perf_counter()
            code = cli.run(argv)
            dt = time.perf_counter() - t0
        else:
            tracer.command = command
            t0 = time.perf_counter()
            code = tracer.wrap("cli", cli.run)(argv)
            dt = time.perf_counter() - t0
            tracer.command = None
    return dt, None if code == 0 else f"exit code {code}: {out.getvalue().strip()[-300:]}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trainlog_digest(path: Path) -> str:
    """Hash of ``trainlog.csv`` without the ``wall_ms`` timing column, if it has one."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [{k: v for k, v in r.items() if k != "wall_ms"} for r in csv.DictReader(fh)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _digests(data: Path, run: Path, evaluation: Path) -> dict:
    return {
        "data.bin": _sha256(data / "data.bin"),
        "manifest.json": _sha256(data / "manifest.json"),
        "checkpoint_final.json": _sha256(run / "checkpoint_final.json"),
        "trainlog.csv": _trainlog_digest(run / "trainlog.csv"),
        "eval_report.json": _sha256(evaluation / "eval_report.json"),
    }


def run_round(workload: Workload, seeds, config: Path, work: Path, ops: Ops, yardstick: Yardstick,
              step_timer: StepTimer, tracer=None) -> dict:
    """One pass of ``generate-data -> train -> eval`` over each pipeline's seeds.

    The yardstick runs before each command and before each training step;
    the runs inside ``train`` are taken out of its wall time.  Commands are
    scaled by the round's mean yardstick time: ``eval`` and ``generate-data``
    last seconds with no yardstick run inside them.
    """
    yard = []
    times = []  # per pipeline: command -> wall seconds
    step_ms = {level: [] for level in ("clip", "phase", "video")}  # (step ms, yardstick s)
    digests = []
    pipelines = []
    for data_seed, train_seed in seeds:
        times.append({})
        base = work / f"p{data_seed}"
        shutil.rmtree(base, ignore_errors=True)
        data, run, evaluation = base / "data", base / "run", base / "eval"
        commands = (
            ("setup_s", "generate-data", ["generate-data", "--seed", str(data_seed), "--out", str(data), "--spec", str(config)]),
            ("train_s", "train", ["train", "--data", str(data), "--out", str(run), "--seed", str(train_seed), "--config", str(config)]),
            ("eval_s", "eval", ["eval", "--checkpoint", str(run / "checkpoint_final.json"), "--data", str(data),
                                "--out", str(evaluation), "--seed", str(train_seed), "--config", str(config)]),
        )
        for metric, command, argv in commands:
            yard += [yardstick() for _ in range(BRACKET)]
            step_timer.reset()
            dt, error = _cli(argv, tracer, command)
            yard += step_timer.yard
            ops.record(f"{command} (data seed {data_seed})", error)
            if error is not None:
                raise RuntimeError(f"{command} failed: {error}")
            times[-1][metric] = dt - sum(step_timer.yard)
            for level, ms, y in step_timer.steps:
                step_ms[level].append((ms, y))
        digests.append(_digests(data, run, evaluation))
        pipelines.append((data, run, evaluation, data_seed, train_seed))
    return {"times": times, "yard_s": statistics.fmean(yard), "step_ms": step_ms, "digests": digests,
            "pipelines": pipelines}


def check_first_round(workload: Workload, rnd: dict, ops: Ops) -> dict:
    """Full output checks on each pipeline; returns quality means over the pipelines."""
    import checks

    per_pipeline = []
    for data, run, evaluation, data_seed, train_seed in rnd["pipelines"]:
        resolved = json.loads((evaluation / "resolved_config.json").read_text())
        outcomes, quality = checks.check_pipeline(
            workload, data, run, evaluation, data_seed, train_seed, resolved["eval"]["retrieval_size"]
        )
        for name, error in outcomes:
            ops.record(f"check {name} (data seed {data_seed})", error)
        per_pipeline.append(quality)
    return {
        key: statistics.fmean(q[key] for q in per_pipeline) if all(q[key] is not None for q in per_pipeline) else None
        for key in ("zeroshot_acc", "recall1_t2i", "order_margin")
    }


def check_rerun(first: dict, rnd: dict, ops: Ops, traced: bool) -> None:
    """A later round's outputs are byte-identical to the first round's."""
    what = "traced rerun" if traced else "rerun"
    for (data, *_), want, got in zip(rnd["pipelines"], first["digests"], rnd["digests"]):
        differ = sorted(k for k in want if want[k] != got[k])
        ops.record(f"check {what} identical ({data.parent.name})", f"outputs differ: {differ}" if differ else None)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def scaled(seconds: float, yard_s: float) -> float:
    """A measured time in seconds of the reference machine (see yardstick.py)."""
    return seconds * REFERENCE_S / yard_s


def command_s(rounds: list[dict], key: str) -> float:
    """Median over rounds of a command's scaled time summed over the round's pipelines."""
    return _median([scaled(sum(p[key] for p in r["times"]), r["yard_s"]) for r in rounds])


def step_ms(rounds: list[dict], level: str) -> list[float]:
    """Scaled times of every step of one level in ``rounds``."""
    return [scaled(ms, y) for r in rounds for ms, y in r["step_ms"][level]]


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else _median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(untraced: list[dict], quality: dict, peak_mb: float) -> dict:
    metrics = {}
    for key in ("setup_s", "train_s", "eval_s"):
        metrics[key] = command_s(untraced, key)
    for level in ("clip", "phase", "video"):
        metrics[f"{level}_step_ms"] = _median(step_ms(untraced, level))
    metrics["peak_rss_mb"] = peak_mb
    metrics.update(quality)
    return metrics


def _round_layers(tracer, data_mb: float) -> dict:
    """Per-layer values of one traced round."""
    t = tracer
    m = {
        "datagen.generate_s": t.total_s("datagen.generate", "generate-data"),
        "datagen.save_s": t.total_s("datagen.save", "generate-data"),
        "datagen.load_s": t.total_s("datagen.load", "train") + t.total_s("datagen.load", "eval"),
        "datagen.data_mb": data_mb,
    }
    for layer, span in (("forward", "encoders.forward"), ("backward", "encoders.backward"), ("adamw", "encoders.adamw")):
        m[f"encoders.{layer}.calls"] = t.calls(span)
        m[f"encoders.{layer}.s"] = t.total_s(span)
    m["encoders.forward.rows"] = t.counter("encoders.forward", "rows")
    m["encoders.ckpt_save.calls"] = t.calls("encoders.ckpt_save")
    m["encoders.ckpt_save.s"] = t.total_s("encoders.ckpt_save")
    m["encoders.ckpt_mb"] = t.counter("encoders.ckpt_save", "mb")
    m["encoders.ckpt_load.s"] = t.total_s("encoders.ckpt_load", "eval")
    m["eval.encoders.forward.s"] = t.total_s("encoders.forward", "eval")
    m["losses.info_nce.calls"] = t.calls("losses.info_nce")
    m["losses.info_nce.s"] = t.total_s("losses.info_nce")
    m["losses.cost_build.calls"] = t.calls("losses.cost_build")
    m["losses.cost_build.s"] = t.total_s("losses.cost_build")
    m["losses.cost_backward.s"] = t.total_s("losses.cost_backward")
    m["losses.self_s"] = t.self_s("losses.clip_lecnce") + t.self_s("losses.hier_lecnce")
    hinge_calls = t.calls("losses.hinge")
    m["losses.hinge.calls"] = hinge_calls
    m["losses.hinge.active"] = t.counter("losses.hinge", "active") / hinge_calls if hinge_calls else 0.0
    m["alignment.dp.calls"] = t.calls("alignment.dp")
    m["alignment.dp.cells"] = t.counter("alignment.dp", "cells")
    m["alignment.dp.s"] = t.total_s("alignment.dp")
    m["alignment.greedy.calls"] = t.calls("alignment.greedy")
    m["alignment.greedy.s"] = t.total_s("alignment.greedy")
    m["alignment.subgradient.s"] = t.total_s("alignment.subgradient")
    m["alignment.reverse.s"] = t.total_s("alignment.reverse")
    m["numerics.as_matrix.calls"] = t.calls("numerics.as_matrix")
    m["numerics.as_matrix.s"] = t.total_s("numerics.as_matrix")
    for metric, span in (("probe", "evalkit.probe"), ("zero_shot", "evalkit.zero_shot"), ("recall", "evalkit.recall")):
        m[f"evalkit.{metric}.s"] = t.total_s(span, "eval")
    m["evalkit.pool.calls"] = t.calls("evalkit.pool", "eval")
    m["evalkit.pool.s"] = t.total_s("evalkit.pool", "eval")
    m["cli.self_s"] = sum(t.self_s("cli", cmd) for cmd in ("generate-data", "train", "eval"))
    for level in ("clip", "phase", "video"):
        m[f"trainer.steps.{level}"] = sum(1 for lvl, _, _ in t.steps if lvl == level)
        m[f"trainer.self_ms.{level}"] = _median([s * 1000.0 for lvl, _, s in t.steps if lvl == level])
    return m


def micro_grid_us(seed: int, yardstick: Yardstick, repeats: int = 5) -> dict:
    """Scaled microseconds to align B random T x N cost matrices, median of ``repeats``."""
    import numpy as np
    from lecnce.alignment import dtw_dp, dtw_greedy

    rng = np.random.default_rng(seed)
    out = {}
    for b, t, n in micro_grid():
        mats = [rng.random((t, n)) for _ in range(b)]
        for name, fn in (("dp", dtw_dp), ("greedy", dtw_greedy)):
            times = []
            for _ in range(repeats):
                yard = statistics.fmean(yardstick() for _ in range(BRACKET))
                t0 = time.perf_counter()
                for c in mats:
                    fn(c)
                times.append(scaled((time.perf_counter() - t0) * 1e6, yard))
            out[f"alignment.micro.{name}.B{b}_T{t}_N{n}_us"] = _median(times)
    return out


TIME_UNITS = ("s", "ms", "us")


def per_layer_metrics(untraced: list[dict], traced: list[tuple[dict, object]], seed: int, yardstick: Yardstick,
                      units: dict) -> dict:
    """Medians over traced rounds; times (by their unit) scaled by each round's yardstick, the rest as they are."""
    per_round = []
    for rnd, tracer in traced:
        layers = _round_layers(tracer, rnd["data_mb"])
        per_round.append({k: scaled(v, rnd["yard_s"]) if units[k] in TIME_UNITS else v for k, v in layers.items()})
    metrics = {key: _median([r[key] for r in per_round]) for key in per_round[0]}
    for level in ("clip", "phase", "video"):
        samples = step_ms(untraced, level)
        metrics[f"trainer.step_ms_p90.{level}"] = _p90(samples)
        metrics[f"trainer.step_ms_p90_n.{level}"] = len(samples)
    metrics["trace.overhead_s"] = command_s([r for r, _ in traced], "train_s") - command_s(untraced, "train_s")
    metrics.update(micro_grid_us(seed, yardstick))
    return metrics


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, units: dict) -> tuple[dict, Ops, dict]:
    """Rounds until ``seconds`` have passed; returns (metrics, ops, BENCH record)."""
    import tracing
    from lecnce import trainer

    work = RUNS / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workload.config, sort_keys=True, indent=1) + "\n")
    seeds = workload.seeds(seed)

    ops = Ops()
    untraced, traced = [], []
    first = quality = peak_mb = None
    yardstick = Yardstick()
    start = time.perf_counter()
    while True:
        use_trace = trace and len(untraced) > len(traced)
        tracer = tracing.Tracer() if use_trace else None
        # the step timer binds over the spans, so its yardstick runs stay outside them
        with tracing.traced(tracer) if use_trace else contextlib.nullcontext(), StepTimer(trainer, yardstick) as steps:
            rnd = run_round(workload, seeds, config, work, ops, yardstick, steps, tracer)
        if first is None:
            first = rnd
            # before the checks, which hold a regenerated copy of the dataset
            peak_mb = peak_rss_mb()
            quality = check_first_round(workload, rnd, ops)
        else:
            check_rerun(first, rnd, ops, traced=use_trace)
        if use_trace:
            rnd["data_mb"] = sum(sum(f.stat().st_size for f in data.iterdir()) / 1e6 for data, *_ in rnd["pipelines"])
            traced.append((rnd, tracer))
        else:
            untraced.append(rnd)
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break

    if trace:
        metrics = per_layer_metrics(untraced, traced, seed, yardstick, units)
    else:
        metrics = end_to_end_metrics(untraced, quality, peak_mb)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pipelines": seeds,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "round_times": {
            "untraced": [{"raw_s": r["times"], "yard_s": r["yard_s"]} for r in untraced],
            "traced": [{"raw_s": r["times"], "yard_s": r["yard_s"]} for r, _ in traced],
        },
        "step_ms_raw_median": {
            level: _median([ms for r in untraced for ms, _ in r["step_ms"][level]]) for level in ("clip", "phase", "video")
        },
        "reference_s": REFERENCE_S,
        "quality": quality,
        "trace_spans": [tracer.edges() for _, tracer in traced],
    }
    return metrics, ops, record


def _result_line(correct: bool, ops: Ops, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main_one(args) -> int:
    use_checkout_sources()
    workload = WORKLOADS[args.workload]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        metrics, ops, record = run_workload(workload, args.seed, args.seconds, bool(args.trace), units)
    except RuntimeError as exc:  # a CLI command failed; the failure is already recorded in ops
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = not ops.failed and all(metrics[name] is not None for name in units)
    width = max(map(len, units))
    for name, unit in units.items():
        value = metrics[name]
        print(f"{workload.name:8s} {name:{width}s} {value:>14.6g} {unit}" if value is not None else f"{name} missing")
    for failure in ops.failed:
        print(f"FAILED {failure}")
    label = f"{workload.name}{'_trace' if args.trace else ''}"
    record.update(label=label, machine=machine_facts(), metrics=metrics, units=units,
                  attempted=ops.attempted, failed=ops.failed)
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(_result_line(correct, ops, metrics, units))
    return 0 if correct else 1


def main_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged_ops, merged, units, correct = Ops(), {}, {}, True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        merged_ops.attempted += result["attempted"]
        merged_ops.failed += [name] * result["failed"]
        for metric, v in result["metrics"].items():
            merged[f"{name}.{metric}"] = v["value"]
            units[f"{name}.{metric}"] = v["unit"]
    print(_result_line(correct, merged_ops, merged, units))
    return 0 if correct else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None, help="default: every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return main_one(args) if args.workload else main_all(args)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
