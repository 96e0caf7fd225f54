"""One workload pass in a fresh process, so ``peak_rss_mb`` is this pass alone.

Usage: python3 perfbench/worker.py --workload NAME --data DIR --out DIR
           --seconds S --trace 0|1

Runs ingest, DataPipeline set-ups, one training and repeated evals through
the public API and writes ``result.json`` (and ``spans.json`` when traced)
into ``--out``. Untimed set-up (inputs, configs) is done by ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import BY_NAME  # noqa: E402


class Ops:
    """Operations attempted by the workload and the errors they raised."""

    def __init__(self):
        self.log = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; a raised error or a nonzero CLI status is a failed operation."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every error is recorded and counted, never hidden
            self.log.append({"op": name, "ok": False,
                             "error": "".join(traceback.format_exception_only(exc)).strip()})
            return None, False
        ok = not (name.startswith("cli.") and result != 0)
        self.log.append({"op": name, "ok": ok, **({} if ok else {"error": f"exit {result}"})})
        return result, ok


def _timed(ops: Ops, name: str, fn, *args, **kwargs):
    """Call through ``ops``; returns (result, ok, wall seconds)."""
    t0 = time.perf_counter()
    result, ok = ops.run(name, fn, *args, **kwargs)
    return result, ok, time.perf_counter() - t0


def run(args) -> dict:
    from brainspeech import cli, training
    from brainspeech.config import load_config
    from brainspeech.pipeline import DataPipeline

    wl = BY_NAME[args.workload]
    out = Path(args.out)
    data = str(Path(args.data))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def stage(name):
        return tracer.span(f"bench.{name}") if tracer else nullcontext()

    ops = Ops()
    config = load_config(str(out / "train.cfg"))
    config.dataset.root = data
    started = time.perf_counter()

    with stage("ingest"):
        ops.run("cli.ingest", cli.main, ["ingest", "--dataset", data])

    setup_times = []
    pipe = None

    def setup_once():
        nonlocal pipe
        pipe = None  # free the previous pipeline before building the next
        with stage("setup"):
            pipe, ok, dt = _timed(ops, "setup", DataPipeline, data,
                                  training.data_config_from(config))
        if ok:
            setup_times.append(dt)

    for _ in range(wl.setup_reps):
        setup_once()

    run_dir = out / "run"
    with stage("train"):
        result, train_ok, train_s = _timed(ops, "train", training.train, config, run_dir,
                                           pipeline=pipe)
    pipe = None

    eval_times = []
    eval_hashes = []

    def eval_once():
        eval_dir = out / "eval"
        shutil.rmtree(eval_dir, ignore_errors=True)
        argv = ["eval", "--checkpoint", str(run_dir / "best"), "--dataset", data,
                "--out", str(eval_dir)]
        if not wl.recon:
            argv.append("--no-recon")
        with stage("eval"):
            _, ok, dt = _timed(ops, "cli.eval", cli.main, argv)
        if ok:
            eval_times.append(dt)
            eval_hashes.append(_sha256(eval_dir / "probs.bin"))

    if train_ok:
        for _ in range(wl.eval_reps):
            eval_once()
        if wl.analyze:
            with stage("analyze"):
                ops.run("cli.analyze", cli.main,
                        ["analyze", "--report", str(out / "eval"), "--compare",
                         str(out / "eval"), "--paired", "--out", str(out / "analysis")])
        # Untraced runs use what is left of --seconds for more set-up and eval
        # samples; a traced run does the fixed work only, so its totals compare.
        while not tracer and time.perf_counter() - started < args.seconds:
            eval_once()
            setup_once()
            pipe = None

    record = {
        "workload": wl.name,
        "trace": bool(args.trace),
        "ops": ops.log,
        "setup_s": setup_times,
        "train_s": train_s if train_ok else None,
        "eval_s": eval_times,
        "eval_probs_sha256": eval_hashes,
        "epochs_run": result.epochs_run if train_ok else None,
        "history": result.history if train_ok else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measured_s": time.perf_counter() - started,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / "spans.json")
        if train_ok and eval_times:
            from layers import per_layer

            report = json.loads((out / "eval" / "report.json").read_text(encoding="utf-8"))
            record["per_layer"], record["self_s"] = per_layer(
                tracer, out, result.history, report["topk"]["1"])
    return record


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    record = run(args)
    (Path(args.out) / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
