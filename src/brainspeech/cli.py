"""Command-line entry point.

Subcommands: ``ingest`` (validate a dataset root), ``synth`` (generate the
synthetic dataset), ``train``, ``eval``, ``analyze`` (prediction analysis
and statistics), ``attention-dump``. Every run with an ``--out`` directory
writes ``run.json`` with the effective config, seeds and wall time. Inputs
are never mutated; failures exit nonzero with one machine-parseable line
``error category=<cat>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import json
import logging
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint
from .config import ConfigError, load_config, parse_value
from .dataset import SynthSpec, generate_synthetic
from .dataset import io as dataset_io
from .dataset.validate import validate_dataset
from .evaluation import (
    mann_whitney_u,
    mel_reconstruction,
    per_subject_topk,
    prediction_analysis,
    restricted_candidates,
    score_test_set,
    topk_accuracy,
    wilcoxon_signed_rank,
    word_level_eval,
    zero_shot_split,
)
from .pipeline import DataPipeline
from .training import TrainingAborted, data_config_from, train

logger = logging.getLogger(__name__)


class CliError(RuntimeError):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


@functools.lru_cache(maxsize=None)
def _source_revision() -> Optional[str]:
    """The short git revision of the source tree, looked up once per process
    (a ``git`` call costs a few ms); None outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return rev.stdout.strip() if rev.returncode == 0 else None


def _version_stamp() -> dict:
    stamp = {"version": __version__}
    rev = _source_revision()
    if rev is not None:
        stamp["git"] = rev
    return stamp


def _write_run_json(out_dir: Path, command: str, config: dict, started: float,
                    extra: Optional[dict] = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "wall_time_s": round(time.time() - started, 3),
        **_version_stamp(),
    }
    if extra:
        payload.update(extra)
    dataset_io.dump_json(out_dir / "run.json", payload)


def _load_synth_spec(path: str) -> SynthSpec:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise CliError("io", f"synth spec not found: {path}")
    if "synth" not in parser:
        raise CliError("config", f"{path}: missing [synth] section")
    spec = SynthSpec()
    valid = {f.name for f in dataclasses.fields(SynthSpec)}
    for key, raw in parser.items("synth"):
        if key not in valid:
            raise CliError("config", f"{path}: unknown synth key {key!r}")
        setattr(spec, key, parse_value(f"synth.{key}", raw, getattr(spec, key)))
    return spec


def cmd_synth(args) -> int:
    started = time.time()
    spec = _load_synth_spec(args.spec)
    info = generate_synthetic(spec, Path(args.out))
    _write_run_json(Path(args.out), "synth", dataclasses.asdict(spec), started,
                    extra={"result": info})
    print(json.dumps(info))
    return 0


def cmd_ingest(args) -> int:
    manifest = validate_dataset(args.dataset)
    print(f"ok: {manifest['name']} ({len(manifest['subjects'])} subjects, "
          f"{manifest['channels']} channels)")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    config = load_config(args.config, args.set)
    if args.dataset:
        config.dataset.root = args.dataset
    if not config.dataset.root:
        raise CliError("config", "dataset.root is not set")
    out_dir = Path(args.out)
    try:
        result = train(config, out_dir)
    except TrainingAborted as exc:
        _write_run_json(out_dir, "train", config.to_dict(), started,
                        extra={"aborted": str(exc)})
        raise CliError("training", str(exc))
    _write_run_json(
        out_dir, "train", config.to_dict(), started,
        extra={"best_epoch": result.best_epoch,
               "best_valid_loss": result.best_valid_loss,
               "epochs_run": result.epochs_run,
               "checkpoint": str(result.checkpoint_dir)},
    )
    print(f"best epoch {result.best_epoch} valid loss {result.best_valid_loss:.6f}")
    return 0


def _pipeline_for_checkpoint(ckpt: dict, dataset_root: str) -> DataPipeline:
    manifest = dataset_io.read_manifest(Path(dataset_root))
    n_channels = ckpt["brain"].config.in_channels
    if manifest["channels"] != n_channels:
        raise CliError(
            "config",
            f"checkpoint was trained on {n_channels} channels but dataset "
            f"{dataset_root} has {manifest['channels']}; train a matching-channel model",
        )
    stored = ckpt["scalers"]
    rec_ids = set(dataset_io.recording_ids(Path(dataset_root)))
    scalers = stored if set(stored) == rec_ids else None
    pipeline = DataPipeline(dataset_root, data_config_from(ckpt["config"]), scalers=scalers,
                            feature_stats=ckpt["feature_stats"])
    if scalers is None:  # logged once the build has accepted the recordings
        logger.warning("dataset recordings differ from checkpoint; refitted scalers")
    return pipeline


def cmd_eval(args) -> int:
    started = time.time()
    ckpt = load_checkpoint(args.checkpoint)
    config = ckpt["config"]
    pipeline = _pipeline_for_checkpoint(ckpt, args.dataset)
    objective = config.training.objective
    report = score_test_set(
        ckpt["brain"], pipeline, objective=objective, deep_mel=ckpt["deep_mel"],
        subject_fallback=args.subject_fallback,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    wl = word_level_eval(report)
    per_subject = per_subject_topk(report, min(10, report.n_candidates))
    subj_vals = np.array(list(per_subject.values()), dtype=float)
    restricted_n = min(config.eval.restricted_n, report.n_candidates)
    zero_shot = zero_shot_split(wl, pipeline.train_vocabulary())
    payload = {
        "dataset": str(args.dataset),
        "checkpoint": str(args.checkpoint),
        "objective": objective,
        "n_trials": report.n_trials,
        "n_candidates": report.n_candidates,
        "topk": {
            str(k): topk_accuracy(report, k)
            for k in sorted({1, min(10, report.n_candidates),
                             *[k for k in config.eval.topk
                               if k <= report.n_candidates]})
        },
        "tie_trials": report.tie_trials,
        "duplicate_candidates": report.duplicate_candidates,
        "per_subject_top10": {str(k): v for k, v in per_subject.items()},
        "subject_mean_top10": float(subj_vals.mean()),
        "subject_sem_top10": float(subj_vals.std(ddof=1) / np.sqrt(len(subj_vals)))
        if len(subj_vals) > 1 else 0.0,
        "word_level": {"top1": wl.top1, "top10": wl.top10,
                       "vocabulary": len(wl.word_order)},
        "restricted": restricted_candidates(report, n=restricted_n,
                                            seed=config.eval.restricted_seed)
        if restricted_n >= 2 else None,
        "zero_shot": zero_shot,
        "true_word_prob": [float(v) for v in wl.true_word_prob()],
        "trial_subjects": [int(s) for s in report.trial_subjects],
        "trial_true_index": [int(i) for i in report.true_index],
    }
    dataset_io.dump_json(out_dir / "report.json", payload)

    probs32 = np.ascontiguousarray(report.probs, dtype="<f4")
    (out_dir / "probs.bin").write_bytes(probs32.tobytes())
    dataset_io.dump_json(out_dir / "probs.json", {
        "trials": report.n_trials, "candidates": report.n_candidates, "dtype": "<f4",
        "candidate_ids": report.candidate_ids, "anchor_words": report.anchor_words})

    with open(out_dir / "words.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "word", "prob", "log_prob", "is_true"])
        for t in range(wl.word_probs.shape[0]):
            for w_idx, word in enumerate(wl.word_order):
                p = wl.word_probs[t, w_idx]
                writer.writerow([
                    t, word, f"{p:.8e}",
                    f"{np.log(max(p, 1e-300)):.6f}",
                    int(w_idx == wl.true_word_index[t]),
                ])

    if not args.no_recon:
        cand_mels = np.stack(
            [pipeline.log_mel(sid) for sid in report.candidate_ids]
        )
        recon = mel_reconstruction(report, cand_mels)
        recon_dir = out_dir / "recon"
        recon_dir.mkdir(exist_ok=True)
        for t in range(recon.shape[0]):
            (recon_dir / f"{t}.bin").write_bytes(
                np.ascontiguousarray(recon[t], dtype="<f4").tobytes()
            )
        dataset_io.dump_json(recon_dir / "recon.json", {
            "trials": int(recon.shape[0]), "shape": list(recon.shape[1:]), "dtype": "<f4"})

    _write_run_json(out_dir, "eval", config.to_dict(), started,
                    extra={"topk": payload["topk"]})
    print(json.dumps({"topk": payload["topk"], "word_top10": wl.top10}))
    return 0


def _load_feature_tables(table_dir: Path) -> dict:
    tables = {}
    for path in sorted(table_dir.glob("*.csv")):
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        tables[path.stem] = rows
    if not tables:
        raise CliError("io", f"no feature tables (*.csv) under {table_dir}")
    return tables


# The report.json keys ``analyze`` reads, each a JSON object or array of numbers.
_REPORT_NUMBERS = {"per_subject_top10": dict, "true_word_prob": list, "trial_subjects": list}


def _read_report(eval_dir: str, keys: tuple) -> dict:
    """``report.json`` of an eval output directory: an object holding ``keys``,
    each as :data:`_REPORT_NUMBERS` says."""
    path = Path(eval_dir) / "report.json"
    if not path.exists():
        raise CliError("io", f"missing report: {path}")
    report = dataset_io.load_json_object(path, keys)
    for key in keys:
        kind, value = _REPORT_NUMBERS[key], report[key]
        if not (isinstance(value, kind) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in (value.values() if kind is dict else value))):
            what = "object" if kind is dict else "array"
            raise CliError("format", f"{path}: {key} is not a JSON {what} of numbers")
    return report


def cmd_analyze(args) -> int:
    started = time.time()
    if not args.features and not args.compare:
        raise CliError("usage", "nothing to analyze: pass --features and/or --compare")
    keys = ("true_word_prob", "trial_subjects") if args.features else ()
    keys += ("per_subject_top10",) if args.compare else ()
    report = _read_report(args.report, keys)
    out = {"report": str(args.report)}

    if args.features:
        tables = _load_feature_tables(Path(args.features))
        analysis = prediction_analysis(
            np.array(report["true_word_prob"]),
            tables,
            subjects=np.array(report["trial_subjects"]),
        )
        out["prediction_analysis"] = {
            "pearson_r": analysis.per_feature_r,
            "per_subject_r": {
                name: {str(k): v for k, v in subs.items()}
                for name, subs in analysis.per_subject_r.items()
            },
            "sem": analysis.sem,
        }

    if args.compare:
        other = _read_report(args.compare, ("per_subject_top10",))
        a = report["per_subject_top10"]
        b = other["per_subject_top10"]
        if args.paired:
            keys = sorted(set(a) & set(b))
            if not keys:
                raise CliError("invalid", "no shared subjects for a paired comparison")
            res = wilcoxon_signed_rank([a[k] for k in keys], [b[k] for k in keys])
            out["comparison"] = {"test": "wilcoxon", "subjects": keys,
                                 "p": res.p, "statistic": res.statistic,
                                 "method": res.method, "flags": res.flags}
        else:
            res = mann_whitney_u(sorted(a.values()), sorted(b.values()))
            out["comparison"] = {"test": "mann-whitney", "p": res.p,
                                 "statistic": res.statistic, "method": res.method,
                                 "flags": res.flags}

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_io.dump_json(out_dir / "analysis.json", out)
    _write_run_json(out_dir, "analyze", {"report": str(args.report)}, started)
    print(json.dumps({k: v for k, v in out.items() if k != "report"}))
    return 0


def cmd_attention_dump(args) -> int:
    started = time.time()
    ckpt = load_checkpoint(args.checkpoint)
    brain = ckpt["brain"]
    if not brain.config.use_spatial_attention:
        raise CliError("invalid", "checkpoint was trained without spatial attention")
    root = Path(args.dataset)
    manifest = dataset_io.read_manifest(root)
    rec = dataset_io.read_recording_info(root, dataset_io.recording_ids(root)[0], manifest)
    weights = brain.attention_weights(rec.positions)  # (D1, C)
    mean_w = weights.mean(axis=0)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sensor", "x", "y", "mean_weight"])
        for i, name in enumerate(rec.channel_names):
            writer.writerow([name, f"{rec.positions[i, 0]:.6f}",
                             f"{rec.positions[i, 1]:.6f}", f"{mean_w[i]:.8e}"])
    if args.run_dir:
        _write_run_json(Path(args.run_dir), "attention-dump",
                        {"checkpoint": str(args.checkpoint)}, started)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brainspeech",
        description="Contrastive decoding of speech segments from brain recordings",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="INI file with a [synth] section")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="validate a dataset root")
    p.add_argument("--dataset", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train a decoder")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dataset", help="override dataset.root")
    p.add_argument("--set", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="config override")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score the test split with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subject-fallback", action="store_true",
                   help="map unseen subjects to the average subject matrix")
    p.add_argument("--no-recon", action="store_true",
                   help="skip Mel reconstruction outputs")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("analyze", help="prediction analysis and statistics")
    p.add_argument("--report", required=True, help="eval output directory")
    p.add_argument("--out", required=True)
    p.add_argument("--features", help="directory of per-trial feature tables (*.csv)")
    p.add_argument("--compare", help="second eval output directory")
    p.add_argument("--paired", action="store_true",
                   help="Wilcoxon across shared subjects (default: Mann-Whitney)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("attention-dump", help="export spatial-attention weights")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--run-dir", help="directory for run.json")
    p.set_defaults(fn=cmd_attention_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error category={exc.category}: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error category=config: {exc}", file=sys.stderr)
        return 1
    except dataset_io.DatasetFormatError as exc:
        print(f"error category=format: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error category=io: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error category=invalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
