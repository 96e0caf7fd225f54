"""Per-layer metrics derived from a traced pass.

Times are totals over the traced pass's fixed work (the workload's set-up
reps, one training and its eval reps). A span nested in a span of the same
name is counted once. Counts marked "computed" come from shapes and repeat
exactly for a given workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from tracer import OPS, Tracer


def _param_count(ckpt_dir: Path) -> int:
    manifest = json.loads((ckpt_dir / "manifest.json").read_text(encoding="utf-8"))
    return int(sum(np.prod(e["shape"]) for e in manifest["params"]))


def _train_steps(tr: Tracer) -> np.ndarray:
    """Durations of forward + loss + backward + Adam, one per update."""
    steps = []
    start = None
    for i, name in enumerate(tr.names):
        if name == "brain_net.forward_train" and start is None:
            start = tr.starts[i]
        elif name == "numerics.adam" and start is not None:
            steps.append(tr.ends[i] - start)
            start = None
    return np.asarray(steps)


# Counts computed from shapes and sizes; they repeat exactly for a workload.
COMPUTED = ("numerics.conv1d.flops", "numerics.conv1d.bytes", "numerics.graph_nodes",
            "numerics.graph_bytes", "speech.mel_calls", "checkpoint.bytes",
            "brain_net.params")

# Why a per-layer metric can read 0 on a workload: the layer does no work there.
ZERO_REASONS = {
    "preprocessing.resample": "recordings are already at the 120 Hz working rate",
    "speech.mel": "targets are external features and eval runs with --no-recon",
    "evaluation.recon": "eval runs with --no-recon",
}


def zero_notes(metrics: Dict[str, float]) -> Dict[str, str]:
    """Reason for each metric that reads 0 because its layer did no work."""
    notes = {}
    for name, value in metrics.items():
        if value == 0 and not name.endswith("f64_share"):
            layer = next((k for k in ZERO_REASONS if name.startswith(k)), None)
            notes[name] = ZERO_REASONS[layer] if layer else "no call reached this layer"
        elif name == "speech.mel_unique_ratio" and not metrics.get("speech.mel_calls"):
            notes[name] = "no Mel was computed, so none was repeated: reported as 1"
    return notes


def per_layer(tr: Tracer, out_dir: Path, history,
              top1_pct: float) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics and self time per span name of one traced pass."""
    total, own = tr.totals()
    c = tr.counters
    t = lambda name: float(total.get(name, 0.0))  # noqa: E731
    m: Dict[str, float] = {}
    for op in OPS:
        key = f"numerics.{op}"
        out_bytes = c.get(f"{key}.out_bytes", 0.0)
        m[f"{key}.fwd_s"] = t(key)
        m[f"{key}.bwd_s"] = t(f"{key}.bwd")
        m[f"{key}.calls"] = c.get(f"{key}.calls", 0.0)
        m[f"{key}.out_bytes"] = out_bytes
        m[f"{key}.f64_share"] = c.get(f"{key}.f64_bytes", 0.0) / out_bytes if out_bytes else 0.0
    m["numerics.conv1d.flops"] = c.get("numerics.conv1d.flops", 0.0)
    m["numerics.conv1d.bytes"] = c.get("numerics.conv1d.bytes", 0.0)
    m["numerics.backward_s"] = t("numerics.backward")
    m["numerics.adam_s"] = t("numerics.adam")
    m["numerics.graph_nodes"] = c.get("numerics.graph_nodes", 0.0)
    m["numerics.graph_bytes"] = c.get("numerics.graph_bytes", 0.0)

    m["brain_net.forward_train_s"] = t("brain_net.forward_train")
    m["brain_net.forward_eval_s"] = t("brain_net.forward_eval")
    m["brain_net.params"] = float(_param_count(out_dir / "run" / "best"))
    m["objective.clip_loss_s"] = t("objective.clip_loss")
    m["objective.scores_eval_s"] = t("objective.scores_eval")

    steps = _train_steps(tr)
    m["training.steps"] = float(steps.size)
    m["training.step_p50_s"] = float(np.percentile(steps, 50)) if steps.size else 0.0
    m["training.step_p90_s"] = float(np.percentile(steps, 90)) if steps.size else 0.0
    m["training.self_s"] = float(own.get("training.train", 0.0))
    m["training.final_valid_loss"] = float(history[-1]["valid_loss"])

    m["checkpoint.save_s"] = t("checkpoint.save")
    m["checkpoint.saves"] = c.get("checkpoint.saves", 0.0)
    m["checkpoint.bytes"] = c.get("checkpoint.bytes", 0.0)
    m["checkpoint.load_s"] = t("checkpoint.load")

    m["pipeline.init_s"] = t("pipeline.init")
    m["pipeline.materialize_s"] = t("pipeline.materialize")
    m["dataset.read_s"] = t("dataset.read")
    m["dataset.read_bytes"] = c.get("dataset.read_bytes", 0.0)
    m["dataset.validate_s"] = t("dataset.validate")

    m["preprocessing.resample_s"] = t("preprocessing.resample")
    m["preprocessing.resample_samples"] = c.get("preprocessing.resample_samples", 0.0)
    m["preprocessing.window_s"] = t("preprocessing.window")
    m["preprocessing.windows"] = c.get("preprocessing.windows", 0.0)
    m["preprocessing.scaler_fit_s"] = t("preprocessing.scaler_fit")

    calls = len(tr.mel_segments)
    m["speech.mel_s"] = t("speech.mel")
    m["speech.mel_calls"] = c.get("speech.mel_calls", 0.0)
    # No Mel computed means no repeated Mel work: reported as 1.
    m["speech.mel_unique_ratio"] = len(set(tr.mel_segments)) / calls if calls else 1.0
    m["speech.align_s"] = t("speech.align")

    m["evaluation.score_s"] = t("evaluation.score")
    m["evaluation.word_level_s"] = t("evaluation.word_level")
    m["evaluation.restricted_s"] = t("evaluation.restricted")
    m["evaluation.recon_s"] = t("evaluation.recon")
    m["evaluation.stats_s"] = t("evaluation.stats")
    m["evaluation.test_top1_pct"] = float(top1_pct)
    m["cli.eval_self_s"] = float(own.get("cli.eval", 0.0))
    return m, {k: float(v) for k, v in sorted(own.items())}
