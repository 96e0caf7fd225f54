"""Spans and counters recorded from outside the program.

``Tracer.install()`` replaces public functions at the name each caller looks
up (modules bind ops at import, so ``brainspeech.brain_net.conv1d`` is patched,
not only ``brainspeech.numerics.ops.conv1d``). Spans are kept in memory as
(name, start, end, parent) and written once at the end; per-op backward time
comes from wrapping the ``_backward`` callable of each tensor a wrapped op
returns. ``uninstall()`` restores every replaced attribute.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

OPS = ("conv1d", "batchnorm1d", "gelu", "glu", "mix", "subject_mix", "softmax",
       "pairwise_inner")

# (module path, attribute) -> span name, for plain functions.
FUNCTIONS = {
    ("brainspeech.training", "clip_loss_batch"): "objective.clip_loss",
    ("brainspeech.training", "clip_scores_eval"): "objective.scores_eval",
    ("brainspeech.evaluation.scoring", "clip_scores_eval"): "objective.scores_eval",
    ("brainspeech.evaluation.scoring", "softmax_rows"): "objective.scores_eval",
    ("brainspeech.training", "adam_step"): "numerics.adam",
    ("brainspeech.training", "save_checkpoint"): "checkpoint.save",
    ("brainspeech.cli", "load_checkpoint"): "checkpoint.load",
    ("brainspeech.cli", "validate_dataset"): "dataset.validate",
    ("brainspeech.preprocessing", "resample"): "preprocessing.resample",
    ("brainspeech.preprocessing", "preprocess_window"): "preprocessing.window",
    ("brainspeech.pipeline", "mel_spectrogram"): "speech.mel",
    ("brainspeech.pipeline", "log_compress"): "speech.mel",
    ("brainspeech.pipeline", "align_feature_rate"): "speech.align",
    ("brainspeech.cli", "score_test_set"): "evaluation.score",
    ("brainspeech.cli", "word_level_eval"): "evaluation.word_level",
    ("brainspeech.cli", "zero_shot_split"): "evaluation.word_level",
    ("brainspeech.cli", "restricted_candidates"): "evaluation.restricted",
    ("brainspeech.cli", "mel_reconstruction"): "evaluation.recon",
    ("brainspeech.cli", "topk_accuracy"): "evaluation.stats",
    ("brainspeech.cli", "per_subject_topk"): "evaluation.stats",
    ("brainspeech.cli", "wilcoxon_signed_rank"): "evaluation.stats",
    ("brainspeech.cli", "mann_whitney_u"): "evaluation.stats",
    ("brainspeech.cli", "cmd_eval"): "cli.eval",
    ("brainspeech.cli", "cmd_analyze"): "cli.analyze",
    ("brainspeech.cli", "cmd_ingest"): "cli.ingest",
    ("brainspeech.training", "train"): "training.train",
}
DATASET_READERS = ("read_manifest", "read_splits", "read_recording", "read_events",
                   "read_audio", "read_feature_file", "load_segments")
# Modules that look numerics ops up by name at call time.
OP_SITES = ("brainspeech.brain_net", "brainspeech.objective")


def _read_bytes(name: str, result) -> int:
    """Payload bytes of the binary file a reader returned (computed from shapes)."""
    if name == "read_recording":
        return int(result.signal.size) * 4
    if name == "read_audio":
        return int(result[0].size) * 2
    if name == "read_feature_file":
        return int(result[0].size) * 4
    return 0


def _conv_cost(x, w, out: np.ndarray) -> Tuple[int, int, int, int]:
    """GEMM flops and operand bytes of one conv1d, forward and backward, from shapes.

    Forward is W (Cout, Cin*k) times the im2col buffer (B, Cin*k, T); backward
    forms dW from the output gradient and the buffer, and, when the input needs
    a gradient, W^T times the output gradient.
    """
    batch, cin, t = x.shape
    cout, _, k = w.shape
    gemm = 2 * batch * cout * cin * k * t
    operands = (batch * cin * k * t * x.data.dtype.itemsize
                + cout * cin * k * w.data.dtype.itemsize + out.nbytes)
    grads = int(w.requires_grad) + int(x.requires_grad)
    return gemm, operands, grads * gemm, grads * operands


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.mel_segments: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        from brainspeech import brain_net, pipeline, preprocessing
        from brainspeech.dataset import io as dataset_io
        from brainspeech.numerics import tensor

        for site in OP_SITES:
            mod = importlib.import_module(site)
            for op in OPS:
                if hasattr(mod, op):
                    self._patch(mod, op, self._op_wrapper(op, getattr(mod, op)))
        counting = {
            "checkpoint.save": self._after_save,
            "preprocessing.resample": self._count_samples("preprocessing.resample_samples"),
            "preprocessing.window": self._count("preprocessing.windows"),
            "speech.mel": self._count("speech.mel_calls"),
        }
        for (modname, attr), span in FUNCTIONS.items():
            mod = importlib.import_module(modname)
            after = counting.get(span) if attr != "log_compress" else None
            self._patch(mod, attr, self.timed(span, getattr(mod, attr), after))
        for attr in DATASET_READERS:
            fn = getattr(dataset_io, attr)
            self._patch(dataset_io, attr, self.timed("dataset.read", fn, self._after_read(attr)))

        scaler_fit = preprocessing.ScalerParams.__dict__["fit"].__func__
        self._patch(preprocessing.ScalerParams, "fit",
                    classmethod(self.timed("preprocessing.scaler_fit", scaler_fit)))
        dp = pipeline.DataPipeline
        self._patch(dp, "__init__", self.timed("pipeline.init", dp.__init__))
        self._patch(dp, "materialize", self.timed("pipeline.materialize", dp.materialize))
        orig_segment_mel = dp.segment_mel

        def segment_mel(pipe, sid):
            self.mel_segments.append(int(sid))
            return orig_segment_mel(pipe, sid)

        self._patch(dp, "segment_mel", segment_mel)
        net = brain_net.BrainNet
        self._patch(net, "forward", self._forward_wrapper(net.forward))
        self._patch(tensor.Tensor, "backward", self._backward_wrapper(tensor.Tensor.backward))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- wrappers with counters ----------------------------------------------

    def _count(self, key: str) -> Callable:
        def after(args, kwargs, result):
            self.counters[key] += 1
        return after

    def _count_samples(self, key: str) -> Callable:
        def after(args, kwargs, result):
            self.counters[key] += int(np.asarray(args[0]).size)
        return after

    def _after_read(self, name: str) -> Callable:
        def after(args, kwargs, result):
            self.counters["dataset.read_bytes"] += _read_bytes(name, result)
        return after

    def _after_save(self, args, kwargs, result) -> None:
        self.counters["checkpoint.saves"] += 1
        self.counters["checkpoint.bytes"] = sum(
            p.stat().st_size for p in Path(result).iterdir() if p.is_file()
        )

    def _forward_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def forward(net, x, subject_idx, positions, training, *args, **kwargs):
            name = "brain_net.forward_train" if training else "brain_net.forward_eval"
            idx = tracer.open(name)
            try:
                return fn(net, x, subject_idx, positions, training, *args, **kwargs)
            finally:
                tracer.close(idx)

        return forward

    def _op_wrapper(self, op: str, fn: Callable) -> Callable:
        tracer = self
        c = self.counters
        fwd, bwd = f"numerics.{op}", f"numerics.{op}.bwd"

        def wrapper(*args, **kwargs):
            idx = tracer.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            data = out.data
            c[f"{fwd}.calls"] += 1
            c[f"{fwd}.out_bytes"] += data.nbytes
            if data.dtype == np.float64:
                c[f"{fwd}.f64_bytes"] += data.nbytes
            cost = _conv_cost(*args[:2], data) if op == "conv1d" else None
            if cost is not None:
                c["numerics.conv1d.flops"] += cost[0]
                c["numerics.conv1d.bytes"] += cost[1]
            if out._backward is not None:
                out._backward = tracer._timed_backward(bwd, out._backward, cost)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_backward(self, name: str, fn: Callable, cost) -> Callable:
        # Captures no tensor, so wrapping adds no reference cycle to the graph.
        tracer = self
        c = self.counters

        def backward(g):
            idx = tracer.open(name)
            try:
                fn(g)
            finally:
                tracer.close(idx)
            if cost is not None:
                c["numerics.conv1d.flops"] += cost[2]
                c["numerics.conv1d.bytes"] += cost[3]

        backward.__wrapped__ = fn
        return backward

    def _backward_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def backward(loss):
            with tracer.span("bench.graph_walk"):
                nodes, nbytes = graph_size(loss)
            c = tracer.counters
            c["numerics.graph_nodes"] = max(c["numerics.graph_nodes"], nodes)
            c["numerics.graph_bytes"] = max(c["numerics.graph_bytes"], nbytes)
            idx = tracer.open("numerics.backward")
            try:
                return fn(loss)
            finally:
                tracer.close(idx)

        return backward

    # -- reduction -------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        child = np.zeros_like(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return dur - child

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per span name: time not nested in a span of the same name, and self time."""
        dur = self.durations()
        selft = self.self_times()
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            own[name] += selft[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                total[name] += dur[i]
        return dict(total), dict(own)

    def write(self, path: Path) -> None:
        selft = self.self_times()
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "self": float(st)}
            for n, s, e, p, st in zip(self.names, self.starts, self.ends, self.parents, selft)
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")


def graph_size(loss) -> Tuple[int, int]:
    """Tensors reachable from ``loss`` and bytes of the distinct buffers they and
    their backward closures hold."""
    from brainspeech.numerics.tensor import Tensor

    seen_nodes = set()
    buffers: Dict[int, int] = {}
    stack = [loss]

    def add_array(a: np.ndarray) -> None:
        r = _root(a)
        buffers[id(r)] = r.nbytes

    def scan(value, depth: int = 0) -> None:
        if isinstance(value, np.ndarray):
            add_array(value)
        elif isinstance(value, Tensor):
            add_array(value.data)
            if id(value) not in seen_nodes:
                stack.append(value)
        elif isinstance(value, (tuple, list)) and depth < 2:
            for v in value:
                scan(v, depth + 1)

    while stack:
        node = stack.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        add_array(node.data)
        fn = node._backward
        fn = getattr(fn, "__wrapped__", fn)
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                scan(cell.cell_contents)
            except ValueError:  # empty cell
                pass
        for p in node._parents:
            if id(p) not in seen_nodes:
                stack.append(p)
    return len(seen_nodes), int(sum(buffers.values()))
