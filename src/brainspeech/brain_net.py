"""Convolutional brain module: spatial attention, subject layer, dilated blocks.

The same builder also produces the speech-side tower ("deep mel"): identical
convolutional stack with the subject layer disabled and a learned input
projection instead of sensor-position attention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, asdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .numerics import (
    BatchNormState,
    Tensor,
    batchnorm1d,
    conv1d,
    gelu,
    glu,
    mix,
    no_grad,
    parameter,
    relu,
    softmax,
    spatial_logits,
    subject_mix,
)

# ablation flag -> config change; each flag disables exactly one piece
_ABLATIONS = {
    "spatial-attention-dropout": {"use_spatial_dropout": False},
    "relu": {"activation": "relu"},
    "final-convs": {"use_final_convs": False},
    "glu-conv": {"use_glu_conv": False},
    "skip-connections": {"use_skip_connections": False},
    "initial-conv": {"use_initial_conv": False},
    "spatial-attention": {"use_spatial_attention": False},
    "subject-layer": {"use_subject_layer": False},
}
ABLATION_FLAGS = tuple(_ABLATIONS)

ENCODE_ROWS = 64  # rows per forward in ``BrainNet.encode``: bounds its activations


@dataclass
class BrainNetConfig:
    in_channels: int
    out_features: int
    n_subjects: int = 1
    d1: int = 270
    d2: int = 320
    blocks: int = 5
    kernel: int = 3
    harmonics: int = 32
    drop_radius: float = 0.2
    pos_margin: float = 0.1
    use_subject_layer: bool = True
    use_spatial_attention: bool = True
    use_spatial_dropout: bool = True
    use_skip_connections: bool = True
    use_initial_conv: bool = True
    use_final_convs: bool = True
    use_glu_conv: bool = True
    activation: str = "gelu"

    def validate(self) -> None:
        for key in ("in_channels", "out_features", "n_subjects", "d1", "d2",
                    "blocks", "harmonics"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.kernel % 2 == 0:
            raise ValueError("kernel size must be odd")
        if not (0.0 <= self.drop_radius <= np.sqrt(2.0)):
            raise ValueError("drop_radius must lie in [0, sqrt(2)]")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "BrainNetConfig":
        return cls(**obj)


def build_ablation(config: BrainNetConfig, flag: str) -> BrainNetConfig:
    """Config for one ablated variant."""
    if flag not in _ABLATIONS:
        raise ValueError(f"unknown ablation flag {flag!r}; choose from {ABLATION_FLAGS}")
    return replace(config, **_ABLATIONS[flag])


def dilation_schedule(blocks: int) -> List[Tuple[int, int]]:
    return [(2 ** ((2 * k) % 5), 2 ** ((2 * k + 1) % 5)) for k in range(blocks)]


def rescaled_positions(positions: np.ndarray, margin: float) -> np.ndarray:
    return margin + (1.0 - 2.0 * margin) * np.asarray(positions, dtype=np.float64)


def fourier_basis(positions: np.ndarray, harmonics: int, margin: float,
                  dtype=np.float64) -> Tuple[np.ndarray, np.ndarray]:
    """cos/sin basis of shape (K*K, C) evaluated at rescaled sensor positions."""
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError("positions must be (C, 2)")
    if pos.min() < 0.0 or pos.max() > 1.0:
        raise ValueError("positions must lie in [0, 1]^2")
    scaled = rescaled_positions(pos, margin)
    k = np.arange(1, harmonics + 1)
    # phase[(k,l), i] = 2*pi*(k*x_i + l*y_i)
    phase = 2.0 * np.pi * (
        k[:, None, None] * scaled[None, None, :, 0]
        + k[None, :, None] * scaled[None, None, :, 1]
    ).reshape(harmonics * harmonics, -1)
    return np.cos(phase).astype(dtype), np.sin(phase).astype(dtype)


class NonFiniteActivation(RuntimeError):
    def __init__(self, layer: str):
        super().__init__(f"non-finite activations after layer {layer!r}")
        self.layer = layer


class BrainNet:
    """Parameter container plus forward pass. One instance, many subjects."""

    def __init__(self, config: BrainNetConfig, rng: Optional[np.random.Generator],
                 dtype=np.float32, prefix: str = ""):
        """``rng`` draws the initial parameters. With ``rng=None`` nothing is
        drawn: each parameter is allocated uninitialised from its shape, for a
        checkpoint load to fill."""
        config.validate()
        self.config = config
        self.dtype = dtype
        self.prefix = prefix
        self.params: Dict[str, Tensor] = {}
        self.bn_states: Dict[str, BatchNormState] = {}
        self._basis_cache: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}

        c = config
        if c.use_spatial_attention:
            std = 1.0 / c.harmonics
            for part in ("re", "im"):
                self._add(f"spatial.{part}", rng, (c.d1, c.harmonics, c.harmonics),
                          lambda r, size: r.normal(0.0, std, size=size))
        else:
            self._add_conv("input_proj", rng, c.in_channels, c.d1, 1)
        if c.use_initial_conv:
            self._add_conv("initial", rng, c.d1, c.d1, 1)
        if c.use_subject_layer:
            self._add("subject.m", rng, (c.n_subjects, c.d1, c.d1),
                      lambda r, size: np.eye(c.d1) + r.normal(0.0, 0.01, size=size))
        ch = c.d1
        for b in range(c.blocks):
            for conv, bn, cin in (("conv1", "bn1", ch), ("conv2", "bn2", c.d2)):
                self._add_conv(f"block{b}.{conv}", rng, cin, c.d2, c.kernel)
                self.bn_states[f"block{b}.{bn}"] = BatchNormState(c.d2, dtype=dtype)
                self._add(f"block{b}.{bn}.gamma", rng, (c.d2,), lambda r, size: np.ones(size))
                self._add(f"block{b}.{bn}.beta", rng, (c.d2,), lambda r, size: np.zeros(size))
            if c.use_glu_conv:
                self._add_conv(f"block{b}.conv3", rng, c.d2, 2 * c.d2, c.kernel)
            ch = c.d2
        if c.use_final_convs:
            self._add_conv("head.conv1", rng, c.d2, 2 * c.d2, 1)
            self._add_conv("head.conv2", rng, 2 * c.d2, c.out_features, 1)
        else:
            self._add_conv("head.direct", rng, c.d2, c.out_features, 1)

    def _add(self, name: str, rng: Optional[np.random.Generator], shape: Tuple[int, ...],
             init: Callable[[np.random.Generator, Tuple[int, ...]], np.ndarray]) -> None:
        """Registers parameter ``name`` holding ``init(rng, shape)``, or, when
        ``rng`` is None, an uninitialised array of ``shape``."""
        # dict keys stay unprefixed; tensor names carry the prefix for the
        # optimizer and checkpoint namespaces
        data = np.empty(shape, self.dtype) if rng is None else init(rng, shape)
        self.params[name] = parameter(np.asarray(data, dtype=self.dtype),
                                      self.prefix + name)

    def _add_conv(self, name: str, rng: Optional[np.random.Generator], cin: int, cout: int,
                  kernel: int) -> None:
        bound = 1.0 / np.sqrt(cin * kernel)
        self._add(f"{name}.w", rng, (cout, cin, kernel),
                  lambda r, size: r.uniform(-bound, bound, size=size))
        self._add(f"{name}.b", rng, (cout,), lambda r, size: r.uniform(-bound, bound, size=size))

    def parameters(self) -> List[Tensor]:
        return list(self.params.values())

    def _basis(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        key = np.ascontiguousarray(positions).tobytes()
        if key not in self._basis_cache:
            self._basis_cache[key] = fourier_basis(
                positions, self.config.harmonics, self.config.pos_margin, self.dtype
            )
        return self._basis_cache[key]

    def _dropout_keep(self, positions: np.ndarray, rng: np.random.Generator,
                      max_retries: int = 100) -> np.ndarray:
        scaled = rescaled_positions(positions, self.config.pos_margin)
        lo = scaled.min(axis=0)
        hi = scaled.max(axis=0)
        for _ in range(max_retries):
            center = rng.uniform(lo, hi)
            keep = np.hypot(*(scaled - center).T) > self.config.drop_radius
            if keep.any():
                return keep
        raise RuntimeError("spatial dropout removed every sensor; drop_radius too large")

    def attention_logits(self, positions: np.ndarray) -> Tensor:
        cos_b, sin_b = self._basis(positions)
        return spatial_logits(self.params["spatial.re"], self.params["spatial.im"], cos_b, sin_b)

    def attention_weights(self, positions: np.ndarray) -> np.ndarray:
        """Eval-mode softmax weights (no dropout), (D1, C)."""
        with no_grad():
            return softmax(self.attention_logits(positions), axis=1).data

    def encode(self, x: np.ndarray, subject_idx: np.ndarray, positions: Optional[np.ndarray],
               subject_fallback: bool = False) -> np.ndarray:
        """Eval-mode output of every row of ``x``, (B, C, T) -> (B, F, T),
        forwarded ``ENCODE_ROWS`` rows at a time without a graph. In eval mode
        a row's output depends on that row alone, so the bytes are those of
        one whole-batch forward."""
        with no_grad():
            return np.concatenate([
                self.forward(Tensor(x[i : i + ENCODE_ROWS]), subject_idx[i : i + ENCODE_ROWS],
                             positions, training=False, subject_fallback=subject_fallback).data
                for i in range(0, x.shape[0], ENCODE_ROWS)
            ])

    def forward(
        self,
        x: Tensor,
        subject_idx: np.ndarray,
        positions: Optional[np.ndarray],
        training: bool,
        rng: Optional[np.random.Generator] = None,
        update_running: bool = True,
        subject_fallback: bool = False,
    ) -> Tensor:
        """(B, C, T) -> (B, F, T). Same time length throughout."""
        c = self.config
        if x.ndim != 3 or x.shape[1] != c.in_channels:
            raise ValueError(f"expected (B, {c.in_channels}, T), got {x.shape}")

        if c.use_spatial_attention:
            if positions is None:
                raise ValueError("spatial attention requires sensor positions")
            logits = self.attention_logits(positions)
            keep = None
            if training and c.use_spatial_dropout:
                if rng is None:
                    raise ValueError("train-mode spatial dropout needs an rng")
                keep = np.broadcast_to(self._dropout_keep(positions, rng), logits.shape)
            weights = softmax(logits, axis=1, keep=keep)
            h = mix(weights, x)
        else:
            h = self._conv("input_proj", x)
        self._check(h, "spatial")

        if c.use_initial_conv:
            h = self._conv("initial", h)

        if c.use_subject_layer:
            sidx = np.asarray(subject_idx)
            m = self.params["subject.m"]
            if np.any(sidx < 0) or np.any(sidx >= c.n_subjects):
                if not subject_fallback:
                    raise IndexError(
                        "unknown subject index; pass subject_fallback=True to use the "
                        "average subject matrix"
                    )
                mean_m = m.data.mean(axis=0, keepdims=True)
                m = Tensor(np.concatenate([m.data, mean_m], axis=0))
                sidx = np.where((sidx < 0) | (sidx >= c.n_subjects), c.n_subjects, sidx)
            h = subject_mix(m, h, sidx)
        self._check(h, "subject")

        # Each layer is conv (plus the skip) then BatchNorm and the activation,
        # as two fused ops: neither the sum nor BatchNorm's output is kept.
        for b, (d_a, d_b) in enumerate(dilation_schedule(c.blocks)):
            skip = c.use_skip_connections and h.shape[1] == c.d2
            c1 = self._conv(f"block{b}.conv1", h, d_a, residual=h if skip else None)
            h1 = batchnorm1d(c1, self.params[f"block{b}.bn1.gamma"],
                             self.params[f"block{b}.bn1.beta"], self.bn_states[f"block{b}.bn1"],
                             training, update_running, activation=c.activation)
            c2 = self._conv(f"block{b}.conv2", h1, d_b,
                            residual=h1 if c.use_skip_connections else None)
            h2 = batchnorm1d(c2, self.params[f"block{b}.bn2.gamma"],
                             self.params[f"block{b}.bn2.beta"], self.bn_states[f"block{b}.bn2"],
                             training, update_running, activation=c.activation)
            h = glu(self._conv(f"block{b}.conv3", h2)) if c.use_glu_conv else h2
            self._check(h, f"block{b}")

        if c.use_final_convs:
            h = self._conv("head.conv1", h)
            h = gelu(h) if c.activation == "gelu" else relu(h)
            out = self._conv("head.conv2", h)
        else:
            out = self._conv("head.direct", h)
        self._check(out, "head")
        return out

    def _conv(self, name: str, h: Tensor, dilation: int = 1,
              residual: Optional[Tensor] = None) -> Tensor:
        """Conv ``name`` of ``h``. Nothing but backward reads ``h`` afterwards,
        so ``h`` is released: an output that its op can rebuild bitwise
        (train-mode BatchNorm, GLU, GELU) is dropped until backward, and any
        other tensor is left as it is."""
        out = conv1d(h, self.params[f"{name}.w"], self.params[f"{name}.b"], dilation=dilation,
                     residual=residual)
        h.release()
        return out

    @staticmethod
    def _check(t: Tensor, layer: str) -> None:
        if not np.all(np.isfinite(t.data)):
            raise NonFiniteActivation(layer)


def deep_mel_config(n_mels: int, out_features: int, base: BrainNetConfig) -> BrainNetConfig:
    """Speech-side tower: same conv stack, no subject layer, learned input
    projection in place of sensor attention."""
    return replace(
        base,
        in_channels=n_mels,
        out_features=out_features,
        n_subjects=1,
        use_subject_layer=False,
        use_spatial_attention=False,
        use_spatial_dropout=False,
    )
