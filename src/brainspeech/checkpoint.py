"""Checkpoint serialization: JSON manifest plus raw float32 blobs.

``manifest.json`` carries names, shapes, seeds, the full run config, the
per-recording scaler statistics and feature normalization; ``params.bin``
holds every parameter little-endian float32 in manifest order, and
``adam.bin`` both Adam moment buffers in the same order.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .brain_net import BrainNet, BrainNetConfig
from .numerics import AdamState
from .preprocessing import ScalerParams
from .speech import FeatureStats


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _entries(brain: BrainNet, deep_mel: Optional[BrainNet], attr: str) -> List[tuple]:
    """(checkpoint name, tensor or BN state) of both nets, in file order."""
    nets = [("", brain)] + ([("deepmel.", deep_mel)] if deep_mel is not None else [])
    return [(prefix + key, getattr(net, attr)[key])
            for prefix, net in nets for key in sorted(getattr(net, attr))]


def save_checkpoint(
    out_dir,
    brain: BrainNet,
    run_config: dict,
    scalers: Dict[str, ScalerParams],
    feature_stats: FeatureStats,
    deep_mel: Optional[BrainNet] = None,
    adam: Optional[AdamState] = None,
    extra: Optional[dict] = None,
) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    params = _entries(brain, deep_mel, "params")
    entries = [{"name": name, "shape": list(p.shape)} for name, p in params]
    _atomic_write(out_dir / "params.bin",
                  b"".join(np.ascontiguousarray(p.data, dtype="<f4").tobytes()
                           for _, p in params))

    bn_entries = []
    bn_blobs = []
    for name, st in _entries(brain, deep_mel, "bn_states"):
        bn_entries.append(
            {"name": name, "channels": int(st.running_mean.shape[0]),
             "initialized": bool(st.initialized), "momentum": st.momentum,
             "eps": st.eps}
        )
        bn_blobs.append(np.ascontiguousarray(st.running_mean, dtype="<f4").tobytes())
        bn_blobs.append(np.ascontiguousarray(st.running_var, dtype="<f4").tobytes())
    _atomic_write(out_dir / "bn.bin", b"".join(bn_blobs))

    if adam is not None:
        _atomic_write(out_dir / "adam.bin", b"".join(
            np.ascontiguousarray(moments[p.name], dtype="<f4").tobytes()
            for moments in (adam.m, adam.v) for _, p in params
        ))

    manifest = {
        "format": 1,
        "config": run_config,
        "config_hash": config_hash(run_config),
        "params": entries,
        "bn": bn_entries,
        "adam": {"step": adam.step, "lr": adam.lr, "beta1": adam.beta1,
                 "beta2": adam.beta2, "eps": adam.eps} if adam is not None else None,
        "brain_config": brain.config.to_dict(),
        "deep_mel_config": deep_mel.config.to_dict() if deep_mel is not None else None,
        "scalers": {k: v.to_dict() for k, v in sorted(scalers.items())},
        "feature_stats": feature_stats.to_dict(),
        "extra": extra or {},
    }
    _atomic_write(
        out_dir / "manifest.json",
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
    )
    return out_dir


def _read_blob(path: Path, stored: List[tuple], rebuilt: List[tuple]) -> bytes:
    """The blob whose manifest entries ``stored`` must equal the rebuilt net's
    (name, shape) list, in order, and whose length must match those shapes."""
    for i, (entry, want) in enumerate(zip_longest(stored, rebuilt)):
        if entry != want:
            raise ValueError(f"manifest.json: {path.stem} entry {i} is {entry} but the "
                             f"rebuilt net has {want}")
    raw = path.read_bytes()
    expected = 4 * sum(int(np.prod(shape)) for _, shape in rebuilt)
    if len(raw) != expected:
        raise ValueError(f"{path.name}: expected {expected} bytes per manifest, found {len(raw)}")
    return raw


def load_checkpoint(ckpt_dir) -> dict:
    """Rebuild networks and preprocessing state from a checkpoint directory.

    Raises ``ValueError`` unless the manifest is format 1, names exactly the
    rebuilt networks' parameters and BatchNorm layers with their shapes, and
    every blob holds as many bytes as the manifest says. A missing manifest
    key or an unknown config field is a ``ValueError`` too.
    """
    ckpt_dir = Path(ckpt_dir)
    manifest = json.loads((ckpt_dir / "manifest.json").read_text())
    if manifest.get("format") != 1:
        raise ValueError(f"manifest.json: checkpoint format {manifest.get('format')!r} is not 1")
    try:
        return _rebuild(ckpt_dir, manifest)
    except KeyError as exc:
        raise ValueError(f"manifest.json: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"manifest.json: {exc}") from exc


def _rebuild(ckpt_dir: Path, manifest: dict) -> dict:
    brain = BrainNet(BrainNetConfig.from_dict(manifest["brain_config"]),
                     np.random.default_rng(0))
    deep_mel = None
    if manifest["deep_mel_config"] is not None:
        deep_mel = BrainNet(BrainNetConfig.from_dict(manifest["deep_mel_config"]),
                            np.random.default_rng(0), prefix="deepmel.")

    params = _entries(brain, deep_mel, "params")
    raw = _read_blob(ckpt_dir / "params.bin",
                     [(e["name"], tuple(e["shape"])) for e in manifest["params"]],
                     [(name, p.shape) for name, p in params])
    offset = 0
    for _, p in params:
        p.data = np.frombuffer(raw, "<f4", p.size, offset).reshape(p.shape).astype(np.float32)
        offset += 4 * p.size

    states = _entries(brain, deep_mel, "bn_states")
    bn_raw = _read_blob(ckpt_dir / "bn.bin",
                        [(e["name"], (2, e["channels"])) for e in manifest["bn"]],
                        [(name, (2, st.running_mean.shape[0])) for name, st in states])
    offset = 0
    for entry, (_, st) in zip(manifest["bn"], states):
        c = entry["channels"]
        st.running_mean, st.running_var = np.frombuffer(
            bn_raw, "<f4", count=2 * c, offset=offset
        ).reshape(2, c).astype(np.float32)
        st.momentum = entry["momentum"]
        st.eps = entry["eps"]
        st.initialized = entry["initialized"]
        offset += 8 * c

    return {
        "manifest": manifest,
        "config": manifest["config"],
        "brain": brain,
        "deep_mel": deep_mel,
        "scalers": {k: ScalerParams.from_dict(v) for k, v in manifest["scalers"].items()},
        "feature_stats": FeatureStats.from_dict(manifest["feature_stats"]),
    }
