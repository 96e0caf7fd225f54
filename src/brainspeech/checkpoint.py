"""Checkpoint serialization: a JSON manifest plus one float32 state blob.

``state-<first 16 hex of its sha256>.bin`` holds every parameter, then every
BatchNorm running mean and variance, little-endian float32 in manifest order.
``manifest.json`` carries names, shapes, seeds, the run config, the scaler
statistics, the feature normalization, and the blob's name and sha256.
Replacing the manifest is a save's one commit point; older blobs are deleted
after it. So a save cut short at any point leaves the old checkpoint or the
new one, never a mix. A load checks the manifest against the rebuilt nets,
then the blob's length and sha256. Format-1 checkpoints (``params.bin``,
``bn.bin``, ``adam.bin``) are rejected: retrain them.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .brain_net import BrainNet, BrainNetConfig
from .config import Config, ConfigError
from .dataset import io as dataset_io
from .preprocessing import ScalerParams
from .speech import FeatureStats


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _atomic_write(path: Path, data: bytes) -> None:
    # os.open applies the umask to 0o666, as open() does for the other outputs;
    # tempfile.mkstemp would leave the file 0600.
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    config: Config,
    scalers: Dict[str, ScalerParams],
    feature_stats: FeatureStats,
    deep_mel: Optional[BrainNet] = None,
    extra: Optional[dict] = None,
) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    params = _entries(brain, deep_mel, "params")
    states = _entries(brain, deep_mel, "bn_states")
    arrays = [p.data for _, p in params] + [
        a for _, st in states for a in (st.running_mean, st.running_var)]
    blob = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)
    digest = hashlib.sha256(blob).hexdigest()
    blob_name = f"state-{digest[:16]}.bin"
    _atomic_write(out_dir / blob_name, blob)

    run_config = config.to_dict()
    manifest = {
        "format": 2,
        "config": run_config,
        "config_hash": config_hash(run_config),
        "blob": blob_name,
        "sha256": digest,
        "params": [{"name": name, "shape": list(p.shape)} for name, p in params],
        "bn": [{"name": name, "channels": int(st.running_mean.shape[0]),
                "initialized": bool(st.initialized), "momentum": st.momentum,
                "eps": st.eps} for name, st in states],
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
    for stale in out_dir.glob("state-*"):
        if stale.name != blob_name:
            stale.unlink()
    return out_dir


def _check_entries(what: str, stored: List[tuple], rebuilt: List[tuple]) -> None:
    """The manifest's ``what`` entries must equal the rebuilt net's, in order."""
    for i, (entry, want) in enumerate(zip_longest(stored, rebuilt)):
        if entry != want:
            raise ValueError(f"manifest.json: {what} entry {i} is {entry} but the "
                             f"rebuilt net has {want}")


def load_checkpoint(ckpt_dir) -> dict:
    """Rebuild networks, run config and preprocessing state from a checkpoint.

    Raises ``FileNotFoundError`` without ``manifest.json``,
    ``dataset.io.DatasetFormatError`` unless it is a UTF-8 JSON object, and
    ``ValueError`` unless the manifest is format 2, names exactly the rebuilt
    networks' parameters and BatchNorm layers with their shapes, and its blob
    has as many bytes as those shapes and the manifest's sha256. A missing
    manifest key or an unknown config field is a ``ValueError`` too, and a
    run config outside the ranges ``train`` enforces a ``ConfigError``
    naming the manifest and the key.
    """
    ckpt_dir = Path(ckpt_dir)
    path = ckpt_dir / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(f"missing checkpoint manifest: {path}")
    manifest = dataset_io.load_json_object(path, ())
    if manifest.get("format") != 2:
        raise ValueError(f"manifest.json: checkpoint format {manifest.get('format')!r} is not 2")
    try:
        return _rebuild(ckpt_dir, manifest)
    except ConfigError as exc:
        raise ConfigError(f"manifest.json: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"manifest.json: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"manifest.json: {exc}") from exc


def _rebuild(ckpt_dir: Path, manifest: dict) -> dict:
    config = Config.from_dict(manifest["config"])
    config.validate()
    # Nets built without an rng draw no init: the blob fills every parameter.
    brain = BrainNet(BrainNetConfig.from_dict(manifest["brain_config"]), None)
    deep_mel = None
    if manifest["deep_mel_config"] is not None:
        deep_mel = BrainNet(BrainNetConfig.from_dict(manifest["deep_mel_config"]), None,
                            prefix="deepmel.")

    params = _entries(brain, deep_mel, "params")
    states = _entries(brain, deep_mel, "bn_states")
    _check_entries("params", [(e["name"], tuple(e["shape"])) for e in manifest["params"]],
                   [(name, p.shape) for name, p in params])
    _check_entries("bn", [(e["name"], (2, e["channels"])) for e in manifest["bn"]],
                   [(name, (2, st.running_mean.shape[0])) for name, st in states])
    blob_name = manifest["blob"]
    if blob_name != Path(blob_name).name or not blob_name.startswith("state-"):
        raise ValueError(f"manifest.json: blob {blob_name!r} is not a state-* file name")
    raw = (ckpt_dir / blob_name).read_bytes()
    expected = 4 * (sum(p.size for _, p in params)
                    + sum(2 * st.running_mean.shape[0] for _, st in states))
    if len(raw) != expected:
        raise ValueError(f"{blob_name}: expected {expected} bytes per manifest, "
                         f"found {len(raw)}")
    digest = hashlib.sha256(raw).hexdigest()
    if digest != manifest["sha256"]:
        raise ValueError(f"{blob_name}: sha256 {digest} does not match the manifest's "
                         f"{manifest['sha256']}")

    offset = 0
    for _, p in params:
        p.data[...] = np.frombuffer(raw, "<f4", p.size, offset).reshape(p.shape)
        offset += 4 * p.size
    for entry, (_, st) in zip(manifest["bn"], states):
        c = entry["channels"]
        st.running_mean, st.running_var = np.frombuffer(
            raw, "<f4", 2 * c, offset).reshape(2, c).astype(np.float32)
        st.momentum = entry["momentum"]
        st.eps = entry["eps"]
        st.initialized = entry["initialized"]
        offset += 8 * c

    return {
        "config": config,
        "brain": brain,
        "deep_mel": deep_mel,
        "scalers": {k: _statistics(f"scalers[{k!r}]", ScalerParams.from_dict, v)
                    for k, v in manifest["scalers"].items()},
        "feature_stats": _statistics("feature_stats", FeatureStats.from_dict,
                                     manifest["feature_stats"]),
    }


def _statistics(entry: str, from_dict, obj):
    """``from_dict(obj)``; a ``ValueError`` names the manifest ``entry``."""
    try:
        return from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"manifest.json: {entry}: {exc}") from None
