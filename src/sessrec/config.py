"""Flat dotted-key configuration with presets and schema validation.

A config is a plain dict of dotted keys. `resolve` merges four layers,
schema defaults <- base (a JSON file) <- preset <- overrides, and hands the
merged dict to `validate`, the one place where unknown keys are rejected and
each value is coerced from a string or JSON value (so CLI overrides and JSON
files share one schema). Every run writes back its fully resolved snapshot
for bit-exact reruns; validating a resolved config returns it unchanged.

Presets expand to the standard experiment grid: the `sasrec*` rows train
with pointwise/pairwise losses over sessionwise negative pools, while the
`tron*` rows combine batchwise uniform negatives, sessionwise in-batch
negatives, a listwise loss, and top-100 filtering.
"""

from __future__ import annotations

import json
from pathlib import Path

from .data import atomic_write
from .errors import ConfigError


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if str(value).lower() in ("1", "true", "yes", "on"):
        return True
    if str(value).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _choice(*options):
    def cast(value):
        if value not in options:
            raise ValueError(f"expected one of {options}, got {value!r}")
        return value

    return cast


def _optional_str(value):
    return None if value in (None, "", "none") else str(value)


# key -> (default, caster)
SCHEMA: dict[str, tuple] = {
    "data.input": (None, _optional_str),
    "data.format": ("session-json-lines", _choice("session-json-lines", "event-csv")),
    "data.min_support": (5, int),
    "data.min_len": (2, int),
    "data.holdout_days": (7.0, float),
    "data.support_scope": ("all", _choice("all", "train")),
    "data.fraction": (1.0, float),
    "data.max_len": (50, int),
    "model.hidden_dim": (200, int),
    "model.num_layers": (2, int),
    "model.num_heads": (1, int),
    "model.dropout": (0.1, float),
    "model.prenorm": (False, _bool),
    "train.epochs": (10, int),
    "train.batch_size": (128, int),
    "train.lr": (1e-3, float),
    "train.beta1": (0.9, float),
    "train.beta2": (0.98, float),
    "train.eps": (1e-8, float),
    "train.clip_norm": (0.0, float),
    "train.seed": (0, int),
    "train.preset": (None, _optional_str),
    "train.trim_batches": (True, _bool),
    "negs.uniform.count": (1, int),
    "negs.uniform.granularity": ("elementwise", _choice("elementwise", "sessionwise", "batchwise")),
    "negs.frequency.count": (0, int),
    "negs.frequency.granularity": ("batchwise", _choice("elementwise", "sessionwise", "batchwise")),
    "negs.inbatch.count": (0, int),
    "negs.inbatch.pool": ("multiset", _choice("multiset", "distinct")),
    "negs.topk": (0, int),
    "loss": ("bce", _choice("bce", "bpr-max", "ssm")),
    "loss.bpr_max.lambda": (1.0, float),
    "eval.k": (20, int),
    "eval.average": ("transition", _choice("transition", "session")),
    "eval.chunk_size": (0, int),
    "eval.batch_size": (256, int),
}

# The standard experiment grid. Whether the sasrec variants drew their
# uniform negatives sessionwise or elementwise is not pinned anywhere, so the
# grid uses sessionwise (pairing them with the sessionwise in-batch draws);
# override `negs.uniform.granularity` to explore alternatives.
PRESETS: dict[str, dict] = {
    "sasrec": {
        "loss": "bce",
        "negs.uniform.count": 1,
        "negs.uniform.granularity": "elementwise",
        "negs.inbatch.count": 0,
        "negs.topk": 0,
    },
    "sasrec-m-negs": {
        "loss": "bce",
        "negs.uniform.count": 512,
        "negs.uniform.granularity": "sessionwise",
        "negs.inbatch.count": 16,
        "negs.topk": 0,
    },
    "sasrec-l-negs": {
        "loss": "bce",
        "negs.uniform.count": 8192,
        "negs.uniform.granularity": "sessionwise",
        "negs.inbatch.count": 127,
        "negs.topk": 0,
    },
    "sasrec-bpr-max": {
        "loss": "bpr-max",
        "negs.uniform.count": 8192,
        "negs.uniform.granularity": "sessionwise",
        "negs.inbatch.count": 127,
        "negs.topk": 0,
    },
    "sasrec-ssm": {
        "loss": "ssm",
        "negs.uniform.count": 8192,
        "negs.uniform.granularity": "sessionwise",
        "negs.inbatch.count": 127,
        "negs.topk": 0,
    },
    "tron-l": {
        "loss": "ssm",
        "negs.uniform.count": 8192,
        "negs.uniform.granularity": "batchwise",
        "negs.inbatch.count": 127,
        "negs.topk": 100,
    },
    "tron-xl": {
        "loss": "ssm",
        "negs.uniform.count": 16384,
        "negs.uniform.granularity": "batchwise",
        "negs.inbatch.count": 127,
        "negs.topk": 100,
    },
}


def validate(config: dict) -> dict:
    """Coerce every key once, reject unknowns, and cross-check combinations.

    Keys that `config` leaves out take their schema default.
    """
    unknown = set(config) - set(SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (default, caster) in SCHEMA.items():
        try:
            out[key] = caster(config.get(key, default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    for key in ("data.min_support", "data.min_len", "train.epochs", "train.batch_size",
                "model.hidden_dim", "model.num_layers", "model.num_heads", "eval.k",
                "eval.batch_size"):
        if out[key] < (0 if key == "train.epochs" else 1):
            raise ConfigError(f"{key} must be positive, got {out[key]}")
    for key in ("negs.uniform.count", "negs.frequency.count", "negs.inbatch.count",
                "negs.topk", "eval.chunk_size"):
        if out[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {out[key]}")
    total = out["negs.uniform.count"] + out["negs.frequency.count"] + out["negs.inbatch.count"]
    if total == 0:
        raise ConfigError("at least one negative source must have a positive count")
    if out["negs.topk"] > total:
        raise ConfigError(
            f"negs.topk={out['negs.topk']} exceeds the {total} sampled negatives"
        )
    if out["model.hidden_dim"] % out["model.num_heads"] != 0:
        raise ConfigError("model.hidden_dim must be divisible by model.num_heads")
    if not 0.0 < out["data.fraction"] <= 1.0:
        raise ConfigError("data.fraction must be in (0, 1]")
    return out


def resolve(base: dict | None = None, preset: str | None = None, overrides: dict | None = None) -> dict:
    """Merge defaults <- base <- preset <- overrides, then validate once.

    A preset also sets `train.preset` to its name.
    """
    chosen = {}
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
        chosen = {**PRESETS[preset], "train.preset": preset}
    return validate({**(base or {}), **chosen, **(overrides or {})})


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def save_config(config: dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
