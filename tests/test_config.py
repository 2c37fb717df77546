"""Schema validation, coercion, and exact preset expansion."""

import pytest

from sessrec import config as C
from sessrec.errors import ConfigError


class TestPresets:
    def test_flagship_preset_expands_exactly(self):
        cfg = C.resolve(preset="tron-xl")
        assert cfg["negs.uniform.count"] == 16384
        assert cfg["negs.uniform.granularity"] == "batchwise"
        assert cfg["negs.inbatch.count"] == 127
        assert cfg["negs.topk"] == 100
        assert cfg["loss"] == "ssm"
        assert cfg["train.preset"] == "tron-xl"

    def test_grid_rows(self):
        expect = {
            "sasrec": ("bce", 1, "elementwise", 0, 0),
            "sasrec-m-negs": ("bce", 512, "sessionwise", 16, 0),
            "sasrec-l-negs": ("bce", 8192, "sessionwise", 127, 0),
            "sasrec-bpr-max": ("bpr-max", 8192, "sessionwise", 127, 0),
            "sasrec-ssm": ("ssm", 8192, "sessionwise", 127, 0),
            "tron-l": ("ssm", 8192, "batchwise", 127, 100),
            "tron-xl": ("ssm", 16384, "batchwise", 127, 100),
        }
        assert set(expect) == set(C.PRESETS)
        for name, (loss, k, gran, m, topk) in expect.items():
            cfg = C.resolve(preset=name)
            got = (cfg["loss"], cfg["negs.uniform.count"],
                   cfg["negs.uniform.granularity"], cfg["negs.inbatch.count"],
                   cfg["negs.topk"])
            assert got == (loss, k, gran, m, topk), name

    def test_overrides_win_over_preset(self):
        cfg = C.resolve(preset="tron-xl", overrides={"negs.topk": "50"})
        assert cfg["negs.topk"] == 50

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            C.resolve(preset="tron-xxl")


class TestValidation:
    def test_defaults_validate(self):
        cfg = C.resolve()
        assert cfg["train.batch_size"] == 128
        assert cfg["model.hidden_dim"] == 200
        assert cfg["model.num_layers"] == 2
        assert cfg["eval.k"] == 20

    def test_string_coercion(self):
        cfg = C.resolve(overrides={"train.lr": "0.01", "model.prenorm": "true",
                                   "negs.uniform.count": "64"})
        assert cfg["train.lr"] == 0.01
        assert cfg["model.prenorm"] is True
        assert cfg["negs.uniform.count"] == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            C.resolve(overrides={"negs.uniform.cont": 4})
        with pytest.raises(ConfigError, match="unknown config keys"):
            C.resolve(base={"negs.uniform.cont": 4})

    @pytest.mark.parametrize("key", ["train.epochs", "negs.uniform.count", "loss", "model.prenorm"])
    def test_null_rejected_where_the_default_is_not_null(self, key):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            C.resolve(base={key: None})

    def test_null_kept_where_the_default_is_null(self):
        cfg = C.resolve(base={"data.input": None, "train.preset": None})
        assert cfg["data.input"] is None and cfg["train.preset"] is None

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError):
            C.resolve(overrides={"loss": "hinge"})

    def test_topk_cannot_exceed_sampled_negatives(self):
        with pytest.raises(ConfigError, match="topk"):
            C.resolve(overrides={"negs.uniform.count": 8, "negs.inbatch.count": 0,
                                 "negs.topk": 9})

    def test_zero_negatives_rejected(self):
        with pytest.raises(ConfigError):
            C.resolve(overrides={"negs.uniform.count": 0, "negs.inbatch.count": 0,
                                 "negs.frequency.count": 0})

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            C.resolve(overrides={"model.hidden_dim": 10, "model.num_heads": 3})

    def test_snapshot_round_trip(self, tmp_path):
        cfg = C.resolve(preset="tron-l", overrides={"train.seed": 9})
        path = tmp_path / "resolved.json"
        C.save_config(cfg, path)
        assert C.resolve(base=C.load_config(path)) == cfg
