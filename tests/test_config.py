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

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match="train.lr must be finite and > 0"):
            C.resolve(overrides={"train.lr": value})

    @pytest.mark.parametrize("value", [1.0, -0.1, float("nan")])
    def test_beta1_must_lie_in_unit_interval(self, value):
        with pytest.raises(ConfigError, match=r"train.beta1 must be in \[0, 1\)"):
            C.resolve(overrides={"train.beta1": value})

    @pytest.mark.parametrize("value", [1.0, 1.5, float("nan")])
    def test_beta2_must_lie_in_unit_interval(self, value):
        with pytest.raises(ConfigError, match=r"train.beta2 must be in \[0, 1\)"):
            C.resolve(overrides={"train.beta2": value})

    @pytest.mark.parametrize("value", [0.0, -1e-8, float("nan"), float("inf")])
    def test_eps_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match="train.eps must be finite and > 0"):
            C.resolve(overrides={"train.eps": value})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_holdout_days_must_be_finite_and_positive(self, value):
        # nan and inf reached cmd_prep's int(...) as a traceback before
        with pytest.raises(ConfigError, match="data.holdout_days must be finite and > 0"):
            C.resolve(overrides={"data.holdout_days": value})

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_clip_norm_must_be_finite_and_not_negative(self, value):
        # nan or a negative norm failed train_step's > 0 test: clipping silently off
        with pytest.raises(ConfigError, match="train.clip_norm must be finite and >= 0"):
            C.resolve(overrides={"train.clip_norm": value})

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_bpr_max_lambda_must_be_finite_and_not_negative(self, value):
        # nan diverged at the first batch; a negative weight rewards large
        # negative scores
        with pytest.raises(ConfigError, match="loss.bpr_max.lambda must be finite and >= 0"):
            C.resolve(overrides={"loss": "bpr-max", "loss.bpr_max.lambda": value})

    def test_optimizer_bounds_admit_their_edges(self):
        cfg = C.resolve(overrides={"train.beta1": 0.0, "train.beta2": 0.0, "train.lr": 5e-324})
        assert (cfg["train.beta1"], cfg["train.beta2"], cfg["train.lr"]) == (0.0, 0.0, 5e-324)
        cfg = C.resolve(overrides={"train.clip_norm": 0.0, "data.holdout_days": 5e-324,
                                   "loss.bpr_max.lambda": 0.0})
        assert (cfg["train.clip_norm"], cfg["data.holdout_days"],
                cfg["loss.bpr_max.lambda"]) == (0.0, 5e-324, 0.0)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            C.resolve(overrides={"model.hidden_dim": 10, "model.num_heads": 3})

    def test_snapshot_round_trip(self, tmp_path):
        cfg = C.resolve(preset="tron-l", overrides={"train.seed": 9})
        path = tmp_path / "resolved.json"
        C.save_config(cfg, path)
        assert C.resolve(base=C.load_config(path)) == cfg
