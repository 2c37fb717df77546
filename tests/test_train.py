"""Optimizer oracles, determinism, draw accounting, checkpointing, resume."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec import config as C
from sessrec import model as M
from sessrec import train as TR
from sessrec.data import Catalog, PreparedDataset, Session, make_batches
from sessrec.errors import ConfigError, DivergenceError, PoolExhaustedError
from sessrec.tensor import Tensor


def toy_dataset(n_items=20, n_sessions=24, seed=0, length=(3, 7)):
    rng = np.random.default_rng(seed)
    sessions = []
    for i in range(n_sessions):
        n = int(rng.integers(*length))
        sessions.append(Session(i, rng.integers(0, n_items, n).tolist(), list(range(n))))
    counts = np.zeros(n_items, dtype=np.int64)
    for s in sessions:
        np.add.at(counts, s.items, 1)
    counts = np.maximum(counts, 1)
    test = sessions[-4:]
    return PreparedDataset(sessions[:-4], test, Catalog({i: i for i in range(n_items)}, counts))


def toy_config(**overrides):
    base = {
        "model.hidden_dim": 8,
        "model.num_layers": 1,
        "model.dropout": 0.1,
        "data.max_len": 8,
        "train.epochs": 2,
        "train.batch_size": 8,
        "train.seed": 3,
        "negs.uniform.count": 6,
        "negs.uniform.granularity": "batchwise",
        "negs.inbatch.count": 2,
        "loss": "ssm",
        "negs.topk": 4,
    }
    base.update(overrides)
    return C.resolve(base)


class TestAdam:
    def test_zero_gradients_are_a_fixed_point(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        p["w"].grad = np.zeros(2)
        TR.Adam(p, lr=0.1).step()
        np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])

    def test_first_step_moves_by_learning_rate(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        p = {"w": Tensor(np.array([5.0]), requires_grad=True)}
        p["w"].grad = np.ones(1)
        TR.Adam(p, lr=0.1).step()
        np.testing.assert_allclose(p["w"].data, [5.0 - 0.1], atol=1e-8)

    def test_nan_gradient_aborts(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        p["w"].grad = np.array([np.nan])
        with pytest.raises(DivergenceError):
            TR.Adam(p).step()

    def test_non_finite_gradient_changes_no_state(self):
        # the bad gradient sits in the last parameter, so a step that updated
        # parameters in turn would already have moved the first two
        p = {name: Tensor(np.array([1.0, 2.0]), requires_grad=True) for name in "abc"}
        for t in p.values():
            t.grad = np.array([0.5, -0.5])
        opt = TR.Adam(p, lr=0.1)
        opt.step()
        before = {name: (t.data.copy(), opt.m[name].copy(), opt.v[name].copy())
                  for name, t in p.items()}
        p["c"].grad = np.array([0.5, np.inf])
        with pytest.raises(DivergenceError) as err:
            opt.step()
        assert err.value.snapshot == {"parameter": "c"}
        assert opt.step_count == 1
        for name, t in p.items():
            for now, then in zip((t.data, opt.m[name], opt.v[name]), before[name]):
                np.testing.assert_array_equal(now, then)

    def test_missing_grad_is_skipped(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        TR.Adam(p).step()
        np.testing.assert_array_equal(p["w"].data, [1.0])


class TestClipping:
    def test_norm_ten_clipped_to_one(self):
        p = {"w": Tensor(np.zeros(4), requires_grad=True)}
        p["w"].grad = np.full(4, 5.0)  # norm 10
        before = TR.clip_gradient_norm(p, max_norm=1.0)
        assert before == pytest.approx(10.0)
        assert np.linalg.norm(p["w"].grad) == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        p = {"w": Tensor(np.zeros(2), requires_grad=True)}
        p["w"].grad = np.array([0.3, 0.4])
        TR.clip_gradient_norm(p, max_norm=1.0)
        np.testing.assert_array_equal(p["w"].grad, [0.3, 0.4])


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_state(self):
        ds = toy_dataset()
        state, report = TR.train(toy_config(**{"train.epochs": 0}), ds)
        fresh = M.ModelState.initialize(
            TR.model_config_from(toy_config(), ds.catalog.n_items), seed=3
        )
        assert report.epochs == []
        for name, p in state.params.items():
            np.testing.assert_array_equal(p.data, fresh.params[name].data)

    def test_seeded_runs_are_identical(self):
        ds = toy_dataset()
        _, r1 = TR.train(toy_config(), ds)
        _, r2 = TR.train(toy_config(), ds)
        assert len(r1.epochs) == 2
        for a, b in zip(r1.epochs, r2.epochs):
            assert abs(a.loss_mean - b.loss_mean) < 1e-12
            assert a.draws == b.draws

    def test_different_seed_changes_trajectory(self):
        ds = toy_dataset()
        _, r1 = TR.train(toy_config(), ds)
        _, r2 = TR.train(toy_config(**{"train.seed": 4}), ds)
        assert r1.epochs[0].loss_mean != r2.epochs[0].loss_mean

    def test_loss_decreases_on_toy_data(self):
        ds = toy_dataset(n_sessions=40)
        _, report = TR.train(toy_config(**{"train.epochs": 6, "model.dropout": 0.0}), ds)
        assert report.epochs[-1].loss_mean < report.epochs[0].loss_mean

    def test_draw_accounting_batchwise_versus_elementwise(self):
        ds = toy_dataset()
        cfg_b = toy_config(**{"negs.inbatch.count": 0, "negs.topk": 0})
        _, rb = TR.train(cfg_b, ds)
        n_batches = int(np.ceil(len(ds.train) / cfg_b["train.batch_size"]))
        assert rb.epochs[0].draws["uniform"] == 6 * n_batches

        cfg_e = toy_config(
            **{"negs.inbatch.count": 0, "negs.topk": 0, "negs.uniform.granularity": "elementwise"}
        )
        _, re = TR.train(cfg_e, ds)
        expected = 0
        batches = make_batches(
            ds.train, cfg_e["train.batch_size"], cfg_e["data.max_len"],
            pad_id=ds.catalog.n_items,
            shuffle_rng=TR.rng_stream(cfg_e["train.seed"], "shuffle", 0), trim=True,
        )
        for batch in batches:
            expected += batch.size * batch.width * 6
        assert re.epochs[0].draws["uniform"] == expected
        assert re.epochs[0].draws["uniform"] > rb.epochs[0].draws["uniform"]

    def test_all_three_losses_and_frequency_source_run(self):
        ds = toy_dataset()
        for loss in ("bce", "bpr-max", "ssm"):
            cfg = toy_config(
                **{"loss": loss, "train.epochs": 1, "negs.frequency.count": 3}
            )
            _, report = TR.train(cfg, ds)
            assert np.isfinite(report.epochs[0].loss_mean)
            assert report.epochs[0].draws["frequency"] > 0

    def test_eval_hook_recorded_outside_epoch_timing(self):
        ds = toy_dataset()
        calls = []

        def hook(state, epoch):
            calls.append(epoch)
            return {"recall_at_20": 0.5, "mrr_at_20": 0.25, "k": 20}

        _, report = TR.train(toy_config(**{"train.epochs": 2}), ds, eval_hook=hook)
        assert calls == [1, 2]
        assert report.epochs[0].eval["recall_at_20"] == 0.5

    def test_epochs_per_hour_identity(self):
        stats = TR.EpochStats(epoch=1, loss_mean=0.0, wall_seconds=7.2, draws={})
        assert stats.epochs_per_hour == pytest.approx(3600.0 / 7.2)


class TestCheckpointing:
    def test_checkpoints_and_report_written(self, tmp_path):
        ds = toy_dataset()
        TR.train(toy_config(), ds, out_dir=tmp_path)
        assert (tmp_path / "ckpt" / "epoch-1.bin").exists()
        assert (tmp_path / "ckpt" / "epoch-2.bin").exists()
        assert (tmp_path / "report.json").exists()

    def test_resume_is_bit_exact(self, tmp_path):
        ds = toy_dataset()
        straight_state, straight = TR.train(toy_config(), ds)

        TR.train(toy_config(**{"train.epochs": 1}), ds, out_dir=tmp_path)
        resumed_state, resumed = TR.train(
            toy_config(), ds, resume_from=tmp_path / "ckpt" / "epoch-1.bin"
        )
        assert resumed.epochs[0].epoch == 2
        assert resumed.epochs[0].loss_mean == straight.epochs[1].loss_mean
        for name, p in straight_state.params.items():
            np.testing.assert_array_equal(resumed_state.params[name].data, p.data)

    @settings(max_examples=12, deadline=None)
    @given(
        epochs=st.integers(2, 4),
        data=st.data(),
        overrides=st.sampled_from([
            {"negs.inbatch.count": 0, "negs.topk": 3},  # top-k over a batchwise pool
            {"negs.topk": 0, "negs.uniform.granularity": "sessionwise",
             "loss": "bpr-max"},  # in-batch next to a sessionwise pool
            {},  # in-batch and top-k
        ]),
    )
    def test_resume_at_any_epoch_is_bit_exact(self, epochs, data, overrides):
        resumed_at = data.draw(st.integers(1, epochs - 1), label="resumed_at")
        ds = toy_dataset(n_sessions=20)
        config = toy_config(**{"train.epochs": epochs, **overrides})
        with tempfile.TemporaryDirectory() as tmp:
            straight_dir, resumed_dir = Path(tmp) / "straight", Path(tmp) / "resumed"
            _, straight = TR.train(config, ds, out_dir=straight_dir)
            TR.train({**config, "train.epochs": resumed_at}, ds, out_dir=resumed_dir)
            _, resumed = TR.train(config, ds, out_dir=resumed_dir,
                                  resume_from=resumed_dir / "ckpt" / f"epoch-{resumed_at}.bin")
            final = f"ckpt/epoch-{epochs}.bin"
            want_state, want = M.load_checkpoint(straight_dir / final)
            got_state, got = M.load_checkpoint(resumed_dir / final)
        assert [e.loss_mean for e in resumed.epochs] == [
            e.loss_mean for e in straight.epochs[resumed_at:]]
        for name, p in want_state.params.items():
            np.testing.assert_array_equal(got_state.params[name].data, p.data, err_msg=name)
        moments = [key for key in want if key.startswith(("opt.m.", "opt.v."))]
        assert len(moments) == 2 * len(want_state.params)
        for key in moments + ["opt.step", "trainer.epoch"]:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)

    def test_resume_refuses_another_config_key(self, tmp_path):
        ds = toy_dataset()
        TR.train(toy_config(**{"train.epochs": 1}), ds, out_dir=tmp_path)
        path = tmp_path / "ckpt" / "epoch-1.bin"
        message = (f"checkpoint {path} does not fit this run: "
                   "config key 'loss' is 'ssm' in the checkpoint but 'bce' in this run")
        with pytest.raises(ConfigError, match=re.escape(message)):
            TR.train(toy_config(loss="bce"), ds, resume_from=path)

    def test_resume_refuses_another_dataset(self, tmp_path):
        TR.train(toy_config(**{"train.epochs": 1}), toy_dataset(), out_dir=tmp_path)
        path = tmp_path / "ckpt" / "epoch-1.bin"
        with pytest.raises(ConfigError, match="manifest key 'test_events' is 21 in the checkpoint but 20"):
            TR.train(toy_config(), toy_dataset(seed=1), resume_from=path)

    def test_resume_refuses_a_checkpoint_without_its_run_record(self, tmp_path):
        ds = toy_dataset()
        TR.train(toy_config(**{"train.epochs": 1}), ds, out_dir=tmp_path)
        path = tmp_path / "ckpt" / "epoch-1.bin"
        state, extra = M.load_checkpoint(path)
        del extra["trainer.manifest"]
        M.save_checkpoint(state, path, extra)
        with pytest.raises(ConfigError, match="no trainer.manifest"):
            TR.train(toy_config(), ds, resume_from=path)

    def test_divergence_writes_snapshot(self, tmp_path, monkeypatch):
        ds = toy_dataset()

        def exploding_step(*args, **kwargs):
            raise DivergenceError(
                "loss diverged at epoch 1, batch 0",
                snapshot={"epoch": 1, "batch": 0, "loss": None},
            )

        monkeypatch.setattr(TR, "train_step", exploding_step)
        with pytest.raises(DivergenceError):
            TR.train(toy_config(**{"train.epochs": 1}), ds, out_dir=tmp_path)
        assert (tmp_path / "divergence.json").exists()

    def test_non_finite_gradient_names_the_parameter(self, tmp_path, monkeypatch):
        step = TR.Adam.step

        def poisoned_step(self):
            self.params["item_emb"].grad[0, 0] = np.nan
            step(self)

        monkeypatch.setattr(TR.Adam, "step", poisoned_step)
        with pytest.raises(DivergenceError, match="item_emb at epoch 1, batch 0"):
            TR.train(toy_config(**{"train.epochs": 1}), toy_dataset(), out_dir=tmp_path)
        snapshot = json.loads((tmp_path / "divergence.json").read_text())
        assert snapshot == {"epoch": 1, "batch": 0, "parameter": "item_emb"}


def test_a_batch_without_negatives_names_the_session():
    # three disjoint sessions in batches of two: the last batch holds one
    # session, which has no in-batch negative, and no other source is set
    sessions = [Session(i, items, list(range(len(items))))
                for i, items in enumerate([[0, 1, 2], [3, 4], [5, 6, 7]])]
    ds = PreparedDataset(sessions, sessions[:1], Catalog({i: i for i in range(8)}, np.ones(8)))
    config = toy_config(**{"negs.uniform.count": 0, "negs.inbatch.count": 2,
                           "negs.topk": 0, "train.batch_size": 2, "train.epochs": 1})
    last = list(make_batches(sessions, batch_size=2, max_len=8, pad_id=8, trim=True,
                             shuffle_rng=TR.rng_stream(config["train.seed"], "shuffle", 0)))[-1]
    alone = last.session_refs[0].session_id
    with pytest.raises(PoolExhaustedError, match=f"epoch 1, batch 1 .*session {alone!r}") as err:
        TR.train(config, ds)
    assert err.value.session_id == alone
