"""End-to-end command-line pipeline on a small synthetic clickstream."""

import csv
import hashlib
import json
import re

import numpy as np
import pytest

from sessrec import evaluate as E
from sessrec import model as M
from sessrec.cli import main


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def raw_clicks(tmp_path):
    rng = np.random.default_rng(55)
    path = tmp_path / "clicks.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        ts = 0
        for sid in range(150):
            n = int(rng.integers(2, 7))
            items = rng.integers(0, 25, n)
            events = [
                {"aid": int(a), "ts": ts + j, "type": "clicks"} for j, a in enumerate(items)
            ]
            fh.write(json.dumps({"session": sid, "events": events}) + "\n")
            ts += 1000
    return path


@pytest.fixture()
def prepared(tmp_path, raw_clicks):
    out = tmp_path / "prepared"
    code = main([
        "prep", "--input", str(raw_clicks), "--output-dir", str(out),
        "--min-support", "2", "--min-len", "2",
        "--data.holdout_days", str(20_000 / (24 * 3600 * 1000)),
    ])
    assert code == 0
    return out


class TestPrep:
    def test_writes_cache_manifest_and_snapshot(self, prepared):
        assert sorted(p.name for p in prepared.iterdir()) == [
            "data.npz", "manifest.json", "resolved-config.json"]
        with np.load(prepared / "data.npz") as blob:
            assert sorted(blob.files) == sorted(
                ["catalog"] + [f"{split}_{column}" for split in ("train", "test")
                               for column in ("items", "ts", "offsets", "sids")])
            counts = {"n_items": len(blob["catalog"])}
            digest = hashlib.sha256()
            for split in ("train", "test"):
                counts[f"{split}_sessions"] = len(blob[f"{split}_sids"])
                counts[f"{split}_events"] = len(blob[f"{split}_items"])
                for column in ("items", "offsets"):
                    digest.update(blob[f"{split}_{column}"].astype("<i8").tobytes())
            counts["digest"] = digest.hexdigest()
        manifest = json.loads((prepared / "manifest.json").read_text())
        assert manifest == counts
        assert manifest["train_sessions"] > 0 and manifest["test_sessions"] > 0
        snapshot = json.loads((prepared / "resolved-config.json").read_text())
        assert snapshot["data.min_support"] == 2

    def test_missing_input_fails(self, tmp_path):
        code = main(["prep", "--input", str(tmp_path / "nope.jsonl"),
                     "--output-dir", str(tmp_path / "out")])
        assert code != 0

    def test_holdout_longer_than_span_is_a_usage_error(self, tmp_path, raw_clicks, capsys):
        for scope in ("all", "train"):
            code = main(["prep", "--input", str(raw_clicks), "--output-dir", str(tmp_path / scope),
                         "--holdout-days", "365", "--data.support_scope", scope])
            assert code == 2
            err = capsys.readouterr().err
            assert re.search(r"^error: holdout \d+ ms must be shorter than the data span \d+ ms$",
                             err, re.MULTILINE), err

    @pytest.mark.parametrize("days", ["nan", "inf", "-1", "0"])
    def test_holdout_that_is_not_finite_and_positive_is_a_usage_error(self, tmp_path, raw_clicks,
                                                                      capsys, days):
        code = main(["prep", "--input", str(raw_clicks), "--output-dir", str(tmp_path / "out"),
                     "--holdout-days", days])
        assert code == 2
        assert "error: data.holdout_days must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_record_with_a_list_session_is_a_usage_error(self, tmp_path, raw_clicks, capsys):
        lines = raw_clicks.read_text().splitlines()
        lines.insert(3, json.dumps({"session": [2], "events": [{"aid": 1, "ts": 5, "type": "clicks"}]}))
        raw_clicks.write_text("\n".join(lines) + "\n")
        code = main(["prep", "--input", str(raw_clicks), "--output-dir", str(tmp_path / "out"),
                     "--strict"])
        assert code == 2
        assert "error: line 4: " in capsys.readouterr().err


TRAIN_ARGS = [
    "--model.hidden_dim", "8", "--model.num_layers", "1", "--data.max_len", "8",
    "--train.batch_size", "32", "--negs.uniform.count", "8",
    "--negs.uniform.granularity", "batchwise", "--negs.inbatch.count", "2",
    "--negs.topk", "4", "--loss", "ssm", "--seed", "1",
]


class TestTrain:
    def test_checkpoints_report_and_snapshot(self, tmp_path, prepared):
        out = tmp_path / "run"
        code = main(["train", "--input", str(prepared), "--output-dir", str(out),
                     "--epochs", "3", *TRAIN_ARGS])
        assert code == 0
        for epoch in (1, 2, 3):
            assert (out / "ckpt" / f"epoch-{epoch}.bin").exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["epochs"]) == 3
        assert report["epochs"][0]["draws"]["uniform"] > 0

    def test_eval_every_produces_metrics_csv(self, tmp_path, prepared):
        out = tmp_path / "run-eval"
        code = main(["train", "--input", str(prepared), "--output-dir", str(out),
                     "--epochs", "2", "--eval-every", "1", *TRAIN_ARGS])
        assert code == 0
        assert [row["epoch"] for row in read_csv(out / "metrics.csv")] == ["1", "2"]

    def test_rerun_from_snapshot_reproduces_results(self, tmp_path, prepared):
        first = tmp_path / "first"
        again = tmp_path / "again"
        argv = ["train", "--input", str(prepared), "--output-dir", str(first),
                "--epochs", "2", *TRAIN_ARGS]
        assert main(argv) == 0
        assert main(["train", "--config", str(first / "resolved-config.json"),
                     "--input", str(prepared), "--output-dir", str(again)]) == 0
        a = json.loads((first / "report.json").read_text())
        b = json.loads((again / "report.json").read_text())
        assert [e["loss_mean"] for e in a["epochs"]] == [e["loss_mean"] for e in b["epochs"]]
        assert [e["draws"] for e in a["epochs"]] == [e["draws"] for e in b["epochs"]]

    def test_unknown_key_rejected(self, tmp_path, prepared, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"negs.uniform.coutn": 4}))
        code = main(["train", "--input", str(prepared), "--config", str(bad),
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert "coutn" in capsys.readouterr().err

    def test_contradictory_topk_rejected(self, tmp_path, prepared):
        code = main(["train", "--input", str(prepared), "--output-dir",
                     str(tmp_path / "x"), "--negs.uniform.count", "4",
                     "--negs.topk", "9"])
        assert code == 2

    @pytest.mark.parametrize("key,value", [("train.lr", "nan"), ("train.beta1", "1"),
                                           ("train.beta2", "1"), ("train.eps", "0"),
                                           ("loss.bpr_max.lambda", "nan")])
    def test_out_of_range_optimizer_setting_rejected(self, tmp_path, prepared, capsys,
                                                     key, value):
        code = main(["train", "--input", str(prepared), "--output-dir",
                     str(tmp_path / "x"), "--loss", "bpr-max", f"--{key}", value])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_flagship_preset_writes_one_checkpoint_per_epoch(self, tmp_path, prepared):
        out = tmp_path / "flagship"
        code = main(["train", "--input", str(prepared), "--output-dir", str(out),
                     "--preset", "tron-xl", "--epochs", "10",
                     "--model.hidden_dim", "8", "--model.num_layers", "1",
                     "--data.max_len", "8", "--train.batch_size", "32"])
        assert code == 0
        assert all((out / "ckpt" / f"epoch-{n}.bin").exists() for n in range(1, 11))
        snapshot = json.loads((out / "resolved-config.json").read_text())
        assert snapshot["negs.uniform.count"] == 16384
        assert snapshot["negs.topk"] == 100
        report = json.loads((out / "report.json").read_text())
        assert len(report["epochs"]) == 10


class TestEvalVerb:
    def test_writes_eval_json(self, tmp_path, prepared):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        out = tmp_path / "eval-out"
        code = main(["eval", "--input", str(prepared),
                     "--checkpoint", str(run / "ckpt" / "epoch-1.bin"),
                     "--output-dir", str(out), "--eval.k", "5"])
        assert code == 0
        result = json.loads((out / "eval.json").read_text())
        assert result["k"] == 5
        assert 0.0 <= result["mrr_at_k"] <= result["recall_at_k"] <= 1.0

    def test_failed_write_keeps_previous_eval_json_and_metrics(self, tmp_path, prepared,
                                                               monkeypatch):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", "--eval-every", "1", *TRAIN_ARGS]) == 0
        args = ["eval", "--input", str(prepared), "--checkpoint",
                str(run / "ckpt" / "epoch-1.bin"), "--output-dir", str(run)]
        assert main(args) == 0
        before = {name: (run / name).read_bytes() for name in ("eval.json", "metrics.csv")}
        # json.dump writes the first keys before it reaches the unserialisable value
        monkeypatch.setattr(E.EvalResult, "to_dict", lambda self: {"k": 1, "bad": object()})
        with pytest.raises(TypeError):
            main(args)
        series = read_csv(run / "metrics.csv")
        series.append({"epoch": 2})  # the writer fails after the first row
        with pytest.raises(KeyError):
            E.export_metrics(series, run / "metrics.csv")
        assert {name: (run / name).read_bytes() for name in before} == before
        assert not [p.name for p in run.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("extra_items", [-1, 3])
    def test_refuses_checkpoint_of_another_catalog_size(self, tmp_path, prepared, capsys,
                                                        extra_items):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        state, _ = M.load_checkpoint(run / "ckpt" / "epoch-1.bin")
        n_items = state.config.n_items
        state.config.n_items += extra_items
        other = tmp_path / "other.bin"
        M.save_checkpoint(M.ModelState.initialize(state.config), other)
        capsys.readouterr()
        code = main(["eval", "--input", str(prepared), "--checkpoint", str(other),
                     "--output-dir", str(tmp_path / "eval-out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"scores {n_items + extra_items} items" in err
        assert f"catalog of {n_items}" in err
        assert not (tmp_path / "eval-out" / "eval.json").exists()

    # num_heads 0 divided hidden_dim by zero, and a float reached
    # ModelState.initialize as a TypeError, before ModelConfig refused them
    @pytest.mark.parametrize("key,value,why", [
        ("num_heads", 0, "num_heads must be positive"),
        ("max_len", 6.5, "max_len must be an integer, got 6.5"),
        ("hidden_dim", 8.0, "hidden_dim must be an integer, got 8.0"),
    ])
    def test_refuses_a_checkpoint_header_config_model_config_refuses(self, tmp_path, prepared,
                                                                     capsys, key, value, why):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        checkpoint = run / "ckpt" / "epoch-1.bin"
        with np.load(checkpoint) as blob:
            arrays = {name: blob[name] for name in blob.files}
        header = json.loads(bytes(arrays["__header__"]).decode("utf-8"))
        header["config"][key] = value
        arrays["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        with open(checkpoint, "wb") as fh:  # a path would get ".npz" appended
            np.savez(fh, **arrays)
        capsys.readouterr()
        code = main(["eval", "--input", str(prepared), "--checkpoint", str(checkpoint),
                     "--output-dir", str(tmp_path / "eval-out")])
        assert code == 2
        assert (f"checkpoint {checkpoint} header 'config' does not fit ModelConfig "
                f"({why})") in capsys.readouterr().err
        assert not (tmp_path / "eval-out" / "eval.json").exists()

    def test_refuses_a_checkpoint_parameter_that_is_not_finite(self, tmp_path, prepared, capsys):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        state, extra = M.load_checkpoint(run / "ckpt" / "epoch-1.bin")
        state.params["item_emb"].data[2, 1] = np.nan
        other = tmp_path / "other.bin"
        M.save_checkpoint(state, other, extra)
        capsys.readouterr()
        code = main(["eval", "--input", str(prepared), "--checkpoint", str(other),
                     "--output-dir", str(tmp_path / "eval-out")])
        assert code == 2
        assert (f"checkpoint {other} parameter 'item_emb' holds a value that is not finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "eval-out" / "eval.json").exists()

    def test_refuses_checkpoint_of_another_dataset_manifest(self, tmp_path, prepared, capsys):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        state, extra = M.load_checkpoint(run / "ckpt" / "epoch-1.bin")
        manifest = json.loads(bytes(extra["trainer.manifest"]).decode("utf-8"))
        sessions = manifest["train_sessions"]
        manifest["train_sessions"] = sessions + 1  # n_items stays the same
        extra["trainer.manifest"] = np.frombuffer(json.dumps(manifest).encode("utf-8"),
                                                  dtype=np.uint8)
        other = tmp_path / "other.bin"
        M.save_checkpoint(state, other, extra)
        capsys.readouterr()
        code = main(["eval", "--input", str(prepared), "--checkpoint", str(other),
                     "--output-dir", str(tmp_path / "eval-out")])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"checkpoint {other} does not fit this run: manifest key 'train_sessions' "
                f"is {sessions + 1} in the checkpoint but {sessions} in this run") in err
        assert not (tmp_path / "eval-out" / "eval.json").exists()

    def test_refuses_a_cache_with_swapped_items(self, tmp_path, prepared, capsys):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        with np.load(prepared / "data.npz") as blob:
            arrays = dict(blob)
        # two train items trade sessions: every count and frequency stays
        items, offsets = arrays["train_items"], arrays["train_offsets"]
        other = next(int(at) for at in offsets[1:-1] if items[at] != items[0])
        items[[0, other]] = items[[other, 0]]
        np.savez(prepared / "data.npz", **arrays)
        capsys.readouterr()
        code = main(["eval", "--input", str(prepared), "--checkpoint",
                     str(run / "ckpt" / "epoch-1.bin"), "--output-dir", str(tmp_path / "eval-out")])
        assert code == 2
        assert "does not fit this run: manifest key 'digest'" in capsys.readouterr().err
        assert not (tmp_path / "eval-out" / "eval.json").exists()

    @pytest.mark.parametrize("verb,truncated", [("eval", "data.npz"), ("eval", "checkpoint"),
                                                ("train", "data.npz")])
    def test_truncated_file_is_a_usage_error(self, tmp_path, prepared, capsys, verb, truncated):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        checkpoint = run / "ckpt" / "epoch-1.bin"
        path = checkpoint if truncated == "checkpoint" else prepared / "data.npz"
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        capsys.readouterr()
        args = {"eval": ["--checkpoint", str(checkpoint)], "train": TRAIN_ARGS}[verb]
        code = main([verb, "--input", str(prepared), "--output-dir", str(tmp_path / "out"), *args])
        assert code == 2
        assert f"error: {path} is not a readable .npz archive" in capsys.readouterr().err

    @pytest.mark.parametrize("others", ["deleted", "edited"])
    def test_archive_alone_trains_and_evaluates(self, tmp_path, prepared, others):
        if others == "deleted":
            for path in prepared.iterdir():
                if path.name != "data.npz":
                    path.unlink()
        else:
            (prepared / "manifest.json").write_text("{\"n_items\": 1}")
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        assert main(["eval", "--input", str(prepared),
                     "--checkpoint", str(run / "ckpt" / "epoch-1.bin"),
                     "--output-dir", str(tmp_path / "eval-out")]) == 0
        assert json.loads((tmp_path / "eval-out" / "eval.json").read_text())["n_transitions"] > 0

    @pytest.mark.parametrize("verb", ["eval", "train"])
    def test_cache_without_an_array_is_a_usage_error(self, tmp_path, prepared, capsys, verb):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        with np.load(prepared / "data.npz") as blob:
            arrays = {key: blob[key] for key in blob.files if key != "test_ts"}
        np.savez(prepared / "data.npz", **arrays)
        capsys.readouterr()
        checkpoint = ["--checkpoint", str(run / "ckpt" / "epoch-1.bin")]
        args = {"eval": checkpoint, "train": TRAIN_ARGS}[verb]
        code = main([verb, "--input", str(prepared), "--output-dir", str(tmp_path / "out"), *args])
        assert code == 2
        assert (f"error: {prepared / 'data.npz'} holds no array 'test_ts'"
                in capsys.readouterr().err)

    def test_env_var_supplies_data_dir(self, tmp_path, prepared, monkeypatch):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        monkeypatch.setenv("SESSREC_DATA_DIR", str(prepared))
        code = main(["eval", "--checkpoint", str(run / "ckpt" / "epoch-1.bin"),
                     "--output-dir", str(tmp_path / "eval-env")])
        assert code == 0


class TestBench:
    def test_draw_count_table(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--negs", "256", "--granularity",
                     "batchwise,elementwise", "--batch-size", "4", "--seq-len", "6",
                     "--n-items", "1000", "--output-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "bench.json").read_text())
        assert payload["params"]["negs"] == 256
        by_gran = {row["granularity"]: row for row in payload["rows"]}
        assert by_gran["batchwise"]["draws_per_batch"] == 256
        assert by_gran["elementwise"]["draws_per_batch"] == 4 * 6 * 256

    @pytest.mark.parametrize("flag,value,named", [("--repeats", "0", "repeats must be at least 1"),
                                                  ("--granularity", "nope", "'nope'")],
                             ids=["repeats", "granularity"])
    def test_bad_input_is_a_config_error(self, tmp_path, capsys, flag, value, named):
        code = main(["bench", "--negs", "8", "--batch-size", "2", "--seq-len", "3",
                     "--n-items", "50", flag, value, "--output-dir", str(tmp_path / "bench")])
        assert code == 2
        assert named in capsys.readouterr().err


class TestExportVerb:
    def test_round_trip_from_report(self, tmp_path, prepared):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "2", "--eval-every", "1", *TRAIN_ARGS]) == 0
        out_csv = tmp_path / "curves.csv"
        assert main(["export", "--report", str(run / "report.json"),
                     "--output", str(out_csv)]) == 0
        assert len(read_csv(out_csv)) == 2

    @pytest.mark.parametrize("content,named", [
        ('{"epochs": [', "JSONDecodeError"),
        ('{"summary": {}}', "KeyError('epochs')"),
    ], ids=["not-json", "no-epochs"])
    def test_bad_report_is_a_usage_error(self, tmp_path, capsys, content, named):
        report = tmp_path / "report.json"
        report.write_text(content)
        code = main(["export", "--report", str(report), "--output", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: report {report} is not a train report ({named}" in err
        assert not (tmp_path / "x.csv").exists()

    def test_report_without_eval_entries_fails(self, tmp_path, prepared):
        run = tmp_path / "run"
        assert main(["train", "--input", str(prepared), "--output-dir", str(run),
                     "--epochs", "1", *TRAIN_ARGS]) == 0
        code = main(["export", "--report", str(run / "report.json"),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
