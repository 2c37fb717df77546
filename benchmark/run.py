#!/usr/bin/env python3
"""Seeded end-to-end benchmark: clickstream file -> prep -> training -> exhaustive eval.

    python3 benchmark/run.py --workload tron-batchwise --seed 1 --seconds 50 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 50

The input file is generated from ``--seed`` before anything is timed, and the
program only sees that file. A round runs the whole pipeline: parse, prepare
and save the dataset, and set up (load the cache, resolve the config, build
the model, the optimizer and the alias table), each a few times; train a fixed
number of steps; evaluate every test transition against the full catalog.
Rounds repeat while the next one still fits in ``--seconds`` (at least one
runs). Every round does the same work, so every round must give the same
quality.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate, and it holds the
per-layer metrics of the traced rounds plus the tracing overhead. Either way
the output checks in ``checks.py`` run after the rounds. ``--workload all``
runs every workload one after another, each in its own process.

BLAS runs on one thread: a thread count changes float rounding, and the
benchmark promises identical quality figures on every machine.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

ORACLE_SESSIONS = 8
SPACING_MS = 60_000
TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    n_items: int  # raw catalog size, before support filtering
    n_sessions: int
    test_share: float  # share of sessions in the trailing holdout window
    steps: int  # training steps per round
    repeats: int  # segments per round, each with one timed prep, set-up and probe eval
    config: dict


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "tron-batchwise": Workload(
        n_items=3000, n_sessions=8000, test_share=0.2, steps=40, repeats=6,
        config={
            "loss": "ssm", "negs.uniform.count": 2048, "negs.uniform.granularity": "batchwise",
            "negs.inbatch.count": 127, "negs.topk": 100,
            "model.hidden_dim": 64, "data.max_len": 20, "train.lr": 5e-3,
        },
    ),
    "large-catalog": Workload(
        n_items=12000, n_sessions=40000, test_share=0.03, steps=40, repeats=4,
        config={
            "loss": "bpr-max", "negs.uniform.count": 512,
            "negs.uniform.granularity": "sessionwise", "negs.inbatch.count": 32,
            "model.hidden_dim": 64, "data.max_len": 20, "train.lr": 5e-3,
        },
    ),
}

END_TO_END = {
    "setup_s": "s", "prep_s": "s", "train_positions_per_s": "positions/s",
    "eval_transitions_per_s": "transitions/s", "peak_rss_mb": "MB",
    "recall_at_20": "1", "mrr_at_20": "1",
}

PER_LAYER = {
    **{name: "s" for name in (
        "data.parse_s", "data.prepare_s", "data.save_s", "data.load_s", "data.batch_s",
        "sampler.uniform_s", "sampler.frequency_s", "sampler.inbatch_s", "sampler.concat_s",
        "sampler.topk_s", "model.forward_train_s", "model.forward_eval_s",
        "model.score_pos_s", "model.score_neg_s", "loss.forward_s", "tensor.backward_s",
        "train.step_s", "train.adam_s", "evaluate.rank_s")},
    **{name: "count" for name in (
        "data.events", "data.train_sessions", "data.n_items", "sampler.draws.uniform",
        "sampler.draws.frequency", "sampler.draws.inbatch", "train.steps", "train.positions",
        "evaluate.transitions", "evaluate.scores")},
    "model.neg_block_bytes": "bytes",
    "sampler.inbatch_delivered_ratio": "ratio",
    "sampler.topk_kept_ratio": "ratio",
    "train.valid_position_ratio": "ratio",
    "evaluate.valid_position_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Round:
    """One pass of the pipeline; prep, set-up and a one-batch eval repeat once per segment."""

    prep_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    step_rates: list = field(default_factory=list)  # positions/s of each training step
    eval_rates: list = field(default_factory=list)  # transitions/s of each eval pass
    recall: float = 0.0
    mrr: float = 0.0
    losses: list = field(default_factory=list)
    shapes: list = field(default_factory=list)
    draws: dict = field(default_factory=dict)
    wall_s: float = 0.0
    attempted: int = 0

    def quality(self) -> tuple:
        return (self.recall, self.mrr, self.losses, self.draws)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "sessrec" / "__init__.py").is_file():
        print(f"error: no sessrec sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sessrec  # noqa: F401  (timed as part of set-up)
    import_s = time.perf_counter() - PROCESS_START
    sys.path.insert(0, str(BENCH_DIR))
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return Bench(args, WORKLOADS[args.workload], work).run(import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Bench:
    def __init__(self, args, workload: Workload, work: Path):
        import gen
        from sessrec import config as C

        self.args, self.workload = args, workload
        self.config = C.resolve(overrides={**workload.config, "train.seed": TRAIN_SEED})
        work.mkdir(parents=True, exist_ok=True)
        self.raw_path = work / "clicks.jsonl"
        self.prep_dir = work / "prepared"
        self.unrestored: list[str] = []
        self.lengths, self.raw_items = gen.generate(workload.n_items, workload.n_sessions, args.seed)
        gen.write_session_jsonl(self.raw_path, self.lengths, self.raw_items, SPACING_MS)
        self.holdout_ms = int(workload.test_share * workload.n_sessions * SPACING_MS)

    # -- one pass of the pipeline ---------------------------------------------

    def prep(self):
        from sessrec import data as D

        # Materialised so parse and prepare are timed apart.
        events = list(D.parse_events(self.raw_path))
        dataset = D.prepare_dataset(
            events, min_support=self.config["data.min_support"],
            min_len=self.config["data.min_len"], holdout=self.holdout_ms,
        )
        D.save_prepared(dataset, self.prep_dir)

    def setup(self):
        from sessrec import config as C
        from sessrec import data as D
        from sessrec import model as M
        from sessrec import sampler as S
        from sessrec import train as TR

        dataset = D.load_prepared(self.prep_dir)
        config = C.resolve(overrides={**self.workload.config, "train.seed": TRAIN_SEED})
        state = M.ModelState.initialize(
            TR.model_config_from(config, dataset.catalog.n_items), seed=config["train.seed"])
        optimizer = TR.Adam(state.params, config["train.lr"], config["train.beta1"],
                            config["train.beta2"], config["train.eps"])
        table = None
        if config["negs.frequency.count"] > 0:
            table = S.AliasTable(dataset.catalog.frequencies)
        return dataset, state, optimizer, table

    def batches(self, dataset, epoch: int):
        from sessrec import train as TR

        return TR.make_batches(
            dataset.train, batch_size=self.config["train.batch_size"],
            max_len=self.config["data.max_len"], pad_id=dataset.catalog.n_items,
            shuffle_rng=TR.rng_stream(self.config["train.seed"], "shuffle", epoch),
            trim=self.config["train.trim_batches"],
        )

    def schedule(self, dataset):
        """(epoch, index, batch) in the trainer's order, across epochs."""
        epoch = 0
        while True:
            for index, batch in enumerate(self.batches(dataset, epoch)):
                yield epoch, index, batch
            epoch += 1

    def evaluate(self, state, sessions):
        from sessrec import evaluate as E

        return E.evaluate(state, sessions, k=self.config["eval.k"],
                          batch_size=self.config["eval.batch_size"])

    def round(self) -> Round:
        from sessrec import train as TR

        def timed(fn, *args):
            gc.collect()  # every pass starts from a collected heap
            t = time.perf_counter()
            out = fn(*args)
            return time.perf_counter() - t, out

        r = Round(draws={"uniform": 0, "frequency": 0, "inbatch": 0})
        started = time.perf_counter()
        segments = self.workload.repeats
        trained = None
        for segment in range(segments):
            # The timed prep, set-up and eval passes are spread over the whole
            # round, so their medians see the same machine as the training
            # steps do. The first set-up is the one that trains.
            seconds, _ = timed(self.prep)
            r.prep_s.append(seconds)
            seconds, built = timed(self.setup)
            r.setup_s.append(seconds)
            trained = trained or built
            del built
            dataset, state, optimizer, table = trained
            if segment == 0:
                batches = self.schedule(dataset)
            probe = dataset.test[: self.config["eval.batch_size"]]
            seconds, result = timed(self.evaluate, state, probe)
            r.eval_rates.append(result.n_transitions / seconds)
            while len(r.losses) < self.workload.steps * (segment + 1) // segments:
                epoch, index, batch = next(batches)
                t = time.perf_counter()
                value, positions = TR.train_step(
                    state, batch, self.config, optimizer, self.config["train.seed"],
                    epoch, index, r.draws, frequency_table=table)
                r.step_rates.append(positions / (time.perf_counter() - t))
                r.losses.append(value)
                r.shapes.append(batch.item_ids.shape)
        batches.close()

        seconds, result = timed(self.evaluate, state, dataset.test)
        r.eval_rates.append(result.n_transitions / seconds)
        r.recall, r.mrr = result.recall_at_k, result.mrr_at_k
        r.wall_s = time.perf_counter() - started
        eval_batches = -(-len(dataset.test) // self.config["eval.batch_size"])
        # per segment: 3 prep stages, 1 set-up, 1 probe eval batch
        r.attempted = 5 * segments + self.workload.steps + eval_batches
        self.last = dataset, state
        return r

    # -- checks ----------------------------------------------------------------

    def check(self, rounds: list[Round]) -> list[str]:
        import checks
        from tracer import Patches

        from sessrec import train as TR

        failures = []
        first = rounds[0]
        for r in rounds:
            if r.quality() != first.quality():
                failures.append("rounds of identical work gave different quality, losses or draws")
        failures += checks.loss(first.losses)
        failures += checks.draws(self.config, first.shapes, first.draws)
        dataset, state = self.last
        failures += checks.prepared(
            dataset, self.lengths, self.raw_items, SPACING_MS, self.holdout_ms,
            self.config["data.min_support"], self.config["data.min_len"])
        failures += checks.ranks(state, dataset.test[:ORACLE_SESSIONS], self.config["data.max_len"])

        failures += [f"tracing left {name} wrapped" for name in self.unrestored]
        expected = {"topk": self.config["negs.topk"] > 0, "inbatch": self.config["negs.inbatch.count"] > 0}
        if not any(expected.values()):
            return failures

        # One more training step with the top-k and in-batch samplers observed.
        seen = {}
        patches = Patches()

        def observe(name, original):
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                seen[name] = (args, out)
                return out
            return wrapper

        patches.set(TR, "topk_filter", observe("topk", TR.topk_filter))
        patches.set(TR, "sample_inbatch", observe("inbatch", TR.sample_inbatch))
        try:
            dataset, state, optimizer, table = self.setup()
            batch = next(self.batches(dataset, 0))
            TR.train_step(state, batch, self.config, optimizer, self.config["train.seed"],
                          0, 0, {"uniform": 0, "frequency": 0, "inbatch": 0},
                          frequency_table=table)
        finally:
            failures += [f"{name} was not restored" for name in patches.restore()]
        if "topk" in seen:
            (scores, k), kept = seen["topk"]
            failures += checks.topk(scores.data, kept.scores.data, k)
        if "inbatch" in seen:
            (inbatch_of, *_), negatives = seen["inbatch"]
            failures += checks.inbatch(inbatch_of, negatives.ids)
        failures += [f"the {name} path did not run" for name, want in expected.items()
                     if want and name not in seen]
        return failures

    # -- driver ----------------------------------------------------------------

    def run(self, import_s: float) -> int:
        rounds, traced, tracers = [], [], []
        started = time.perf_counter()
        while True:
            gc.collect()
            rounds.append(self.round())
            if self.args.trace:
                tracers.append(self.traced_round(traced))
            elapsed = time.perf_counter() - started
            per_round = elapsed / len(rounds)
            if elapsed + per_round > self.args.seconds:
                break

        failures = self.check(rounds + traced)
        if any(t.quality() != u.quality() for t, u in zip(traced, rounds)):
            failures.append("traced and untraced rounds differ in quality, losses or draws")
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
        if self.args.trace:
            metrics = self.per_layer(rounds, traced, tracers)
        else:
            metrics = self.end_to_end(rounds, import_s)
        attempted = sum(r.attempted for r in rounds + traced)
        for name, entry in metrics.items():
            print(f"{self.args.workload:>20} {name:<34} {entry['value']:>16.6g} {entry['unit']}")
        print(f"{self.args.workload:>20} {'rounds':<34} {len(rounds + traced):>16d}")
        print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0,
                          "metrics": metrics}))
        return 0

    def traced_round(self, traced: list):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced.append(self.round())
        finally:
            self.unrestored += tracer.uninstall()
        return tracer

    def end_to_end(self, rounds: list[Round], import_s: float) -> dict:
        median = statistics.median
        values = {
            "setup_s": import_s + median([s for r in rounds for s in r.setup_s]),
            "prep_s": median([s for r in rounds for s in r.prep_s]),
            "train_positions_per_s": median([x for r in rounds for x in r.step_rates]),
            "eval_transitions_per_s": median([x for r in rounds for x in r.eval_rates]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "recall_at_20": rounds[0].recall,
            "mrr_at_20": rounds[0].mrr,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def per_layer(self, rounds: list[Round], traced: list[Round], tracers: list) -> dict:
        selfs = [t.self_times() for t in tracers]
        values = {}
        for name, unit in PER_LAYER.items():
            if unit == "s":
                label = name[: -len("_s")]
                values[name] = statistics.median([s.get(label, 0.0) for s in selfs])
        tracer, r = tracers[0], traced[0]
        counts = tracer.counts
        steps = counts["train.steps"]
        scored = counts["sampler.negatives_scored"]
        configured = self.config["negs.inbatch.count"] * steps
        values.update({
            "data.events": counts["data.events"] / self.workload.repeats,
            "data.train_sessions": len(self.last[0].train),
            "data.n_items": self.last[0].catalog.n_items,
            "sampler.draws.uniform": r.draws["uniform"],
            "sampler.draws.frequency": r.draws["frequency"],
            "sampler.draws.inbatch": r.draws["inbatch"],
            "train.steps": steps,
            "train.positions": counts["train.positions"],
            "evaluate.transitions": counts["evaluate.transitions"],
            "evaluate.scores": counts["evaluate.scores"],
            "model.neg_block_bytes": tracer.maxima["model.neg_block_bytes"],
            "sampler.inbatch_delivered_ratio":
                counts["sampler.inbatch_delivered"] / configured if configured else 1.0,
            "sampler.topk_kept_ratio": (scored - counts["sampler.topk_dropped"]) / scored,
            "train.valid_position_ratio": counts["train.positions"] / counts["train.slots"],
            "evaluate.valid_position_ratio":
                counts["evaluate.transitions"] / counts["evaluate.slots"],
            "trace.overhead_ratio": statistics.median([t.wall_s for t in traced])
                / statistics.median([u.wall_s for u in rounds]) - 1.0,
        })
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{self.args.workload}-seed{self.args.seed}.json", "w") as fh:
            json.dump([t.spans for t in tracers], fh)
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
