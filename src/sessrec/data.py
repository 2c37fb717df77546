"""Clickstream ingestion, preprocessing, temporal splitting, and batching.

Input formats:

* session JSON lines, one session per line:
  ``{"session": 42, "events": [{"aid": 5, "ts": 100, "type": "clicks"}, ...]}``;
  a `session` or `aid` that is not a JSON integer or string makes the record
  malformed
* event CSV with header ``session_id,item_id,timestamp`` (all rows are clicks)

`prepare_dataset` works on flat per-event columns (session code, item code,
timestamp) of the click events. It alternately removes items below a minimum
support and sessions below a minimum length until a fixpoint, keeps the
sessions ending in the trailing holdout window for testing, and builds the
catalog (dense ids and empirical frequencies) from the training portion
only. The cache stores the same columns with per-session offsets.
"""

from __future__ import annotations

import csv
import json
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CacheError, ConfigError, EmptyDatasetError, ParseError

CLICK, CART, ORDER = "click", "cart", "order"
_EVENT_TYPES = {"clicks": CLICK, "carts": CART, "orders": ORDER, CLICK: CLICK, CART: CART, ORDER: ORDER}


@dataclass(slots=True)
class Event:
    session_id: object
    item_id: object
    timestamp: int
    event_type: str = CLICK


@dataclass
class Session:
    """Ordered item interactions of one user visit."""

    session_id: object
    items: list
    timestamps: list

    def __len__(self) -> int:
        return len(self.items)

    @property
    def last_timestamp(self) -> int:
        return self.timestamps[-1]


class Catalog:
    """Dense item-id space plus empirical interaction frequencies."""

    def __init__(self, id_map: dict, frequencies: np.ndarray):
        self.id_map = id_map
        self.frequencies = np.asarray(frequencies, dtype=np.int64)
        if len(id_map) != len(self.frequencies):
            raise ValueError("id_map and frequencies disagree on catalog size")

    @property
    def n_items(self) -> int:
        return len(self.frequencies)


@dataclass
class ParseStats:
    events: int = 0
    skipped: int = 0
    skipped_lines: list = field(default_factory=list)


def parse_events(
    path,
    format: str = "session-json-lines",
    strict: bool = True,
    stats: ParseStats | None = None,
) -> Iterator[Event]:
    """Stream events from a raw log file.

    In strict mode a malformed record raises ParseError with its line number;
    in lenient mode it is skipped and counted in `stats`.
    """
    if format == "session-json-lines":
        yield from _parse_jsonl(Path(path), strict, stats)
    elif format == "event-csv":
        yield from _parse_csv(Path(path), strict, stats)
    else:
        raise ValueError(f"unknown format {format!r}")


def _reject(message: str, line_no: int, strict: bool, stats: ParseStats | None) -> None:
    if strict:
        raise ParseError(f"line {line_no}: {message}", line_number=line_no)
    if stats is not None:
        stats.skipped += 1
        stats.skipped_lines.append(line_no)


def _key(value, name: str):
    """A session or item key as parsed: a JSON integer or string, nothing else."""
    if type(value) is int or type(value) is str:  # a bool would alias 0 and 1
        return value
    raise TypeError(f"{name} {json.dumps(value)} is not an integer or string")


def _parse_jsonl(path: Path, strict: bool, stats: ParseStats | None) -> Iterator[Event]:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                session = _key(record["session"], "session")
                events = [
                    Event(session, _key(ev["aid"], "aid"), int(ev["ts"]), _EVENT_TYPES[ev["type"]])
                    for ev in record["events"]
                ]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                _reject(f"bad session record ({exc})", line_no, strict, stats)
                continue
            for ev in events:
                if stats is not None:
                    stats.events += 1
                yield ev


def _parse_csv(path: Path, strict: bool, stats: ParseStats | None) -> Iterator[Event]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        expected = ["session_id", "item_id", "timestamp"]
        if [h.strip() for h in header] != expected:
            raise ParseError(f"line 1: expected header {','.join(expected)}", line_number=1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ev = Event(int(row[0]), int(row[1]), int(row[2]), CLICK)
            except (IndexError, ValueError) as exc:
                _reject(f"bad event row ({exc})", line_no, strict, stats)
                continue
            if stats is not None:
                stats.events += 1
            yield ev


# ---------------------------------------------------------------------------
# batching


@dataclass
class SessionBatch:
    """Padded [b, T] ids with shifted next-item targets and a validity mask.

    Rows are left-aligned whole sessions (truncated to their most recent
    `T` events); `mask[i, t]` is true iff `targets[i, t]` is a real item.
    """

    item_ids: np.ndarray
    targets: np.ndarray
    mask: np.ndarray
    pad_id: int
    session_refs: list[Session]

    @property
    def size(self) -> int:
        return self.item_ids.shape[0]

    @property
    def width(self) -> int:
        return self.item_ids.shape[1]

    def row_items(self, i: int) -> np.ndarray:
        n = int(self.mask[i].sum()) + 1
        return self.item_ids[i, :n]


def make_batches(
    sessions: Sequence[Session],
    batch_size: int = 128,
    max_len: int = 50,
    pad_id: int | None = None,
    shuffle_rng: np.random.Generator | None = None,
    trim: bool = False,
) -> Iterator[SessionBatch]:
    """Yield whole-session batches with next-item targets.

    Sessions are truncated to their most recent `max_len` events. With `trim`,
    rows are padded only to the longest session in the batch instead of
    `max_len`. Order is deterministic for a fixed seed.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if not sessions:
        return
    if pad_id is None:
        pad_id = max(max(s.items) for s in sessions) + 1

    order = np.arange(len(sessions))
    if shuffle_rng is not None:
        order = shuffle_rng.permutation(len(sessions))

    for start in range(0, len(sessions), batch_size):
        members = [sessions[i] for i in order[start : start + batch_size]]
        truncated = [s.items[-max_len:] for s in members]
        width = max(len(t) for t in truncated) if trim else max_len
        b = len(members)
        ids = np.full((b, width), pad_id, dtype=np.int64)
        targets = np.full((b, width), pad_id, dtype=np.int64)
        mask = np.zeros((b, width), dtype=bool)
        for i, items in enumerate(truncated):
            n = len(items)
            ids[i, :n] = items
            targets[i, : n - 1] = items[1:]
            mask[i, : n - 1] = True
        yield SessionBatch(ids, targets, mask, pad_id, members)


# ---------------------------------------------------------------------------
# prepared datasets: preprocessing and cache


@dataclass
class PreparedDataset:
    train: list[Session]
    test: list[Session]
    catalog: Catalog

    def manifest(self) -> dict:
        return {
            "train_sessions": len(self.train),
            "train_events": int(sum(len(s) for s in self.train)),
            "test_sessions": len(self.test),
            "test_events": int(sum(len(s) for s in self.test)),
            "n_items": self.catalog.n_items,
        }


def prepare_dataset(
    events: Iterable[Event],
    min_support: int = 5,
    min_len: int = 2,
    holdout: int = 7 * 24 * 3600 * 1000,
    support_scope: str = "all",
    fraction: float = 1.0,
    fraction_seed: int = 0,
) -> PreparedDataset:
    """Filter, split, subsample and restrict click events in one columnar pass.

    Sessions keep their first-appearance order, with events sorted by
    timestamp (ties keep input order). `support_scope` runs the
    support/length fixpoint on all events before the split ("all") or on
    the training portion only ("train"). Sessions ending in the trailing
    `holdout` window form the test set. `fraction` keeps a seeded random
    subset of train sessions. The catalog (dense ids in sorted raw-key
    order, int keys before str keys; frequencies) comes from the kept train
    events; test items unknown to it are dropped and the length floor is
    re-applied.
    """
    if support_scope not in ("all", "train"):
        raise ValueError(f"support_scope must be 'all' or 'train', got {support_scope!r}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    session_keys, item_keys = {}, {}
    session, item, ts = [], [], []
    for ev in events:
        if ev.event_type == CLICK:
            session.append(session_keys.setdefault(ev.session_id, len(session_keys)))
            item.append(item_keys.setdefault(ev.item_id, len(item_keys)))
            ts.append(ev.timestamp)
    session, item, ts = (np.array(c, dtype=np.int64) for c in (session, item, ts))
    order = np.lexsort((ts, session))
    session, item, ts = session[order], item[order], ts[order]

    scoped = np.ones(len(session), dtype=bool)
    if support_scope == "all":
        scoped = filter_fixpoint(session, item, scoped, min_support, min_len)
    if not scoped.any():
        raise EmptyDatasetError(f"no sessions left to split (support_scope={support_scope!r})")
    span = int(ts[scoped].max() - ts[scoped].min())
    if holdout >= span:
        raise ConfigError(f"holdout {holdout} ms must be shorter than the data span {span} ms")
    cutoff = ts[scoped].max() - holdout
    last = np.full(len(session_keys), np.iinfo(np.int64).min)
    np.maximum.at(last, session[scoped], ts[scoped])
    train = scoped & (last[session] <= cutoff)
    test = scoped & (last[session] > cutoff)
    if support_scope == "train":
        train = filter_fixpoint(session, item, train, min_support, min_len)
    if not train.any():
        raise EmptyDatasetError(f"train split empty after filtering (cutoff {cutoff})")
    if fraction < 1.0:
        codes = np.unique(session[train])
        keep = np.random.default_rng(fraction_seed).permutation(len(codes))
        train &= np.isin(session, codes[keep[: max(1, int(round(fraction * len(codes))))]])

    # the one restrict step: catalog from train, test limited to it
    counts = np.bincount(item[train], minlength=len(item_keys))
    raw_items = list(item_keys)
    known = sorted(np.flatnonzero(counts).tolist(),  # ints first, then strs, each sorted
                   key=lambda c: (isinstance(raw_items[c], str), raw_items[c]))
    dense = np.full(len(raw_items), -1, dtype=np.int64)
    dense[known] = np.arange(len(known))
    test &= dense[item] >= 0
    test &= np.bincount(session[test], minlength=len(session_keys))[session] >= min_len
    if not test.any():
        raise EmptyDatasetError("test set empty after restricting to train catalog")

    raw_sessions = list(session_keys)

    def sessions_of(mask: np.ndarray) -> list[Session]:
        codes, lengths = np.unique(session[mask], return_counts=True)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        return columns_to_sessions([raw_sessions[c] for c in codes.tolist()],
                                   dense[item[mask]], ts[mask], offsets)

    catalog = Catalog({raw_items[c]: i for i, c in enumerate(known)}, counts[known])
    return PreparedDataset(sessions_of(train), sessions_of(test), catalog)


def filter_fixpoint(
    session: np.ndarray, item: np.ndarray, keep: np.ndarray, min_support: int, min_len: int
) -> np.ndarray:
    """Alternate item-support and session-length filters until a fixpoint.

    `session` and `item` are per-event integer codes; only events where
    `keep` is true take part. Returns the mask of surviving events.
    """
    n_sessions = int(session.max(initial=-1)) + 1
    n_items = int(item.max(initial=-1)) + 1
    while True:
        support = np.bincount(item[keep], minlength=n_items)
        kept = keep & (support[item] >= min_support)
        kept &= np.bincount(session[kept], minlength=n_sessions)[session] >= min_len
        if np.array_equal(kept, keep):
            return keep
        keep = kept


def columns_to_sessions(
    session_ids: Sequence, items: np.ndarray, timestamps: np.ndarray, offsets: np.ndarray
) -> list[Session]:
    """Session `i` holds events `offsets[i]:offsets[i + 1]` of the columns.

    All sessions share one int object per item id, not one per event.
    """
    shared = np.arange(int(items.max(initial=-1)) + 1).astype(object)
    items, timestamps, bounds = shared[items].tolist(), timestamps.tolist(), offsets.tolist()
    return [
        Session(sid, items[lo:hi], timestamps[lo:hi])
        for sid, lo, hi in zip(session_ids, bounds, bounds[1:])
    ]


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Open a temp file beside `path` for writing; move it over `path` on success.

    Readers see the previous file or the complete new one, never a torn
    write. If the block raises, the temp file is removed and `path` is left
    as it was. Text mode does no newline translation. (No fsync: this
    guards against the writer failing, not against power loss.)
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        text = "b" not in mode
        with open(tmp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_prepared(dataset: PreparedDataset, out_dir) -> None:
    """Columnar cache (.npz, session ids as JSON texts), the catalog's raw keys
    in dense-id order, and a plain-text manifest with the count summary; each
    file is written atomically. Raw ids keep their JSON types."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def pack(sessions: list[Session]):
        items = np.concatenate([np.asarray(s.items, dtype=np.int64) for s in sessions])
        ts = np.concatenate([np.asarray(s.timestamps, dtype=np.int64) for s in sessions])
        offsets = np.cumsum([0] + [len(s) for s in sessions]).astype(np.int64)
        # each raw id's JSON text; for an int that is str(), which is faster
        sids = np.array([str(sid) if type(sid) is int else json.dumps(sid)
                         for sid in (s.session_id for s in sessions)])
        return items, ts, offsets, sids

    tr = pack(dataset.train)
    te = pack(dataset.test)
    with atomic_write(out / "data.npz") as fh:
        np.savez(
            fh,
            train_items=tr[0], train_ts=tr[1], train_offsets=tr[2], train_sids=tr[3],
            test_items=te[0], test_ts=te[1], test_offsets=te[2], test_sids=te[3],
            frequencies=dataset.catalog.frequencies,
        )
    keys = sorted(dataset.catalog.id_map, key=dataset.catalog.id_map.__getitem__)
    with atomic_write(out / "catalog.json", "w") as fh:
        json.dump(keys, fh)
    with atomic_write(out / "manifest.json", "w") as fh:
        json.dump(dataset.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_arrays(path) -> dict[str, np.ndarray]:
    """Every array of the `.npz` archive at `path`; CacheError names a file
    that is not a whole archive (e.g. truncated)."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            return {key: blob[key] for key in blob.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise CacheError(f"{path} is not a readable .npz archive ({exc})") from None


def load_prepared(in_dir) -> PreparedDataset:
    """Read a cache written by `save_prepared`; CacheError names a part that disagrees."""
    path = Path(in_dir)
    arrays = load_arrays(path / "data.npz")
    with open(path / "catalog.json", "r", encoding="utf-8") as fh:
        keys = json.load(fh)
    if not isinstance(keys, list):
        raise CacheError(
            "catalog.json is not a list of raw item keys (a cache from an older "
            "version?); re-run `sessrec prep`"
        )
    try:
        id_map = {key: dense for dense, key in enumerate(keys)}
    except TypeError as exc:
        raise CacheError(f"catalog.json holds a key that is not a raw item id ({exc})") from None
    if len(id_map) != len(keys):
        repeated = next(key for dense, key in enumerate(keys) if id_map[key] != dense)
        raise CacheError(f"catalog.json repeats raw item key {repeated!r}")
    frequencies = arrays["frequencies"]
    n_items = len(frequencies)
    if len(id_map) != n_items:
        raise CacheError(f"catalog.json holds {len(id_map)} items but frequencies {n_items}")
    splits = []
    for prefix in ("train", "test"):
        items, ts = arrays[f"{prefix}_items"], arrays[f"{prefix}_ts"]
        offsets, sids = arrays[f"{prefix}_offsets"], arrays[f"{prefix}_sids"]
        if len(ts) != len(items):
            raise CacheError(f"{prefix}_ts has {len(ts)} entries, {prefix}_items {len(items)}")
        if (len(offsets) != len(sids) + 1 or offsets[0] != 0
                or (np.diff(offsets) < 0).any() or offsets[-1] != len(items)):
            raise CacheError(
                f"{prefix}_offsets must rise monotonically from 0 to len({prefix}_items)="
                f"{len(items)} in len({prefix}_sids)+1={len(sids) + 1} steps"
            )
        bad = (items < 0) | (items >= n_items)
        if bad.any():
            raise CacheError(f"{prefix}_items holds id {int(items[bad][0])} outside [0, {n_items})")
        splits.append(columns_to_sessions(_session_ids(sids.tolist(), f"{prefix}_sids"),
                                          items, ts, offsets))
    if not np.array_equal(frequencies, np.bincount(arrays["train_items"], minlength=n_items)):
        raise CacheError("frequencies differ from np.bincount(train_items)")
    with open(path / "manifest.json", "r", encoding="utf-8") as fh:
        written = json.load(fh)
    counts = {"n_items": n_items}
    for prefix in ("train", "test"):
        counts[f"{prefix}_sessions"] = len(arrays[f"{prefix}_sids"])
        counts[f"{prefix}_events"] = len(arrays[f"{prefix}_items"])
    for key, count in counts.items():
        if written.get(key) != count:
            raise CacheError(
                f"manifest.json gives {key} = {written.get(key)!r} but the cached arrays hold {count}"
            )
    return PreparedDataset(splits[0], splits[1], Catalog(id_map, frequencies))


def _session_ids(texts: list[str], name: str) -> list:
    """Decode the JSON texts of raw session ids; CacheError names a bad entry."""
    try:
        ids = json.loads(f"[{','.join(texts)}]")
        if len(ids) == len(texts):
            return ids
    except ValueError:
        pass
    for i, text in enumerate(texts):
        try:
            json.loads(text)
        except ValueError:
            break
    raise CacheError(
        f"data.npz {name}[{i}] is {text!r}, not the JSON text of a raw session id "
        "(a cache from an older version?); re-run `sessrec prep`"
    )
