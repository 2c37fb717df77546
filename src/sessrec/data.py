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
only. A split stays columns from there to the batch: a `Sessions` of items,
timestamps and per-session offsets, which the cache archive stores as is.
"""

from __future__ import annotations

import csv
import hashlib
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


class Sessions:
    """Session `i` holds events `offsets[i]:offsets[i + 1]` of the columns.
    An int index gives a `Session` of Python lists; a slice or an index array
    gives the `Sessions` gathered from the columns. `a + b` lists `Session`s."""

    def __init__(self, session_ids: list, items: np.ndarray, timestamps: np.ndarray,
                 offsets: np.ndarray):
        self.session_ids, self.items, self.timestamps, self.offsets = (
            session_ids, items, timestamps, offsets)

    def __len__(self) -> int:
        return len(self.session_ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]
            lo, hi = self.offsets[i], self.offsets[i + 1]
            return Session(self.session_ids[i], self.items[lo:hi].tolist(),
                           self.timestamps[lo:hi].tolist())
        rows = np.arange(len(self))[index]
        starts, lengths = self.offsets[rows], self.offsets[rows + 1] - self.offsets[rows]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        events = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
        return Sessions([self.session_ids[r] for r in rows.tolist()], self.items[events],
                        self.timestamps[events], offsets)

    def __add__(self, other) -> list[Session]:
        return list(self) + list(other)


def as_sessions(sessions: Sequence[Session]) -> Sessions:
    """`sessions` as columns: a `Sessions` as it is, a sequence of `Session` packed once."""
    if isinstance(sessions, Sessions):
        return sessions
    return Sessions(
        [s.session_id for s in sessions],
        np.array([x for s in sessions for x in s.items], dtype=np.int64),
        np.array([x for s in sessions for x in s.timestamps], dtype=np.int64),
        np.cumsum([0] + [len(s.items) for s in sessions], dtype=np.int64),
    )


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
    session_refs: Sequence[Session]

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
    sessions = as_sessions(sessions)
    if not sessions:
        return
    if pad_id is None:
        pad_id = int(sessions.items.max()) + 1

    order = np.arange(len(sessions))
    if shuffle_rng is not None:
        order = shuffle_rng.permutation(len(sessions))

    for start in range(0, len(sessions), batch_size):
        members = sessions[order[start : start + batch_size]]
        lengths = np.minimum(np.diff(members.offsets), max_len)
        width = int(lengths.max()) if trim else max_len
        ids = np.full((len(members), width), pad_id, dtype=np.int64)
        # row i holds the last lengths[i] events of its session, left-aligned
        tail = np.repeat(members.offsets[1:] - np.cumsum(lengths), lengths)
        ids[np.arange(width) < lengths[:, None]] = members.items[tail + np.arange(len(tail))]
        targets = np.full_like(ids, pad_id)
        targets[:, :-1] = ids[:, 1:]
        mask = np.arange(width) < (lengths - 1)[:, None]
        yield SessionBatch(ids, targets, mask, pad_id, members)


# ---------------------------------------------------------------------------
# prepared datasets: preprocessing and cache


@dataclass
class PreparedDataset:
    """Train and test `Sessions` (a sequence of `Session` is packed) and the catalog."""

    train: Sessions
    test: Sessions
    catalog: Catalog

    def __post_init__(self):
        self.train, self.test = as_sessions(self.train), as_sessions(self.test)

    def manifest(self) -> dict:
        """Counts, and `digest`: a sha256 of both splits' items and offsets as
        int64, so a dataset with the same counts but other content differs."""
        digest = hashlib.sha256()
        for split in (self.train, self.test):
            for column in (split.items, split.offsets):
                digest.update(np.asarray(column, dtype="<i8").tobytes())
        return {
            "train_sessions": len(self.train),
            "train_events": len(self.train.items),
            "test_sessions": len(self.test),
            "test_events": len(self.test.items),
            "n_items": self.catalog.n_items,
            "digest": digest.hexdigest(),
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

    def sessions_of(mask: np.ndarray) -> Sessions:
        codes, lengths = np.unique(session[mask], return_counts=True)
        return Sessions([raw_sessions[c] for c in codes.tolist()], dense[item[mask]], ts[mask],
                        np.concatenate([[0], np.cumsum(lengths)]))

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
    """One `.npz` archive, written atomically, of what cannot be recomputed:
    per split its `Sessions` arrays as they are and the session ids, and the
    catalog's raw item keys in dense-id order. Raw ids are stored as their
    JSON texts, so they keep their JSON types. `manifest.json`, written after
    it, is a summary for people; nothing reads it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    keys = sorted(dataset.catalog.id_map, key=dataset.catalog.id_map.__getitem__)
    arrays = {"catalog": _json_texts(keys)}
    for prefix, split in (("train", dataset.train), ("test", dataset.test)):
        arrays |= {f"{prefix}_items": split.items, f"{prefix}_ts": split.timestamps,
                   f"{prefix}_offsets": split.offsets,
                   f"{prefix}_sids": _json_texts(split.session_ids)}
    with atomic_write(out / "data.npz") as fh:
        np.savez(fh, **arrays)
    with atomic_write(out / "manifest.json", "w") as fh:
        json.dump(dataset.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_texts(raw_ids: Iterable) -> np.ndarray:
    # for an int the JSON text is str(), which is faster
    return np.array([str(raw) if type(raw) is int else json.dumps(raw) for raw in raw_ids])


def load_arrays(path) -> dict[str, np.ndarray]:
    """Every array of the `.npz` archive at `path`; CacheError names a file
    that is not a whole archive (e.g. truncated)."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            return {key: blob[key] for key in blob.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise CacheError(f"{path} is not a readable .npz archive ({exc})") from None


CACHE_ARRAYS = ("catalog",) + tuple(f"{prefix}_{column}" for prefix in ("train", "test")
                                    for column in ("items", "ts", "offsets", "sids"))


def load_prepared(in_dir) -> PreparedDataset:
    """Read the archive written by `save_prepared`, and no other file: each
    split is a `Sessions` over the archive's arrays, the catalog size is the
    length of `catalog`, the frequencies are the train items' counts.
    CacheError names the array or entry at fault, an array whose dtype is
    not integer (items, timestamps, offsets) or text (catalog, session ids),
    or the session whose timestamps go back in time."""
    path = Path(in_dir) / "data.npz"
    arrays = load_arrays(path)
    for name in CACHE_ARRAYS:
        if name not in arrays:
            raise CacheError(f"{path} holds no array {name!r} (a cache from an older version?); "
                             "re-run `sessrec prep`")
        text = name == "catalog" or name.endswith("_sids")
        if arrays[name].dtype.kind not in ("U" if text else "iu"):
            raise CacheError(f"{path} array {name!r} has dtype {arrays[name].dtype}, not "
                             f"{'text' if text else 'integer'}; re-run `sessrec prep`")
    keys = _raw_ids(arrays["catalog"].tolist(), path, "catalog")
    try:
        id_map = {key: dense for dense, key in enumerate(keys)}
    except TypeError as exc:
        raise CacheError(f"{path} catalog holds a key that is not a raw item id ({exc})") from None
    if len(id_map) != len(keys):
        repeated = next(key for dense, key in enumerate(keys) if id_map[key] != dense)
        raise CacheError(f"{path} catalog repeats raw item key {repeated!r}")
    n_items = len(keys)
    splits = []
    for prefix in ("train", "test"):
        items, ts = arrays[f"{prefix}_items"], arrays[f"{prefix}_ts"]
        offsets, sids = arrays[f"{prefix}_offsets"].astype(np.int64), arrays[f"{prefix}_sids"]
        if len(ts) != len(items):
            raise CacheError(f"{path} {prefix}_ts has {len(ts)} entries, "
                             f"{prefix}_items {len(items)}")
        if (len(offsets) != len(sids) + 1 or offsets[0] != 0
                or (np.diff(offsets) < 0).any() or offsets[-1] != len(items)):
            raise CacheError(
                f"{path} {prefix}_offsets must rise monotonically from 0 to len({prefix}_items)="
                f"{len(items)} in len({prefix}_sids)+1={len(sids) + 1} steps"
            )
        bad = (items < 0) | (items >= n_items)
        if bad.any():
            raise CacheError(f"{path} {prefix}_items holds id {int(items[bad][0])} "
                             f"outside [0, {n_items})")
        session_ids = _raw_ids(sids.tolist(), path, f"{prefix}_sids")
        first = np.zeros(len(ts) + 1, dtype=bool)
        first[offsets[:-1]] = True  # events that open a session
        back = np.flatnonzero((ts[1:] < ts[:-1]) & ~first[1:-1])  # no np.diff: ts may be unsigned
        if len(back):
            i = int(np.searchsorted(offsets, back[0] + 1, side="right")) - 1
            raise CacheError(f"{path} {prefix}_ts goes back in time within session "
                             f"{session_ids[i]!r}; re-run `sessrec prep`")
        splits.append(Sessions(session_ids, items, ts, offsets))
    frequencies = np.bincount(arrays["train_items"], minlength=n_items)
    return PreparedDataset(splits[0], splits[1], Catalog(id_map, frequencies))


def _raw_ids(texts: list[str], path: Path, name: str) -> list:
    """Decode the JSON texts of raw session or item ids; CacheError names a bad entry."""
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
        f"{path} {name}[{i}] is {text!r}, not the JSON text of a raw id "
        "(a cache from an older version?); re-run `sessrec prep`"
    )
