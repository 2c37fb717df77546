"""Parsing, fixpoint preprocessing, temporal split, and batching tests."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sessrec import data as D
from sessrec.errors import CacheError, ConfigError, EmptyDatasetError, ParseError


def events_of(*session_items, start_ts=0, step=1):
    """Click events for the given sessions, timestamps increasing globally."""
    out = []
    ts = start_ts
    for sid, items in enumerate(session_items):
        for item in items:
            out.append(D.Event(sid, item, ts))
            ts += step
    return out


def brute_force_fixpoint(session_items, min_support, min_len, session_filter_first=False):
    """Independent reference: iterate plain-list filters until nothing changes."""
    current = [list(s) for s in session_items]
    while True:
        if session_filter_first:
            current = [s for s in current if len(s) >= min_len]
        counts = Counter(i for s in current for i in s)
        pruned = [[i for i in s if counts[i] >= min_support] for s in current]
        pruned = [s for s in pruned if len(s) >= min_len]
        if pruned == current:
            return current
        current = pruned


DAY = 24 * 3600 * 1000


def sessions_at(*sessions, **kwargs):
    """prepare_dataset over click sessions given as (session_id, items, timestamps)."""
    events = [D.Event(sid, i, t) for sid, items, ts in sessions for i, t in zip(items, ts)]
    return D.prepare_dataset(events, **{"min_support": 1, "min_len": 2, **kwargs})


def decoded(dataset, sessions):
    raw = {dense: key for key, dense in dataset.catalog.id_map.items()}
    return [[raw[i] for i in s.items] for s in sessions]


def fixpoint_survivors(raw, min_support, min_len):
    """Item lists of the sessions that filter_fixpoint keeps, in input order."""
    session = np.repeat(np.arange(len(raw)), [len(s) for s in raw])
    item = np.array([i for s in raw for i in s], dtype=np.int64)
    keep = D.filter_fixpoint(session, item, np.ones(len(item), dtype=bool), min_support, min_len)
    survivors = [item[keep & (session == i)].tolist() for i in range(len(raw))]
    return [s for s in survivors if s], keep, session, item


class TestParsing:
    def test_single_json_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({"session": 1, "events": [{"aid": 5, "ts": 100, "type": "clicks"}]}) + "\n")
        events = list(D.parse_events(path))
        assert events == [D.Event(1, 5, 100, D.CLICK)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        stats = D.ParseStats()
        assert list(D.parse_events(path, stats=stats)) == []
        assert stats.skipped == 0

    def test_lenient_mode_counts_skips(self, tmp_path):
        path = tmp_path / "three.jsonl"
        good = json.dumps({"session": 1, "events": [{"aid": 2, "ts": 10, "type": "clicks"}]})
        good2 = json.dumps({"session": 2, "events": [{"aid": 3, "ts": 20, "type": "carts"}]})
        path.write_text(good + "\n" + "{not json}\n" + good2 + "\n")
        stats = D.ParseStats()
        events = list(D.parse_events(path, strict=False, stats=stats))
        assert len(events) == 2
        assert stats.skipped == 1 and stats.skipped_lines == [2]

    def test_strict_mode_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"session": 1, "events": []}\nnope\n')
        with pytest.raises(ParseError, match="line 2"):
            list(D.parse_events(path))

    BAD_KEYS = [[2], {"id": 2}, None, True, 2.0]

    @pytest.mark.parametrize("field", ["session", "aid"])
    @pytest.mark.parametrize("key", BAD_KEYS, ids=["list", "object", "null", "bool", "float"])
    def test_key_that_is_not_an_integer_or_string_is_rejected(self, tmp_path, field, key):
        path = tmp_path / "keys.jsonl"
        good = {"session": 1, "events": [{"aid": 1, "ts": 10, "type": "clicks"}]}
        bad = {"session": 2, "events": [{"aid": 3, "ts": 20, "type": "clicks"}]}
        if field == "session":
            bad["session"] = key
        else:
            bad["events"].append({"aid": key, "ts": 21, "type": "clicks"})
        path.write_text("\n".join(json.dumps(r) for r in (good, bad, good)) + "\n")
        with pytest.raises(ParseError, match=f"line 2: .*{field}") as err:
            list(D.parse_events(path))
        assert err.value.line_number == 2
        stats = D.ParseStats()
        events = list(D.parse_events(path, strict=False, stats=stats))
        assert events == [D.Event(1, 1, 10, D.CLICK)] * 2
        assert stats.skipped == 1 and stats.skipped_lines == [2]

    def test_csv_format(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("session_id,item_id,timestamp\n1,10,100\n1,11,200\n2,10,300\n")
        events = list(D.parse_events(path, format="event-csv"))
        assert [e.item_id for e in events] == [10, 11, 10]
        assert all(e.event_type == D.CLICK for e in events)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            list(D.parse_events(tmp_path / "absent.jsonl"))

    def test_event_type_filter(self):
        evs = [D.Event(1, "a", 0, D.CLICK), D.Event(1, "b", 1, D.CART), D.Event(1, "c", 2, D.CLICK),
               D.Event(2, "a", 100, D.CLICK), D.Event(2, "c", 101, D.ORDER),
               D.Event(2, "c", 102, D.CLICK)]
        ds = D.prepare_dataset(evs, min_support=1, min_len=2, holdout=50)
        assert decoded(ds, ds.train) == [["a", "c"]]
        assert "b" not in ds.catalog.id_map
        assert [s.timestamps for s in ds.test] == [[100, 102]]

    def test_events_carry_no_instance_dict(self):
        # a parsed log holds one Event per click; slots keep each one small
        event = D.Event(1, 5, 100)
        assert not hasattr(event, "__dict__")
        assert event == D.Event(1, 5, 100, D.CLICK)

    def test_out_of_order_timestamps_are_sorted(self):
        evs = [D.Event(2, "a", 101), D.Event(1, "b", 5), D.Event(1, "a", 1), D.Event(2, "b", 100)]
        ds = D.prepare_dataset(evs, min_support=1, min_len=2, holdout=50)
        assert [(s.session_id, s.timestamps) for s in ds.train] == [(1, [1, 5])]
        assert decoded(ds, ds.train) == [["a", "b"]]
        assert decoded(ds, ds.test) == [["b", "a"]]


class TestPreprocess:
    def test_hand_traceable_fixpoint(self):
        # c is dropped for low support, [c,a] then dies of short length,
        # and the recount keeps a=3, b=2; the late session is the test set
        events = events_of(["a", "b", "a"], ["a", "b"], ["c", "a"], ["a", "b"], step=10)
        ds = D.prepare_dataset(events, min_support=2, min_len=2, holdout=15,
                               support_scope="train")
        assert decoded(ds, ds.train) == [["a", "b", "a"], ["a", "b"]]
        assert {k: int(ds.catalog.frequencies[v]) for k, v in ds.catalog.id_map.items()} == {"a": 3, "b": 2}

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(20)
        for trial in range(50):
            n_sessions = int(rng.integers(1, 12))
            raw = [
                [int(x) for x in rng.integers(0, 8, size=rng.integers(1, 7))]
                for _ in range(n_sessions)
            ]
            expected = brute_force_fixpoint(raw, 3, 2)
            assert fixpoint_survivors(raw, 3, 2)[0] == expected
            # order of elimination must not matter
            assert expected == brute_force_fixpoint(raw, 3, 2, session_filter_first=True)

    def test_already_stable_input_unchanged(self):
        _, keep, _, _ = fixpoint_survivors([[0, 1], [1, 0]], 2, 2)
        assert keep.all()

    def test_fixpoint_property(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            raw = [
                [int(x) for x in rng.integers(0, 6, size=rng.integers(1, 6))]
                for _ in range(int(rng.integers(2, 10)))
            ]
            _, once, session, item = fixpoint_survivors(raw, 2, 2)
            np.testing.assert_array_equal(D.filter_fixpoint(session, item, once, 2, 2), once)

    def test_empty_result_is_an_error(self):
        with pytest.raises(EmptyDatasetError):
            D.prepare_dataset(events_of(["a"], ["b"]), min_support=5, min_len=2)


class TestTemporalSplit:
    def test_last_week_boundary(self):
        ds = sessions_at(("early", [0, 1], [1 * DAY, 1 * DAY + 1]),
                         ("late", [0, 1], [9 * DAY, 9 * DAY + 1]), holdout=7 * DAY)
        assert [s.session_id for s in ds.train] == ["early"]
        assert [s.session_id for s in ds.test] == ["late"]

    def test_zero_holdout_raises(self):
        with pytest.raises(EmptyDatasetError):
            sessions_at(("a", [0, 1], [0, 10]), ("b", [0, 1], [20, 30]), holdout=0)

    def test_catalog_rebuilt_from_train_only(self):
        ds = sessions_at(("tr", [5, 6, 5], [0, 1, 2]), ("te", [5, 7, 6], [100, 101, 102]),
                         holdout=50)
        assert ds.catalog.n_items == 2  # item 7 unknown to train
        assert sorted(ds.catalog.id_map) == [5, 6]
        np.testing.assert_array_equal(ds.catalog.frequencies, [2, 1])
        # test session keeps only train-known items, re-encoded
        assert [s.items for s in ds.test] == [[0, 1]]

    def test_split_soundness_property(self):
        rng = np.random.default_rng(22)
        sessions = []
        for i in range(60):
            n = int(rng.integers(2, 6))
            start = int(rng.integers(0, 80))
            sessions.append((i, [int(x) for x in rng.integers(0, 12, n)], list(range(start, start + n))))
        ds = sessions_at(*sessions, holdout=20)
        max_ts = max(ts[-1] for _, _, ts in sessions)
        assert all(s.last_timestamp <= max_ts - 20 for s in ds.train)
        n_items = ds.catalog.n_items
        assert all(0 <= i < n_items for s in ds.test for i in s.items)

    def test_holdout_longer_than_span_rejected(self):
        for scope in ("all", "train"):
            with pytest.raises(ConfigError, match="holdout 100 ms .* span 10 ms"):
                sessions_at(("a", [0, 1], [0, 10]), holdout=100, support_scope=scope)
            with pytest.raises(ValueError):
                sessions_at(("a", [0, 1], [0, 10]), ("b", [0, 1], [5, 6]), holdout=10,
                            support_scope=scope)


class TestBatches:
    def test_shift_construction(self):
        s = D.Session("s", [7, 8, 9], [0, 1, 2])
        batch = next(D.make_batches([s], batch_size=4, max_len=5, pad_id=99))
        np.testing.assert_array_equal(batch.item_ids[0], [7, 8, 9, 99, 99])
        np.testing.assert_array_equal(batch.targets[0], [8, 9, 99, 99, 99])
        np.testing.assert_array_equal(batch.mask[0], [True, True, False, False, False])

    def test_truncation_keeps_most_recent(self):
        s = D.Session("s", list(range(10)), list(range(10)))
        batch = next(D.make_batches([s], batch_size=1, max_len=4, pad_id=99))
        np.testing.assert_array_equal(batch.item_ids[0], [6, 7, 8, 9])

    def test_batch_size_arithmetic(self):
        sessions = [D.Session(i, [0, 1], [0, 1]) for i in range(300)]
        sizes = [b.size for b in D.make_batches(sessions, batch_size=128, max_len=4, pad_id=2)]
        assert sizes == [128, 128, 44]

    def test_deterministic_shuffle(self):
        sessions = [D.Session(i, [i % 3, (i + 1) % 3], [0, 1]) for i in range(20)]

        def order(seed):
            batches = D.make_batches(sessions, 8, 4, pad_id=3,
                                     shuffle_rng=np.random.default_rng(seed))
            return [b.item_ids.copy() for b in batches]

        a, b, c = order(5), order(5), order(6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=12), min_size=1, max_size=10),
        st.integers(2, 8),
        st.booleans(),
    )
    def test_round_trip_reproduces_truncated_multiset(self, raw, max_len, trim):
        sessions = [D.Session(i, list(s), list(range(len(s)))) for i, s in enumerate(raw)]
        batches = D.make_batches(sessions, batch_size=3, max_len=max_len, pad_id=10,
                                 shuffle_rng=np.random.default_rng(1), trim=trim)
        rebuilt = sorted(
            tuple(b.row_items(i).tolist()) for b in batches for i in range(b.size)
        )
        expected = sorted(tuple(s[-max_len:]) for s in raw)
        assert rebuilt == expected


def cache_events(key=lambda x: f"item{x}", session_key=int):
    rng = np.random.default_rng(23)
    sessions = []
    ts = 0
    for i in range(40):
        n = int(rng.integers(2, 6))
        items = [int(x) for x in rng.integers(0, 10, n)]
        sessions.append([D.Event(session_key(i), key(x), ts + j) for j, x in enumerate(items)])
        ts += 100
    return [e for s in sessions for e in s]


class TestPreparedCache:

    def test_save_load_round_trip(self, tmp_path):
        def mixed(x):  # raw item ids 5 and "5" must stay distinct keys
            return "5" if x == 4 else (x if x % 2 else str(x))

        for keys, key, session_key in (
            ("str", lambda x: f"item{x}", lambda i: f"s{i}"),
            ("int", int, int),
            ("mixed", mixed, lambda i: i if i % 3 else f"{i}"),
        ):
            ds = D.prepare_dataset(cache_events(key, session_key), min_support=2, min_len=2,
                                   holdout=500)
            D.save_prepared(ds, tmp_path / keys)
            loaded = D.load_prepared(tmp_path / keys)
            assert loaded.manifest() == ds.manifest()
            for split in ("train", "test"):
                before, after = getattr(ds, split), getattr(loaded, split)
                assert [s.items for s in after] == [s.items for s in before]
                assert ([(type(s.session_id), s.session_id) for s in after]
                        == [(type(s.session_id), s.session_id) for s in before])
            np.testing.assert_array_equal(loaded.catalog.frequencies, ds.catalog.frequencies)
            assert loaded.catalog.id_map == ds.catalog.id_map
            if keys == "mixed":
                assert {5, "5"} <= set(ds.catalog.id_map)
                # ints first, then strs, each sorted
                order = sorted(ds.catalog.id_map, key=ds.catalog.id_map.__getitem__)
                ints = [k for k in order if isinstance(k, int)]
                assert order == sorted(ints) + sorted(k for k in order if isinstance(k, str))
                assert {type(s.session_id) for s in ds.train + ds.test} == {int, str}

    def test_manifest_counts(self, tmp_path):
        ds = D.prepare_dataset(cache_events(), min_support=2, min_len=2, holdout=500)
        D.save_prepared(ds, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["train_sessions"] == len(ds.train)
        assert manifest["train_events"] == sum(len(s) for s in ds.train)
        assert manifest["n_items"] == ds.catalog.n_items
        assert sum(int(f) for f in ds.catalog.frequencies) == manifest["train_events"]

    def test_sessions_share_one_int_per_item(self):
        # ids past CPython's small-int cache, so sharing is not automatic
        items = np.array([300, 301, 300, 302, 301, 300], dtype=np.int64)
        sessions = D.columns_to_sessions(["a", "b"], items, np.arange(6), np.array([0, 3, 6]))
        assert [s.items for s in sessions] == [[300, 301, 300], [302, 301, 300]]
        assert [s.timestamps for s in sessions] == [[0, 1, 2], [3, 4, 5]]
        flat = [x for s in sessions for x in s.items]
        assert {type(x) for x in flat} == {int}
        assert len({id(x) for x in flat}) == 3

    def test_support_scope_train_counts_on_train_only(self):
        # item Z has support 2 overall but only 1 inside the train window
        events = [
            D.Event(0, "x", 0), D.Event(0, "z", 1),
            D.Event(1, "x", 10), D.Event(1, "y", 11),
            D.Event(2, "x", 20), D.Event(2, "y", 21),
            D.Event(3, "z", 1000), D.Event(3, "x", 1001), D.Event(3, "y", 1002),
        ]
        scoped_all = D.prepare_dataset(events, min_support=2, min_len=2, holdout=500,
                                       support_scope="all")
        scoped_train = D.prepare_dataset(events, min_support=2, min_len=2, holdout=500,
                                         support_scope="train")
        assert "z" in scoped_all.catalog.id_map
        assert "z" not in scoped_train.catalog.id_map

    def test_fraction_subsamples_train(self):
        ds_full = D.prepare_dataset(cache_events(), min_support=2, min_len=2, holdout=500)
        ds_frac = D.prepare_dataset(cache_events(), min_support=2, min_len=2, holdout=500,
                                    fraction=0.5)
        assert len(ds_frac.train) == max(1, round(0.5 * len(ds_full.train)))
        assert ds_frac.catalog.n_items <= ds_full.catalog.n_items


class TestCacheValidation:
    def _corrupt(self, tmp_path, **changes):
        ds = D.prepare_dataset(cache_events(), min_support=2, min_len=2, holdout=500)
        D.save_prepared(ds, tmp_path)
        with np.load(tmp_path / "data.npz") as blob:
            arrays = {key: blob[key] for key in blob.files}
        for key, change in changes.items():
            arrays[key] = change(arrays[key])
        np.savez(tmp_path / "data.npz", **arrays)

    def test_offsets_not_monotone(self, tmp_path):
        self._corrupt(tmp_path, train_offsets=lambda o: np.concatenate([o[:2], o[1:2] - 1, o[3:]]))
        with pytest.raises(CacheError, match="train_offsets"):
            D.load_prepared(tmp_path)

    def test_offsets_not_ending_at_items(self, tmp_path):
        self._corrupt(tmp_path, test_items=lambda items: items[:-1], test_ts=lambda ts: ts[:-1])
        with pytest.raises(CacheError, match="test_offsets"):
            D.load_prepared(tmp_path)

    def test_offsets_not_starting_at_zero(self, tmp_path):
        self._corrupt(tmp_path, train_offsets=lambda o: np.concatenate([[1], o[1:]]))
        with pytest.raises(CacheError, match="train_offsets"):
            D.load_prepared(tmp_path)

    def test_offsets_not_matching_session_ids(self, tmp_path):
        self._corrupt(tmp_path, test_sids=lambda sids: sids[:-1])
        with pytest.raises(CacheError, match="test_offsets"):
            D.load_prepared(tmp_path)

    def test_timestamps_not_matching_items(self, tmp_path):
        self._corrupt(tmp_path, train_ts=lambda ts: ts[:-1])
        with pytest.raises(CacheError, match="train_ts"):
            D.load_prepared(tmp_path)

    def test_item_id_out_of_range(self, tmp_path):
        self._corrupt(tmp_path, test_items=lambda items: np.where(items == items[0], 10**6, items))
        with pytest.raises(CacheError, match="test_items holds id 1000000"):
            D.load_prepared(tmp_path)

    def test_frequencies_not_train_counts(self, tmp_path):
        self._corrupt(tmp_path, frequencies=lambda f: f + (np.arange(len(f)) == 0))
        with pytest.raises(CacheError, match="frequencies differ"):
            D.load_prepared(tmp_path)

    def test_catalog_size_disagrees(self, tmp_path):
        self._corrupt(tmp_path)
        keys = json.loads((tmp_path / "catalog.json").read_text())
        (tmp_path / "catalog.json").write_text(json.dumps(keys[1:]))
        with pytest.raises(CacheError, match="catalog.json holds"):
            D.load_prepared(tmp_path)

    def test_catalog_repeats_a_key(self, tmp_path):
        self._corrupt(tmp_path)
        keys = json.loads((tmp_path / "catalog.json").read_text())
        (tmp_path / "catalog.json").write_text(json.dumps(keys[:-1] + keys[:1]))
        with pytest.raises(CacheError, match=f"catalog.json repeats raw item key '{keys[0]}'"):
            D.load_prepared(tmp_path)

    def test_catalog_key_not_hashable(self, tmp_path):
        self._corrupt(tmp_path)
        keys = json.loads((tmp_path / "catalog.json").read_text())
        (tmp_path / "catalog.json").write_text(json.dumps([[k] for k in keys]))
        with pytest.raises(CacheError, match="catalog.json holds a key that is not a raw item id"):
            D.load_prepared(tmp_path)

    def test_session_id_not_json(self, tmp_path):
        self._corrupt(tmp_path, train_sids=lambda sids: np.where(np.arange(len(sids)) == 3,
                                                                 "s3", sids))
        with pytest.raises(CacheError, match=r"data.npz train_sids\[3\] is 's3'"):
            D.load_prepared(tmp_path)

    @pytest.mark.parametrize("key", ["train_sessions", "train_events", "test_sessions",
                                     "test_events", "n_items"])
    def test_manifest_count_disagrees_with_arrays(self, tmp_path, key):
        self._corrupt(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        count = manifest[key]
        manifest[key] = count + 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CacheError, match=f"manifest.json gives {key} = {count + 1} "
                                             f"but the cached arrays hold {count}"):
            D.load_prepared(tmp_path)

    def test_catalog_in_old_mapping_format(self, tmp_path):
        self._corrupt(tmp_path)
        keys = json.loads((tmp_path / "catalog.json").read_text())
        (tmp_path / "catalog.json").write_text(json.dumps({k: i for i, k in enumerate(keys)}))
        with pytest.raises(CacheError, match="catalog.json .*re-run `sessrec prep`"):
            D.load_prepared(tmp_path)


def reference_prepare(events, min_support, min_len, holdout, support_scope, fraction,
                      fraction_seed):
    """Plain-Python preprocessing recipe: (train, test, id_map, frequencies).

    Sessions are (session_id, items, timestamps) tuples. Raises ValueError
    wherever the recipe leaves no usable split.
    """
    grouped = {}
    for ev in events:
        if ev.event_type == D.CLICK:
            grouped.setdefault(ev.session_id, []).append((ev.timestamp, ev.item_id))
    sessions = []
    for sid, pairs in grouped.items():
        pairs = sorted(pairs, key=lambda p: p[0])
        sessions.append((sid, [i for _, i in pairs], [t for t, _ in pairs]))

    def filtered(group):
        survivors = brute_force_fixpoint([items for _, items, _ in group], min_support, min_len)
        kept = {i for items in survivors for i in items}
        out = []
        for sid, items, ts in group:
            pairs = [(i, t) for i, t in zip(items, ts) if i in kept]
            if len(pairs) >= min_len:
                out.append((sid, [i for i, _ in pairs], [t for _, t in pairs]))
        assert [items for _, items, _ in out] == survivors
        return out

    if support_scope == "all":
        sessions = filtered(sessions)
    if not sessions:
        raise ValueError("no sessions")
    max_ts = max(ts[-1] for _, _, ts in sessions)
    if holdout >= max_ts - min(ts[0] for _, _, ts in sessions):
        raise ValueError("holdout not shorter than the span")
    cutoff = max_ts - holdout
    train = [s for s in sessions if s[2][-1] <= cutoff]
    test = [s for s in sessions if s[2][-1] > cutoff]
    if support_scope == "train":
        train = filtered(train)
    if not train or not test:
        raise ValueError("empty split")
    if fraction < 1.0:
        keep = np.random.default_rng(fraction_seed).permutation(len(train))
        train = [train[i] for i in sorted(keep[: max(1, int(round(fraction * len(train))))])]

    counts = Counter(i for _, items, _ in train for i in items)
    keys = sorted(k for k in counts if isinstance(k, int))
    keys += sorted(k for k in counts if isinstance(k, str))
    id_map = {key: dense for dense, key in enumerate(keys)}
    frequencies = [counts[key] for key in keys]
    train = [(sid, [id_map[i] for i in items], ts) for sid, items, ts in train]
    restricted = []
    for sid, items, ts in test:
        pairs = [(id_map[i], t) for i, t in zip(items, ts) if i in id_map]
        if len(pairs) >= min_len:
            restricted.append((sid, [i for i, _ in pairs], [t for _, t in pairs]))
    if not restricted:
        raise ValueError("test empty after restricting to the train catalog")
    return train, restricted, id_map, frequencies


@st.composite
def event_logs(draw):
    """Sessions of nearby events, shuffled together; cart/order events mixed in.

    String and mixed modes mix int and str session ids, so session ids are
    not sortable. String-mode item keys sort lexically; mixed-mode item keys
    are ints and strs.
    """
    mode = draw(st.sampled_from(["int", "str", "mixed"]))
    kinds = st.sampled_from([D.CLICK, D.CLICK, D.CLICK, D.CART, D.ORDER])
    sessions = draw(st.lists(
        st.tuples(st.integers(0, 60),
                  st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4), kinds),
                           min_size=1, max_size=6)),
        min_size=4, max_size=16,
    ))
    rows = [(s, item, start + dt, kind)
            for s, (start, events) in enumerate(sessions) for item, dt, kind in events]
    rows = draw(st.permutations(rows))
    if mode == "str":
        return [D.Event(s if s % 2 else f"s{s}", f"i{i}", t, kind) for s, i, t, kind in rows]
    if mode == "mixed":
        return [D.Event(s if s % 2 else f"s{s}", i if i % 2 else str(i), t, kind)
                for s, i, t, kind in rows]
    return [D.Event(s, i, t, kind) for s, i, t, kind in rows]


class TestPrepareOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        event_logs(),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 40),
        st.sampled_from(["all", "train"]),
        st.sampled_from([1.0, 0.3, 0.7]),
        st.integers(0, 3),
    )
    def test_matches_plain_python_reference(self, events, min_support, min_len, holdout,
                                            scope, fraction, fraction_seed):
        args = dict(min_support=min_support, min_len=min_len, holdout=holdout,
                    support_scope=scope, fraction=fraction, fraction_seed=fraction_seed)
        clicks = [ev.timestamp for ev in events if ev.event_type == D.CLICK]
        # A holdout as long as the click span is refused under either scope;
        # that error has its own tests.
        assume(scope == "all" or not clicks or holdout < max(clicks) - min(clicks))
        try:
            expected = reference_prepare(events, **args)
        except ValueError:
            with pytest.raises(ValueError):
                D.prepare_dataset(events, **args)
            return
        ds = D.prepare_dataset(events, **args)
        train, test, id_map, frequencies = expected
        assert [(s.session_id, s.items, s.timestamps) for s in ds.train] == train
        assert [(s.session_id, s.items, s.timestamps) for s in ds.test] == test
        assert ds.catalog.id_map == id_map
        assert ds.catalog.frequencies.tolist() == frequencies
        counted = np.bincount([i for s in ds.train for i in s.items], minlength=len(id_map))
        np.testing.assert_array_equal(ds.catalog.frequencies, counted)
        assert ds.manifest() == {
            "train_sessions": len(train),
            "train_events": sum(len(items) for _, items, _ in train),
            "test_sessions": len(test),
            "test_events": sum(len(items) for _, items, _ in test),
            "n_items": len(id_map),
        }
