"""Tests for the persistent content-addressed result cache."""

import dataclasses
import itertools
import json

import pytest

import repro.core.cache as cache_mod
from repro import jsonlog
from repro.core.cache import (
    ResultCache,
    config_digest,
    default_cache_dir,
    model_fingerprint,
)
from repro.core.experiment import MPI_OMP_CONFIGS, ExperimentConfig
from repro.core.runner import cache_key, run_config
from repro.errors import ConfigurationError
from repro.miniapps import SUITE
from repro.runtime.affinity import ThreadBinding


CFG = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=4)


class TestKeys:
    def test_equal_configs_same_digest(self):
        a = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=4)
        b = ExperimentConfig(app="ffvc", n_ranks=2, n_threads=4)
        assert config_digest(a) == config_digest(b)

    def test_every_axis_changes_digest(self):
        base = config_digest(CFG)
        for other in [
            dataclasses.replace(CFG, app="mvmc"),
            dataclasses.replace(CFG, dataset="large"),
            dataclasses.replace(CFG, n_ranks=4, n_threads=2),
            dataclasses.replace(CFG, data_policy="serial-init"),
            dataclasses.replace(CFG,
                                binding=ThreadBinding("stride", stride=4)),
            dataclasses.replace(CFG, options_preset="as-is"),
        ]:
            assert config_digest(other) != base

    def test_tuple_keys_extend_the_digest(self):
        assert config_digest((CFG, 256)) != config_digest(CFG)
        assert config_digest((CFG, 256)) != config_digest((CFG, 512))
        assert config_digest((CFG, 256)) == config_digest((CFG, 256))

    def test_uncacheable_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            config_digest("not-a-config")
        with pytest.raises(ConfigurationError):
            config_digest((CFG, object()))

    def test_memoized_digests_match_fresh_ones(self):
        for app in sorted(SUITE):
            for ranks, threads in MPI_OMP_CONFIGS:
                config = ExperimentConfig(app=app, n_ranks=ranks,
                                          n_threads=threads)
                for key in (config, cache_key(config, "analytic")):
                    fresh = cache_mod.payload_digest(
                        cache_mod._key_payload(key))
                    assert config_digest(key) == fresh
                    assert config_digest(key) == fresh  # memo hit

    def test_equal_extras_of_other_types_keep_their_digests(self,
                                                            monkeypatch):
        monkeypatch.setattr(cache_mod, "_digest_memo", {})
        extras = (1, 1.0, True)
        assert (CFG, 1) == (CFG, 1.0) == (CFG, True)
        for order in itertools.permutations(extras):
            digests = [(x, config_digest((CFG, x))) for x in order]
            assert len({digest for _, digest in digests}) == 3
            for x, digest in digests:
                assert digest == cache_mod.payload_digest(
                    cache_mod._key_payload((CFG, x)))

    def test_each_key_is_digested_once(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_digest_memo", {})
        calls = []
        real = cache_mod.payload_digest

        def counting(payload):
            calls.append(payload)
            return real(payload)

        monkeypatch.setattr(cache_mod, "payload_digest", counting)
        for _ in range(3):
            config_digest(CFG)
            config_digest((CFG, "engine=analytic"))
        assert len(calls) == 2

    def test_memo_is_emptied_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_digest_memo", {})
        monkeypatch.setattr(cache_mod, "_DIGEST_MEMO_MAX", 4)
        for threads in range(1, 11):
            config_digest(dataclasses.replace(CFG, n_threads=threads))
            assert len(cache_mod._digest_memo) <= 4

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(CFG) is None
        row = run_config(CFG, cache)
        assert cache.get(CFG) == row
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] >= 1
        assert CFG in cache and len(cache) == 1

    def test_dict_protocol(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = run_config(CFG)
        cache[CFG] = row
        assert cache[CFG] == row
        with pytest.raises(KeyError):
            cache[dataclasses.replace(CFG, app="mvmc")]

    def test_persists_across_instances(self, tmp_path):
        row = run_config(CFG, ResultCache(tmp_path))
        reopened = ResultCache(tmp_path)
        assert reopened.get(CFG) == row

    def test_run_config_serves_cached_row(self, tmp_path):
        cache = ResultCache(tmp_path)
        r1 = run_config(CFG, cache)
        r2 = run_config(CFG, ResultCache(tmp_path))
        assert r1 == r2

    def test_lru_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=2)
        rows = {}
        for app in ("ffvc", "mvmc", "ngsa"):
            cfg = dataclasses.replace(CFG, app=app)
            rows[app] = run_config(cfg, cache)
        assert len(cache) == 2  # oldest evicted from memory
        # ...but all three survive on disk
        assert len(ResultCache(tmp_path)) == 3

    def test_clear_wipes_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_config(CFG, cache)
        cache.clear()
        assert len(cache) == 0
        assert not cache.path.exists()
        assert ResultCache(tmp_path).get(CFG) is None


class TestCorruptionRecovery:
    def test_truncated_line_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = run_config(CFG, cache)
        with open(cache.path, "a") as fh:
            fh.write('{"format": 1, "fp": "deadbeef", "key": "tru')  # no \n
        reopened = ResultCache(tmp_path)
        assert reopened.get(CFG) == row
        assert reopened.torn_lines == 1

    def test_garbage_lines_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = run_config(CFG, cache)
        text = cache.path.read_text()
        cache.path.write_text("not json at all\n\n" + text
                              + '{"format": 1}\n')
        reopened = ResultCache(tmp_path)
        assert reopened.get(CFG) == row
        assert len(reopened) == 1
        # "not json at all" is torn; '{"format": 1}' has no fingerprint,
        # which reads as expected invalidation rather than corruption
        assert reopened.torn_lines == 1
        assert reopened.stats()["torn_lines"] == 1

    def test_unreadable_file_is_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.get(CFG) is None
        assert cache.torn_lines == 0

    def test_torn_write_counted_and_keeps_rest(self, tmp_path, recwarn):
        """Regression: a run killed mid-append leaves a truncated JSONL
        line; loading must keep every intact record and account for the
        torn line via the ``torn_lines`` counter / ``cache.torn_lines``
        telemetry metric — not a one-shot warning, and never raising."""
        cache = ResultCache(tmp_path)
        row = run_config(CFG, cache)
        with open(cache.path, "a") as fh:
            fh.write('{"format": 1, "fp": "')   # torn mid-record, no \n
        reopened = ResultCache(tmp_path)
        assert reopened.get(CFG) == row
        assert len(reopened) == 1
        assert reopened.torn_lines == 1
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]

    def test_clean_file_counts_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = run_config(CFG, cache)
        reopened = ResultCache(tmp_path)
        assert reopened.get(CFG) == row
        assert reopened.torn_lines == 0

    def test_stale_fingerprint_is_not_corruption(self, tmp_path):
        """Records under an older model fingerprint are expected
        invalidation — they must be skipped silently, not counted as
        torn lines."""
        cache = ResultCache(tmp_path)
        run_config(CFG, cache)
        text = cache.path.read_text()
        rec = json.loads(text.splitlines()[0])
        rec["fp"] = "0123456789abcdef"
        cache.path.write_text(text + json.dumps(rec) + "\n")
        reopened = ResultCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.torn_lines == 0


class TestFingerprint:
    def test_stable_within_process(self):
        assert model_fingerprint() == model_fingerprint()

    def test_catalog_change_invalidates(self, tmp_path, monkeypatch):
        from repro.machine import catalog

        cache = ResultCache(tmp_path)
        row = run_config(CFG, cache)
        old_fp = cache.fingerprint

        # double one catalog parameter: the fingerprint must move and
        # previously cached rows must stop being served
        original = catalog.PROCESSORS["A64FX"]

        def tweaked(n_nodes=1, **kw):
            cluster = original(n_nodes=n_nodes, **kw)
            return dataclasses.replace(
                cluster, shm_bandwidth=cluster.shm_bandwidth * 2)

        monkeypatch.setitem(catalog.PROCESSORS, "A64FX", tweaked)
        monkeypatch.setattr(cache_mod, "_fingerprint_memo", None)

        stale = ResultCache(tmp_path)
        assert stale.fingerprint != old_fp
        assert stale.get(CFG) is None
        # a rerun under the new model repopulates under the new fingerprint
        fresh_row = run_config(CFG, stale)
        assert stale.get(CFG) == fresh_row
        assert row is not fresh_row

    def test_version_is_part_of_fingerprint(self, monkeypatch):
        import repro

        before = model_fingerprint(refresh=True)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        after = model_fingerprint(refresh=True)
        monkeypatch.undo()
        model_fingerprint(refresh=True)  # restore the memo
        assert before != after

    def test_disk_record_carries_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_config(CFG, cache)
        rec = json.loads(cache.path.read_text().splitlines()[0])
        assert rec["fp"] == cache.fingerprint
        assert rec["key"] == config_digest(CFG)


class TestCompact:
    def _rows(self, cache, n=3):
        configs = [ExperimentConfig(app="ffvc", n_ranks=r, n_threads=2)
                   for r in (1, 2, 4)[:n]]
        return {c: run_config(c, cache) for c in configs}

    def test_compact_empty_cache_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = cache.compact()
        assert stats["kept"] == 0 and stats["bytes_before"] == 0
        assert not cache.path.exists()

    def test_compact_drops_torn_lines(self, tmp_path):
        cache = ResultCache(tmp_path)
        rows = self._rows(cache)
        with open(cache.path, "a") as fh:
            fh.write('{"format": 1, "fp": "x", "key": "y", "row"\n')
            fh.write("utter garbage\n")
        stats = ResultCache(tmp_path).compact()
        assert stats["dropped_torn"] == 2
        assert stats["kept"] == len(rows)
        fresh = ResultCache(tmp_path)
        for config, row in rows.items():
            assert fresh.get(config) == row
        assert fresh.torn_lines == 0

    def test_compact_keeps_the_last_duplicate(self, tmp_path):
        cache = ResultCache(tmp_path)
        rows = self._rows(cache, n=2)
        config = next(iter(rows))
        # re-append the same key twice more (the append-only path never
        # rewrites): three records, one key
        cache._append(config_digest(config), rows[config])
        cache._append(config_digest(config), rows[config])
        stats = ResultCache(tmp_path).compact()
        assert stats["dropped_duplicates"] == 2
        assert stats["kept"] == len(rows)
        assert stats["bytes_after"] < stats["bytes_before"]
        assert ResultCache(tmp_path).get(config) == rows[config]

    def test_compact_replace_is_atomic(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._rows(cache)
        cache.compact()
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name != cache.path.name]
        assert leftovers == []  # no temp files left behind

    def test_compact_stale_fingerprints(self, tmp_path):
        cache = ResultCache(tmp_path)
        rows = self._rows(cache, n=2)
        config = next(iter(rows))
        stale = {"format": cache_mod.CACHE_FORMAT, "fp": "0" * 16,
                 "key": config_digest(config),
                 "row": json.loads(cache.path.read_text()
                                   .splitlines()[0])["row"]}
        with open(cache.path, "a") as fh:
            fh.write(json.dumps(stale) + "\n")
        # default: stale rows survive (another build may still use them)
        stats = ResultCache(tmp_path).compact()
        assert stats["dropped_stale"] == 0 and stats["kept"] == 3
        # opt-in: drop them
        stats = ResultCache(tmp_path).compact(keep_stale=False)
        assert stats["dropped_stale"] == 1 and stats["kept"] == 2
        assert ResultCache(tmp_path).get(config) == rows[config]

    def test_compact_reloads_memory_layer(self, tmp_path):
        cache = ResultCache(tmp_path)
        rows = self._rows(cache, n=2)
        cache.compact()
        for config, row in rows.items():
            assert cache.get(config) == row

    def test_compact_keeps_quarantine_and_verdict_answers(self, tmp_path,
                                                          capsys):
        from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
        from repro.cli import main
        from repro.core.journal import SweepJournal
        from repro.core.runner import QUARANTINE_AFTER

        cache = ResultCache(tmp_path)
        rows = self._rows(cache)
        configs = list(rows)
        journal = SweepJournal(cache)
        boom = RuntimeError("boom")
        # configs[0]: struck, then cleared by its row stored again
        journal.record("s", configs[0], ok=False, exc=boom)
        cache._append(config_digest(configs[0]), rows[configs[0]])
        # configs[1]: quarantined after its row; configs[2]: one strike
        # in each of two sweeps, and one on the analytic engine
        for _ in range(QUARANTINE_AFTER):
            journal.record("s", configs[1], ok=False, exc=boom)
        for sweep in ("s", "t"):
            journal.record(sweep, configs[2], ok=False, exc=boom)
        journal.record("s", configs[2], ok=False, exc=boom,
                       engine="analytic")
        # verdicts: one superseded, one of another analyzer
        for text in ("first", "last"):
            cache._verdicts.clear()
            cache.put_verdict(configs[0], DiagnosticReport(text, [Diagnostic(
                check="deadlock", severity="error", message=text)]))
        cache.put_verdict((configs[1], "advise"), DiagnosticReport("adv"))
        cache._analyzer = "0" * 16
        cache.put_verdict(configs[2], DiagnosticReport("other analyzer"))

        def answers():
            fresh = ResultCache(tmp_path)
            view = SweepJournal(fresh)
            return ([(view.status(sweep, c, engine),
                      view.quarantined(sweep, c, QUARANTINE_AFTER, engine))
                     for c in configs for sweep in ("s", "t")
                     for engine in ("event", "analytic")],
                    [fresh.verdict(key) for key in
                     (*configs, *((c, "advise") for c in configs))],
                    [fresh.get(c) for c in configs])

        before = answers()
        assert before[0][2][1] is None and before[0][4][1] is not None
        assert before[1][0].subject == "last"
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        assert "dropped 0 torn, 3 duplicate(s), 0 stale" \
            in capsys.readouterr().out
        assert answers() == before
        # stale: the other analyzer's verdict goes
        stats = ResultCache(tmp_path).compact(keep_stale=False)
        assert stats["dropped_stale"] == 1
        assert answers() == before
        records = jsonlog.read(ResultCache(tmp_path).path, 1)[0]
        assert {rec.get("analyzer") for rec in records} \
            == {None, ResultCache(tmp_path).analyzer}
