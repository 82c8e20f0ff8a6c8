"""Compiled-artifact cache: hits, misses, invalidation, disk round-trip.

The acceptance bar for the cache half of the engine: a warm
``AsertaAnalyzer`` construction (same circuit content, same protocol)
performs **zero fault-simulation work** — asserted through the engine's
``structural_sim_runs`` counter and the cache's per-kind hit counters —
and any change to the netlist, the vector count or the seed changes the
artifact key, so stale artifacts are unreachable by construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.runner import CampaignRunner, clear_analyzer_cache
from repro.campaign.spec import CampaignSpec
from repro.circuit.gate import GateType
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaAnalyzer, AsertaConfig
from repro.engine import (
    AnalysisEngine,
    ArtifactCache,
    EngineError,
    get_default_engine,
    p_matrix_key,
    set_default_engine,
)
from repro.engine.artifacts import structure_key

CONFIG = AsertaConfig(n_vectors=300, seed=5, n_sample_widths=4)


@pytest.fixture()
def engine() -> AnalysisEngine:
    return AnalysisEngine()


class TestArtifactKeys:
    def test_key_is_stable_across_copies(self, c432):
        assert p_matrix_key(c432, 100, 0) == p_matrix_key(c432.copy(), 100, 0)
        # ... and across renames (content-addressed, not name-addressed).
        assert p_matrix_key(c432, 100, 0) == p_matrix_key(
            c432.copy(name="other"), 100, 0
        )

    def test_key_changes_on_netlist_edit(self, c17):
        edited = c17.copy()
        edited.add_gate("extra", GateType.NOT, ["22"])
        edited.mark_output("extra")
        assert p_matrix_key(c17, 100, 0) != p_matrix_key(edited, 100, 0)

    def test_key_changes_on_protocol(self, c17):
        base = p_matrix_key(c17, 100, 0)
        assert base != p_matrix_key(c17, 101, 0)  # n_vectors axis
        assert base != p_matrix_key(c17, 100, 1)  # seed axis


class TestArtifactCacheLRU:
    def test_hit_miss_and_eviction_counters(self):
        cache = ArtifactCache(max_entries=2)
        assert cache.get("a-1") is None
        cache.put("a-1", "one")
        cache.put("b-2", "two")
        assert cache.get("a-1") == "one"
        cache.put("c-3", "three")  # evicts b-2 (a-1 was touched)
        assert cache.get("b-2") is None
        assert cache.get("a-1") == "one"
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_rejects_bad_bounds(self):
        with pytest.raises(EngineError):
            ArtifactCache(max_entries=0)
        with pytest.raises(EngineError):
            AnalysisEngine(cache=ArtifactCache(), cache_dir="x")

    def test_get_or_build_builds_once(self):
        cache = ArtifactCache()
        calls: list[int] = []

        def build():
            calls.append(1)
            return {"v": np.arange(3)}

        first = cache.get_or_build_arrays("p_matrix-xyz", build)
        second = cache.get_or_build_arrays("p_matrix-xyz", build)
        assert len(calls) == 1
        assert first is second


class TestDiskTier:
    def test_round_trip_through_a_fresh_cache(self, tmp_path):
        arrays = {"p_matrix": np.linspace(0.0, 1.0, 12).reshape(3, 4)}
        writer = ArtifactCache(cache_dir=tmp_path)
        writer.get_or_build_arrays("p_matrix-abc", lambda: arrays)
        assert writer.stats.disk_writes == 1

        reader = ArtifactCache(cache_dir=tmp_path)
        loaded = reader.get_or_build_arrays(
            "p_matrix-abc", lambda: pytest.fail("must be served from disk")
        )
        np.testing.assert_array_equal(loaded["p_matrix"], arrays["p_matrix"])
        assert reader.stats.disk_hits == 1
        # Promoted into memory: the second read does not touch the disk.
        reader.get_or_build_arrays("p_matrix-abc", lambda: pytest.fail("cached"))
        assert reader.stats.disk_hits == 1

    def test_wrong_key_or_corrupt_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.store_arrays("p_matrix-good", {"v": np.ones(2)})
        # A file whose embedded header names another key is ignored ...
        path = cache._path_for("p_matrix-good")
        (path.parent / "p_matrix-other.npz").write_bytes(path.read_bytes())
        assert cache.load_arrays("p_matrix-other") is None
        # ... and a truncated file rebuilds instead of crashing.
        path.write_bytes(b"not an npz archive")
        assert cache.load_arrays("p_matrix-good") is None
        rebuilt = cache.get_or_build_arrays(
            "p_matrix-good", lambda: {"v": np.zeros(2)}
        )
        np.testing.assert_array_equal(rebuilt["v"], np.zeros(2))

    def test_memory_only_cache_never_touches_disk(self):
        cache = ArtifactCache()
        cache.store_arrays("p_matrix-abc", {"v": np.ones(2)})
        assert cache.stats.disk_writes == 0
        assert cache.load_arrays("p_matrix-abc") is None


class TestWarmAnalyzer:
    def test_warm_construction_does_zero_fault_simulation(self, engine):
        circuit = iscas85_circuit("c432")
        first = AsertaAnalyzer(circuit, CONFIG, engine=engine)
        assert engine.structural_sim_runs == 1

        warm = AsertaAnalyzer(iscas85_circuit("c432"), CONFIG, engine=engine)
        assert engine.structural_sim_runs == 1, "warm analyzer re-simulated"
        assert engine.cache.stats.by_kind["p_matrix"]["hits"] >= 1
        np.testing.assert_array_equal(warm.p_matrix, first.p_matrix)
        assert warm.analyze().total == pytest.approx(
            first.analyze().total, rel=1e-12
        )

    def test_cached_p_matrix_is_immutable(self, engine):
        """One ndarray is aliased by every analyzer of a circuit, so an
        in-place write (say, a careless what-if study) must fail loudly
        instead of silently corrupting all later analyzers."""
        analyzer = AsertaAnalyzer(iscas85_circuit("c17"), CONFIG, engine=engine)
        with pytest.raises((ValueError, RuntimeError)):
            analyzer.p_matrix[:] = 0.0

    def test_structure_shared_and_keyed_on_input_probability(self, engine):
        """Two analyzers of one circuit and protocol share one masking
        structure, cached under the key of the scalar input probability
        the static probabilities derive from."""
        circuit = iscas85_circuit("c432")
        first = AsertaAnalyzer(circuit, CONFIG, engine=engine)
        second = AsertaAnalyzer(iscas85_circuit("c432"), CONFIG, engine=engine)
        assert second.structure is first.structure
        key = structure_key(circuit, CONFIG.n_vectors, CONFIG.seed, 0.5)
        assert engine.cache.get(key) is first.structure

    def test_protocol_change_misses(self, engine):
        circuit = iscas85_circuit("c17")
        AsertaAnalyzer(circuit, CONFIG, engine=engine)
        AsertaAnalyzer(
            circuit, AsertaConfig(n_vectors=301, seed=5, n_sample_widths=4),
            engine=engine,
        )
        AsertaAnalyzer(
            circuit, AsertaConfig(n_vectors=300, seed=6, n_sample_widths=4),
            engine=engine,
        )
        assert engine.structural_sim_runs == 3

    def test_disk_tier_survives_process_boundaries(self, tmp_path):
        """Simulated process restart: a brand-new engine over the same
        cache directory serves the structural pass from disk."""
        cold = AnalysisEngine(cache_dir=tmp_path / "artifacts")
        circuit = iscas85_circuit("c432")
        before = AsertaAnalyzer(circuit, CONFIG, engine=cold)
        assert cold.structural_sim_runs == 1

        fresh = AnalysisEngine(cache_dir=tmp_path / "artifacts")
        after = AsertaAnalyzer(iscas85_circuit("c432"), CONFIG, engine=fresh)
        assert fresh.structural_sim_runs == 0, "disk tier was not used"
        assert fresh.cache.stats.disk_hits >= 1
        np.testing.assert_array_equal(after.p_matrix, before.p_matrix)
        assert after.analyze().total == pytest.approx(
            before.analyze().total, rel=1e-12
        )

    def test_warm_start_promotes_only_persisted_kinds(self, tmp_path):
        """A leftover artifact of a kind the engine no longer writes (a
        stacked-LUT tensor with a valid header) stays on disk; only the
        ``P_ij`` artifact is promoted."""
        cache_dir = tmp_path / "artifacts"
        writer = AnalysisEngine(cache_dir=cache_dir)
        writer.p_matrix(iscas85_circuit("c17"), 64, 0)
        writer.cache.store_arrays("stacked_lut-legacy", {"values": np.ones(3)})
        assert writer.cache.load_arrays("stacked_lut-legacy") is not None

        fresh = AnalysisEngine(cache_dir=cache_dir)
        assert fresh.warm_start() == 1
        assert "stacked_lut-legacy" not in fresh.cache

    def test_default_engine_is_process_wide_and_resettable(self):
        previous = set_default_engine(None)
        try:
            a = get_default_engine()
            assert get_default_engine() is a
            analyzer = AsertaAnalyzer(iscas85_circuit("c17"), CONFIG)
            assert analyzer.engine is a
            set_default_engine(None)
            assert get_default_engine() is not a
        finally:
            set_default_engine(previous)


class TestCampaignCacheDir:
    def test_campaign_reuses_on_disk_artifacts(self, tmp_path):
        spec = CampaignSpec(
            circuits=("c17",),
            charges_fc=(8.0, 16.0),
            n_vectors=300,
            seed=5,
            cache_dir=str(tmp_path / "artifacts"),
        )
        clear_analyzer_cache()
        first = CampaignRunner(spec).run(parallel=False)
        assert first.computed == 2
        cache_files = list((tmp_path / "artifacts").rglob("*.npz"))
        assert cache_files, "campaign wrote no artifacts"

        # "New process": all in-memory caches dropped, fresh store.
        clear_analyzer_cache()
        from repro.campaign.runner import _engine_for

        second = CampaignRunner(spec).run(parallel=False)
        engine = _engine_for(spec.cache_dir)
        assert engine.structural_sim_runs == 0
        assert engine.cache.stats.disk_hits >= 1
        assert [r.unreliability_total for r in second.results] == [
            r.unreliability_total for r in first.results
        ]
        clear_analyzer_cache()

    def test_cache_dir_does_not_change_scenario_digests(self, tmp_path):
        plain = CampaignSpec(circuits=("c17",), n_vectors=300)
        cached = CampaignSpec(
            circuits=("c17",), n_vectors=300, cache_dir=str(tmp_path)
        )
        assert [k.digest() for k in plain.scenarios()] == [
            k.digest() for k in cached.scenarios()
        ]


class TestDiskBudget:
    """`max_disk_bytes`: LRU-by-mtime eviction of the on-disk tier."""

    @staticmethod
    def _artifact(i: int, kib: int = 8) -> dict:
        return {"values": np.full(kib * 128, float(i))}  # ~1 KiB * kib

    def test_validation(self, tmp_path):
        with pytest.raises(EngineError):
            ArtifactCache(cache_dir=tmp_path, max_disk_bytes=0)
        with pytest.raises(EngineError):
            ArtifactCache(max_disk_bytes=1024)  # no cache_dir to bound
        with pytest.raises(EngineError):
            AnalysisEngine(cache=ArtifactCache(), max_disk_bytes=1024)

    def test_lru_eviction_under_tiny_cap(self, tmp_path):
        import time as _time

        cache = ArtifactCache(
            cache_dir=tmp_path, max_disk_bytes=20 * 1024
        )
        for i in range(5):
            cache.get_or_build_arrays(
                f"kind-{i:02d}", lambda i=i: self._artifact(i)
            )
            _time.sleep(0.01)  # distinct mtimes on coarse filesystems
        files = sorted(p.name for p in tmp_path.rglob("*.npz"))
        # ~8 KiB each under a 20 KiB cap: only the most recent survive.
        assert cache.stats.disk_evictions >= 3
        assert f"kind-04.npz" in files
        assert f"kind-00.npz" not in files
        total = sum(p.stat().st_size for p in tmp_path.rglob("*.npz"))
        assert total <= 20 * 1024

    def test_newest_artifact_never_self_evicts(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path, max_disk_bytes=1)
        cache.get_or_build_arrays("kind-a", lambda: self._artifact(0))
        files = list(tmp_path.rglob("*.npz"))
        assert [p.name for p in files] == ["kind-a.npz"]

    def test_disk_hit_refreshes_recency(self, tmp_path):
        import time as _time

        cache = ArtifactCache(cache_dir=tmp_path, max_disk_bytes=20 * 1024)
        cache.get_or_build_arrays("kind-old", lambda: self._artifact(0))
        _time.sleep(0.02)
        cache.get_or_build_arrays("kind-mid", lambda: self._artifact(1))
        _time.sleep(0.02)
        # Re-read "old" through a fresh cache (disk hit -> touched).
        reader = ArtifactCache(cache_dir=tmp_path, max_disk_bytes=20 * 1024)
        assert reader.get_or_build_arrays(
            "kind-old", lambda: self._artifact(9)
        )["values"][0] == 0.0
        assert reader.stats.disk_hits == 1
        _time.sleep(0.02)
        reader.get_or_build_arrays("kind-new", lambda: self._artifact(2))
        names = {p.name for p in tmp_path.rglob("*.npz")}
        # "mid" is now the least recently used and is evicted first.
        assert "kind-old.npz" in names
        assert "kind-mid.npz" not in names

    def test_concurrent_delete_tolerated(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path, max_disk_bytes=4 * 1024)
        cache.get_or_build_arrays("kind-x", lambda: self._artifact(0))
        for path in tmp_path.rglob("*.npz"):
            path.unlink()  # another process evicted everything
        # The next write re-scans a directory whose files are gone.
        cache.get_or_build_arrays("kind-y", lambda: self._artifact(1))
        assert any(p.name == "kind-y.npz" for p in tmp_path.rglob("*.npz"))

    def test_counter_in_snapshot(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path, max_disk_bytes=1)
        cache.get_or_build_arrays("kind-a", lambda: self._artifact(0))
        cache.get_or_build_arrays("kind-b", lambda: self._artifact(1))
        snapshot = cache.stats.snapshot()
        assert snapshot["disk_evictions"] == cache.stats.disk_evictions >= 1

    def test_engine_passthrough(self, tmp_path):
        engine = AnalysisEngine(cache_dir=tmp_path, max_disk_bytes=123456)
        assert engine.cache.max_disk_bytes == 123456
