"""Campaign engine: spec expansion, store persistence/resume,
environment FIT scaling, serial-vs-parallel equivalence and the CLI."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    AVIONICS,
    LEO_SPACE,
    SEA_LEVEL,
    CampaignRunner,
    CampaignSpec,
    Environment,
    ResultStore,
    ScenarioKey,
    ScenarioResult,
    environment,
    fit_per_mb,
    summarize,
)
from repro.campaign.spec import assignment_fingerprint
from repro.errors import CampaignError
from repro.tech.library import CellParams, ParameterAssignment

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        circuits=("c17",),
        charges_fc=(4.0, 16.0),
        environments=(SEA_LEVEL, AVIONICS),
        n_vectors=200,
        seed=3,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


# ---------------------------------------------------------------- spec


class TestSpecExpansion:
    def test_size_and_order_deterministic(self):
        spec_a = small_spec(sample_width_counts=(5, 10))
        spec_b = small_spec(sample_width_counts=(5, 10))
        assert spec_a.size() == 1 * 2 * 2 * 1 * 2 == 8
        assert spec_a.scenarios() == spec_b.scenarios()
        assert spec_a.scenarios() == spec_a.scenarios()

    def test_digests_unique_across_grid(self):
        spec = small_spec(
            circuits=("c17", "c432"),
            assignments={
                "nominal": ParameterAssignment(),
                "hardened": ParameterAssignment(CellParams(size=2.0)),
            },
        )
        digests = [key.digest() for key in spec.scenarios()]
        assert len(digests) == len(set(digests)) == spec.size()

    def test_digest_stable_serialization(self):
        # Pinned digest: changing ScenarioKey serialization breaks every
        # existing store, so it must be a deliberate KEY_SCHEMA bump.
        spec = CampaignSpec(
            circuits=("c17",), charges_fc=(16.0,), environments=(SEA_LEVEL,),
            n_vectors=100, seed=7,
        )
        key = spec.scenarios()[0]
        assert key.digest() == (
            "fa4cb16f47f51568be8487a2c7e29d613fad99635a653430d9eafe5d116d68c9"
        )

    def test_key_json_round_trip(self):
        key = small_spec().scenarios()[-1]
        clone = ScenarioKey.from_json_dict(
            json.loads(json.dumps(key.to_json_dict()))
        )
        assert clone == key
        assert clone.digest() == key.digest()

    def test_assignment_content_changes_digest(self):
        base = small_spec().scenarios()[0]
        hardened = small_spec(
            assignments={"nominal": ParameterAssignment(CellParams(size=2.0))}
        ).scenarios()[0]
        assert base.assignment == hardened.assignment == "nominal"
        assert base.digest() != hardened.digest()

    def test_environment_content_changes_digest(self):
        tweaked = Environment(
            name="sea-level", flux_multiplier=2.0, duty_cycle=1.0
        )
        base = small_spec(environments=(SEA_LEVEL,)).scenarios()[0]
        other = small_spec(environments=(tweaked,)).scenarios()[0]
        assert base.environment == other.environment
        assert base.digest() != other.digest()
        # Cosmetic edits must NOT invalidate stored results.
        reworded = Environment(
            name="sea-level", description="same physics, new words"
        )
        assert reworded.fingerprint() == SEA_LEVEL.fingerprint()

    def test_validation(self):
        with pytest.raises(CampaignError):
            CampaignSpec(circuits=())
        with pytest.raises(CampaignError):
            small_spec(charges_fc=(4.0, 4.0))
        with pytest.raises(CampaignError):
            small_spec(environments=(SEA_LEVEL, SEA_LEVEL))
        with pytest.raises(CampaignError):
            small_spec(assignments={})
        with pytest.raises(CampaignError):
            small_spec(sample_width_counts=(1,))  # AsertaConfig floor is 2
        with pytest.raises(CampaignError, match="input_probability"):
            small_spec(input_probability=0.3)  # AsertaConfig accepts 0.5 only
        with pytest.raises(CampaignError):
            environment("alpha-centauri")

    def test_assignment_fingerprint_tracks_overrides(self):
        plain = ParameterAssignment()
        tweaked = ParameterAssignment()
        tweaked.set("g1", CellParams(size=2.0))
        assert assignment_fingerprint(plain) != assignment_fingerprint(tweaked)
        assert assignment_fingerprint(plain) == assignment_fingerprint(
            ParameterAssignment()
        )


# ---------------------------------------------------------- environments


class TestEnvironments:
    def test_fit_hand_computed(self):
        env = Environment(
            name="hand",
            flux_multiplier=2.0,
            duty_cycle=0.5,
            mission_hours=1e6,
            technology_node_nm=70.0,
            clock_period_ps=1000.0,
        )
        # FIT/Mb at 70 nm is tabulated as 800 => cell FIT = 800/1e6 * 2 * 0.5.
        assert env.cell_fit == pytest.approx(8.0e-4)
        # U = 5000 ps over a 1000 ps clock => 5 effective cells.
        fit = env.circuit_fit(5000.0)
        assert fit == pytest.approx(4.0e-3)
        rates = env.rates(5000.0)
        assert rates.fit == pytest.approx(fit)
        assert rates.mttf_hours == pytest.approx(1e9 / fit)
        assert rates.mission_upset_probability == pytest.approx(
            1.0 - math.exp(-fit * 1e-9 * 1e6)
        )

    def test_zero_unreliability_rates(self):
        rates = SEA_LEVEL.rates(0.0)
        assert rates.fit == 0.0
        assert rates.mttf_hours == math.inf
        assert rates.mission_upset_probability == 0.0

    def test_fit_per_mb_interpolation_and_clamping(self):
        assert fit_per_mb(70.0) == 800.0
        assert fit_per_mb(85.0) == pytest.approx(725.0)  # midway 70->100
        assert fit_per_mb(10.0) == 1000.0  # clamped below 45 nm
        assert fit_per_mb(500.0) == 120.0  # clamped above 250 nm
        with pytest.raises(CampaignError):
            fit_per_mb(0.0)

    def test_presets_ordering(self):
        # Harsher environments produce strictly higher FIT for the same U.
        fits = [env.circuit_fit(1000.0) for env in (SEA_LEVEL, AVIONICS, LEO_SPACE)]
        assert fits[0] < fits[1] < fits[2]

    def test_preset_validation(self):
        with pytest.raises(CampaignError):
            Environment(name="bad", flux_multiplier=0.0)
        with pytest.raises(CampaignError):
            Environment(name="bad", duty_cycle=1.5)


# ----------------------------------------------------------------- store


class TestResultStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = small_spec()
        outcome = CampaignRunner(spec, store=ResultStore(path)).run(parallel=False)
        assert outcome.computed == spec.size()

        reopened = ResultStore(path)
        assert len(reopened) == spec.size()
        for fresh in outcome.results:
            stored = reopened.get(fresh.digest())
            assert stored is not None
            assert stored.to_json_dict() == fresh.to_json_dict()

    def test_resume_skips_completed(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = small_spec()
        first = CampaignRunner(spec, store=ResultStore(path)).run(parallel=False)
        again = CampaignRunner(spec, store=ResultStore(path)).run(parallel=False)
        assert first.computed == spec.size() and first.skipped == 0
        assert again.computed == 0 and again.skipped == spec.size()
        assert [r.to_json_dict() for r in again.results] == [
            r.to_json_dict() for r in first.results
        ]

    def test_partial_store_computes_only_missing(self, tmp_path):
        path = tmp_path / "store.jsonl"
        narrow = small_spec(charges_fc=(4.0,))
        CampaignRunner(narrow, store=ResultStore(path)).run(parallel=False)
        wide = small_spec(charges_fc=(4.0, 16.0))
        outcome = CampaignRunner(wide, store=ResultStore(path)).run(parallel=False)
        assert outcome.skipped == narrow.size()
        assert outcome.computed == wide.size() - narrow.size()

    def test_foreign_spec_results_are_not_skipped(self, tmp_path):
        """A store holding results for a *different* spec digest must not
        satisfy this campaign's scenarios — every axis change re-keys."""
        path = tmp_path / "store.jsonl"
        base = small_spec(charges_fc=(4.0,))
        CampaignRunner(base, store=ResultStore(path)).run(parallel=False)
        foreign_specs = {
            "charge": small_spec(charges_fc=(5.0,)),
            "n_vectors": small_spec(charges_fc=(4.0,), n_vectors=300),
            "seed": small_spec(charges_fc=(4.0,), seed=4),
            "sample_widths": small_spec(
                charges_fc=(4.0,), sample_width_counts=(8,)
            ),
            "assignment": small_spec(
                charges_fc=(4.0,),
                assignments={
                    "nominal": ParameterAssignment(
                        overrides={"22": CellParams(size=2.0)}
                    )
                },
            ),
            "environment": small_spec(
                charges_fc=(4.0,),
                environments=(
                    # Same name, different content: renaming-safe digests
                    # must treat this as new work.
                    Environment(name="sea-level", flux_multiplier=7.0),
                    Environment(name="avionics", flux_multiplier=900.0),
                ),
            ),
        }
        for axis, spec in foreign_specs.items():
            outcome = CampaignRunner(spec, store=ResultStore(path)).run(
                parallel=False
            )
            assert outcome.skipped == 0, f"{axis} change wrongly skipped"
            assert outcome.computed == spec.size(), axis
        # The original campaign still resumes cleanly from the same store.
        again = CampaignRunner(base, store=ResultStore(path)).run(parallel=False)
        assert again.computed == 0 and again.skipped == base.size()

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = small_spec()
        CampaignRunner(spec, store=ResultStore(path)).run(parallel=False)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "digest": "tru')  # crash artifact
        assert len(ResultStore(path)) == spec.size()

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("not json\n{}\n", encoding="utf-8")
        with pytest.raises(CampaignError):
            ResultStore(path)

    def test_digest_mismatch_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        spec = small_spec(charges_fc=(4.0,))
        CampaignRunner(spec, store=ResultStore(path)).run(parallel=False)
        record = json.loads(path.read_text().splitlines()[0])
        record["key"]["charge_fc"] = 99.0  # tamper without re-keying
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CampaignError):
            ResultStore(path)

    def test_in_memory_add_is_idempotent(self):
        store = ResultStore()
        spec = small_spec(charges_fc=(4.0,))
        outcome = CampaignRunner(spec, store=store).run(parallel=False)
        result = outcome.results[0]
        assert store.add(result) is False
        assert len(store) == spec.size()


# ---------------------------------------------------------------- runner


class TestRunner:
    def test_serial_parallel_equivalence_c17_c432(self, tmp_path):
        spec = CampaignSpec(
            circuits=("c17", "c432"),
            charges_fc=(4.0, 8.0, 16.0),
            environments=(SEA_LEVEL, AVIONICS),
            n_vectors=300,
            seed=3,
        )
        serial = CampaignRunner(spec, store=ResultStore()).run(parallel=False)
        parallel = CampaignRunner(
            spec, store=ResultStore(), max_workers=2
        ).run(parallel=True)
        assert serial.mode == "serial"
        # The pool may legitimately be unavailable in a sandbox, in which
        # case the runner falls back to serial — results must agree
        # either way.
        assert parallel.mode in ("serial", "parallel")
        assert serial.computed == parallel.computed == spec.size()

        def comparable(outcome):
            return [
                (
                    r.digest(),
                    r.unreliability_total,
                    r.fit,
                    r.mission_upset_probability,
                )
                for r in outcome.results
            ]

        assert comparable(serial) == comparable(parallel)

    # max_workers=4 pins the many-CPU regression: batches used to be
    # chunked for the worker count before the execution mode was known,
    # splitting environment pairs across chunks and recomputing the
    # shared analysis once per environment on >=4-CPU machines.
    @pytest.mark.parametrize("max_workers", [None, 1, 4])
    def test_environment_axis_shares_analysis(self, max_workers):
        spec = small_spec()
        outcome = CampaignRunner(
            spec, store=ResultStore(), max_workers=max_workers
        ).run(parallel=False)
        by_scenario = {}
        for result in outcome.results:
            key = (result.key.charge_fc, result.key.assignment)
            by_scenario.setdefault(key, []).append(result)
        for group in by_scenario.values():
            assert len(group) == 2  # one per environment
            # Same underlying analysis: identical U, only one timed run.
            assert group[0].unreliability_total == group[1].unreliability_total
            assert sum(1 for r in group if r.analyze_runtime_s > 0.0) == 1

    def test_serial_parallel_equivalence_through_array_path(self, tmp_path):
        """Multi-axis grid (assignments x charges x sample-width counts)
        through the vectorized analyze(): forced 2-worker pool and serial
        execution must agree result-for-result, and both must match a
        direct array-engine analysis outside the campaign machinery."""
        from repro.circuit.iscas85 import iscas85_circuit
        from repro.core.aserta import AsertaAnalyzer

        spec = CampaignSpec(
            circuits=("c17",),
            charges_fc=(8.0, 16.0),
            environments=(SEA_LEVEL,),
            assignments={
                "nominal": ParameterAssignment(),
                "hardened": ParameterAssignment(
                    default=CellParams(size=2.0, length_nm=100.0)
                ),
            },
            sample_width_counts=(6, 10),
            n_vectors=250,
            seed=7,
        )
        serial = CampaignRunner(spec, store=ResultStore()).run(parallel=False)
        pooled = CampaignRunner(spec, store=ResultStore(), max_workers=2).run(
            parallel=True
        )
        assert serial.computed == pooled.computed == spec.size()
        assert [(r.digest(), r.unreliability_total, r.fit) for r in serial.results] == [
            (r.digest(), r.unreliability_total, r.fit) for r in pooled.results
        ]
        # Cross-check one scenario against a direct array-path analysis.
        analyzer = AsertaAnalyzer(
            iscas85_circuit("c17"), spec.aserta_config(6)
        )
        direct = analyzer.analyze(
            spec.assignments["hardened"], charge_fc=8.0, n_sample_widths=6
        )
        by_key = {
            (
                r.key.assignment,
                r.key.charge_fc,
                r.key.n_sample_widths,
            ): r.unreliability_total
            for r in serial.results
        }
        assert by_key[("hardened", 8.0, 6)] == direct.total

    def test_outcome_accounting(self):
        spec = small_spec(charges_fc=(4.0,))
        outcome = CampaignRunner(spec, store=ResultStore()).run(parallel=False)
        assert outcome.workers == 1
        assert outcome.wall_s > 0.0
        assert outcome.scenarios_per_second > 0.0
        assert len(outcome.results) == spec.size()

    def test_bad_worker_count(self):
        with pytest.raises(CampaignError):
            CampaignRunner(small_spec(), max_workers=0)

    def test_non_picklable_assignment_falls_back_to_serial(self):
        class LocalAssignment(ParameterAssignment):
            """Defined in a function body, so pickle cannot locate it."""

        spec = small_spec(
            charges_fc=(4.0,), assignments={"nominal": LocalAssignment()}
        )
        outcome = CampaignRunner(spec, store=ResultStore(), max_workers=2).run(
            parallel=True
        )
        assert outcome.mode == "serial"
        assert outcome.computed == spec.size()


# ------------------------------------------------------------- summarize


class TestSummarize:
    def test_best_assignment_per_circuit_environment(self):
        spec = small_spec(
            assignments={
                "nominal": ParameterAssignment(),
                "hardened": ParameterAssignment(CellParams(size=2.0)),
            },
        )
        outcome = CampaignRunner(spec, store=ResultStore()).run(parallel=False)
        summary = summarize(outcome)
        best = summary.best_assignments()
        assert len(best) == 2  # one per (c17, environment)
        rankings = summary.rankings()
        for choice in best:
            peers = [
                r
                for r in rankings
                if (r.circuit, r.environment)
                == (choice.circuit, choice.environment)
            ]
            assert choice.mean_fit == min(peer.mean_fit for peer in peers)

    def test_tables_render(self):
        outcome = CampaignRunner(
            small_spec(charges_fc=(4.0,)), store=ResultStore()
        ).run(parallel=False)
        summary = summarize(outcome)
        assert "FIT" in summary.format_fit_table()
        assert "best assignment" in summary.format_best_table()

    def test_empty_results_raise(self):
        with pytest.raises(CampaignError):
            summarize([])


# ------------------------------------------------------------------- CLI


class TestCli:
    def run_cli(self, *args: str, cwd: Path) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.campaign", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=600,
        )

    def test_end_to_end_with_resume(self, tmp_path):
        store = tmp_path / "cli_store.jsonl"
        args = (
            "--circuits", "c17", "c432",
            "--charges", "2", "4", "8",
            "--environments", "sea-level", "leo-space",
            "--n-vectors", "200",
            "--seed", "2",
            "--serial",
            "--store", str(store),
        )
        first = self.run_cli(*args, cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        assert "best assignment" in first.stdout
        assert "12 computed, 0 from store" in first.stdout
        assert len(store.read_text().splitlines()) == 12

        second = self.run_cli(*args, cwd=tmp_path)
        assert second.returncode == 0, second.stderr
        assert "0 computed, 12 from store" in second.stdout
        # The store was not grown by the resumed run.
        assert len(store.read_text().splitlines()) == 12

    def test_unknown_circuit_fails_cleanly(self, tmp_path):
        proc = self.run_cli(
            "--circuits", "c9999", "--n-vectors", "100", cwd=tmp_path
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_duplicate_sizes_fail_cleanly(self, tmp_path):
        # "1" and "1.0" would silently collapse into one 'nominal'
        # assignment via dict-key overwrite; the CLI must reject them.
        proc = self.run_cli(
            "--circuits", "c17", "--sizes", "1", "1.0",
            "--n-vectors", "100", cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "duplicate --sizes" in proc.stderr


# -------------------------------------------------- experiment wrappers


class TestExperimentWrappers:
    def test_sample_count_ablation_tolerates_reference_in_counts(self):
        from repro.experiments.ablations import run_sample_count_ablation
        from repro.experiments.common import ExperimentScale

        scale = ExperimentScale(
            sensitization_vectors=200,
            reference_vectors=5,
            optimizer_evaluations=5,
            circuits=("c17",),
            reference_circuits=(),
        )
        result = run_sample_count_ablation(
            "c17", counts=(3, 10), reference_k=10, scale=scale
        )
        assert result.totals[10] == result.reference_total
        assert result.relative_error(10) == 0.0

    def test_charge_sweep_tolerates_duplicate_charges(self):
        from repro.experiments.charge_sweep import run_charge_sweep
        from repro.experiments.common import ExperimentScale

        scale = ExperimentScale(
            sensitization_vectors=200,
            reference_vectors=5,
            optimizer_evaluations=5,
            circuits=("c17",),
            reference_circuits=(),
        )
        result = run_charge_sweep("c17", (4.0, 8.0, 4.0), scale)
        assert set(result.totals_by_charge) == {4.0, 8.0}


# -------------------------------------------------- analysis-config axis


class TestAnalysisConfigAxis:
    def test_default_digests_unchanged_by_new_axis(self):
        """The pre-axis serialized form had no share_epsilon /
        structural_engine entries; defaults must serialize identically
        so old stores resume (the pinned-digest test above guards the
        exact value)."""
        key = small_spec().scenarios()[0]
        payload = key.to_json_dict()
        assert "share_epsilon" not in payload
        assert "structural_engine" not in payload

    def test_old_store_record_resumes_default_config_campaign(self, tmp_path):
        spec = CampaignSpec(
            circuits=("c17",), charges_fc=(16.0,), n_vectors=200, seed=3
        )
        first = CampaignRunner(
            spec, store=ResultStore(tmp_path / "store.jsonl")
        ).run(parallel=False)
        assert first.computed == 1
        # Rewrite the store as an "old" record: strip the (absent) new
        # fields to prove the serialized form is the historical one.
        text = (tmp_path / "store.jsonl").read_text()
        assert "share_epsilon" not in text
        resumed = CampaignRunner(
            spec, store=ResultStore(tmp_path / "store.jsonl")
        ).run(parallel=False)
        assert resumed.computed == 0 and resumed.skipped == 1

    @pytest.mark.parametrize(
        "field, value", [("structural_engine", "event"), ("share_epsilon", 0.05)]
    )
    def test_store_record_with_removed_option_fails_to_load(
        self, tmp_path, field, value
    ):
        """A record whose key carries a removed analysis option is
        refused, naming the option, instead of resuming as a
        default-config result."""
        result = ScenarioResult(
            key=small_spec().scenarios()[0],
            unreliability_total=1.0,
            fit=2.0,
            mission_upset_probability=0.0,
            analyze_runtime_s=0.0,
        )
        record = result.to_json_dict()
        record["key"][field] = value
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CampaignError, match=f"malformed scenario key: .*{field}"):
            ResultStore(path)


# ------------------------------------------------- parallel amortization


class TestParallelAmortization:
    def test_auto_mode_stays_serial_below_threshold(self):
        spec = small_spec()  # 4 analysis units, far below the threshold
        outcome = CampaignRunner(
            spec, store=ResultStore(), max_workers=2
        ).run(parallel=None)
        assert outcome.mode == "serial"

    def test_threshold_configurable(self):
        spec = small_spec()
        runner = CampaignRunner(
            spec, store=ResultStore(), max_workers=2, parallel_min_units=0
        )
        outcome = runner.run(parallel=None)
        # With the floor removed, auto mode may dispatch (or fall back
        # serially in a pool-less sandbox) — both must compute the grid.
        assert outcome.mode in ("serial", "parallel")
        assert outcome.computed == spec.size()
        with pytest.raises(CampaignError):
            CampaignRunner(spec, parallel_min_units=-1)

    def test_forced_parallel_ignores_threshold(self):
        spec = small_spec()
        outcome = CampaignRunner(
            spec, store=ResultStore(), max_workers=2
        ).run(parallel=True)
        assert outcome.mode in ("serial", "parallel")
        assert outcome.computed == spec.size()

    def test_serial_reuse_counters(self):
        from repro.campaign.runner import clear_analyzer_cache

        clear_analyzer_cache()
        spec = CampaignSpec(
            circuits=("c17", "c432"),
            charges_fc=(4.0, 8.0, 16.0),
            n_vectors=200,
            seed=3,
        )
        outcome = CampaignRunner(
            spec, store=ResultStore(), max_workers=4
        ).run(parallel=False)
        assert outcome.batch_stats, "serial run must report batch stats"
        final = outcome.batch_stats[-1]
        groups = {key.structural_group() for key in spec.scenarios()}
        assert final["analyzer_builds"] == len(groups)
        assert final["analyzer_reuses"] == len(outcome.batch_stats) - len(groups)
        clear_analyzer_cache()

    def test_batches_interleave_groups(self):
        spec = CampaignSpec(
            circuits=("c17", "c432"),
            charges_fc=(4.0, 8.0, 16.0, 20.0),
            n_vectors=200,
            seed=3,
        )
        runner = CampaignRunner(spec, store=ResultStore())
        batches = runner._batches(list(spec.scenarios()), workers=4)
        order = [batch[0][0] for batch in batches]  # circuit of each batch
        assert len(batches) == 4  # two chunks per circuit
        # Round-robin: the first two batches cover *different* circuits.
        assert order[0] != order[1]
        assert order[2] != order[3]

    def test_batch_stats_timing_fields_self_consistent(self):
        """Every batch reports its wall clock and the two phases inside
        it (analyzer build, analyze calls); the phases can never exceed
        the wall.  This is the accounting that explains where a slow
        campaign actually spends its time (see docs/observability.md)."""
        from repro.campaign.runner import clear_analyzer_cache

        clear_analyzer_cache()
        outcome = CampaignRunner(small_spec(), store=ResultStore()).run(
            parallel=False
        )
        assert outcome.batch_stats
        for stats in outcome.batch_stats:
            assert stats["wall_s"] > 0.0
            assert stats["analyzer_build_s"] >= 0.0
            assert stats["analyze_s"] > 0.0  # fresh run: analyses happened
            assert (
                stats["analyzer_build_s"] + stats["analyze_s"]
                <= stats["wall_s"] + 1e-9
            )
            assert stats["started_at_ns"] < stats["ended_at_ns"]
            assert stats["wall_s"] == pytest.approx(
                (stats["ended_at_ns"] - stats["started_at_ns"]) / 1e9
            )
        # Serial runs have no pool to spin up or results to ship back.
        assert outcome.pool_spinup_s == 0.0
        assert outcome.result_recv_s == 0.0
        clear_analyzer_cache()

    def test_parallel_overhead_accounting_when_pool_available(self):
        """Parallel outcomes decompose the wall time the merged trace
        shows: pool spin-up before the first worker batch starts, and
        result shipping after the last one ends."""
        outcome = CampaignRunner(
            small_spec(), store=ResultStore(), max_workers=2
        ).run(parallel=True)
        if outcome.mode != "parallel":
            pytest.skip("process pool unavailable in this sandbox")
        assert outcome.pool_spinup_s >= 0.0
        assert outcome.result_recv_s >= 0.0
        overhead = outcome.pool_spinup_s + outcome.result_recv_s
        assert overhead <= outcome.wall_s
        # Worker batch endpoints are perf_counter_ns values from other
        # processes; being monotonic machine-wide they must land inside
        # the runner's own window.
        for stats in outcome.batch_stats:
            assert stats["started_at_ns"] < stats["ended_at_ns"]

    def test_parallel_reuse_counters_when_pool_available(self):
        from repro.campaign.runner import clear_analyzer_cache

        spec = CampaignSpec(
            circuits=("c17", "c432"),
            charges_fc=(4.0, 8.0, 16.0, 20.0),
            n_vectors=200,
            seed=3,
        )
        clear_analyzer_cache()
        outcome = CampaignRunner(
            spec, store=ResultStore(), max_workers=4
        ).run(parallel=True)
        if outcome.mode != "parallel":
            pytest.skip("process pool unavailable in this sandbox")
        groups = {key.structural_group() for key in spec.scenarios()}
        builds = outcome.analyzer_builds_by_worker()
        assert builds, "parallel run must report per-worker stats"
        # Accounting invariant: every batch either built its group's
        # analyzer in its process or reused one — final per-worker
        # builds + reuses sum to the batch count exactly.
        final: dict[int, tuple[int, int]] = {}
        for stats in outcome.batch_stats:
            pid = stats["pid"]
            previous = final.get(pid, (0, 0))
            final[pid] = (
                max(previous[0], stats["analyzer_builds"]),
                max(previous[1], stats["analyzer_reuses"]),
            )
        total_builds = sum(b for b, __ in final.values())
        total_reuses = sum(r for __, r in final.values())
        assert total_builds + total_reuses == len(outcome.batch_stats)
        # No worker rebuilds a group it already compiled, and at least
        # one group is built per participating worker.
        for pid, count in builds.items():
            assert 1 <= count <= len(groups), (pid, count)
        clear_analyzer_cache()
