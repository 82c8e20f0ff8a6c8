"""The analysis engine: structural simulation + compiled-artifact cache.

:class:`AnalysisEngine` is the handle the rest of the library plumbs
around.  It owns one :class:`~repro.engine.cache.ArtifactCache` and
knows how to *build-or-serve* every structural artifact an analysis
needs:

* the compiled simulation schedule
  (:class:`~repro.engine.structural.CompiledStructuralCircuit`);
* the dense ``P_ij`` matrix — batched by default, event-driven via the
  ``structural="event"`` escape hatch (disk-cacheable: a resumed
  campaign or a fresh CLI run skips the fault simulation entirely);
* the assignment-independent Equation-2 masking structure;
* stacked LUT value tensors, pre-warmed into a
  :class:`~repro.tech.table_builder.TechnologyTables` instance.

One process-wide default engine (:func:`get_default_engine`) backs
every ``AsertaAnalyzer`` that is not handed an explicit engine, which
is what makes a *second* analyzer of the same circuit and protocol —
a SERTOPT run after a campaign, a re-built analyzer in a long-lived
service — perform zero fault-simulation work.
"""

from __future__ import annotations

import logging
import os
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.circuit.netlist import Circuit
from repro.engine import artifacts
from repro.engine.cache import ArtifactCache, EngineError
from repro.engine.structural import (
    CompiledStructuralCircuit,
    sparse_paths_from_matrix,
    structural_matrix_batched,
    structural_matrix_event,
)
from repro.telemetry import resolve

_LOG = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.masking import MaskingStructure
    from repro.logicsim.bitsim import BitParallelSimulator
    from repro.tech.table_builder import TechnologyTables

#: Structural estimator names (the ``structural_engine`` escape hatch).
STRUCTURAL_ENGINES = ("batched", "event")

#: LUT kinds the vectorized electrical annotation gathers through.
_STACKED_KINDS = ("input_cap", "ramp", "delay", "glitch", "static_power")


class AnalysisEngine:
    """Build-or-serve facade over the compiled-artifact cache.

    Analyzers, campaigns and SERTOPT runs that share one engine share
    every sizing-invariant compiled artifact — ``P_ij`` matrices,
    Equation-2 masking structures, compiled structural schedules and
    stacked LUT tensors — keyed by netlist content digest plus the
    estimation protocol.  Pass ``cache_dir`` (a directory path) to add
    a persistent on-disk ``npz`` tier shared across processes, and
    ``max_disk_bytes`` to bound it with LRU-by-mtime eviction.
    Counters (:attr:`structural_sim_runs`, ``stats``) expose how much
    real simulation work the engine has done versus served from cache.
    Pass ``telemetry`` (a :class:`repro.telemetry.Telemetry`) to record
    build spans (``engine.*.build``) and mirror the cache counters into
    its metrics registry under ``engine.cache.*``.
    """

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        cache_dir: str | os.PathLike | None = None,
        structural: str = "batched",
        max_entries: int = 128,
        max_disk_bytes: int | None = None,
        telemetry=None,
    ) -> None:
        if structural not in STRUCTURAL_ENGINES:
            raise EngineError(
                f"structural engine must be one of {STRUCTURAL_ENGINES}, "
                f"got {structural!r}"
            )
        if cache is not None and cache_dir is not None:
            raise EngineError("pass either cache or cache_dir, not both")
        if cache is not None and max_disk_bytes is not None:
            raise EngineError(
                "max_disk_bytes configures the engine-owned cache; set it "
                "on the ArtifactCache when passing one in"
            )
        self.cache = (
            cache
            if cache is not None
            else ArtifactCache(
                max_entries=max_entries,
                cache_dir=cache_dir,
                max_disk_bytes=max_disk_bytes,
            )
        )
        self.structural = structural
        #: Fault simulations actually executed (not served from cache).
        self.structural_sim_runs = 0
        self.telemetry = resolve(telemetry)
        if self.telemetry.enabled:
            # Mirror cache counters into the registry as they happen —
            # counters (not gauges), so cross-process merges are sums.
            self.cache.metrics = self.telemetry.metrics

    # ------------------------------------------------------------------
    # Structural artifacts
    # ------------------------------------------------------------------

    def compiled_structural(self, circuit: Circuit) -> CompiledStructuralCircuit:
        """The batched simulation schedule (cached by netlist digest)."""
        key = artifacts.compiled_key(circuit)
        compiled = self.cache.get(key)
        if compiled is None or compiled.indexed.circuit is not circuit:
            # A schedule cached for a *different object* with the same
            # content is structurally valid, but rebinding row arrays
            # across objects buys nothing — compilation is cheap next to
            # simulation — so each live circuit object gets its own.
            with self.telemetry.span(
                "engine.compile_structural", circuit=circuit.name
            ):
                compiled = CompiledStructuralCircuit(circuit.indexed())
            self.cache.put(key, compiled)
        return compiled

    def p_matrix(
        self,
        circuit: Circuit,
        n_vectors: int,
        seed: int,
        structural: str | None = None,
        simulator: "BitParallelSimulator | None" = None,
    ) -> np.ndarray:
        """Dense ``(V, O)`` ``P_ij``, served from cache when possible.

        The key is engine-independent (both estimators are bit-identical
        by contract), so a matrix computed by either implementation —
        or loaded from the disk tier — serves every caller.
        """
        engine = self.structural if structural is None else structural
        if engine not in STRUCTURAL_ENGINES:
            raise EngineError(
                f"structural engine must be one of {STRUCTURAL_ENGINES}, "
                f"got {engine!r}"
            )
        key = artifacts.p_matrix_key(circuit, n_vectors, seed)

        def build() -> dict[str, np.ndarray]:
            self.structural_sim_runs += 1
            self.telemetry.metrics.add("engine.structural_sim_runs")
            _LOG.debug(
                "structural simulation for %s (%d vectors, %s engine)",
                circuit.name, n_vectors, engine,
            )
            with self.telemetry.span(
                "engine.p_matrix.build",
                circuit=circuit.name,
                n_vectors=n_vectors,
                engine=engine,
            ):
                if engine == "batched":
                    matrix = structural_matrix_batched(
                        circuit,
                        n_vectors,
                        seed,
                        simulator=simulator,
                        compiled=self.compiled_structural(circuit),
                        telemetry=self.telemetry,
                    )
                else:
                    matrix = structural_matrix_event(
                        circuit, n_vectors, seed, simulator=simulator
                    )
            return {"p_matrix": matrix}

        return self.cache.get_or_build_arrays(key, build)["p_matrix"]

    def sensitized_paths(
        self, circuit: Circuit, n_vectors: int, seed: int
    ) -> dict[str, dict[str, float]]:
        """Sparse ``{gate: {output: P_ij}}`` view over :meth:`p_matrix`."""
        return sparse_paths_from_matrix(
            circuit.indexed(), self.p_matrix(circuit, n_vectors, seed)
        )

    def masking_structure(
        self,
        circuit: Circuit,
        probabilities: Mapping[str, float],
        n_vectors: int,
        seed: int,
        epsilon: float,
    ) -> "MaskingStructure":
        """The Equation-2 structure over the cached ``P_ij`` matrix."""
        from repro.core.masking import masking_structure

        key = artifacts.structure_key(
            circuit, n_vectors, seed, probabilities, epsilon
        )
        structure = self.cache.get(key)
        if structure is None or (
            structure.indexed.circuit is not circuit
            and structure.indexed.circuit.content_digest()
            != circuit.content_digest()
        ):
            # Content-equal live copies share the cached structure (its
            # row/column order is determined by the netlist content, and
            # the electrical-masking pass accepts digest-equal
            # structures); only a true content mismatch — impossible
            # while keys embed the digest, but cheap to re-check —
            # rebuilds.  The dense share computation is the dominant
            # non-simulation build cost, so rebuilding per live object
            # would thrash warm paths that reload circuits.
            with self.telemetry.span(
                "engine.masking_structure.build", circuit=circuit.name
            ):
                structure = masking_structure(
                    circuit,
                    probabilities,
                    indexed=circuit.indexed(),
                    p_matrix=self.p_matrix(circuit, n_vectors, seed),
                    epsilon=epsilon,
                )
            self.cache.put(key, structure)
        return structure

    def sweep_plan(
        self,
        circuit: Circuit,
        probabilities: Mapping[str, float],
        n_vectors: int,
        seed: int,
        epsilon: float,
        structure: "MaskingStructure | None" = None,
    ):
        """The compiled Section-3.2 sweep plan, served from cache.

        Keyed like the masking structure it compiles
        (:func:`repro.engine.artifacts.sweep_plan_key`).  ``structure``
        short-cuts the structure lookup when the caller (an analyzer)
        already resolved it.  A plan holds only integer schedules and
        dense shares — all determined by the netlist content the key
        embeds — so content-equal live circuit copies share one cached
        plan, exactly like masking structures.
        """
        from repro.core.sweep_plan import sweep_plan_for

        if structure is None:
            structure = self.masking_structure(
                circuit, probabilities, n_vectors, seed, epsilon
            )
        key = artifacts.sweep_plan_key(
            circuit, n_vectors, seed, probabilities, epsilon
        )
        plan = self.cache.get(key)
        if plan is None:
            with self.telemetry.span(
                "engine.sweep_plan.build", circuit=circuit.name
            ):
                plan = sweep_plan_for(structure)
            self.cache.put(key, plan)
        return plan

    # ------------------------------------------------------------------
    # Electrical artifacts
    # ------------------------------------------------------------------

    def warm_stacked_tables(
        self, tables: "TechnologyTables", pairs: tuple
    ) -> None:
        """Pre-populate the stacked LUT tensors for one gate population.

        On a cache hit (including the disk tier) the tensors are adopted
        into ``tables`` without evaluating a single grid point; on a
        miss they are built once and stored for the next process.
        """
        if not pairs:
            return
        axes = tables.axes_digest()

        def build_stack(kind: str) -> dict[str, np.ndarray]:
            with self.telemetry.span("engine.stacked_lut.build", kind=kind):
                return {"values": tables.stacked_values(kind, pairs)}

        for kind in _STACKED_KINDS:
            key = artifacts.stacked_lut_key(axes, kind, pairs)
            stacked = self.cache.get_or_build_arrays(
                key, lambda kind=kind: build_stack(kind)
            )["values"]
            tables.adopt_stack(kind, pairs, stacked)

    def warm_start(self, preload_limit: int | None = None) -> int:
        """Adopt whatever the on-disk artifact tier already holds.

        Called by pooled campaign workers during spin-up so that the
        ``P_ij`` matrices and stacked LUT tensors written by earlier
        runs (or by a sibling worker) are memory hits before the first
        batch arrives — the cross-process warm handoff.  A no-op for
        engines without a disk tier.  Returns the number of artifacts
        promoted into memory.
        """
        with self.telemetry.span("engine.warm_start"):
            return self.cache.preload_disk(limit=preload_limit)

    def stats(self) -> dict:
        """Cache counters plus the engine's own simulation counter."""
        snapshot = self.cache.stats.snapshot()
        snapshot["structural_sim_runs"] = self.structural_sim_runs
        return snapshot


_DEFAULT_ENGINE: AnalysisEngine | None = None


def get_default_engine() -> AnalysisEngine:
    """The process-wide engine used when none is passed explicitly.

    Created lazily on first use (in-memory cache only); replace or
    reset it with :func:`set_default_engine`.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = AnalysisEngine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: AnalysisEngine | None) -> AnalysisEngine | None:
    """Replace the process-wide engine; returns the previous one.

    Pass ``None`` to reset (a fresh default is created on next use) —
    used by tests and by long-lived services that want to bound memory.
    """
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return previous
