"""Structural engine: batched fault simulation + compiled-artifact cache.

The two cooperating halves of the subsystem:

* :mod:`repro.engine.structural` — a level-synchronized, fault-site-
  batched bit-parallel simulator producing the dense ``(V, O)``
  ``P_ij`` matrix bit-identically to the event-driven seed estimator,
  with cone-of-influence masks so untouched regions cost nothing;
* :mod:`repro.engine.cache` / :mod:`repro.engine.artifacts` — a
  content-addressed cache (in-process LRU + optional on-disk ``npz``
  store, versioned keys) for every expensive derived structure, so a
  warm analyzer construction, a resumed campaign or a SERTOPT inner
  loop skips simulation entirely.

:class:`AnalysisEngine` ties them together and is what
``AsertaAnalyzer(engine=...)``, ``Sertopt(engine=...)`` and the
campaign runner plumb through.
"""

from repro.engine.artifacts import (
    ARTIFACT_SCHEMA,
    artifact_key,
    circuit_digest,
    p_matrix_key,
)
from repro.engine.cache import ArtifactCache, CacheStats, EngineError
from repro.engine.engine import (
    AnalysisEngine,
    get_default_engine,
    set_default_engine,
)
from repro.engine.structural import (
    CompiledStructuralCircuit,
    sparse_paths_from_matrix,
    structural_matrix_batched,
    structural_matrix_event,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "AnalysisEngine",
    "ArtifactCache",
    "CacheStats",
    "CompiledStructuralCircuit",
    "EngineError",
    "artifact_key",
    "circuit_digest",
    "get_default_engine",
    "p_matrix_key",
    "set_default_engine",
    "sparse_paths_from_matrix",
    "structural_matrix_batched",
    "structural_matrix_event",
]
