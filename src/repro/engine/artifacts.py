"""Stable digests and keys for compiled analysis artifacts.

Every expensive derived structure the engine manages — dense ``P_ij``
matrices, :class:`~repro.core.masking.MaskingStructure` instances,
compiled structural schedules, stacked LUT tensors — is identified by a
*content-addressed* key: a SHA-256 digest over the complete set of
inputs that determine the artifact, prefixed with a schema version.
Identical inputs always map to the same key (so a warm cache can serve
the artifact without recomputing it); any change to the netlist, the
estimation protocol, or the serialization layout changes the key (so a
stale artifact can never be served).

The circuit component of every key is
:meth:`repro.circuit.netlist.Circuit.content_digest`, which hashes the
netlist structure and ignores the display name.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.circuit.netlist import Circuit

#: Version of the artifact key/serialization layout.  Bump whenever the
#: meaning or the on-disk encoding of any artifact changes incompatibly:
#: every key embeds it, so old in-memory and on-disk entries simply stop
#: matching instead of being served stale.
ARTIFACT_SCHEMA = 1

#: Artifact kinds the engine produces (used in keys and file names).
KIND_P_MATRIX = "p_matrix"
KIND_STRUCTURE = "masking_structure"
KIND_COMPILED = "compiled_structural"
KIND_INDEXED = "indexed_circuit"
KIND_STACKED_LUT = "stacked_lut"
KIND_SWEEP_PLAN = "sweep_plan"


def canonical_json(payload: Any) -> str:
    """Canonical (sorted, compact) JSON used for every digest."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def artifact_key(kind: str, **fields: Any) -> str:
    """Content-addressed key for one artifact.

    ``fields`` must contain every input the artifact depends on,
    reduced to JSON-stable values (floats, ints, strings, digests).
    """
    payload = {"schema": ARTIFACT_SCHEMA, "kind": kind, **fields}
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return f"{kind}-{digest}"


def circuit_digest(circuit: Circuit) -> str:
    """The netlist content digest (cached on the circuit)."""
    return circuit.content_digest()


def probability_digest(input_probabilities: Mapping[str, float] | float) -> str:
    """Digest of an input-probability specification.

    Accepts the same spec :func:`repro.logicsim.probability.static_probabilities`
    does: a single float applied to every primary input, or a name-keyed
    mapping (missing names default to 0.5 there, so the mapping content
    is hashed as given).
    """
    if isinstance(input_probabilities, Mapping):
        payload: Any = {name: float(p) for name, p in input_probabilities.items()}
    else:
        payload = float(input_probabilities)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def p_matrix_key(circuit: Circuit, n_vectors: int, seed: int) -> str:
    """Key of the dense ``(V, O)`` sensitized-path probability matrix.

    Deliberately *engine-independent*: the batched and event-driven
    structural simulators are bit-identical by contract (asserted by the
    differential tests), so a matrix computed by either serves both.
    """
    return artifact_key(
        KIND_P_MATRIX,
        circuit=circuit_digest(circuit),
        n_vectors=int(n_vectors),
        seed=int(seed),
    )


def structure_key(
    circuit: Circuit,
    n_vectors: int,
    seed: int,
    input_probabilities: Mapping[str, float] | float,
    epsilon: float,
) -> str:
    """Key of the assignment-independent Equation-2 masking structure."""
    return artifact_key(
        KIND_STRUCTURE,
        circuit=circuit_digest(circuit),
        n_vectors=int(n_vectors),
        seed=int(seed),
        probabilities=probability_digest(input_probabilities),
        epsilon=float(epsilon),
    )


def sweep_plan_key(
    circuit: Circuit,
    n_vectors: int,
    seed: int,
    input_probabilities: Mapping[str, float] | float,
    epsilon: float,
) -> str:
    """Key of one compiled Section-3.2 sweep plan: everything the
    underlying masking structure depends on."""
    return artifact_key(
        KIND_SWEEP_PLAN,
        circuit=circuit_digest(circuit),
        n_vectors=int(n_vectors),
        seed=int(seed),
        probabilities=probability_digest(input_probabilities),
        epsilon=float(epsilon),
    )


def compiled_key(circuit: Circuit) -> str:
    """Key of the compiled structural schedule (the level/type-group
    evaluation plan; which pairs run is decided per call, from live-pair
    masks)."""
    return artifact_key(KIND_COMPILED, circuit=circuit_digest(circuit))


def indexed_key(circuit: Circuit) -> str:
    """Key of the dense :class:`~repro.circuit.indexed.IndexedCircuit` view."""
    return artifact_key(KIND_INDEXED, circuit=circuit_digest(circuit))


def stacked_lut_key(axes_digest: str, kind: str, pairs: tuple) -> str:
    """Key of one stacked characterization tensor.

    ``axes_digest`` fingerprints the table grids
    (:meth:`repro.tech.table_builder.TechnologyTables.axes_digest`);
    ``pairs`` is the ``(gate type, fan-in)`` leading axis.
    """
    return artifact_key(
        KIND_STACKED_LUT,
        axes=axes_digest,
        table=kind,
        pairs=[[gtype.value, int(fanin)] for gtype, fanin in pairs],
    )
