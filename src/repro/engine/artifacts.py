"""Stable digests and keys for compiled analysis artifacts.

Every expensive derived structure the engine manages — dense ``P_ij``
matrices, :class:`~repro.core.masking.MaskingStructure` instances,
compiled structural schedules — is identified by a *content-addressed*
key: a SHA-256 digest over the complete set of inputs that determine
the artifact, prefixed with a schema version.
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
from typing import Any

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


def probability_digest(input_probability: float) -> str:
    """Digest of the scalar input-probability spec (the value applied
    to every primary input)."""
    payload = canonical_json(float(input_probability))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def p_matrix_key(circuit: Circuit, n_vectors: int, seed: int) -> str:
    """Key of the dense ``(V, O)`` sensitized-path probability matrix."""
    return artifact_key(
        KIND_P_MATRIX,
        circuit=circuit_digest(circuit),
        n_vectors=int(n_vectors),
        seed=int(seed),
    )


def structure_key(
    circuit: Circuit, n_vectors: int, seed: int, input_probability: float
) -> str:
    """Key of the assignment-independent Equation-2 masking structure.

    Keyed on the scalar ``input_probability`` the per-signal static
    probabilities derive from, not on the derived mapping itself.
    """
    return artifact_key(
        KIND_STRUCTURE,
        circuit=circuit_digest(circuit),
        n_vectors=int(n_vectors),
        seed=int(seed),
        probabilities=probability_digest(input_probability),
    )


def compiled_key(circuit: Circuit) -> str:
    """Key of the compiled structural schedule (the level/type-group
    evaluation plan; which pairs run is decided per call, from live-pair
    masks)."""
    return artifact_key(KIND_COMPILED, circuit=circuit_digest(circuit))

