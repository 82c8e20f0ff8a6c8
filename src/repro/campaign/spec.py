"""Declarative campaign grids and content-addressed scenario keys.

A :class:`CampaignSpec` names every axis of a batch soft-error study —
circuits, injected charges, environments, parameter assignments and the
analysis configuration — and expands into a deterministic sequence of
:class:`ScenarioKey`\\ s.  Keys are hashable, JSON-serializable and carry
a stable SHA-256 content digest, which is what the
:class:`~repro.campaign.store.ResultStore` uses to resume a campaign and
skip scenarios that were already computed (by this run or any earlier
one).

Digest stability is a compatibility contract: two scenarios get the same
digest exactly when the analysis inputs are identical, *including* the
contents of the named assignment and environment — renaming-safe aliases
are deliberately not provided, so a store can never serve a stale result
for a redefined name.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.campaign.environments import SEA_LEVEL, Environment
from repro.core.aserta import AsertaConfig
from repro.errors import AnalysisError, CampaignError
from repro.tech import constants as k
from repro.tech.library import CellParams, ParameterAssignment

#: Version of the key serialization; bump on incompatible digest changes.
KEY_SCHEMA = 1


def canonical_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a canonical (sorted, compact) JSON form."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _cell_payload(cell: CellParams) -> list[float]:
    return [cell.size, cell.length_nm, cell.vdd, cell.vth]


def assignment_fingerprint(assignment: ParameterAssignment) -> str:
    """Short content hash of an assignment (default cell + overrides)."""
    payload = {
        "default": _cell_payload(assignment.default),
        "overrides": {
            name: _cell_payload(cell)
            for name, cell in sorted(assignment.overrides().items())
        },
    }
    return canonical_digest(payload)[:12]


@dataclass(frozen=True)
class ScenarioKey:
    """One point of the campaign grid, fully identifying an analysis.

    A serialized key carries exactly these fields; a stored key with
    any other field fails to load as a malformed key.
    """

    circuit: str
    charge_fc: float
    environment: str
    environment_digest: str
    assignment: str
    assignment_digest: str
    n_vectors: int
    seed: int
    n_sample_widths: int
    input_probability: float
    use_tables: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": KEY_SCHEMA,
            "circuit": self.circuit,
            "charge_fc": self.charge_fc,
            "environment": self.environment,
            "environment_digest": self.environment_digest,
            "assignment": self.assignment,
            "assignment_digest": self.assignment_digest,
            "n_vectors": self.n_vectors,
            "seed": self.seed,
            "n_sample_widths": self.n_sample_widths,
            "input_probability": self.input_probability,
            "use_tables": self.use_tables,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ScenarioKey":
        schema = payload.get("schema", KEY_SCHEMA)
        if schema != KEY_SCHEMA:
            raise CampaignError(
                f"scenario key schema {schema} not supported (expected {KEY_SCHEMA})"
            )
        fields = {key: value for key, value in payload.items() if key != "schema"}
        try:
            return cls(**fields)
        except TypeError as exc:
            raise CampaignError(f"malformed scenario key: {exc}") from None

    def digest(self) -> str:
        """Stable content hash identifying this scenario in a store."""
        return canonical_digest(self.to_json_dict())

    def structural_group(self) -> tuple:
        """Axis values the expensive structural pass (P_ij estimation)
        depends on — scenarios sharing a group share one analyzer."""
        return (
            self.circuit,
            self.n_vectors,
            self.seed,
            self.input_probability,
            self.use_tables,
        )


def _default_assignments() -> dict[str, ParameterAssignment]:
    return {"nominal": ParameterAssignment()}


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative grid of one campaign.

    Scenario order (and therefore store order and summary order) is
    deterministic: circuits and charges in declaration order, assignments
    sorted by name, environments in declaration order, sample-width
    counts in declaration order.  See ``docs/campaigns.md`` for the
    digest/resume semantics.

    >>> spec = CampaignSpec(circuits=("c17",), charges_fc=(4.0, 16.0))
    >>> spec.size()
    2
    >>> keys = spec.scenarios()
    >>> [k.charge_fc for k in keys]
    [4.0, 16.0]
    >>> keys[0].digest() == spec.scenarios()[0].digest()  # stable identity
    True
    """

    #: Circuit names, resolved through the ISCAS-85 registry.
    circuits: tuple[str, ...]
    #: Injected charge per strike, fC, one scenario per value.
    charges_fc: tuple[float, ...] = (k.DEFAULT_CHARGE_FC,)
    #: Deployment scenarios the results are scaled into.
    environments: tuple[Environment, ...] = (SEA_LEVEL,)
    #: Named parameter assignments (design variants) to compare.
    assignments: Mapping[str, ParameterAssignment] = field(
        default_factory=_default_assignments
    )
    #: Random vectors for the P_ij estimate (shared by the whole grid).
    n_vectors: int = 2000
    #: Seed for the sensitization vectors.
    seed: int = 0
    #: Sample-glitch-width counts — the analysis-config axis of the grid.
    sample_width_counts: tuple[int, ...] = (10,)
    #: Static probability assumed at every primary input.
    input_probability: float = 0.5
    #: Route electrical queries through the interpolated look-up tables.
    use_tables: bool = True
    #: Directory for the engine's on-disk compiled-artifact cache
    #: (``P_ij`` matrices).  ``None`` keeps the cache in-memory per
    #: worker.  Execution configuration only: it never enters scenario
    #: digests, so pointing an existing campaign at a cache directory
    #: cannot invalidate (or be confused with) its result store.
    cache_dir: str | None = None
    #: Optional :class:`repro.telemetry.Telemetry` handle the runner
    #: records campaign spans and metrics into (workers ship their span
    #: buffers back for cross-process aggregation).  Execution
    #: configuration only, exactly like ``cache_dir``: it never enters
    #: scenario digests, so tracing a campaign cannot invalidate (or be
    #: confused with) its result store.
    telemetry: Any = None

    def __post_init__(self) -> None:
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", os.fspath(self.cache_dir))
        object.__setattr__(self, "circuits", tuple(self.circuits))
        object.__setattr__(
            self, "charges_fc", tuple(float(q) for q in self.charges_fc)
        )
        object.__setattr__(self, "environments", tuple(self.environments))
        object.__setattr__(self, "assignments", dict(self.assignments))
        object.__setattr__(
            self,
            "sample_width_counts",
            tuple(int(n) for n in self.sample_width_counts),
        )
        if not self.circuits:
            raise CampaignError("campaign needs at least one circuit")
        if len(set(self.circuits)) != len(self.circuits):
            raise CampaignError(f"duplicate circuits in {self.circuits}")
        if not self.charges_fc:
            raise CampaignError("campaign needs at least one injected charge")
        if any(q < 0.0 for q in self.charges_fc):
            raise CampaignError(f"charges must be >= 0 fC, got {self.charges_fc}")
        if len(set(self.charges_fc)) != len(self.charges_fc):
            raise CampaignError(f"duplicate charges in {self.charges_fc}")
        if not self.environments:
            raise CampaignError("campaign needs at least one environment")
        names = [env.name for env in self.environments]
        if len(set(names)) != len(names):
            raise CampaignError(f"duplicate environment names in {names}")
        if not self.assignments:
            raise CampaignError("campaign needs at least one assignment")
        if not self.sample_width_counts:
            raise CampaignError("campaign needs at least one sample-width count")
        if len(set(self.sample_width_counts)) != len(self.sample_width_counts):
            raise CampaignError(
                f"duplicate sample-width counts in {self.sample_width_counts}"
            )
        # Reuse AsertaConfig's validation for the shared analysis knobs.
        try:
            for count in self.sample_width_counts:
                self.aserta_config(count)
        except AnalysisError as exc:
            raise CampaignError(str(exc)) from None

    def aserta_config(self, n_sample_widths: int | None = None) -> AsertaConfig:
        """The analyzer configuration for one sample-width count."""
        return AsertaConfig(
            n_vectors=self.n_vectors,
            seed=self.seed,
            n_sample_widths=(
                self.sample_width_counts[0]
                if n_sample_widths is None
                else n_sample_widths
            ),
            input_probability=self.input_probability,
            use_tables=self.use_tables,
        )

    def environment_by_name(self, name: str) -> Environment:
        for env in self.environments:
            if env.name == name:
                return env
        raise CampaignError(f"environment {name!r} not in this campaign")

    def size(self) -> int:
        """Number of scenarios the grid expands into."""
        return (
            len(self.circuits)
            * len(self.charges_fc)
            * len(self.environments)
            * len(self.assignments)
            * len(self.sample_width_counts)
        )

    def structural_groups(self) -> tuple[tuple, ...]:
        """Distinct structural groups of the grid, in scenario order.

        One entry per expensive structural pass (see
        :meth:`ScenarioKey.structural_group`) — what a resident worker
        pool needs to know to warm up ahead of the first batch.
        """
        groups: list[tuple] = []
        seen: set[tuple] = set()
        for key in self.scenarios():
            group = key.structural_group()
            if group not in seen:
                seen.add(group)
                groups.append(group)
        return tuple(groups)

    def scenarios(self) -> tuple[ScenarioKey, ...]:
        """Expand the grid into its deterministic scenario sequence."""
        env_digests = {env.name: env.fingerprint() for env in self.environments}
        assignment_digests = {
            name: assignment_fingerprint(assignment)
            for name, assignment in self.assignments.items()
        }
        keys: list[ScenarioKey] = []
        for circuit in self.circuits:
            for assignment_name in sorted(self.assignments):
                for charge in self.charges_fc:
                    for env in self.environments:
                        for count in self.sample_width_counts:
                            keys.append(
                                ScenarioKey(
                                    circuit=circuit,
                                    charge_fc=charge,
                                    environment=env.name,
                                    environment_digest=env_digests[env.name],
                                    assignment=assignment_name,
                                    assignment_digest=assignment_digests[
                                        assignment_name
                                    ],
                                    n_vectors=self.n_vectors,
                                    seed=self.seed,
                                    n_sample_widths=count,
                                    input_probability=self.input_probability,
                                    use_tables=self.use_tables,
                                )
                            )
        return tuple(keys)
