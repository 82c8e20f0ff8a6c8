"""TAB1 — SERTOPT optimization results (the paper's Table 1).

For each circuit: speed-optimized baseline at (L=70 nm, 1 V, 0.2 V),
SERTOPT with the per-circuit VDD/Vth menus the paper lists, channel
lengths {70, 100, 150, 250, 300} nm, then the Table-1 columns:

* VDDs / Vths used in the optimized circuit,
* area, energy and delay ratios versus the baseline,
* decrease in unreliability computed by ASERTA (full input statistics),
* decrease computed by ASERTA and by the transient reference on the
  same 50 random vectors (the validation pair; the paper skips SPICE on
  the two largest circuits, and the fast scales here skip likewise).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reports import format_percent, format_ratio, format_table
from repro.circuit.iscas85 import iscas85_circuit
from repro.core.aserta import AsertaConfig
from repro.core.cost import CostWeights
from repro.core.sertopt import Sertopt, SertoptConfig, SertoptResult
from repro.experiments.common import ExperimentScale
from repro.spice.harness import vector_average_output_widths
from repro.tech.library import CellLibrary

#: Per-circuit VDD/Vth menus, exactly as listed in the paper's Table 1
#: ("-" rows fall back to the full menu).
PAPER_MENUS: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {
    "c432": ((0.8, 1.0), (0.2, 0.3)),
    "c499": ((0.8, 1.0, 1.2), (0.1, 0.2, 0.3)),
    "c1908": ((0.8, 1.0, 1.2), (0.1, 0.2, 0.3)),
    "c2670": ((0.8, 1.0, 1.2), (0.1, 0.2, 0.3)),
    "c3540": ((0.8, 1.0), (0.2, 0.3)),
    "c5315": ((0.8, 1.0, 1.2), (0.1, 0.2, 0.3)),
    "c7552": ((0.8, 1.0), (0.2, 0.3)),
}

#: Paper Table 1 reference values: (area, energy, delay, dU_aserta) —
#: used by EXPERIMENTS.md and the shape assertions in the test suite.
PAPER_RESULTS: dict[str, tuple[float, float, float, float]] = {
    "c432": (2.0, 2.2, 1.23, 0.40),
    "c499": (1.0, 1.0, 1.0, 0.00),
    "c1908": (1.2, 1.8, 0.98, 0.18),
    "c2670": (1.05, 1.3, 0.98, 0.21),
    "c3540": (1.5, 1.6, 1.03, 0.47),
    "c5315": (1.2, 1.9, 0.98, 0.26),
    "c7552": (1.6, 1.6, 1.07, 0.18),
}


@dataclass(frozen=True)
class Table1Row:
    """One line of Table 1."""

    circuit: str
    vdds_used: tuple[float, ...]
    vths_used: tuple[float, ...]
    area_ratio: float
    energy_ratio: float
    delay_ratio: float
    du_aserta: float
    du_aserta_vectors: float | None
    du_reference_vectors: float | None
    result: SertoptResult


@dataclass(frozen=True)
class Table1Result:
    rows: list[Table1Row]

    def row(self, circuit: str) -> Table1Row:
        for row in self.rows:
            if row.circuit == circuit:
                return row
        raise KeyError(circuit)


def optimize_circuit(
    name: str,
    scale: ExperimentScale,
    weights: CostWeights | None = None,
    seed: int = 0,
) -> SertoptResult:
    """Run SERTOPT on one circuit with its paper menu."""
    circuit = iscas85_circuit(name)
    vdds, vths = PAPER_MENUS.get(name, ((0.8, 1.0, 1.2), (0.1, 0.2, 0.3)))
    library = CellLibrary.paper_library(vdds=vdds, vths=vths)
    config = SertoptConfig(
        weights=weights if weights is not None else CostWeights(),
        max_evaluations=scale.optimizer_evaluations,
        seed=seed,
        aserta=AsertaConfig(
            n_vectors=scale.sensitization_vectors, seed=seed
        ),
    )
    return Sertopt(circuit, library=library, config=config).optimize()


def _vector_reduction(
    name: str, result: SertoptResult, scale: ExperimentScale, use_tables: bool,
    seed: int = 11,
) -> float:
    """1 - U_opt/U_base with both U's measured on the same random vectors."""
    circuit = iscas85_circuit(name)
    base = vector_average_output_widths(
        circuit,
        result.baseline_assignment,
        n_vectors=scale.reference_vectors,
        seed=seed,
        use_tables=use_tables,
    )
    optimized = vector_average_output_widths(
        circuit,
        result.optimized_assignment,
        n_vectors=scale.reference_vectors,
        seed=seed,
        use_tables=use_tables,
    )
    if base <= 0.0:
        return 0.0
    return (base - optimized) / base


def run_table1(
    scale: ExperimentScale | None = None,
    circuits: tuple[str, ...] | None = None,
    weights: CostWeights | None = None,
) -> Table1Result:
    """Regenerate Table 1 at the requested scale."""
    scale = scale if scale is not None else ExperimentScale.fast()
    names = circuits if circuits is not None else scale.circuits
    rows: list[Table1Row] = []
    for name in names:
        result = optimize_circuit(name, scale, weights=weights)
        with_reference = name in scale.reference_circuits
        du_vec = (
            _vector_reduction(name, result, scale, use_tables=True)
            if with_reference
            else None
        )
        du_ref = (
            _vector_reduction(name, result, scale, use_tables=False)
            if with_reference
            else None
        )
        rows.append(
            Table1Row(
                circuit=name,
                vdds_used=result.vdds_used(),
                vths_used=result.vths_used(),
                area_ratio=result.area_ratio,
                energy_ratio=result.energy_ratio,
                delay_ratio=result.delay_ratio,
                du_aserta=result.unreliability_reduction,
                du_aserta_vectors=du_vec,
                du_reference_vectors=du_ref,
                result=result,
            )
        )
    return Table1Result(rows=rows)


def main() -> None:
    result = run_table1(ExperimentScale.medium())
    table_rows = []
    for row in result.rows:
        table_rows.append(
            (
                row.circuit,
                ", ".join(str(v) for v in row.vdds_used),
                ", ".join(str(v) for v in row.vths_used),
                format_ratio(row.area_ratio),
                format_ratio(row.energy_ratio),
                format_ratio(row.delay_ratio),
                format_percent(row.du_aserta),
                "-" if row.du_aserta_vectors is None
                else format_percent(row.du_aserta_vectors),
                "-" if row.du_reference_vectors is None
                else format_percent(row.du_reference_vectors),
            )
        )
    print(
        format_table(
            (
                "Circuit", "VDDs used", "Vths used", "Area", "Energy",
                "Delay", "dU ASERTA", "dU ASERTA@vec", "dU ref@vec",
            ),
            table_rows,
            title="TAB1 — SERTOPT optimization results",
        )
    )


if __name__ == "__main__":
    main()
