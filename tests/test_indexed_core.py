"""Unit tests for the array-core substrate: the indexed netlist view,
vectorized LUT queries (single-table and stacked), the grid form of
Equation 1 and the dense P_ij matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.gate import GateType
from repro.circuit.iscas85 import iscas85_circuit
from repro.logicsim.sensitization import (
    sensitization_matrix,
    sensitization_probabilities,
)
from repro.tech.glitch import propagate_width_array, propagate_width_grid_batch
from repro.tech.library import CellParams
from repro.tech.lut import GridTable, bracket_queries, stacked_lookup
from repro.tech.table_builder import default_tables
from repro.errors import TechnologyError


class TestIndexedCircuit:
    def test_rows_follow_topological_order(self, c432):
        idx = c432.indexed()
        assert idx.order == c432.topological_order()
        assert idx.n_signals == len(c432)
        assert idx.n_gates == c432.gate_count
        for row, name in enumerate(idx.order):
            assert idx.index[name] == row

    def test_masks_and_output_columns(self, c432):
        idx = c432.indexed()
        assert int(idx.is_input.sum()) == len(c432.inputs)
        assert int(idx.is_output.sum()) == len(c432.outputs)
        for col, name in enumerate(c432.outputs):
            row = idx.index[name]
            assert idx.output_col[name] == col
            assert idx.output_rows[col] == row
            assert idx.col_of_row[row] == col

    def test_csr_matches_circuit_adjacency(self, c432):
        idx = c432.indexed()
        for name in c432.signal_names():
            row = idx.index[name]
            fanouts = tuple(idx.order[r] for r in idx.fanouts_of(row))
            assert fanouts == c432.fanouts(name)
            fanins = tuple(idx.order[r] for r in idx.fanins_of(row))
            assert fanins == c432.gate(name).fanins
        assert idx.n_edges == sum(g.fanin_count for g in c432)

    def test_edge_src_is_csr_expansion(self, c17):
        idx = c17.indexed()
        for e in range(idx.n_edges):
            src = idx.edge_src[e]
            assert idx.fanout_ptr[src] <= e < idx.fanout_ptr[src + 1]

    def test_group_ids_partition_gates(self, c432):
        idx = c432.indexed()
        assert np.all(idx.group_id[idx.gate_rows] >= 0)
        assert np.all(idx.group_id[idx.is_input] == -1)
        for gid, (pair, rows) in enumerate(idx.type_groups.items()):
            assert idx.group_pairs[gid] == pair
            for row in rows:
                gate = c432.gate(idx.order[row])
                assert (gate.gtype, gate.fanin_count) == pair
                assert idx.group_id[row] == gid

    def test_gather_scatter_round_trip(self, c17):
        idx = c17.indexed()
        mapping = {name: float(i) for i, name in enumerate(c17.signal_names())}
        dense = idx.gather(mapping)
        assert idx.scatter(dense) == mapping

    def test_view_is_cached_and_invalidated(self, c17):
        first = c17.indexed()
        assert c17.indexed() is first
        c17.mark_output("10")  # mutation clears derived caches
        assert c17.indexed() is not first


class TestVectorizedLookup:
    def _table(self):
        return GridTable(
            [("x", (0.0, 1.0, 2.0)), ("y", (10.0, 20.0))],
            np.arange(6, dtype=np.float64).reshape(3, 2),
        )

    def test_lookup_many_matches_scalar(self):
        table = self._table()
        rng = np.random.default_rng(1)
        xs = rng.uniform(-0.5, 2.5, 64)
        ys = rng.uniform(5.0, 25.0, 64)
        got = table.lookup_many(x=xs, y=ys)
        want = np.array([table.lookup(x=x, y=y) for x, y in zip(xs, ys)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_lookup_many_validates_axes(self):
        table = self._table()
        with pytest.raises(Exception):
            table.lookup_many(x=np.ones(3))
        with pytest.raises(Exception):
            table.lookup_many(x=np.ones(3), y=np.ones(3), z=np.ones(3))

    def test_boundary_fraction_ignores_nonfinite_cells(self):
        values = np.array([[1.0, np.inf], [2.0, 3.0]])
        table = GridTable([("x", (0.0, 1.0)), ("y", (0.0, 1.0))], values)
        got = table.lookup_many(x=np.array([0.5]), y=np.array([0.0]))
        assert got[0] == pytest.approx(1.5)

    def test_stacked_lookup_matches_per_table_scalar(self):
        tables = default_tables()
        pairs = ((GateType.NAND, 2), (GateType.NOR, 3), (GateType.NOT, 1))
        stack = tables.stacked_values("delay", pairs)
        rng = np.random.default_rng(7)
        n = 40
        ids = rng.integers(0, len(pairs), n)
        size = rng.uniform(0.5, 4.0, n)
        length = rng.uniform(70.0, 300.0, n)
        vdd = rng.uniform(0.6, 1.2, n)
        vth = rng.uniform(0.1, 0.35, n)
        load = rng.uniform(0.1, 80.0, n)
        ramp = rng.uniform(5.0, 60.0, n)
        brackets = [
            bracket_queries(tables.sizes, size, "size"),
            bracket_queries(tables.lengths_nm, length, "length"),
            bracket_queries(tables.vdds, vdd, "vdd"),
            bracket_queries(tables.vths, vth, "vth"),
            bracket_queries(tables.loads_ff, load, "load"),
            bracket_queries(tables.ramps_ps, ramp, "ramp"),
        ]
        got = stacked_lookup(stack, ids, brackets)
        for q in range(n):
            gtype, fanin = pairs[ids[q]]
            want = tables.delay_ps(
                gtype,
                fanin,
                CellParams(
                    size=size[q], length_nm=length[q], vdd=vdd[q], vth=vth[q]
                ),
                load[q],
                ramp[q],
            )
            assert got[q] == pytest.approx(want, rel=1e-12)

    def test_stacked_values_cached(self):
        tables = default_tables()
        pairs = ((GateType.NAND, 2),)
        assert tables.stacked_values("ramp", pairs) is tables.stacked_values(
            "ramp", pairs
        )


class TestPropagateWidthGrid:
    def test_matches_per_delay_array_form(self):
        samples = np.stack(
            [np.geomspace(0.5, 400.0, 10), np.geomspace(2.0, 90.0, 10)]
        )
        delays = np.array(
            [[0.0, 3.0, 17.5, 90.0, 240.0], [1.0, 0.0, 45.0, 12.5, 300.0]]
        )
        grid = propagate_width_grid_batch(samples, delays)
        assert grid.shape == (2, delays.shape[1], samples.shape[1])
        for lane in range(2):
            for row, delay in enumerate(delays[lane]):
                np.testing.assert_array_equal(
                    grid[lane, row],
                    propagate_width_array(samples[lane], float(delay)),
                )

    def test_rejects_negative_inputs(self):
        with pytest.raises(TechnologyError):
            propagate_width_grid_batch(np.array([[-1.0]]), np.array([[1.0]]))
        with pytest.raises(TechnologyError):
            propagate_width_grid_batch(np.array([[1.0]]), np.array([[-1.0]]))


class TestVectorizedReductions:
    def test_eq3_eq4_reductions_match_report_view(self, c432):
        """gate_contributions / total_unreliability on the dense matrix
        agree with the dict-backed UnreliabilityReport totals."""
        from repro.core.aserta import AsertaAnalyzer, AsertaConfig
        from repro.core.unreliability import (
            gate_contributions,
            total_unreliability,
        )

        analyzer = AsertaAnalyzer(c432, AsertaConfig(n_vectors=300, seed=2))
        report = analyzer.analyze()
        assert report.masking.arrays is not None
        idx = analyzer.indexed
        from repro.tech.library import ParameterAssignment

        sizes = analyzer._sizes_array(ParameterAssignment())
        contributions = gate_contributions(
            sizes, report.masking.arrays.expected
        )
        for row in idx.gate_rows:
            entry = report.unreliability.per_gate[idx.order[row]]
            assert contributions[row] == pytest.approx(
                entry.contribution, rel=1e-9, abs=1e-12
            )
        assert total_unreliability(contributions) == pytest.approx(
            report.total, rel=1e-9
        )


class TestSensitizationMatrix:
    def test_densifies_existing_estimate(self, c17):
        paths = sensitization_probabilities(c17, 400, seed=5)
        dense = sensitization_matrix(c17, sensitized_paths=paths)
        idx = c17.indexed()
        assert dense.shape == (idx.n_signals, idx.n_outputs)
        for name, row_map in paths.items():
            for output, p in row_map.items():
                assert dense[idx.index[name], idx.output_col[output]] == p
        # Everything not in the sparse estimate is zero.
        assert dense.sum() == pytest.approx(
            sum(p for row in paths.values() for p in row.values())
        )

    def test_simulates_when_no_estimate_given(self, c17):
        dense = sensitization_matrix(c17, n_vectors=400, seed=5)
        paths = sensitization_probabilities(c17, 400, seed=5)
        np.testing.assert_array_equal(
            dense, sensitization_matrix(c17, sensitized_paths=paths)
        )
