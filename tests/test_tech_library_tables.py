"""Tests for the cell library, assignments, and technology tables."""

import pytest

from repro.circuit.gate import GateType
from repro.errors import LibraryError, TableError, TechnologyError
from repro.tech import constants as k
from repro.tech import gate_electrical as ge
from repro.tech.library import (
    CellLibrary,
    CellParams,
    NOMINAL_CELL,
    PAPER_LENGTHS_NM,
    ParameterAssignment,
)
from repro.tech.table_builder import TechnologyTables


class TestCellParams:
    def test_nominal_matches_paper_baseline(self):
        assert NOMINAL_CELL.size == 1.0
        assert NOMINAL_CELL.length_nm == 70.0
        assert NOMINAL_CELL.vdd == 1.0
        assert NOMINAL_CELL.vth == 0.2

    def test_invalid_params_rejected(self):
        with pytest.raises(Exception):
            CellParams(vdd=0.2, vth=0.3)
        with pytest.raises(Exception):
            CellParams(size=-1.0)

    def test_params_hashable_and_ordered(self):
        a = CellParams(size=1.0)
        b = CellParams(size=2.0)
        assert a < b
        assert len({a, b, CellParams(size=1.0)}) == 2


class TestCellLibrary:
    def test_paper_library_contents(self):
        library = CellLibrary.paper_library()
        assert library.lengths_nm == PAPER_LENGTHS_NM
        assert 0.8 in library.vdds and 1.2 in library.vdds
        cells = library.cells()
        assert NOMINAL_CELL in cells
        assert all(cell.vdd > cell.vth for cell in cells)

    def test_illegal_combinations_filtered(self):
        library = CellLibrary(
            sizes=(1.0,), lengths_nm=(70.0,), vdds=(0.3, 1.0), vths=(0.2, 0.4)
        )
        for cell in library:
            assert cell.vdd > cell.vth

    def test_vdd_floor_filter(self):
        library = CellLibrary.paper_library()
        for cell in library.cells_with_vdd_at_least(1.2):
            assert cell.vdd >= 1.2
        with pytest.raises(LibraryError):
            library.cells_with_vdd_at_least(99.0)

    def test_sizing_only_library(self):
        library = CellLibrary.sizing_only()
        assert library.vdds == (1.0,)
        assert library.vths == (0.2,)
        assert library.lengths_nm == (70.0,)

    def test_empty_axis_rejected(self):
        with pytest.raises(LibraryError):
            CellLibrary(sizes=())

    def test_len_counts_cells(self):
        library = CellLibrary(
            sizes=(1.0, 2.0), lengths_nm=(70.0,), vdds=(1.0,), vths=(0.2,)
        )
        assert len(library) == 2


class TestParameterAssignment:
    def test_default_and_overrides(self):
        assignment = ParameterAssignment()
        assert assignment["anything"] == NOMINAL_CELL
        cell = CellParams(size=2.0)
        assignment.set("g1", cell)
        assert assignment["g1"] == cell
        assert assignment["other"] == NOMINAL_CELL

    def test_copy_is_independent(self):
        assignment = ParameterAssignment()
        duplicate = assignment.copy()
        duplicate.set("g", CellParams(size=3.0))
        assert assignment["g"] == NOMINAL_CELL

    def test_distinct_voltage_summaries(self):
        assignment = ParameterAssignment()
        assignment.set("a", CellParams(vdd=1.2, vth=0.1))
        assignment.set("b", CellParams(vdd=0.8, vth=0.3))
        assert assignment.distinct_vdds() == (0.8, 1.0, 1.2)
        assert assignment.distinct_vths() == (0.1, 0.2, 0.3)


class TestTechnologyTables:
    def test_lookup_matches_model_at_grid_points(self, tables):
        params = CellParams(size=2.0, length_nm=100.0, vdd=0.8, vth=0.3)
        got = tables.delay_ps(GateType.NAND, 2, params, 2.0, 20.0)
        expected = ge.propagation_delay_ps(
            GateType.NAND, 2, 2.0, 100.0, 0.8, 0.3, 2.0, 20.0
        )
        assert got == pytest.approx(expected, rel=1e-9)

    def test_interpolation_error_small_off_grid(self, tables):
        params = CellParams(size=1.4, length_nm=120.0, vdd=0.9, vth=0.25)
        got = tables.delay_ps(GateType.NOR, 3, params, 1.5, 30.0)
        expected = ge.propagation_delay_ps(
            GateType.NOR, 3, 1.4, 120.0, 0.9, 0.25, 1.5, 30.0
        )
        assert got == pytest.approx(expected, rel=0.15)

    def test_glitch_table_matches_model(self, tables):
        params = CellParams()
        got = tables.generated_width_ps(GateType.NOT, 1, params, 0.8, 16.0)
        from repro.tech.glitch import generated_width_ps

        node_cap = ge.self_capacitance_ff(GateType.NOT, 1, 1.0) + 0.8
        current = ge.drive_current_ua(GateType.NOT, 1, 1.0, 70.0, 1.0, 0.2)
        assert got == pytest.approx(
            generated_width_ps(16.0, node_cap, current, 1.0), rel=1e-9
        )

    def test_input_cap_table(self, tables):
        params = CellParams(size=3.0, length_nm=150.0)
        got = tables.input_cap_ff(GateType.XOR, 2, params)
        assert got == pytest.approx(
            ge.input_capacitance_ff(GateType.XOR, 2, 3.0, 150.0), rel=1e-9
        )

    def test_static_power_table(self, tables):
        params = CellParams(vth=0.1)
        got = tables.static_power_uw(GateType.NAND, 2, params)
        assert got == pytest.approx(
            ge.static_power_uw(GateType.NAND, 2, 1.0, 70.0, 1.0, 0.1), rel=1e-9
        )

    def test_dynamic_energy_table(self, tables):
        params = CellParams(size=2.0)
        got = tables.dynamic_energy_fj(GateType.AND, 2, params, 2.0)
        assert got == pytest.approx(
            ge.dynamic_energy_fj(GateType.AND, 2, 2.0, 2.0, 1.0), rel=1e-9
        )

    def test_tables_cached(self, tables):
        before = tables.cached_table_count()
        tables.delay_ps(GateType.NAND, 2, CellParams(), 1.0, 20.0)
        tables.delay_ps(GateType.NAND, 2, CellParams(size=2.0), 1.0, 20.0)
        assert tables.cached_table_count() == max(before, 1) if before else 1

    def test_bad_grid_rejected(self):
        with pytest.raises(TableError):
            TechnologyTables(sizes=(2.0, 1.0))

    @pytest.mark.parametrize(
        "axis, grid",
        [
            ("sizes", (0.0, 1.0)),
            ("lengths_nm", (-70.0, 70.0)),
            ("vths", (-0.1, 0.2)),
            ("loads_ff", (-1.0, 1.0)),
            ("ramps_ps", (-5.0, 20.0)),
            ("charges_fc", (-2.0, 16.0)),
        ],
    )
    def test_nonphysical_grid_rejected(self, axis, grid):
        """The gate model is undefined there, and the array build would
        fill those cells with inf/nan instead of raising."""
        with pytest.raises(TechnologyError, match=axis):
            TechnologyTables(**{axis: grid})
