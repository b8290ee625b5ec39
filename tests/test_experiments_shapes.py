"""Experiment harnesses reproduce the paper's qualitative shapes.

These run the real harnesses on a scaled-down workload (fast), asserting
the *shape* claims the paper makes; the benchmarks run the full
calibrated workload and print paper-vs-measured tables.
"""

import pytest

from repro.experiments.report import format_table
from repro.scenario import ExperimentWorkload
from repro.workloads import SynthSpec

SMALL = ExperimentWorkload(
    db_spec=SynthSpec(
        num_sequences=120,
        mean_length=150,
        family_fraction=0.6,
        family_size=5,
        seed=31,
    ),
    query_bytes=3500,
)


@pytest.fixture(scope="module")
def table1_result():
    from repro.experiments.table1 import run_table1

    return run_table1(SMALL, nprocs=8)


class TestTable1Shapes:
    def test_pio_beats_mpi_overall(self, table1_result):
        assert table1_result.pio.total < table1_result.mpi.total

    def test_output_stage_improvement_dominant(self, table1_result):
        assert table1_result.mpi.output > 5 * table1_result.pio.output

    def test_copy_vs_input(self, table1_result):
        assert table1_result.mpi.copy_input > table1_result.pio.copy_input

    def test_search_shares(self, table1_result):
        assert table1_result.pio.search_share > table1_result.mpi.search_share

    def test_render(self, table1_result):
        from repro.experiments.table1 import render_table1

        text = render_table1(table1_result)
        assert "mpiBLAST" in text and "paper" in text


class TestFig1aShape:
    def test_search_share_falls_with_processes(self):
        from repro.experiments.fig1a import run_fig1a

        res = run_fig1a(SMALL, process_counts=(4, 8, 16))
        shares = [res.breakdowns[p].search_share for p in (4, 8, 16)]
        assert shares[0] > shares[1] > shares[2]


class TestFig1bShape:
    def test_total_rises_with_fragment_count(self):
        from repro.experiments.fig1b import run_fig1b

        res = run_fig1b(SMALL, nprocs=6, fragment_counts=(5, 15, 30))
        totals = [res.breakdowns[f].total for f in (5, 15, 30)]
        assert totals[0] < totals[1] < totals[2]

    def test_both_components_rise(self):
        from repro.experiments.fig1b import run_fig1b

        res = run_fig1b(SMALL, nprocs=6, fragment_counts=(5, 30))
        assert res.breakdowns[30].search > res.breakdowns[5].search
        assert res.breakdowns[30].non_search > res.breakdowns[5].non_search


class TestTable2Shape:
    def test_output_roughly_linear_in_query_size(self):
        from repro.experiments.table2 import run_table2

        res = run_table2(SMALL, query_bytes=(1200, 2400, 4800))
        outs = [r.output_bytes for r in res.rows]
        assert outs[0] < outs[1] < outs[2]
        ratio31 = outs[2] / outs[0]
        assert 2.0 < ratio31 < 8.5  # ~4x for 4x queries, loosely

    def test_rows_record_query_counts(self):
        from repro.experiments.table2 import run_table2

        res = run_table2(SMALL, query_bytes=(1200,))
        assert res.rows[0].num_queries > 0


class TestFig3aShape:
    @pytest.fixture(scope="class")
    def res(self):
        from repro.experiments.fig3a import run_fig3a

        return run_fig3a(SMALL, process_counts=(4, 8, 16))

    def test_pio_total_monotone_down(self, res):
        t = [res.pio[p].total for p in (4, 8, 16)]
        assert t[0] > t[1] > t[2]

    def test_pio_search_time_scales(self, res):
        s = [res.pio[p].search for p in (4, 8, 16)]
        assert s[0] > s[1] > s[2]

    def test_mpi_non_search_grows(self, res):
        ns = [res.mpi[p].non_search for p in (4, 8, 16)]
        assert ns[-1] > ns[0]

    def test_pio_beats_mpi_everywhere(self, res):
        for p in (4, 8, 16):
            assert res.pio[p].total < res.mpi[p].total


class TestFig4Shape:
    def test_nfs_hurts_mpi_more(self):
        from repro.experiments.fig4 import run_fig4

        res = run_fig4(SMALL, process_counts=(4, 8))
        # pio keeps a higher search share than mpi on NFS at any scale
        for p in (4, 8):
            assert res.pio[p].search_share > res.mpi[p].search_share


class TestFormatDbCost:
    def test_repartitioning_cost_reported(self):
        from repro.experiments.formatdb_cost import run_formatdb_cost

        res = run_formatdb_cost(SMALL, fragment_counts=(3, 6))
        assert res.format_seconds > 0
        assert res.files_mpiblast[6] == 18
        assert res.files_pioblast == 3
        assert res.projected_nt_seconds > res.projected_nr_seconds


class TestFormatTable:
    def test_alignment_of_columns(self):
        text = format_table("t", ["a", "bb"], [[1, 2.5], [30, 4.0]],
                            note="n")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "note: n" in lines[-1]

    def test_empty_rows(self):
        text = format_table("t", ["a"], [])
        assert "a" in text
