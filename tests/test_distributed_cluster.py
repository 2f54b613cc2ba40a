"""Tests for the simulated cluster cost model (Tables II / V shape)."""

import pytest

from repro.distributed.cluster import ClusterCostModel, ClusterSimulation
from repro.evaluation.tables import regenerate_table2


class TestClusterCostModel:
    def test_load_time_decreases_with_slots(self):
        model = ClusterCostModel()
        t1 = model.load_time(100.0, 1, 1)
        t4 = model.load_time(100.0, 2, 2)
        t16 = model.load_time(100.0, 4, 4)
        assert t1 > t4 > t16

    def test_load_speedup_bounded_by_amdahl(self):
        model = ClusterCostModel(load_serial_fraction=0.05)
        speedup = model.load_time(100.0, 1, 1) / model.load_time(100.0, 4, 4)
        assert speedup <= 1.0 / 0.05 + 1e-9

    def test_reduce_time_near_linear(self):
        model = ClusterCostModel(reduce_serial_fraction=0.0, executor_bandwidth_benefit=0.0)
        assert model.reduce_time(160.0, 4, 4) == pytest.approx(10.0)

    def test_map_time_constant(self):
        model = ClusterCostModel(map_overhead_s=0.3)
        assert model.map_time(1, 1) == model.map_time(4, 4) == pytest.approx(0.3)

    def test_executor_bandwidth_benefit_favours_more_executors(self):
        model = ClusterCostModel(executor_bandwidth_benefit=0.05)
        # Same slot count, more executors -> faster reduce.
        assert model.reduce_time(100.0, 4, 1) < model.reduce_time(100.0, 1, 4)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ClusterCostModel(load_serial_fraction=1.5)
        with pytest.raises(ValueError):
            ClusterCostModel(executor_bandwidth_benefit=-0.1)
        with pytest.raises(ValueError):
            ClusterCostModel().load_time(100.0, 0, 1)


class TestScalingTable:
    @pytest.fixture()
    def rows(self):
        sim = ClusterSimulation()
        return sim.scaling_table(108.0, 390.0)

    def test_grid_size(self, rows):
        assert len(rows) == 9  # 3 executor counts x 3 core counts

    def test_baseline_row_has_unit_speedup(self, rows):
        first = rows[0]
        assert first.executors == 1 and first.cores == 1
        assert first.speedups["load"] == pytest.approx(1.0)
        assert first.speedups["reduce"] == pytest.approx(1.0)

    def test_paper_shape_reproduced(self, rows):
        """The 4x4 configuration reaches ~9x load and ~16x reduce speedup."""
        best = rows[-1]
        assert best.executors == 4 and best.cores == 4
        assert 8.0 <= best.speedups["load"] <= 10.5
        assert 14.0 <= best.speedups["reduce"] <= 18.5

    def test_speedups_monotone_in_total_slots(self, rows):
        by_slots = sorted(rows, key=lambda r: r.executors * r.cores)
        speedups = [r.speedups["reduce"] for r in by_slots]
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))

    def test_row_as_dict_columns(self, rows):
        d = regenerate_table2()[0]
        assert set(d) == {
            "Executors", "Cores", "Load Time (s)", "Map Time (s)",
            "Reduce Time (s)", "Speedup Load", "Speedup Reduce",
        }

    def test_invalid_baselines_rejected(self):
        sim = ClusterSimulation()
        with pytest.raises(ValueError):
            sim.scaling_table(0.0, 100.0)

