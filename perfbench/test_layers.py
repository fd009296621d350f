#!/usr/bin/env python3
"""Tests for perfbench/layers.py on hand-written trace and CSV fixtures.

Run from the repository root:  python3 perfbench/test_layers.py
"""

import json
import unittest
from pathlib import Path

import layers
from layers import Cell, Span

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
STEPS, REPS = 100, 10  # the fixture verify run's --steps / --reps


def verify_fixture():
    spans = layers.load_trace(FIXTURES / "trace.json")
    campaigns = [layers.verdict_cells(FIXTURES / f"verify_{name}.csv",
                                      STEPS, REPS)
                 for name in ("alpha", "beta")]
    return spans, campaigns


class AttributionTest(unittest.TestCase):
    def test_repeated_cell_indices_follow_their_enclosing_run(self):
        spans, campaigns = verify_fixture()
        owners = {(owner, index, cell.protocol, dur / 1e3)
                  for owner, index, cell, dur in
                  layers.attribute_chunks(spans, campaigns)}
        self.assertEqual(owners, {
            (0, 0, "cpos", 300.0), (0, 1, "pow", 100.0),
            (1, 0, "selfish", 200.0), (1, 1, "mlpos", 400.0)})

    def test_cell_steps_count_once_across_chunks(self):
        spans, campaigns = verify_fixture()
        split = layers.split_by(layers.attribute_chunks(spans, campaigns),
                                lambda cell: cell.protocol)
        # Two 300 us chunks ran cpos cell 0: time adds, steps do not.
        self.assertEqual(split["cpos"], (600e3, STEPS * REPS))

    def test_chunk_outside_every_run_is_an_error(self):
        spans = [Span("campaign.run", 0, 100, 0, 1),
                 Span("campaign.chunk", 500, 10, 0, 0)]
        with self.assertRaises(ValueError):
            layers.attribute_chunks(spans, [{0: Cell("pow", 2, 1, 1)}])

    def test_run_count_must_match_campaigns(self):
        spans, campaigns = verify_fixture()
        with self.assertRaises(ValueError):
            layers.attribute_chunks(spans, campaigns[:1])

    def test_campaign_csv_rows_collapse_to_cells(self):
        self.assertEqual(layers.campaign_cells(FIXTURES / "campaign.csv"), {
            0: Cell("cpos", 2, 100, 10), 1: Cell("pow", 10, 200, 10)})


class PerLayerTest(unittest.TestCase):
    def setUp(self):
        spans, campaigns = verify_fixture()
        counters = {"campaign.cost_total_ns": 650000, "store.hits": 3}
        histograms = {"campaign.grant_ns": {"total_ns": 5000},
                      "store.put_ns": {"p50_ns": 20000.0}}
        self.metrics = layers.per_layer(
            spans, counters, histograms, campaigns, workers=4,
            traced_wall_s=0.0025, untraced_wall_s=0.002,
            store_bytes_written=123, verdict_rows=5, is_verify=True)

    def assertMetric(self, name, value):
        self.assertAlmostEqual(self.metrics[name], value, places=9,
                               msg=name)

    def test_protocol_split(self):
        self.assertMetric("protocol.cpos.cpu_share", 600 / 1300)
        self.assertMetric("protocol.pow.cpu_share", 100 / 1300)
        self.assertMetric("protocol.neo.cpu_share", 0.0)
        self.assertMetric("protocol.cpos.ns_per_step", 600.0)
        self.assertMetric("protocol.cpos.ns_per_step.m2", 600.0)
        self.assertMetric("protocol.cpos.ns_per_step.m10", 0.0)
        self.assertMetric("protocol.mlpos.ns_per_step.m100000", 400.0)
        self.assertMetric("chain.cpu_share", 200 / 1300)
        self.assertMetric("chain.selfish.ns_per_event", 200.0)

    def test_layer_totals(self):
        self.assertMetric("core.replication_s", 500e-6)
        self.assertMetric("core.execute_s", 1400e-6)
        self.assertMetric("core.shard.grant_wait_s", 5e-6)
        self.assertMetric("core.shard.consume_s", 10e-6)
        self.assertMetric("sim.run_s", 2000e-6)
        self.assertMetric("sim.busy_frac", 1300e-6 / (4 * 2000e-6))
        self.assertMetric("sim.chunks", 5)
        self.assertMetric("sim.chunk_p50_ms", 0.3)
        self.assertMetric("sim.chunk_max_ms", 0.4)
        self.assertMetric("sim.cost_model.pred_over_obs", 0.5)
        self.assertMetric("sim.store_probe_s", 2e-6)
        self.assertMetric("store.put_s", 20e-6)
        self.assertMetric("store.put_p50_ms", 0.02)
        self.assertMetric("store.hits", 3)
        self.assertMetric("verify.self_s", 0.0005)
        self.assertMetric("obs.trace_overhead_frac", 0.25)

    def test_busy_skew_comes_from_check_trace(self):
        # Shard 0 is busy 800 us and shard 1 500 us of a 2440 us window.
        self.assertMetric("core.shard.busy_skew", round(300 / 2440, 3))

    def test_every_benchmark_per_layer_metric_is_computed(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]),
                         sorted(self.metrics))


if __name__ == "__main__":
    unittest.main()
