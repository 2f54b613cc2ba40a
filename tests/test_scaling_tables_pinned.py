"""Pinned output of every cost-model scaling table.

Tables II and V and the campaign scaling report push a baseline through
:class:`~repro.distributed.cluster.ClusterCostModel`.  This file pins what
each one prints for fixed inputs, so a change to how the tables are
computed shows up here as a text difference.  The inputs are built directly
(no timed runs): the paper's Table II/V baselines and fixed campaign stage
times.  Small inputs, below the model's ``min_time_s``, pin the clamping
edge.
"""

from __future__ import annotations

import numpy as np

from repro.campaign.metrics import CampaignMetrics, campaign_scaling_table
from repro.campaign.runner import CampaignResult
from repro.evaluation import format_table, regenerate_table2, regenerate_table5


def campaign_summary(curation_s: float, training_s: float, inference_s: float) -> str:
    metrics = CampaignMetrics(
        n_granules=4,
        n_segments=12800,
        confusion=np.array([[40, 3, 1], [2, 30, 5], [1, 4, 14]]),
        accuracy=0.84,
        macro_f1=0.79,
        n_ice_segments=9000,
        mean_freeboard_m=0.24,
        freeboard_std_m=0.15,
    )
    result = CampaignResult(
        fingerprint="pinned",
        granules=[],
        classifier=None,
        classifier_fingerprint="",
        metrics=metrics,
        timing={},
        scaling=campaign_scaling_table(curation_s, training_s, inference_s),
    )
    return result.summary()


TABLE2 = """\
Executors | Cores | Load Time (s) | Map Time (s) | Reduce Time (s) | Speedup Load | Speedup Reduce
----------+-------+---------------+--------------+-----------------+--------------+---------------
        1 |     1 |        108.00 |         0.30 |          390.00 |         1.00 |           1.00
        1 |     2 |         56.80 |         0.30 |          195.00 |         1.90 |           2.00
        1 |     4 |         31.20 |         0.30 |           97.50 |         3.46 |           4.00
        2 |     1 |         56.80 |         0.30 |          191.20 |         1.90 |           2.04
        2 |     2 |         31.20 |         0.30 |           95.60 |         3.46 |           4.08
        2 |     4 |         18.40 |         0.30 |           47.80 |         5.87 |           8.16
        4 |     1 |         31.20 |         0.30 |           92.00 |         3.46 |           4.24
        4 |     2 |         18.40 |         0.30 |           46.00 |         5.87 |           8.48
        4 |     4 |         12.00 |         0.30 |           23.00 |         8.99 |          16.96"""

TABLE5 = """\
Executors | Cores | Load Time (s) | Map Time (s) | Reduce Time (s) | Speedup Load | Speedup Reduce
----------+-------+---------------+--------------+-----------------+--------------+---------------
        1 |     1 |        111.00 |         0.30 |          392.00 |         1.00 |           1.00
        1 |     2 |         58.40 |         0.30 |          196.00 |         1.90 |           2.00
        1 |     4 |         32.10 |         0.30 |           98.00 |         3.46 |           4.00
        2 |     1 |         58.40 |         0.30 |          192.20 |         1.90 |           2.04
        2 |     2 |         32.10 |         0.30 |           96.10 |         3.46 |           4.08
        2 |     4 |         18.90 |         0.30 |           48.00 |         5.87 |           8.16
        4 |     1 |         32.10 |         0.30 |           92.50 |         3.46 |           4.24
        4 |     2 |         18.90 |         0.30 |           46.20 |         5.87 |           8.48
        4 |     4 |         12.30 |         0.30 |           23.10 |         8.99 |          16.96"""

CAMPAIGN_HEAD = """\
Campaign pinned: 0 granules
(no rows)

Campaign aggregate
Granules | Segments | Accuracy | Macro F1 | Acc thick_ice | Acc thin_ice | Acc open_water | Freeboard (m) | Freeboard std (m)
---------+----------+----------+----------+---------------+--------------+----------------+---------------+------------------
       4 |    12800 |     0.84 |     0.79 |          0.91 |         0.81 |           0.74 |          0.24 |              0.15

Simulated cluster scaling (calibrated cost model)
Executors | Cores | Curation (s) | Training (s) | Inference (s) | Total (s) | Speedup
----------+-------+--------------+--------------+---------------+-----------+--------
"""

CAMPAIGN_ROWS = """\
        1 |     1 |         2.72 |         0.11 |          0.02 |      3.45 |    1.00
        1 |     2 |         1.36 |         0.11 |          0.01 |      2.08 |    1.66
        1 |     4 |         0.68 |         0.11 |          0.01 |      1.40 |    2.47
        2 |     1 |         1.33 |         0.11 |          0.01 |      2.05 |    1.68
        2 |     2 |         0.67 |         0.11 |          0.00 |      1.38 |    2.50
        2 |     4 |         0.33 |         0.11 |          0.00 |      1.05 |    3.30
        4 |     1 |         0.64 |         0.11 |          0.00 |      1.36 |    2.54
        4 |     2 |         0.32 |         0.11 |          0.00 |      1.03 |    3.34
        4 |     4 |         0.16 |         0.11 |          0.00 |      0.87 |    3.96"""

CAMPAIGN_TINY_ROWS = """\
        1 |     1 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00
        1 |     2 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00
        1 |     4 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00
        2 |     1 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00
        2 |     2 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00
        2 |     4 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00
        4 |     1 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00
        4 |     2 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00
        4 |     4 |         0.00 |         0.00 |          0.00 |      0.60 |    1.00"""


def test_table2_text_is_pinned():
    assert format_table(regenerate_table2()) == TABLE2


def test_table5_text_is_pinned():
    assert format_table(regenerate_table5()) == TABLE5


def test_campaign_table_text_is_pinned():
    assert campaign_summary(2.72, 0.11, 0.02) == CAMPAIGN_HEAD + CAMPAIGN_ROWS


def test_campaign_table_below_min_time_is_pinned():
    assert campaign_summary(0.0005, 0.0, 0.0) == CAMPAIGN_HEAD + CAMPAIGN_TINY_ROWS
