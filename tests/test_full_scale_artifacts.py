"""Consistency checks on archived full-scale results (when present).

Fig. 2's full-scale result is ``results/fig2-full/fig2.json``, written by
``repro run fig2 --scale full --out results/fig2-full`` (the paper's
protocol: 5,000 pairs, 96 snapshots 15 minutes apart). The Fig. 4/5
summary comes from ``scripts/full_fig45.py``. These tests validate
whatever is there — physical bounds, internal consistency with
recomputed statistics — and skip cleanly on a fresh checkout where the
expensive runs have not been made yet.
"""

import json
from pathlib import Path

import numpy as np
import pytest

RESULTS = Path(__file__).parent.parent / "results"
FIG2_FULL = RESULTS / "fig2-full" / "fig2.json"

needs_fig2 = pytest.mark.skipif(
    not FIG2_FULL.exists(),
    reason=(
        "full-scale Fig. 2 result not generated (run `repro run fig2 "
        "--scale full --out results/fig2-full`)"
    ),
)
needs_fig45 = pytest.mark.skipif(
    not (RESULTS / "full_fig45_summary.json").exists(),
    reason="full-scale Fig. 4/5 artifacts not generated (run scripts/full_fig45.py)",
)

MEDIAN_INCREASE = "median variation increase (%) [paper: +80]"
BP_MAX = "BP variation max (ms) [paper: ~100]"
HYBRID_MAX = "hybrid variation max (ms) [paper: <20]"
BP_P95 = "BP variation p95 (ms)"
HYBRID_P95 = "hybrid variation p95 (ms)"


@needs_fig2
class TestFullScaleFig2Artifacts:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.persistence import load_experiment_result

        return load_experiment_result(FIG2_FULL)

    @pytest.fixture(scope="class")
    def data(self, result):
        # JSON stores NaN (a never-reachable pair) as null.
        return {
            key: np.array(values, dtype=float) for key, values in result.data.items()
        }

    def test_paper_protocol(self, result, data):
        assert result.scale_name == "full"
        assert set(data) == {
            "bp_min_rtt_ms",
            "hybrid_min_rtt_ms",
            "bp_variation_ms",
            "hybrid_variation_ms",
        }
        for values in data.values():
            assert values.shape == (5000,)

    def test_headlines_in_paper_regime(self, result):
        headline = result.headline
        # Paper: +80 % median variation increase; we accept the regime.
        assert 30.0 < headline[MEDIAN_INCREASE] < 200.0
        # Paper: hybrid variation stays under 20 ms.
        assert headline[HYBRID_MAX] < 25.0
        # BP varies multiples more at the extreme.
        assert headline[BP_MAX] > 2 * headline[HYBRID_MAX]

    def test_data_consistent_with_headline(self, result, data):
        headline = result.headline
        for mode, max_key, p95_key, reachable_key in (
            ("bp", BP_MAX, BP_P95, "BP reachable fraction"),
            ("hybrid", HYBRID_MAX, HYBRID_P95, "hybrid reachable fraction"),
        ):
            variation = data[f"{mode}_variation_ms"]
            variation = variation[np.isfinite(variation)]
            # Headline values are rounded to 0.01 ms.
            assert float(np.max(variation)) == pytest.approx(
                headline[max_key], abs=0.005
            )
            assert float(np.percentile(variation, 95)) == pytest.approx(
                headline[p95_key], abs=0.005
            )
            # A pair with a finite minimum reached its peer at least once,
            # so the per-cell reachable fraction cannot exceed the share
            # of such pairs (headline rounded to 1e-4).
            reachable_pairs = np.isfinite(data[f"{mode}_min_rtt_ms"]).mean()
            assert headline[reachable_key] <= reachable_pairs + 5e-5

    def test_rtts_physical(self, data):
        for key in ("bp_min_rtt_ms", "hybrid_min_rtt_ms"):
            finite = data[key][np.isfinite(data[key])]
            assert finite.min() > 10.0  # >2,000 km pairs: >13 ms physically.
            assert finite.max() < 1000.0

    def test_hybrid_never_worse_per_pair(self, data):
        bp = data["bp_min_rtt_ms"]
        hy = data["hybrid_min_rtt_ms"]
        both = np.isfinite(bp) & np.isfinite(hy)
        assert both.any()
        assert np.all(bp[both] >= hy[both] - 1e-6)


@needs_fig45
class TestFullScaleFig45Artifacts:
    @pytest.fixture(scope="class")
    def summary(self):
        return json.loads((RESULTS / "full_fig45_summary.json").read_text())

    def test_hybrid_wins_at_both_k(self, summary):
        assert summary["hybrid_over_bp_k1"] > 1.5
        assert summary["hybrid_over_bp_k4"] > 1.3

    def test_fig5_sweep_monotone(self, summary):
        values = [summary[f"fig5_hybrid_{r}x_gbps"] for r in (0.5, 1.0, 2.0, 3.0, 5.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_multipath_gains_positive(self, summary):
        assert summary["hybrid_multipath_gain"] > 1.0
        assert summary["bp_multipath_gain"] > 1.0
