"""Consistency checks on archived full-scale results (when present).

An experiment's full-scale result is ``results/<id>-full/<id>.json``,
written by ``repro run <id> --scale full --out results/<id>-full`` (the
paper's protocol: 1,000 cities, 0.5-degree relays, 5,000 pairs, 96
snapshots 15 minutes apart). Fig. 2's is committed; the others skip
until they are generated. The Fig. 4/5 summary comes from
``scripts/full_fig45.py``. These tests validate whatever is there —
the paper-scale bounds, physical bounds, internal consistency with
recomputed statistics — and skip cleanly where the expensive runs have
not been made yet.
"""

import json
from pathlib import Path

import numpy as np
import pytest

RESULTS = Path(__file__).parent.parent / "results"


def full_result_path(experiment_id: str) -> Path:
    return RESULTS / f"{experiment_id}-full" / f"{experiment_id}.json"


def needs_full(experiment_id: str):
    """Skip unless ``experiment_id``'s full-scale result is there."""
    return pytest.mark.skipif(
        not full_result_path(experiment_id).exists(),
        reason=(
            f"full-scale {experiment_id} result not generated (run `repro run "
            f"{experiment_id} --scale full --out results/{experiment_id}-full`)"
        ),
    )


def load_full(experiment_id: str):
    from repro.persistence import load_experiment_result

    return load_experiment_result(full_result_path(experiment_id))


needs_fig45 = pytest.mark.skipif(
    not (RESULTS / "full_fig45_summary.json").exists(),
    reason="full-scale Fig. 4/5 artifacts not generated (run scripts/full_fig45.py)",
)

MEDIAN_INCREASE = "median variation increase (%) [paper: +80]"
P95_INCREASE = "p95 variation increase (%) [paper: +422]"
BP_MAX = "BP variation max (ms) [paper: ~100]"
HYBRID_MAX = "hybrid variation max (ms) [paper: <20]"
BP_P95 = "BP variation p95 (ms)"
HYBRID_P95 = "hybrid variation p95 (ms)"


@needs_full("fig2")
class TestFullScaleFig2Artifacts:
    @pytest.fixture(scope="class")
    def result(self):
        return load_full("fig2")

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
        # The tail needs the full pair population to be stable (paper:
        # +422 %).
        assert headline[P95_INCREASE] > 50

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


@needs_full("fig3")
def test_full_scale_fig3_bp_inflation():
    data = load_full("fig3").data
    bp = np.asarray(data["bp_rtt_ms"], dtype=float)
    assert np.nanmax(bp) - np.nanmin(bp) > 20.0  # Paper: up to ~100 ms.


@needs_full("fig4")
def test_full_scale_fig4_ratios():
    data = load_full("fig4").data
    # The paper's >2.5x (k=1) and >=3.1x (k=4), with slack. The per-link
    # capacity model measured 1.93x / 1.66x at full scale (EXPERIMENTS.md
    # E4), so these hold only once the Fig. 4/5 capacity model moves
    # toward the paper's regime.
    # JSON keys of the (mode, k) matrix are pipe-joined: "hybrid|1".
    for constellation in ("starlink", "kuiper"):
        matrix = data[constellation]
        assert matrix["hybrid|1"] / matrix["bp|1"] > 2.0, constellation
        assert matrix["hybrid|4"] / matrix["bp|4"] > 2.5, constellation


@needs_full("fig5")
def test_full_scale_fig5_hybrid_wins_at_half_isl_capacity():
    data = load_full("fig5").data
    # Paper: 2.2x. The per-link model measured 0.71x (EXPERIMENTS.md E5).
    assert data["sweep_gbps"]["0.5"] > 1.5 * data["bp_gbps"]


@needs_full("fig6")
def test_full_scale_fig6_median_gap():
    data = load_full("fig6").data
    bp = np.asarray(data["bp_db"], dtype=float)
    isl = np.asarray(data["isl_db"], dtype=float)
    both = np.isfinite(bp) & np.isfinite(isl)
    assert np.median(bp[both]) - np.median(isl[both]) > 0.8  # Paper: >1 dB.


@needs_full("disconnected")
def test_full_scale_disconnected_range():
    bp = np.asarray(load_full("disconnected").data["bp_fractions"], dtype=float)
    # Paper: min 25.1 %, max 31.5 % over the day.
    assert 0.15 < bp.min() < 0.40
    assert 0.20 < bp.max() < 0.45


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
