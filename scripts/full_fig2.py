"""Full-scale Fig. 2 run: paper ground segment, 5,000 pairs, 48 snapshots."""
import json
import time

import numpy as np

from repro.core.metrics import rtt_stats
from repro.core.pipeline import compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale
from repro.network.graph import ConnectivityMode
from repro.persistence import save_rtt_series

scale = ScenarioScale(
    name="full-48",
    num_cities=1000,
    num_pairs=5000,
    relay_spacing_deg=0.5,
    num_snapshots=48,
    snapshot_interval_s=1800.0,
)
scenario = Scenario.paper_default("starlink", scale)
started = time.time()
by_mode = compute_rtt_series_multi(
    scenario,
    (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID),
    progress=lambda i, n: print(f"bp+hybrid {i}/{n}", flush=True),
)
series = {}
for mode, result in by_mode.items():
    save_rtt_series(result, f"results/full48_{mode.value}")
    series[mode.value] = result
print(f"bp+hybrid done in {time.time() - started:.0f}s", flush=True)

bp = rtt_stats(series["bp"])
hy = rtt_stats(series["hybrid"])
gaps = bp.min_rtt_ms - hy.min_rtt_ms
gaps = gaps[np.isfinite(gaps)]
bp_var = bp.variation_ms[np.isfinite(bp.variation_ms)]
hy_var = hy.variation_ms[np.isfinite(hy.variation_ms)]
summary = {
    "max_min_rtt_gap_ms": float(np.max(gaps)),
    "median_variation_increase_pct": 100.0
    * (np.percentile(bp_var, 50) - np.percentile(hy_var, 50))
    / np.percentile(hy_var, 50),
    "p95_variation_increase_pct": 100.0
    * (np.percentile(bp_var, 95) - np.percentile(hy_var, 95))
    / np.percentile(hy_var, 95),
    "bp_variation_max_ms": float(np.max(bp_var)),
    "hybrid_variation_max_ms": float(np.max(hy_var)),
    "bp_variation_p95_ms": float(np.percentile(bp_var, 95)),
    "hybrid_variation_p95_ms": float(np.percentile(hy_var, 95)),
    "bp_reachable": series["bp"].reachable_fraction(),
    "hybrid_reachable": series["hybrid"].reachable_fraction(),
}
print(json.dumps(summary, indent=1), flush=True)
with open("results/full48_summary.json", "w") as f:
    json.dump(summary, f, indent=1)
print("FULL-SCALE FIG2 COMPLETE", flush=True)
