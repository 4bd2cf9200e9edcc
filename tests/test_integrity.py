"""Tests for the integrity subsystem: digests, validators, guards, audit."""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.context import current, run_context
from repro.core.checkpoint import RttCheckpoint
from repro.core.pipeline import RttSeries
from repro.faults import FaultSpec
from repro.flows.traffic import CityPair
from repro.integrity import (
    Column,
    InputValidationError,
    InvariantViolation,
    LATITUDE,
    TableSpec,
    check_allocation,
    check_cross_mode_rtt,
    check_graph,
    check_routing,
    check_rtt_series,
    digest_bytes,
    digest_file,
    quarantine_file,
    quarantine_reasons,
    rtt_lower_bound_ms,
    validate_latlon_arrays,
    verify_tree,
)
from repro.network.graph import ConnectivityMode


class TestDigest:
    def test_format(self):
        assert digest_bytes(b"abc").startswith("sha256:")

    def test_file_matches_bytes(self, tmp_path):
        payload = b"x" * (3 << 20) + b"tail"  # multiple streaming chunks
        path = tmp_path / "f.bin"
        path.write_bytes(payload)
        assert digest_file(path) == digest_bytes(payload)

    def test_sensitive_to_single_bit(self):
        assert digest_bytes(b"\x00") != digest_bytes(b"\x01")


class TestValidators:
    SPEC = TableSpec(
        name="t",
        columns=(
            Column("name", kind="str"),
            Column("lat", **LATITUDE),
            Column("count", kind="int", min_value=1),
        ),
        unique=("name",),
    )

    def test_valid_rows_pass(self):
        assert self.SPEC.validate([("a", 10.0, 3), ("b", -89.5, 1)]) == 2

    def test_out_of_range_names_row_and_column(self):
        with pytest.raises(InputValidationError) as excinfo:
            self.SPEC.validate([("a", 10.0, 3), ("b", 91.0, 1)])
        err = excinfo.value
        assert (err.source, err.row, err.column) == ("t", 1, "lat")

    def test_nan_rejected(self):
        with pytest.raises(InputValidationError, match="non-finite"):
            self.SPEC.validate([("a", float("nan"), 1)])

    def test_duplicate_key_names_first_row(self):
        with pytest.raises(InputValidationError, match="first seen at row 0"):
            self.SPEC.validate([("a", 1.0, 1), ("a", 2.0, 2)])

    def test_non_integer_count_rejected(self):
        with pytest.raises(InputValidationError, match="integer"):
            self.SPEC.validate([("a", 1.0, 1.5)])

    def test_mapping_rows_with_missing_column(self):
        with pytest.raises(InputValidationError, match="missing column"):
            self.SPEC.validate([{"name": "a", "lat": 1.0}])

    def test_latlon_arrays_flag_offending_row(self):
        with pytest.raises(InputValidationError, match="row 1.*lon_deg"):
            validate_latlon_arrays([0.0, 1.0], [0.0, 181.0], source="s")

    def test_embedded_tables_are_valid(self):
        # The shipped data passes its own gate (the real regression guard).
        from repro.ground.aircraft import _validate_air_tables
        from repro.ground.cities import load_cities

        _validate_air_tables()
        assert len(load_cities(50)) == 50


class TestStrictMode:
    def test_suite_runs_strict(self):
        assert current().strict  # conftest autouse fixture

    def test_context_restores(self):
        with run_context(strict=False):
            assert not current().strict
            with run_context(strict=True):
                assert current().strict
            assert not current().strict
        assert current().strict

    def test_context_restores_after_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with run_context(strict=False):
                raise RuntimeError("boom")
        assert current().strict


def _series(rtt, times=None):
    rtt = np.asarray(rtt, dtype=float)
    times = np.arange(rtt.shape[1], dtype=float) if times is None else times
    return RttSeries(mode=ConnectivityMode.BP_ONLY, times_s=times, rtt_ms=rtt)


class TestRttGuards:
    PAIRS = [CityPair(a=0, b=1, distance_m=1_000_000.0)]

    def test_clean_series_passes(self):
        check_rtt_series(_series([[10.0, np.inf]]), self.PAIRS)

    def test_nan_rejected(self):
        with pytest.raises(InvariantViolation, match="NaN"):
            check_rtt_series(_series([[np.nan, 1.0]]))

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation, match="negative"):
            check_rtt_series(_series([[-1.0, 1.0]]))

    def test_faster_than_light_rejected(self):
        bound = float(rtt_lower_bound_ms(np.array([1_000_000.0]))[0])
        with pytest.raises(InvariantViolation, match="speed-of-light"):
            check_rtt_series(_series([[bound * 0.5, bound * 2]]), self.PAIRS)

    def test_bound_is_below_great_circle_rtt(self):
        # The chord bound must not false-positive on a fiber-like path
        # that follows the surface at c.
        from repro.constants import SPEED_OF_LIGHT

        distance = 15_000_000.0  # nearly antipodal
        surface_rtt = 2e3 * distance / SPEED_OF_LIGHT
        assert float(rtt_lower_bound_ms(np.array([distance]))[0]) < surface_rtt

    def test_real_sweep_passes(self, tiny_scenario):
        from repro.core.pipeline import compute_rtt_series_multi

        series = compute_rtt_series_multi(
            tiny_scenario, [ConnectivityMode.HYBRID]
        )[ConnectivityMode.HYBRID]
        check_rtt_series(series, tiny_scenario.pairs)


class TestCrossModeRttGuard:
    """Hybrid <= BP per cell, and hybrid reaches what BP reaches."""

    BP = [[10.0, np.inf, 30.0], [40.0, 50.0, np.inf]]

    def test_hybrid_no_worse_passes(self):
        hybrid = [[9.0, 20.0, 30.0 * (1 + 1e-13)], [40.0, 50.0, np.inf]]
        check_cross_mode_rtt(_series(self.BP), _series(hybrid))

    def test_slower_hybrid_names_first_cell(self):
        hybrid = [[9.0, 20.0, 30.0], [40.0, 50.0 * (1 + 1e-9), np.inf]]
        with pytest.raises(InvariantViolation, match="pair 1, snapshot 1"):
            check_cross_mode_rtt(_series(self.BP), _series(hybrid))

    def test_unreachable_hybrid_rejected(self):
        hybrid = [[10.0, np.inf, np.inf], [40.0, 50.0, np.inf]]
        match = "hybrid RTT inf .* pair 0, snapshot 2"
        with pytest.raises(InvariantViolation, match=match):
            check_cross_mode_rtt(_series(self.BP), _series(hybrid))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvariantViolation, match="BP series"):
            check_cross_mode_rtt(_series(self.BP), _series([[1.0, 2.0, 3.0]]))

    def test_real_two_mode_sweep_passes(self, tiny_scenario):
        from repro.core.pipeline import compute_rtt_series_multi

        modes = [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID]
        series = compute_rtt_series_multi(tiny_scenario, modes)
        check_cross_mode_rtt(*(series[mode] for mode in modes))

    def test_strict_sweep_rejects_doctored_hybrid(self, tiny_scenario, monkeypatch):
        from repro.core import pipeline

        evaluate = pipeline._rtt_snapshot_row

        def doctored(scenario, time_s, mode):
            row = evaluate(scenario, time_s, mode)
            if mode is ConnectivityMode.HYBRID and float(time_s) > 0:
                row = row * 1.5
            return row

        monkeypatch.setattr(pipeline, "_rtt_snapshot_row", doctored)
        modes = [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID]
        with pytest.raises(InvariantViolation, match=r"hybrid vs bp.*snapshot 1"):
            pipeline.compute_rtt_series_multi(tiny_scenario, modes)
        with run_context(strict=False):
            pipeline.compute_rtt_series_multi(tiny_scenario, modes)


def _flat_sat_rows(graph):
    """A graph's GT-satellite rows as flat ``(sat, gt, dist_m)`` columns."""
    start, gts, dists = graph.sat_rows
    return np.repeat(np.arange(graph.num_sats), np.diff(start)), gts, dists


def _with_sat_rows(graph, sats, gts, dists):
    """``graph`` with new GT-satellite rows, given flat and by satellite."""
    start = np.searchsorted(sats, np.arange(graph.num_sats + 1))
    return dataclasses.replace(graph, sat_rows=(start, gts, dists))


def _sat_rows_at(graph, rows):
    """``graph`` keeping (or repeating) the GT-satellite rows ``rows``."""
    return _with_sat_rows(graph, *(part[rows] for part in _flat_sat_rows(graph)))


def _with_block_row(graph, edge, dist_m, kind):
    """``graph`` with one ``(u, v)`` row appended to its ISL/fiber block."""
    edges, dists, kinds = graph.isl_fiber_rows
    return dataclasses.replace(
        graph,
        isl_fiber_rows=(
            np.vstack([edges, np.asarray(edge, dtype=np.int64)]),
            np.append(dists, dist_m),
            np.append(kinds, np.int8(kind)),
        ),
    )


class TestGraphGuards:
    def test_real_graphs_pass(self, tiny_bp_graph, tiny_hybrid_graph):
        check_graph(tiny_bp_graph)
        check_graph(tiny_hybrid_graph)

    def test_edge_out_of_range_rejected(self, tiny_bp_graph):
        sats, gts, dists = _flat_sat_rows(tiny_bp_graph)
        gts = gts.copy()
        gts[0] = tiny_bp_graph.num_gts + 5
        bad = _with_sat_rows(tiny_bp_graph, sats, gts, dists)
        with pytest.raises(InvariantViolation, match="outside"):
            check_graph(bad)

    def test_self_loop_rejected(self, tiny_bp_graph):
        sat = int(tiny_bp_graph.edges[3, 0])
        bad = _with_block_row(tiny_bp_graph, [sat, sat], 1000.0, 1)
        last = bad.num_edges - 1
        with pytest.raises(InvariantViolation, match=f"edge {last} is a self-loop"):
            check_graph(bad)

    @pytest.mark.parametrize("flip", [False, True], ids=["same", "reversed"])
    def test_duplicate_undirected_edge_rejected(self, tiny_bp_graph, flip):
        # Row 2 repeated in the CSR, or reversed in the ISL/fiber block.
        if flip:
            edge, dist_m = tiny_bp_graph.edges[2], tiny_bp_graph.edge_dist_m[2]
            bad = _with_block_row(tiny_bp_graph, edge[::-1], dist_m, 1)
            copy = bad.num_edges - 1
        else:
            rows = np.insert(np.arange(tiny_bp_graph.num_edges), 3, 2)
            bad = _sat_rows_at(tiny_bp_graph, rows)
            copy = 3
        with pytest.raises(InvariantViolation, match=f"edges 2 and {copy} both"):
            check_graph(bad)

    def test_radio_rows_out_of_order_rejected(self, tiny_bp_graph):
        # Two rows of one satellite swap places: each is still a true
        # row, but the GTs no longer ascend within the satellite.
        sats, _, _ = _flat_sat_rows(tiny_bp_graph)
        row = int(np.argmax(sats[1:] == sats[:-1]))
        rows = np.arange(tiny_bp_graph.num_edges)
        rows[[row, row + 1]] = rows[[row + 1, row]]
        bad = _sat_rows_at(tiny_bp_graph, rows)
        with pytest.raises(
            InvariantViolation, match=f"edges {row} and {row + 1} .*out of ascending"
        ):
            check_graph(bad)

    def test_strict_rtt_sweep_builds_no_edge_table(self, tiny_scenario):
        from repro.core.pipeline import compute_rtt_series_multi
        from repro.obs import observe

        assert current().strict
        modes = [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID]
        with observe() as registry:
            compute_rtt_series_multi(tiny_scenario, modes)
        counters = registry.snapshot()["counters"]
        assert counters["engine.assemblies"] > 0
        assert counters.get("engine.edge_tables", 0) == 0


class TestGraphPhysicsGuards:
    """check_graph holds engine-built graphs to their physics."""

    FAULTS = FaultSpec(sat=0.05, relay=0.1, aircraft=0.1, seed=3)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"fiber_max_km": 1500.0},
            {"max_gts_per_satellite": 3},
            {"faults": FAULTS},
        ],
        ids=["plain", "fiber", "beam", "faults"],
    )
    def test_real_graphs_pass(self, tiny_scenario, overrides):
        scenario = tiny_scenario.with_assembly(**overrides)
        for mode in ConnectivityMode:
            graph = scenario.graph_at(0.0, mode)
            assert graph.frame is not None
            check_graph(graph)

    def test_faulted_length_off_its_endpoints_rejected(self, tiny_scenario):
        graph = tiny_scenario.with_assembly(faults=self.FAULTS).graph_at(
            0.0, ConnectivityMode.HYBRID
        )
        sats, gts, dists = _flat_sat_rows(graph)
        dists = dists.copy()
        dists[0] *= 1.0 - 1e-9
        with pytest.raises(InvariantViolation, match="edge 0 has length"):
            check_graph(_with_sat_rows(graph, sats, gts, dists))

    def test_swapped_kind_rejected(self, tiny_hybrid_graph):
        # The first GT-satellite row moves into the ISL block as an ISL.
        radio = len(tiny_hybrid_graph.sat_rows[1])
        graph = _sat_rows_at(tiny_hybrid_graph, np.arange(1, radio))
        bad = _with_block_row(
            graph, tiny_hybrid_graph.edges[0], tiny_hybrid_graph.edge_dist_m[0], 1
        )
        last = bad.num_edges - 1
        with pytest.raises(InvariantViolation, match=f"edge {last} of kind 1"):
            check_graph(bad)

    def test_isl_in_bp_rejected(self, tiny_bp_graph, tiny_hybrid_graph):
        isl = int(np.argmax(tiny_hybrid_graph.edge_kind == 1))
        bad = _with_block_row(
            tiny_bp_graph,
            tiny_hybrid_graph.edges[isl],
            tiny_hybrid_graph.edge_dist_m[isl],
            1,
        )
        last = bad.num_edges - 1
        with pytest.raises(InvariantViolation, match=f"BP graph holds ISL edge {last}"):
            check_graph(bad)

    @pytest.mark.parametrize("kind", [0, 1], ids=["radio", "isl"])
    def test_length_off_its_endpoints_rejected(self, tiny_hybrid_graph, kind):
        graph = tiny_hybrid_graph
        edge = int(np.argmax(graph.edge_kind == kind))
        if kind == 0:
            sats, gts, dists = _flat_sat_rows(graph)
            dists = dists.copy()
            dists[edge] *= 1.0 - 1e-9
            bad = _with_sat_rows(graph, sats, gts, dists)
        else:
            edges, dists, kinds = graph.isl_fiber_rows
            dists = dists.copy()
            dists[edge - len(graph.sat_rows[1])] *= 1.0 - 1e-9
            bad = dataclasses.replace(graph, isl_fiber_rows=(edges, dists, kinds))
        with pytest.raises(InvariantViolation, match=f"edge {edge} has length"):
            check_graph(bad)

    def test_isl_through_the_atmosphere_rejected(self, tiny_hybrid_graph):
        # A true-length ISL row to the satellite nearest 6,000 km away
        # dips below 80 km; one about 4,500 km away clears it.
        graph = tiny_hybrid_graph
        apart = np.linalg.norm(graph.sat_ecef - graph.sat_ecef[0], axis=1)
        near, far = (int(np.argmin(np.abs(apart - d))) for d in (4_500e3, 6_000e3))
        assert abs(apart[far] - 6_000e3) < 100e3
        check_graph(_with_block_row(graph, [0, near], apart[near], 1))
        bad = _with_block_row(graph, [0, far], apart[far], 1)
        last = bad.num_edges - 1
        with pytest.raises(InvariantViolation, match=f"ISL edge {last} passes -"):
            check_graph(bad)

    def test_fiber_shorter_than_its_chord_rejected(self, tiny_scenario):
        graph = tiny_scenario.with_assembly(fiber_max_km=1500.0).graph_at(
            0.0, ConnectivityMode.BP_ONLY
        )
        edges, dists, kinds = graph.isl_fiber_rows
        row = int(np.argmax(kinds == 2))
        u, v = edges[row] - graph.num_sats
        dists = dists.copy()
        dists[row] = 0.999 * np.linalg.norm(graph.gt_ecef[u] - graph.gt_ecef[v])
        bad = dataclasses.replace(graph, isl_fiber_rows=(edges, dists, kinds))
        with pytest.raises(InvariantViolation, match="not at least"):
            check_graph(bad)

    def test_slant_range_bound(self, tiny_bp_graph):
        from repro.constants import slant_range_m

        frame = tiny_bp_graph.frame
        bound = frame.radio_range_m
        assert np.all(bound == slant_range_m(550_000.0, 25.0))
        longest = tiny_bp_graph.sat_rows[2].max()
        assert longest <= bound[0]
        static = dataclasses.replace(
            frame._static, radio_range_m=np.full_like(bound, 0.999 * longest)
        )
        short = dataclasses.replace(frame, _static=static)
        with pytest.raises(InvariantViolation, match="beyond satellite"):
            check_graph(dataclasses.replace(tiny_bp_graph, frame=short))

    def test_hand_built_graph_skips_physics(self):
        from tests.test_contraction import hand_built_graph

        graph = hand_built_graph(isl_m=800.0)
        assert graph.frame is None
        check_graph(graph)


class TestRoutingGuards:
    """check_routing on real routings and on hand-modified copies."""

    @pytest.fixture()
    def case(self, tiny_scenario, tiny_hybrid_graph):
        from repro.flows.routing import route_traffic

        pairs = tiny_scenario.pairs
        with run_context(strict=False):
            routed = route_traffic(tiny_hybrid_graph, pairs, k=4)
        return tiny_hybrid_graph, pairs, routed

    @staticmethod
    def _check_modified(case, edit, match):
        """Apply ``edit`` to a copy of the sub-flow list, expect ``match``."""
        graph, pairs, routed = case
        flows = list(routed.subflows)
        edit(flows)
        bad = dataclasses.replace(routed, subflows=flows)
        with pytest.raises(InvariantViolation, match=match):
            check_routing(graph, pairs, bad)

    def test_real_routing_passes(self, case):
        check_routing(*case)

    def test_reused_edge_rejected(self, case):
        # Every later sub-flow of the first pair now follows its first path.
        self._check_modified(case, lambda f: f.insert(1, f[0]), "reuses edge")

    def test_wrong_length_rejected(self, case):
        def stretch(flows):
            path = flows[2].path
            longer = dataclasses.replace(path, length_m=path.length_m * 1.001)
            flows[2] = dataclasses.replace(flows[2], path=longer)

        self._check_modified(case, stretch, "its edges sum to")

    def test_edge_not_on_path_rejected(self, case):
        def swap(flows):
            ids = flows[0].edge_ids.copy()
            ids[-1] = ids[0]
            flows[0] = dataclasses.replace(flows[0], edge_ids=ids)

        self._check_modified(case, swap, "does not join hop")

    def test_wrong_endpoints_rejected(self, case):
        _, pairs, _ = case

        def relabel(flows):
            home = pairs[flows[0].pair_index]
            other = next(f for f in flows if pairs[f.pair_index] != home)
            flows[0] = dataclasses.replace(flows[0], pair_index=other.pair_index)

        self._check_modified(case, relabel, "not between its city nodes")

    def test_route_traffic_rejects_duplicate_edge_under_strict(self, tiny_bp_graph):
        from repro.flows.routing import route_traffic

        rows = np.insert(np.arange(tiny_bp_graph.num_edges), 3, 2)
        bad = _sat_rows_at(tiny_bp_graph, rows)
        with pytest.raises(InvariantViolation, match="both join"):
            route_traffic(bad, [CityPair(0, 1, 0.0)], k=4)

    def test_route_traffic_checks_graph_and_routing_under_strict(
        self, tiny_scenario, monkeypatch
    ):
        """The one routing entry point runs both guards, only when strict."""
        from repro.flows import routing

        calls = []
        monkeypatch.setattr(
            routing, "check_graph", lambda graph, source: calls.append(source)
        )
        monkeypatch.setattr(
            routing,
            "check_routing",
            lambda graph, pairs, routed, source: calls.append(source),
        )
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        routing.route_traffic_multi_k(graph, tiny_scenario.pairs, (1, 4))
        assert calls == ["graph[t=0s]", "routing[k=1]", "routing[k=4]"]
        calls.clear()
        with run_context(strict=False):
            routing.route_traffic_multi_k(graph, tiny_scenario.pairs, (1, 4))
        assert calls == []


class TestAllocationGuards:
    def test_clean_allocation_passes(self):
        check_allocation(
            np.array([1.0, 2.0]), np.array([3.0]), np.array([3.0])
        )

    def test_overloaded_link_rejected(self):
        with pytest.raises(InvariantViolation, match="capacity not conserved"):
            check_allocation(
                np.array([5.0]), np.array([5.0]), np.array([3.0])
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(InvariantViolation, match="negative rate"):
            check_allocation(
                np.array([-1.0]), np.array([0.0]), np.array([3.0])
            )

    def test_maxmin_runs_its_own_guard_under_strict(self):
        from repro.flows.maxmin import max_min_fair_allocation

        result = max_min_fair_allocation(
            [np.array([0]), np.array([0, 1])],
            np.array([10.0, 4.0]),
        )
        assert result.total_rate > 0  # guard ran (strict) and passed


class TestQuarantine:
    def test_move_and_reason(self, tmp_path):
        victim = tmp_path / "bad.npz"
        victim.write_bytes(b"junk")
        target = quarantine_file(victim, "digest mismatch", recorded="a", actual="b")
        assert not victim.exists()
        assert target.read_bytes() == b"junk"
        (record,) = quarantine_reasons(tmp_path)
        assert record["reason"] == "digest mismatch"
        assert record["recorded"] == "a"

    def test_repeat_quarantine_gets_new_slot(self, tmp_path):
        for _ in range(2):
            victim = tmp_path / "bad.npz"
            victim.write_bytes(b"junk")
            quarantine_file(victim, "again")
        names = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
        assert "bad.npz" in names and "bad.npz.1" in names

    def test_missing_file_is_not_an_error(self, tmp_path):
        assert quarantine_file(tmp_path / "gone.npz", "x") is None


class TestVerifyTree:
    def test_empty_dir_passes(self, tmp_path):
        report = verify_tree(tmp_path)
        assert report.ok
        assert "PASSED" in report.format()

    def test_missing_dir_fails(self, tmp_path):
        assert not verify_tree(tmp_path / "absent").ok

    def test_malformed_result_json_flagged(self, tmp_path):
        (tmp_path / "r.json").write_text(json.dumps({"kind": "result"}))
        report = verify_tree(tmp_path)
        assert any(v.code == "bad-result" for v in report.violations)

    def test_unknown_kind_ignored(self, tmp_path):
        (tmp_path / "other.json").write_text(json.dumps({"kind": "mystery"}))
        assert verify_tree(tmp_path).ok

    # A swept series persists as checkpoint shards; these audit it there.
    def test_saved_series_roundtrip_passes(self, tmp_path):
        _checkpoint(tmp_path)
        report = verify_tree(tmp_path)
        assert report.ok and report.checked == {"checkpoints": 1}

    def test_nan_series_flagged(self, tmp_path):
        ck = _checkpoint(tmp_path)
        _commit(ck, 1, np.array([np.nan, 1.0, 2.0]))
        report = verify_tree(tmp_path)
        assert [v.code for v in report.violations] == ["invalid-rtt"]

    def test_damaged_series_reported_not_raised(self, tmp_path):
        # Damage behind a matching digest: only reading the archive finds it.
        ck = _checkpoint(tmp_path)
        _flip_bit(ck.shard_path(1))
        _set_digest(ck, "snap_00001.npz", digest_file(ck.shard_path(1)))
        report = verify_tree(tmp_path)
        assert [v.code for v in report.violations] == ["shard-malformed"]

    def test_unknown_mode_series_flagged(self, tmp_path):
        ck = _checkpoint(tmp_path)
        manifest_path = ck.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["mode"] = "warp"
        manifest_path.write_text(json.dumps(manifest))
        report = verify_tree(tmp_path)
        assert [v.code for v in report.violations] == ["manifest-malformed"]
        assert "'warp'" in report.violations[0].detail

    def test_quarantine_contents_not_reflagged(self, tmp_path):
        qdir = tmp_path / "quarantine"
        qdir.mkdir()
        (qdir / "snap_00000.npz").write_bytes(b"known bad")
        assert verify_tree(tmp_path).ok


_TIMES = np.array([0.0, 900.0, 1800.0])


def _checkpoint(tmp_path) -> RttCheckpoint:
    """A three-snapshot, three-entry checkpoint with every shard committed."""
    ck = RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, _TIMES, 3)
    for index in range(3):
        ck.store_snapshot(index, np.array([10.0 + index, np.inf, 12.0]))
    return ck


def _commit(ck, index, rtt_ms, time_s=None):
    """Write shard ``index`` from raw arrays and record its digest."""
    buffer = io.BytesIO()
    time_s = np.float64(_TIMES[1]) if time_s is None else time_s
    np.savez_compressed(buffer, rtt_ms=rtt_ms, time_s=time_s)
    path = ck.directory / f"snap_{index:05d}.npz"
    path.write_bytes(buffer.getvalue())
    _set_digest(ck, path.name, digest_file(path))


def _set_digest(ck, name, digest):
    manifest_path = ck.directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if digest is None:
        del manifest["digests"][name]
    else:
        manifest["digests"][name] = digest
    manifest_path.write_text(json.dumps(manifest))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:20])


def _flip_bit(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


#: (id, corruption applied to a committed checkpoint, code verify reports)
_SHARD_CORRUPTIONS = [
    (
        "truncated",
        lambda ck: _truncate(ck.shard_path(1)),
        "digest-mismatch",
    ),
    ("bit-flipped", lambda ck: _flip_bit(ck.shard_path(1)), "digest-mismatch"),
    (
        "int64-row",
        lambda ck: _commit(ck, 1, np.array([1, 2, 3], dtype=np.int64)),
        "shard-malformed",
    ),
    (
        "nan-row",
        lambda ck: _commit(ck, 1, np.array([1.0, np.nan, 3.0])),
        "invalid-rtt",
    ),
    ("wrong-shape", lambda ck: _commit(ck, 1, np.ones(4)), "shard-malformed"),
    (
        "time-disagreement",
        lambda ck: _commit(ck, 1, np.ones(3), np.float64(_TIMES[2])),
        "index-disagreement",
    ),
    (
        "unrecorded",
        lambda ck: _set_digest(ck, "snap_00001.npz", None),
        "shard-unrecorded",
    ),
    ("out-of-range", lambda ck: _commit(ck, 9, np.ones(3)), "index-out-of-range"),
    (
        "one-dimensional-time",
        lambda ck: _commit(ck, 1, np.ones(3), np.array([_TIMES[1]])),
        "shard-malformed",
    ),
    # Generic snapshot rows may be signed; negativity is an RTT-series rule.
    (
        "signed-row",
        lambda ck: ck.store_snapshot(1, np.array([-1.0, 0.0, 2.5])),
        None,
    ),
]


class TestCheckpointAudit:
    """``repro verify`` and resume judge checkpoint shards identically."""

    @pytest.mark.parametrize(
        "corrupt, code",
        [pytest.param(fn, code, id=name) for name, fn, code in _SHARD_CORRUPTIONS],
    )
    def test_resume_keeps_exactly_the_shards_verify_passes(
        self, tmp_path, corrupt, code
    ):
        ck = _checkpoint(tmp_path)
        corrupt(ck)
        flagged = {v.path.name: v.code for v in verify_tree(tmp_path).violations}
        assert sorted(flagged.values()) == ([] if code is None else [code])
        shards = sorted(p.name for p in ck.directory.glob("snap_*.npz"))
        completed = ck.completed_indices()
        for name in shards:
            index = int(name[len("snap_") : -len(".npz")])
            assert (index in completed) == (name not in flagged), name
        # What the audit flagged, resume quarantined: the tree passes now.
        assert verify_tree(tmp_path).ok

    def test_audit_is_read_only(self, tmp_path):
        ck = _checkpoint(tmp_path)
        _flip_bit(ck.shard_path(0))
        _set_digest(ck, "snap_00002.npz", None)
        before = {p: p.read_bytes() for p in ck.directory.iterdir()}
        assert len(verify_tree(tmp_path).violations) == 2
        assert {p: p.read_bytes() for p in ck.directory.iterdir()} == before

    def test_missing_shard_flagged(self, tmp_path):
        ck = _checkpoint(tmp_path)
        ck.shard_path(2).unlink()
        (violation,) = verify_tree(tmp_path).violations
        assert (violation.path.name, violation.code) == (
            "snap_00002.npz",
            "shard-missing",
        )

    def test_unreadable_manifest_flagged(self, tmp_path):
        ck = _checkpoint(tmp_path)
        (ck.directory / "manifest.json").write_text("{not json")
        codes = [v.code for v in verify_tree(tmp_path).violations]
        assert codes == ["manifest-unreadable"]

    @pytest.mark.parametrize(
        "field, value",
        [("mode", "warp"), ("times_s", [[0.0]]), ("num_pairs", None), ("digests", [])],
        ids=["mode", "times_s", "num_pairs", "digests"],
    )
    def test_manifest_that_cannot_describe_a_sweep_flagged(
        self, tmp_path, field, value
    ):
        ck = _checkpoint(tmp_path)
        manifest_path = ck.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        codes = [v.code for v in verify_tree(tmp_path).violations]
        assert codes == ["manifest-malformed"]


class TestPersistenceValidation:
    """Resume rejects a shard it cannot read as its sweep's row."""

    def test_foreign_npz_rejected(self, tmp_path):
        ck = _checkpoint(tmp_path)
        np.savez(ck.shard_path(1), other=np.zeros(3))
        _set_digest(ck, "snap_00001.npz", digest_file(ck.shard_path(1)))
        assert ck.completed_indices() == {0, 2}
        (record,) = quarantine_reasons(ck.directory)
        assert "rtt_ms" in record["reason"]

    def test_shape_mismatch_rejected(self, tmp_path):
        ck = _checkpoint(tmp_path)
        _commit(ck, 1, np.ones(2))
        assert ck.completed_indices() == {0, 2}
        (record,) = quarantine_reasons(ck.directory)
        assert "shape" in record["reason"]


class TestPresetValidation:
    def test_all_presets_pass(self):
        from repro.orbits.presets import PRESET_NAMES, preset

        for name in PRESET_NAMES:
            preset(name)

    def test_bogus_shell_rejected(self):
        from repro.orbits.constellation import Constellation, Shell
        from repro.orbits.presets import validate_constellation

        bogus = Constellation(
            name="bogus",
            shells=(
                Shell(
                    name="km-not-m",
                    num_planes=10,
                    sats_per_plane=10,
                    altitude_m=550.0,  # kilometres where metres belong
                    inclination_deg=53.0,
                    min_elevation_deg=25.0,
                ),
            ),
        )
        with pytest.raises(InputValidationError, match="altitude_m"):
            validate_constellation(bogus)


class TestFiberValidation:
    def test_transposed_latlon_rejected(self):
        from repro.network.fiber import city_fiber_edges

        with pytest.raises(InputValidationError, match="lat_deg"):
            city_fiber_edges(
                np.array([100.0, 0.0]), np.array([0.0, 0.0]), 1000.0
            )
