"""Unit tests for lat/lon grids and relay-grid selection."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import EARTH_RADIUS
from repro.core.scenario import ScenarioScale
from repro.geo import geodesy, grid
from repro.geo.landmask import is_land
from repro.ground.cities import load_cities
from repro.ground.relays import relay_grid_for_cities


def dense_grid_points_near(centre_lats, centre_lons, radius_m, spacing_deg):
    """Reference selection: latitude prefilter, then every grid × centre dot."""
    lats, lons = grid.global_grid(spacing_deg)
    centre_lats = np.atleast_1d(np.asarray(centre_lats, dtype=float))
    centre_lons = np.atleast_1d(np.asarray(centre_lons, dtype=float))
    radius_deg = np.degrees(radius_m / EARTH_RADIUS)
    keep = (lats >= centre_lats.min() - radius_deg) & (
        lats <= centre_lats.max() + radius_deg
    )
    lats, lons = lats[keep], lons[keep]
    dots = geodesy.unit_vectors(lats, lons) @ geodesy.unit_vectors(
        centre_lats, centre_lons
    ).T
    selected = (dots >= np.cos(radius_m / EARTH_RADIUS)).any(axis=1)
    return lats[selected], lons[selected]


class TestGlobalGrid:
    def test_spacing_one_degree_count(self):
        lats, lons = grid.global_grid(1.0)
        # 179 latitude rows (no poles) x 360 longitude columns.
        assert len(lats) == 179 * 360
        assert len(lons) == len(lats)

    def test_no_poles(self):
        lats, _ = grid.global_grid(0.5)
        assert lats.max() < 90.0
        assert lats.min() > -90.0

    def test_longitudes_in_range(self):
        _, lons = grid.global_grid(2.0)
        assert lons.min() >= -180.0
        assert lons.max() < 180.0

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            grid.global_grid(0.0)

    def test_grid_is_uniform(self):
        lats, lons = grid.global_grid(10.0)
        assert set(np.diff(sorted(set(lats.tolist())))) == {10.0}


class TestGridPointsNear:
    def test_points_within_radius(self):
        lats, lons = grid.grid_points_near([48.86], [2.35], 500e3, 1.0)
        distances = geodesy.haversine_m(lats, lons, 48.86, 2.35)
        assert np.all(distances <= 500e3 + 1.0)

    def test_all_near_points_included(self):
        # Every global grid point within the radius must be selected.
        centre = (40.0, -100.0)
        radius = 800e3
        selected_lats, selected_lons = grid.grid_points_near(
            [centre[0]], [centre[1]], radius, 2.0
        )
        all_lats, all_lons = grid.global_grid(2.0)
        distances = geodesy.haversine_m(all_lats, all_lons, *centre)
        expected = int(np.sum(distances <= radius))
        assert len(selected_lats) == expected

    def test_multiple_centres_union(self):
        one = grid.grid_points_near([0.0], [0.0], 300e3, 1.0)
        other = grid.grid_points_near([0.0], [90.0], 300e3, 1.0)
        union = grid.grid_points_near([0.0, 0.0], [0.0, 90.0], 300e3, 1.0)
        assert len(union[0]) == len(one[0]) + len(other[0])

    def test_empty_centres(self):
        lats, lons = grid.grid_points_near([], [], 1000e3, 1.0)
        assert len(lats) == 0
        assert len(lons) == 0

    def test_zero_radius_selects_nothing_off_grid(self):
        lats, _ = grid.grid_points_near([0.25], [0.25], 1.0, 1.0)
        assert len(lats) == 0


class TestGridPointsNearMatchesDense:
    """The KD-tree selection equals the dense dot-product criterion."""

    @settings(max_examples=60, deadline=None)
    @given(
        spacing=st.sampled_from([1.0, 2.0, 3.0, 5.0]),
        centres=st.lists(
            st.tuples(
                st.floats(-89.0, 89.0),
                st.floats(-180.0, 180.0, exclude_max=True),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
        radius_m=st.one_of(
            st.floats(1.0, 1_000.0),
            st.sampled_from([1.0, 0.5e3, 100e3, 2_000e3]),
            st.floats(1_000.0, 10_000e3),
        ),
    )
    def test_matches_dense_criterion(self, spacing, centres, radius_m):
        # Centres flagged ``True`` snap onto a grid point, so sub-kilometre
        # radii select something and grid points sit at zero distance.
        all_lats, all_lons = grid.global_grid(spacing)
        lats, lons = [], []
        for lat, lon, snap in centres:
            if snap:
                i = int(np.argmin(np.abs(all_lats - lat) + np.abs(all_lons - lon)))
                lat, lon = all_lats[i], all_lons[i]
            lats.append(lat)
            lons.append(lon)
        got = grid.grid_points_near(lats, lons, radius_m, spacing)
        want = dense_grid_points_near(lats, lons, radius_m, spacing)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("ulps", [-4, -3, 3, 4])
    def test_point_a_few_ulps_from_threshold(self, ulps):
        # One centre off the grid and a grid point about 1.7 degrees away.
        # The radius puts cos(r / R) ``ulps`` ulps below (inside, ulps > 0)
        # or above (outside, ulps < 0) that point's dot product.
        centre = (0.3, 0.4)
        point = (1.0, 2.0)
        dot = float(geodesy.unit_vectors(*point) @ geodesy.unit_vectors(*centre))
        threshold = dot
        for _ in range(abs(ulps)):
            threshold = np.nextafter(threshold, -np.inf if ulps > 0 else np.inf)
        radius = float(np.arccos(threshold)) * EARTH_RADIUS
        offset = (dot - np.cos(radius / EARTH_RADIUS)) / np.spacing(dot)
        assert 0 < offset * np.sign(ulps) <= 8

        got_lats, got_lons = grid.grid_points_near([centre[0]], [centre[1]], radius, 1.0)
        want_lats, want_lons = dense_grid_points_near(
            [centre[0]], [centre[1]], radius, 1.0
        )
        assert np.array_equal(got_lats, want_lats)
        assert np.array_equal(got_lons, want_lons)
        hit = np.any((got_lats == point[0]) & (got_lons == point[1]))
        assert hit == (ulps > 0)

    @pytest.mark.parametrize(
        "centre, selected",
        # |g|^2 of these grid points' rounded unit vectors is about three
        # ulps below / above 1, so the dense test rejects / keeps them at
        # a 1 mm radius, where cos(r / R) rounds to exactly 1.
        [((6.0, -125.0), False), ((-12.0, 102.0), True)],
    )
    def test_zero_distance_tie_at_sub_metre_radius(self, centre, selected):
        # The KD-tree estimate is exactly 1 for a centre on a grid point;
        # only the dense test in the band sees the rounded |g|^2.
        got_lats, got_lons = grid.grid_points_near([centre[0]], [centre[1]], 1e-3, 1.0)
        want_lats, _ = dense_grid_points_near([centre[0]], [centre[1]], 1e-3, 1.0)
        assert np.array_equal(got_lats, want_lats)
        assert len(got_lats) == int(selected)

#: Relay-grid sizes and sha256 of ``lats.tobytes() + lons.tobytes()`` per
#: preset, recorded with the dense grid × centre selection.
RELAY_GRID_PINS = {
    "small": (3333, "14772ff0406fdc557b9ddac2b2b15af5ae571257472deaa3ba5fc7cadbb6ab0b"),
    "medium": (14705, "5c2a41090f11deff991663873569d50dd6c5421e0a6f2c5550954199baed2aad"),
    "full": (63571, "c2eb42c07933101735fd6628d9542e9622ecf8d42e6f9329b8607ac9b2727a9d"),
}


@pytest.mark.parametrize("preset", sorted(RELAY_GRID_PINS))
def test_relay_grid_pinned_per_preset(preset):
    scale = getattr(ScenarioScale, preset)()
    lats, lons = relay_grid_for_cities(
        load_cities(scale.num_cities), scale.relay_spacing_deg
    )
    digest = hashlib.sha256(lats.tobytes() + lons.tobytes()).hexdigest()
    assert (len(lats), digest) == RELAY_GRID_PINS[preset]


class TestLandGridPointsNear:
    def test_all_selected_points_on_land(self):
        lats, lons = grid.land_grid_points_near([48.86], [2.35], 1_000e3, 1.0)
        assert len(lats) > 0
        assert np.all(is_land(lats, lons))

    def test_ocean_centre_selects_coastal_land_only(self):
        # Centre in the mid North Atlantic: within 2,000 km there is very
        # little land; everything selected must still be land.
        lats, lons = grid.land_grid_points_near([45.0], [-35.0], 2_000e3, 1.0)
        assert np.all(is_land(lats, lons))

    def test_land_subset_of_unfiltered(self):
        unfiltered = grid.grid_points_near([35.0], [-100.0], 700e3, 1.0)
        filtered = grid.land_grid_points_near([35.0], [-100.0], 700e3, 1.0)
        assert len(filtered[0]) <= len(unfiltered[0])

    def test_relay_density_scales_with_spacing(self):
        coarse = grid.land_grid_points_near([48.86], [2.35], 1_000e3, 2.0)
        fine = grid.land_grid_points_near([48.86], [2.35], 1_000e3, 1.0)
        # Halving the spacing roughly quadruples the point count.
        assert len(fine[0]) > 2.5 * len(coarse[0])
