"""Built-in land/water mask (substitute for the ``global-land-mask`` package).

The paper uses a land mask for two things: relay GTs may only stand on
land, and only aircraft flying *over water* count as transoceanic relays.
Neither use needs coastline-accurate geometry — what matters is that the
oceans (Atlantic, Pacific, Indian) are water and the continental interiors
are land. We therefore ship coarse hand-drawn polygons for the continents
and major islands and rasterize them once into a 0.25-degree lookup grid.

Known simplifications, all harmless for the paper's experiments and noted
in DESIGN.md: the Baltic, Black and Caspian seas and Hudson Bay are
treated as land (no transoceanic corridor crosses them and relay GTs
placed there only add to the already-dense continental grid); small island
chains are omitted.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from scipy import ndimage

__all__ = [
    "is_land",
    "LAND_POLYGONS",
    "rasterize",
    "RASTER_RESOLUTION_DEG",
]

#: Resolution of the cached raster lookup grid, degrees.
RASTER_RESOLUTION_DEG = 0.25

#: Everything south of this latitude is Antarctica and treated as land.
_ANTARCTICA_LAT = -64.0

# Each polygon is a list of (lat, lon) vertices. Longitudes may exceed 180
# where a landmass crosses the antimeridian (eastern Siberia); containment
# testing compensates by also checking lon + 360.
LAND_POLYGONS: dict[str, list[tuple[float, float]]] = {
    "north_america": [
        (66, -168), (71, -157), (70, -141), (70, -128), (68, -115), (72, -95),
        (73, -85), (70, -80), (65, -73), (60, -65), (55, -59), (52, -56),
        (47, -52.5), (45, -61), (44, -66), (41, -70), (38, -75), (33, -78),
        (30, -81), (25, -80), (26, -82), (30, -84), (30, -88), (29, -94),
        (26, -97), (22, -97), (18, -94), (21, -90), (21, -87), (17, -88),
        (15, -83), (11, -84), (9, -81), (8, -78), (8, -83), (10, -86),
        (14, -92), (16, -95), (16.7, -99.9), (19, -104), (23, -106), (23, -110), (28, -114),
        (33, -117), (34, -120), (38, -123), (43, -124), (48, -125), (55, -131),
        (58, -137), (60, -146), (58, -153), (59, -162), (63, -166), (66, -168),
    ],
    "south_america": [
        (12, -72), (11, -64), (8, -60), (5, -52), (0, -50), (-3, -39),
        (-5, -35), (-8, -34.5), (-13, -38), (-18, -39), (-23, -41), (-25, -48),
        (-30, -50), (-34, -53), (-38, -57), (-41, -62), (-47, -65), (-52, -68),
        (-55, -66), (-55, -71), (-50, -74), (-46, -74), (-42, -73), (-37, -73),
        (-30, -71), (-23, -70), (-18, -70), (-14, -76), (-6, -81), (-1, -80),
        (2, -78), (7, -77), (9, -76.2), (10.5, -75.6), (11.1, -74.6), (12, -72),
    ],
    "africa": [
        (37, 10), (37, -2), (35, -6), (33, -9), (28, -11), (21, -17),
        (15, -17), (12, -16), (8.6, -13.4), (6.2, -11.2), (4.4, -7.8), (4, -2), (6, 1), (6, 4),
        (4, 7), (4, 9), (-1, 9), (-6, 12), (-12, 13.5), (-17, 11.5),
        (-22, 14), (-28, 16), (-33, 18), (-35, 20), (-34, 26), (-33.1, 28.2), (-29, 32),
        (-24, 35), (-19, 37), (-15, 40), (-10, 40), (-4, 39.6), (0, 43.5),
        (5, 49), (11, 51.5), (12, 44), (15, 40), (18, 38), (22, 37), (27, 34),
        (31.5, 32.4), (31, 25), (33, 20), (33, 11), (37, 10),
    ],
    # One polygon for Europe + Asia. Clockwise: Arctic coast eastward,
    # Pacific coast southward, around India and Arabia, Mediterranean
    # northern coast, Iberia, the North Sea coast, Scandinavia.
    "eurasia": [
        (71, 26), (69, 35), (68, 44), (69, 60), (73, 72), (76, 90),
        (77, 104), (73, 115), (71, 130), (72, 141), (69, 160), (65, 178),
        (66, 190), (62, 188), (60, 170), (61, 163), (56, 163), (51, 157),
        (59, 152), (54, 137), (48, 140), (43, 132), (39.5, 127.8), (35.3, 129.6),
        (35, 126), (39, 124.5), (40, 118), (37.8, 120), (37.3, 122.6),
        (36, 120.3), (34.5, 119.5),
        (30, 122), (27, 120), (23, 117), (21, 110), (16, 108), (12.3, 109.4), (10.3, 107.2),
        (9, 105), (13, 100), (9, 99.2), (6, 101.8), (2, 103.6), (1.2, 104.2),
        (2.5, 101.2), (5, 100.3), (8.5, 98.3), (14, 98),
        (16, 94), (20, 92), (22, 91), (21, 89), (16, 82), (13, 80.5),
        (9, 79), (8, 77), (15, 74), (19, 72), (21, 72), (24, 67), (25, 61),
        (26, 57), (27, 56), (30, 49), (29, 48), (27, 50.2), (25.8, 50.8),
        (24.5, 51.8), (24.2, 54.2), (25.5, 56.4), (22.5, 59.8),
        (17, 56), (13, 45), (15, 43), (21, 39), (28, 34), (31, 34), (36, 36),
        (37, 31), (36, 27), (37, 22), (40, 19), (44, 13), (44, 12), (41, 16),
        (40, 18), (38, 16), (40, 15), (42, 11), (44, 9), (43, 6), (43, 3),
        (41, 2), (38, 0), (37, -2), (36, -5), (37, -9), (43, -9), (44, -1),
        (46, -2), (48, -5), (50, 1), (51, 3), (53, 6), (55, 8), (57, 9),
        (58, 6.8), (58.9, 5.4), (61, 4.8), (63, 8), (66, 12), (68, 14), (70, 20), (71, 26),
    ],
    "greenland": [
        (60, -43), (65, -40), (70, -22), (76, -18), (81, -30), (83, -35),
        (82, -55), (78, -68), (76, -68), (70, -55), (65, -53), (60, -48),
        (60, -43),
    ],
    "australia": [
        (-11, 142), (-11, 136), (-12, 131), (-14, 127), (-17, 122),
        (-20, 119), (-22, 114), (-26, 113), (-31, 115), (-34, 115),
        (-35, 118), (-33, 124), (-32, 128), (-32, 133), (-35, 136),
        (-38, 140), (-39, 144), (-38, 147), (-37, 150), (-34, 151),
        (-32, 153), (-28, 153.5), (-25, 153), (-21, 149), (-19, 147),
        (-16, 145.5), (-14, 144), (-11, 142),
    ],
    "new_zealand": [
        (-34, 172.5), (-36, 175), (-38, 178.5), (-40, 177), (-41.5, 175),
        (-44, 173), (-46, 170.5), (-47, 167.5), (-44, 167.5), (-42, 171),
        (-40.5, 172), (-39, 174), (-37, 174.5), (-34, 172.5),
    ],
    "madagascar": [
        (-12, 49), (-16, 50), (-25, 47), (-26, 45), (-22, 43), (-16, 44),
        (-12, 49),
    ],
    "borneo": [
        (7, 117), (1, 119), (-4, 116), (-3, 110), (1, 109), (5, 113),
        (7, 117),
    ],
    "sumatra": [
        (6, 95), (4, 98.3), (1.5, 102.4), (-1, 104.2), (-4, 106), (-6, 106), (-5.5, 104.5),
        (-3, 103), (0, 99), (5, 95.5), (6, 95),
    ],
    "java_bali": [
        (-6, 105), (-6.7, 108), (-6.8, 111), (-7.6, 114), (-8.4, 115.4),
        (-8.8, 115.3), (-8.6, 113), (-8.3, 110), (-7.8, 108), (-7, 105),
        (-6, 105),
    ],
    "sulawesi": [
        (1.6, 125.0), (0.4, 123.3), (0.5, 120.2), (-2, 121.2), (-5.9, 120.5),
        (-5.5, 119.2), (-3.5, 118.9), (0.3, 119.6), (1.6, 125.0),
    ],
    "new_guinea": [
        (-1, 131), (-2.2, 136), (-2.6, 141), (-5.6, 145.5), (-6.9, 146.9), (-8, 147), (-10, 150),
        (-10, 148), (-9, 143), (-8, 139), (-7, 138), (-5, 135), (-4, 132),
        (-2, 130), (-1, 131),
    ],
    "philippines": [
        (19, 121), (16, 122), (13, 124), (10, 125), (6, 126), (6, 122),
        (9, 123), (12, 121), (14, 120), (16, 120), (18, 120), (19, 121),
    ],
    "japan": [
        (45.5, 142), (44, 145), (42, 143), (38, 141), (35, 140.5), (33, 135),
        (31, 131), (33, 129.5), (35, 133), (37, 137), (40, 140), (43, 141),
        (45.5, 142),
    ],
    "british_isles": [
        (58.5, -5), (57, -2), (54, 0), (52, 1.5), (51, 1), (50, -5),
        (51.5, -10), (54, -10), (55, -8), (56, -6), (58, -7), (58.5, -5),
    ],
    "iceland": [
        (66.5, -15), (65, -13.5), (63.5, -18), (64, -22), (65.5, -24),
        (66.5, -15),
    ],
    "sri_lanka": [
        (9.8, 80), (7, 82), (6, 80.5), (8, 79.7), (9.8, 80),
    ],
    "cuba": [
        (23, -84), (22, -78), (20, -74), (20, -77), (22, -82), (23, -84),
    ],
    "hispaniola": [
        (20, -73), (18.5, -68.5), (18, -72), (19, -74), (20, -73),
    ],
    "taiwan": [
        (25.3, 121.5), (22, 121), (22.5, 120.2), (25, 121), (25.3, 121.5),
    ],
    "sicily": [
        (38.2, 12.7), (38.3, 15.6), (36.7, 15.1), (37.5, 12.5), (38.2, 12.7),
    ],
    "cyprus": [
        (35.7, 32.3), (35.5, 34.6), (34.6, 33.6), (34.9, 32.4), (35.7, 32.3),
    ],
    "malta": [
        (36.1, 14.2), (35.8, 14.6), (35.8, 14.2), (36.1, 14.2),
    ],
    "oahu": [
        (21.7, -158.3), (21.2, -157.6), (21.2, -158.3), (21.7, -158.3),
    ],
    "jamaica": [
        (18.5, -78.4), (18.2, -76.2), (17.7, -77.2), (18.5, -78.4),
    ],
    "puerto_rico": [
        (18.5, -67.3), (18.5, -65.6), (17.9, -66.2), (18.5, -67.3),
    ],
    "fiji": [
        (-17.3, 177.2), (-17.5, 178.7), (-18.3, 178.2), (-18.1, 177.2),
        (-17.3, 177.2),
    ],
    "crete": [
        (35.7, 23.5), (35.3, 26.3), (34.9, 25.7), (35.2, 23.5), (35.7, 23.5),
    ],
    "sardinia": [
        (41.3, 9.2), (39.1, 9.6), (38.9, 8.4), (40.8, 8.1), (41.3, 9.2),
    ],
    "mallorca": [
        (39.95, 2.4), (39.9, 3.2), (39.3, 3.1), (39.4, 2.3), (39.95, 2.4),
    ],
    "gran_canaria": [
        (28.2, -15.35), (27.75, -15.4), (27.95, -15.85), (28.2, -15.35),
    ],
    "tenerife": [
        (28.6, -16.1), (28.0, -16.7), (28.4, -16.9), (28.6, -16.1),
    ],
    "madeira": [
        (32.9, -17.2), (32.75, -16.65), (32.6, -17.1), (32.9, -17.2),
    ],
    "okinawa": [
        (26.8, 128.2), (26.05, 127.6), (26.45, 128.0), (26.8, 128.2),
    ],
    "jeju": [
        (33.55, 126.2), (33.3, 126.95), (33.2, 126.3), (33.55, 126.2),
    ],
    "mauritius": [
        (-20.0, 57.6), (-20.5, 57.7), (-20.3, 57.3), (-20.0, 57.6),
    ],
    "new_caledonia": [
        (-20.0, 163.9), (-21.5, 165.5), (-22.4, 166.9), (-22.3, 166.3),
        (-20.3, 164.1), (-20.0, 163.9),
    ],
    "trinidad": [
        (10.85, -61.6), (10.05, -61.0), (10.1, -61.9), (10.85, -61.6),
    ],
    "barbados": [
        (13.35, -59.65), (13.05, -59.45), (13.05, -59.7), (13.35, -59.65),
    ],
    "new_providence": [
        (25.15, -77.65), (25.12, -77.1), (24.9, -77.3), (24.95, -77.6),
        (25.15, -77.65),
    ],
    "ambon": [
        (-3.5, 128.0), (-3.8, 128.4), (-3.85, 128.0), (-3.5, 128.0),
    ],
    "timor": [
        (-8.4, 125.2), (-9.5, 127.3), (-10.4, 124.0), (-10.0, 123.4),
        (-8.4, 125.2),
    ],
    "tasmania": [
        (-40.8, 144.7), (-41, 148), (-43.5, 147), (-42, 145), (-40.8, 144.7),
    ],
}


def _points_in_polygon(lats: np.ndarray, lons: np.ndarray, polygon) -> np.ndarray:
    """Vectorized ray-casting point-in-polygon test in lat/lon space.

    Longitudes of the polygon may exceed 180; callers pass query longitudes
    in [-180, 180) and we additionally test lon + 360 so antimeridian-
    crossing polygons work.
    """
    poly = np.asarray(polygon, dtype=float)
    poly_lat, poly_lon = poly[:, 0], poly[:, 1]
    inside = np.zeros(lats.shape, dtype=bool)
    for lon_shift in (0.0, 360.0):
        shifted = lons + lon_shift
        crossings = np.zeros(lats.shape, dtype=int)
        for i in range(len(poly) - 1):
            lat1, lon1 = poly_lat[i], poly_lon[i]
            lat2, lon2 = poly_lat[i + 1], poly_lon[i + 1]
            # Horizontal ray in +lon direction; count edge crossings.
            cond = (lat1 > lats) != (lat2 > lats)
            with np.errstate(divide="ignore", invalid="ignore"):
                lon_at_lat = lon1 + (lats - lat1) / (lat2 - lat1) * (lon2 - lon1)
            crossings += (cond & (shifted < lon_at_lat)).astype(int)
        inside |= (crossings % 2) == 1
    return inside


_raster_cache: np.ndarray | None = None

#: Coastal buffer applied to the raster, in cells. The polygons are coarse;
#: dilating the raster by two 0.25-degree cells (~55 km) keeps coastal
#: cities (Sydney, Maceio, Singapore...) on land without meaningfully
#: shrinking the oceans that matter for aircraft-relay placement.
COASTAL_DILATION_CELLS = 2


def rasterize(
    resolution_deg: float = RASTER_RESOLUTION_DEG,
    dilation_cells: int = COASTAL_DILATION_CELLS,
) -> np.ndarray:
    """Boolean land raster of shape ``(n_lat, n_lon)`` at ``resolution_deg``.

    Cell ``[i, j]`` covers latitudes ``[-90 + i*res, -90 + (i+1)*res)``
    and longitudes ``[-180 + j*res, -180 + (j+1)*res)``; the value is the
    land-ness of the cell centre, dilated outward by ``dilation_cells``
    cells (wrapping in longitude) to buffer the coarse coastlines.
    """
    n_lat = int(round(180.0 / resolution_deg))
    n_lon = int(round(360.0 / resolution_deg))
    lat_centres = -90.0 + (np.arange(n_lat) + 0.5) * resolution_deg
    lon_centres = -180.0 + (np.arange(n_lon) + 0.5) * resolution_deg
    lat_grid, lon_grid = np.meshgrid(lat_centres, lon_centres, indexing="ij")
    flat_lat, flat_lon = lat_grid.ravel(), lon_grid.ravel()
    land = flat_lat <= _ANTARCTICA_LAT
    for polygon in LAND_POLYGONS.values():
        remaining = ~land
        if not remaining.any():
            break
        land[remaining] |= _points_in_polygon(
            flat_lat[remaining], flat_lon[remaining], polygon
        )
    raster = land.reshape(n_lat, n_lon)
    if dilation_cells > 0:
        # Wrap in longitude by padding columns from the opposite edge,
        # dilating, then cropping back (latitude edges just clamp).
        pad = dilation_cells
        padded = np.concatenate(
            [raster[:, -pad:], raster, raster[:, :pad]], axis=1
        )
        padded = ndimage.binary_dilation(padded, iterations=dilation_cells)
        raster = padded[:, pad:-pad]
    return raster


def _cache_path() -> str:
    cache_dir = os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(tempfile.gettempdir(), "repro-cache")
    )
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, "landmask_v2.npz")


def _raster() -> np.ndarray:
    """Raster with in-process memoization and an on-disk cache.

    Rasterizing the polygons takes a few seconds; tests and benchmarks
    import this module in many processes, so the first process writes the
    raster to a cache file and later ones just load it.
    """
    global _raster_cache
    if _raster_cache is None:
        path = _cache_path()
        try:
            with np.load(path) as data:
                _raster_cache = data["raster"]
        except (OSError, KeyError, ValueError):
            _raster_cache = rasterize()
            try:
                np.savez_compressed(path, raster=_raster_cache)
            except OSError:
                pass  # Cache is an optimization only; never fail on it.
    return _raster_cache


def is_land(lat_deg, lon_deg) -> np.ndarray:
    """Whether points are on land. Accepts scalars or arrays; returns bool array.

    Uses the cached 0.25-degree raster, so lookups are O(1) per point.
    """
    lats, lons = np.broadcast_arrays(
        np.asarray(lat_deg, dtype=float), np.asarray(lon_deg, dtype=float)
    )
    lons = np.mod(lons + 180.0, 360.0) - 180.0
    raster = _raster()
    n_lat, n_lon = raster.shape
    i = np.clip(((lats + 90.0) / 180.0 * n_lat).astype(int), 0, n_lat - 1)
    j = np.clip(((lons + 180.0) / 360.0 * n_lon).astype(int), 0, n_lon - 1)
    return raster[i, j]
