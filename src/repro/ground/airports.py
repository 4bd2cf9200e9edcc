"""Embedded airports and intercontinental route table for aircraft relays.

The paper uses one day of FlightAware positions for all in-air commercial
aircraft, keeping only those over water as bent-pipe relays. We replace
that proprietary trace with a synthetic schedule over real long-haul
routes (see :mod:`repro.ground.aircraft`). This module holds the data:
major airports with coordinates, and one-way daily flight counts per
route, sized after public 2018-era corridor volumes.

The single most load-bearing property — called out explicitly in the
paper's Fig. 3 discussion — is the *density asymmetry* between the North
Atlantic (hundreds of simultaneous over-water aircraft) and the South
Atlantic (a handful), which the route table preserves.
"""

from __future__ import annotations

__all__ = ["AIRPORTS", "ROUTES"]

#: IATA code -> (lat_deg, lon_deg).
AIRPORTS: dict[str, tuple[float, float]] = {
    # North America
    "JFK": (40.64, -73.78), "EWR": (40.69, -74.17), "BOS": (42.36, -71.01),
    "IAD": (38.95, -77.46), "ATL": (33.64, -84.43), "MIA": (25.79, -80.29),
    "ORD": (41.97, -87.91), "DFW": (32.90, -97.04), "IAH": (29.98, -95.34),
    "LAX": (33.94, -118.41), "SFO": (37.62, -122.38), "SEA": (47.45, -122.31),
    "YVR": (49.19, -123.18), "YYZ": (43.68, -79.63), "YUL": (45.47, -73.74),
    "ANC": (61.17, -149.99), "HNL": (21.32, -157.92), "MEX": (19.44, -99.07),
    "PTY": (9.07, -79.38), "CUN": (21.04, -86.87), "DEN": (39.86, -104.67),
    # South America
    "GRU": (-23.43, -46.47), "GIG": (-22.81, -43.25), "EZE": (-34.82, -58.54),
    "SCL": (-33.39, -70.79), "LIM": (-12.02, -77.11), "BOG": (4.70, -74.15),
    "CCS": (10.60, -67.01), "REC": (-8.13, -34.92), "FOR": (-3.78, -38.53),
    "MVD": (-34.84, -56.03),
    # Europe
    "LHR": (51.47, -0.45), "LGW": (51.15, -0.19), "CDG": (49.01, 2.55),
    "AMS": (52.31, 4.76), "FRA": (50.03, 8.57), "MUC": (48.35, 11.79),
    "ZRH": (47.46, 8.55), "MAD": (40.49, -3.57), "BCN": (41.30, 2.08),
    "LIS": (38.77, -9.13), "FCO": (41.80, 12.24), "MXP": (45.63, 8.72),
    "VIE": (48.11, 16.57), "CPH": (55.62, 12.66), "ARN": (59.65, 17.92),
    "OSL": (60.19, 11.10), "HEL": (60.32, 24.96), "DUB": (53.42, -6.27),
    "KEF": (63.99, -22.61), "IST": (41.26, 28.74), "SVO": (55.97, 37.41),
    "DME": (55.41, 37.90), "WAW": (52.17, 20.97), "ATH": (37.94, 23.95),
    # Middle East
    "DXB": (25.25, 55.36), "AUH": (24.43, 54.65), "DOH": (25.27, 51.61),
    "JED": (21.68, 39.16), "RUH": (24.96, 46.70), "TLV": (32.01, 34.89),
    "KWI": (29.23, 47.97),
    # Africa
    "JNB": (-26.14, 28.25), "CPT": (-33.97, 18.60), "DUR": (-29.61, 31.12),
    "NBO": (-1.32, 36.93), "ADD": (8.98, 38.80), "CAI": (30.12, 31.41),
    "CMN": (33.37, -7.59), "ALG": (36.69, 3.22), "LOS": (6.58, 3.32),
    "ACC": (5.61, -0.17), "DKR": (14.67, -17.07), "LAD": (-8.86, 13.23),
    "TNR": (-18.80, 47.48), "MRU": (-20.43, 57.68),
    # South & Central Asia
    "DEL": (28.57, 77.10), "BOM": (19.09, 72.87), "BLR": (13.20, 77.71),
    "MAA": (12.99, 80.17), "CCU": (22.65, 88.45), "HYD": (17.24, 78.43),
    "KHI": (24.91, 67.16), "LHE": (31.52, 74.40), "DAC": (23.84, 90.40),
    "CMB": (7.18, 79.88), "ALA": (43.35, 77.04), "TAS": (41.26, 69.28),
    # East & Southeast Asia
    "NRT": (35.76, 140.39), "HND": (35.55, 139.78), "KIX": (34.43, 135.24),
    "ICN": (37.46, 126.44), "PEK": (40.08, 116.58), "PVG": (31.14, 121.81),
    "CAN": (23.39, 113.30), "SZX": (22.64, 113.81), "HKG": (22.31, 113.91),
    "TPE": (25.08, 121.23), "MNL": (14.51, 121.02), "SGN": (10.82, 106.65),
    "HAN": (21.22, 105.81), "BKK": (13.68, 100.75), "SIN": (1.36, 103.99),
    "KUL": (2.75, 101.71), "CGK": (-6.13, 106.66), "DPS": (-8.75, 115.17),
    "PER": (-31.94, 115.97),
    # Oceania
    "SYD": (-33.95, 151.18), "MEL": (-37.67, 144.84), "BNE": (-27.38, 153.12),
    "AKL": (-37.01, 174.79), "CHC": (-43.49, 172.53), "NAN": (-17.76, 177.44),
    "POM": (-9.44, 147.22), "PPT": (-17.56, -149.61),
}

#: (origin, destination, one-way flights per day). The schedule generator
#: mirrors each route in both directions. Counts approximate 2018 volumes.
ROUTES: list[tuple[str, str, int]] = [
    # --- North Atlantic (the dense corridor; ~700+ one-way/day total) ---
    ("JFK", "LHR", 25), ("JFK", "CDG", 14), ("JFK", "FRA", 8),
    ("JFK", "AMS", 7), ("JFK", "MAD", 6), ("JFK", "FCO", 6),
    ("JFK", "DUB", 6), ("JFK", "ZRH", 4), ("JFK", "IST", 4),
    ("EWR", "LHR", 12), ("EWR", "FRA", 5), ("EWR", "CDG", 5),
    ("EWR", "AMS", 4), ("EWR", "LIS", 4), ("BOS", "LHR", 10),
    ("BOS", "CDG", 5), ("BOS", "AMS", 4), ("BOS", "DUB", 4),
    ("BOS", "KEF", 4), ("IAD", "LHR", 8), ("IAD", "CDG", 5),
    ("IAD", "FRA", 5), ("ATL", "LHR", 6), ("ATL", "CDG", 5),
    ("ATL", "AMS", 5), ("ATL", "FRA", 4), ("MIA", "LHR", 6),
    ("MIA", "MAD", 6), ("MIA", "CDG", 4), ("MIA", "LIS", 3),
    ("ORD", "LHR", 10), ("ORD", "FRA", 6), ("ORD", "CDG", 5),
    ("ORD", "DUB", 4), ("ORD", "WAW", 3), ("DFW", "LHR", 5),
    ("DFW", "FRA", 3), ("IAH", "LHR", 4), ("IAH", "FRA", 3),
    ("YYZ", "LHR", 10), ("YYZ", "CDG", 5), ("YYZ", "FRA", 5),
    ("YYZ", "AMS", 4), ("YUL", "CDG", 7), ("YUL", "LHR", 4),
    ("JFK", "KEF", 5), ("YYZ", "DUB", 3), ("SEA", "LHR", 3),
    ("SFO", "LHR", 6), ("SFO", "FRA", 4), ("SFO", "CDG", 4),
    ("LAX", "LHR", 8), ("LAX", "CDG", 5), ("LAX", "FRA", 4),
    ("DEN", "LHR", 3), ("DEN", "FRA", 2),
    # --- North Pacific (second densest; ~180 one-way/day) ---
    ("LAX", "NRT", 10), ("LAX", "HND", 6), ("LAX", "ICN", 8),
    ("LAX", "PVG", 6), ("LAX", "PEK", 4), ("LAX", "HKG", 5),
    ("LAX", "TPE", 5), ("SFO", "NRT", 7), ("SFO", "HND", 4),
    ("SFO", "ICN", 5), ("SFO", "PVG", 5), ("SFO", "PEK", 4),
    ("SFO", "HKG", 5), ("SFO", "TPE", 5), ("SEA", "NRT", 4),
    ("SEA", "ICN", 3), ("SEA", "PEK", 2), ("YVR", "NRT", 4),
    ("YVR", "ICN", 3), ("YVR", "PVG", 4), ("YVR", "HKG", 4),
    ("YVR", "TPE", 3), ("ORD", "NRT", 4), ("ORD", "ICN", 3),
    ("ORD", "PVG", 3), ("JFK", "NRT", 4), ("JFK", "ICN", 4),
    ("JFK", "HKG", 3), ("DFW", "NRT", 3), ("DFW", "ICN", 3),
    ("ANC", "NRT", 2), ("HNL", "NRT", 8), ("HNL", "HND", 5),
    ("HNL", "ICN", 3), ("HNL", "SYD", 2), ("HNL", "AKL", 1),
    ("LAX", "HNL", 12), ("SFO", "HNL", 10), ("SEA", "HNL", 5),
    # --- Transpacific south / Australia-Americas ---
    ("LAX", "SYD", 5), ("LAX", "MEL", 3), ("LAX", "BNE", 2),
    ("LAX", "AKL", 3), ("SFO", "SYD", 3), ("SFO", "AKL", 2),
    ("YVR", "SYD", 2), ("DFW", "SYD", 2), ("LAX", "PPT", 1),
    ("LAX", "NAN", 1), ("SCL", "SYD", 1), ("SCL", "AKL", 1),
    # --- Latin America - Europe (crosses the central Atlantic) ---
    ("GRU", "LIS", 5), ("GRU", "MAD", 4), ("GRU", "CDG", 4),
    ("GRU", "FRA", 3), ("GRU", "LHR", 3), ("GRU", "FCO", 3),
    ("GRU", "AMS", 2), ("GIG", "LIS", 3), ("GIG", "CDG", 2),
    ("GIG", "LHR", 2), ("EZE", "MAD", 4), ("EZE", "FCO", 2),
    ("EZE", "CDG", 2), ("EZE", "LHR", 2), ("SCL", "MAD", 2),
    ("SCL", "CDG", 1), ("LIM", "MAD", 2), ("BOG", "MAD", 3),
    ("BOG", "CDG", 1), ("CCS", "MAD", 1), ("REC", "LIS", 1),
    ("FOR", "LIS", 1), ("MVD", "MAD", 1),
    # --- South Atlantic proper (sparse! drives the Fig. 3 effect) ---
    ("GRU", "JNB", 2), ("GRU", "LAD", 1), ("GRU", "CPT", 1),
    ("EZE", "JNB", 1), ("GRU", "ADD", 1), ("GRU", "LOS", 1),
    # --- North America - Latin America (Caribbean / Gulf) ---
    ("MIA", "GRU", 5), ("MIA", "GIG", 3), ("MIA", "EZE", 3),
    ("MIA", "BOG", 6), ("MIA", "LIM", 4), ("MIA", "SCL", 3),
    ("MIA", "CCS", 2), ("MIA", "PTY", 6), ("JFK", "GRU", 3),
    ("JFK", "EZE", 2), ("JFK", "BOG", 3), ("ATL", "GRU", 2),
    ("ATL", "LIM", 2), ("IAH", "GRU", 2), ("LAX", "GRU", 1),
    ("ORD", "GRU", 1), ("YYZ", "GRU", 1), ("MEX", "GRU", 1),
    ("MEX", "EZE", 1), ("PTY", "GRU", 2), ("PTY", "EZE", 2),
    ("PTY", "SCL", 3), ("CUN", "MAD", 2),
    # --- Europe - Africa ---
    ("LHR", "JNB", 4), ("LHR", "CPT", 3), ("LHR", "NBO", 2),
    ("LHR", "LOS", 2), ("LHR", "ACC", 2), ("CDG", "JNB", 2),
    ("CDG", "DKR", 2), ("CDG", "ALG", 6),
    ("CDG", "CMN", 5), ("CDG", "TNR", 1), ("CDG", "NBO", 1),
    ("CDG", "LOS", 1), ("FRA", "JNB", 2), ("FRA", "CAI", 3),
    ("FRA", "ADD", 1), ("AMS", "JNB", 2), ("AMS", "CPT", 2),
    ("AMS", "NBO", 2), ("LIS", "LAD", 2), ("LIS", "CMN", 3),
    ("MAD", "CMN", 4), ("FCO", "CAI", 3), ("IST", "JNB", 2),
    ("IST", "CAI", 4), ("IST", "NBO", 2), ("IST", "ADD", 2),
    ("IST", "LOS", 1), ("CAI", "JNB", 1), ("ADD", "JNB", 2),
    ("NBO", "JNB", 4), ("ADD", "NBO", 3), ("JNB", "CPT", 20),
    ("JNB", "DUR", 14), ("JNB", "LAD", 2), ("JNB", "MRU", 2),
    ("JNB", "TNR", 1), ("NBO", "TNR", 1),
    # --- Europe - Middle East - Asia (mostly overland but included) ---
    ("LHR", "DXB", 10), ("LHR", "DOH", 6), ("LHR", "AUH", 4),
    ("LHR", "DEL", 4), ("LHR", "BOM", 3), ("LHR", "SIN", 4),
    ("LHR", "HKG", 6), ("LHR", "PEK", 3), ("LHR", "PVG", 3),
    ("LHR", "NRT", 3), ("LHR", "ICN", 2), ("LHR", "BKK", 2),
    ("CDG", "DXB", 5), ("CDG", "SIN", 3), ("CDG", "HKG", 3),
    ("CDG", "PVG", 3), ("CDG", "NRT", 3), ("CDG", "ICN", 2),
    ("CDG", "DEL", 2), ("CDG", "BOM", 2), ("FRA", "DXB", 5),
    ("FRA", "SIN", 3), ("FRA", "PEK", 3), ("FRA", "PVG", 3),
    ("FRA", "NRT", 2), ("FRA", "ICN", 2), ("FRA", "DEL", 2),
    ("FRA", "BOM", 2), ("AMS", "DXB", 3), ("AMS", "SIN", 2),
    ("AMS", "HKG", 2), ("IST", "DXB", 5), ("IST", "DEL", 2),
    ("IST", "SIN", 2), ("IST", "HKG", 2), ("SVO", "PEK", 3),
    ("SVO", "DXB", 3), ("SVO", "DEL", 2), ("HEL", "HKG", 2),
    ("HEL", "NRT", 2), ("HEL", "ICN", 1),
    # --- Middle East - Asia / Africa / Oceania (Indian Ocean) ---
    ("DXB", "DEL", 8), ("DXB", "BOM", 8), ("DXB", "KHI", 4),
    ("DXB", "SIN", 6), ("DXB", "HKG", 4), ("DXB", "BKK", 5),
    ("DXB", "CMB", 3), ("DXB", "JNB", 3), ("DXB", "NBO", 3),
    ("DXB", "ADD", 2), ("DXB", "CAI", 4), ("DXB", "SYD", 3),
    ("DXB", "MEL", 2), ("DXB", "PER", 2), ("DXB", "AKL", 1),
    ("DXB", "MRU", 2), ("DOH", "DEL", 5), ("DOH", "BOM", 4),
    ("DOH", "SIN", 4), ("DOH", "BKK", 4), ("DOH", "SYD", 2),
    ("DOH", "MEL", 2), ("DOH", "PER", 1), ("DOH", "NBO", 2),
    ("DOH", "JNB", 2), ("AUH", "SYD", 2), ("AUH", "DEL", 3),
    ("JED", "KUL", 2), ("JED", "CAI", 5),
    ("RUH", "CAI", 4), ("KWI", "BOM", 2), ("TLV", "JFK", 3),
    ("TLV", "CDG", 3), ("TLV", "LHR", 3), ("TLV", "BKK", 1),
    # --- Intra-Asia over-water corridors ---
    ("HKG", "NRT", 8), ("HKG", "ICN", 6), ("HKG", "TPE", 14),
    ("HKG", "SIN", 12), ("HKG", "BKK", 10), ("HKG", "MNL", 8),
    ("HKG", "SGN", 5), ("HKG", "KUL", 5), ("HKG", "CGK", 4),
    ("HKG", "SYD", 3), ("HKG", "MEL", 2), ("HKG", "PER", 1),
    ("SIN", "NRT", 6), ("SIN", "ICN", 4), ("SIN", "PVG", 5),
    ("SIN", "PEK", 3), ("SIN", "TPE", 4), ("SIN", "MNL", 6),
    ("SIN", "CGK", 18), ("SIN", "KUL", 20), ("SIN", "BKK", 12),
    ("SIN", "SGN", 8), ("SIN", "DPS", 6), ("SIN", "DEL", 4),
    ("SIN", "BOM", 4), ("SIN", "MAA", 4), ("SIN", "CMB", 2),
    ("SIN", "CCU", 2), ("SIN", "DAC", 2), ("SIN", "SYD", 5),
    ("SIN", "MEL", 4), ("SIN", "BNE", 2), ("SIN", "PER", 4),
    ("SIN", "AKL", 1), ("NRT", "ICN", 8), ("NRT", "TPE", 6),
    ("NRT", "PVG", 6), ("NRT", "PEK", 4), ("NRT", "MNL", 4),
    ("NRT", "BKK", 6), ("NRT", "SGN", 3), ("NRT", "SIN", 2),
    ("NRT", "SYD", 3), ("NRT", "POM", 1),
    ("HND", "ICN", 6), ("HND", "TPE", 5), ("HND", "PVG", 4),
    ("KIX", "ICN", 5), ("KIX", "TPE", 4), ("KIX", "PVG", 4),
    ("ICN", "TPE", 5), ("ICN", "PVG", 6), ("ICN", "PEK", 6),
    ("ICN", "MNL", 6), ("ICN", "BKK", 6), ("ICN", "SGN", 5),
    ("ICN", "SIN", 4), ("ICN", "SYD", 2), ("TPE", "MNL", 5),
    ("TPE", "BKK", 5), ("TPE", "SGN", 4), ("PVG", "TPE", 6),
    ("CAN", "SIN", 4), ("CAN", "BKK", 5), ("CAN", "MNL", 3),
    ("SZX", "SIN", 3), ("MNL", "BKK", 3), ("MNL", "CGK", 2),
    ("MNL", "SYD", 2), ("BKK", "CGK", 4), ("BKK", "KUL", 6),
    ("BKK", "DEL", 4), ("BKK", "BOM", 3), ("BKK", "CCU", 2),
    ("BKK", "DAC", 3), ("BKK", "CMB", 2), ("BKK", "SYD", 3),
    ("BKK", "MEL", 2), ("KUL", "CGK", 8), ("KUL", "BOM", 3),
    ("KUL", "MAA", 3), ("KUL", "CMB", 2), ("KUL", "DAC", 3),
    ("KUL", "SYD", 3), ("KUL", "MEL", 3), ("KUL", "PER", 3),
    ("KUL", "AKL", 1), ("CGK", "SYD", 2), ("CGK", "MEL", 2),
    ("CGK", "PER", 3), ("CGK", "DPS", 10), ("DPS", "SYD", 3),
    ("DPS", "MEL", 3), ("DPS", "PER", 4), ("CMB", "BOM", 2), ("CMB", "DEL", 2), ("CMB", "MAA", 4),
    ("DAC", "CCU", 3), ("DAC", "DEL", 2), # --- Oceania internal / trans-Tasman ---
    ("SYD", "AKL", 10), ("SYD", "CHC", 4),
    ("MEL", "AKL", 6), ("BNE", "AKL", 4), ("SYD", "NAN", 2), ("BNE", "POM", 3), ("AKL", "NAN", 2),
    ("AKL", "PPT", 1), ("AKL", "HNL", 1),
    # --- Polar / trans-Arctic (token presence) ---
    ("EWR", "HKG", 2), ("JFK", "PEK", 2), ("YYZ", "PEK", 2),
    ("YVR", "DEL", 1), ("SFO", "DEL", 2), ("ORD", "DEL", 1),
    ("JFK", "DEL", 2), ("IAD", "ADD", 1), ("JFK", "JNB", 2),
    ("ATL", "JNB", 1), ("JFK", "ACC", 1), ("IAD", "DKR", 1),
]
