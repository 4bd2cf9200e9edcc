"""Atmospheric attenuation substrate (from-scratch ITU-style models)."""

from repro.atmosphere.attenuation import (
    LinkWeather,
    attenuation_to_power_fraction,
    edge_weather_capacity_factors,
    path_link_attenuations_db,
    paths_worst_link_attenuation_db,
    total_attenuation_db,
)
from repro.atmosphere.climate import (
    columnar_cloud_liquid_kgm2,
    rain_height_km,
    rain_rate_001_mmh,
    surface_temperature_k,
    water_vapour_density_gm3,
    wet_term_nwet,
)
from repro.atmosphere.itu_cloud import cloud_attenuation_db, cloud_mass_absorption_dbkg
from repro.atmosphere.itu_gas import gaseous_attenuation_db
from repro.atmosphere.itu_rain import (
    rain_attenuation_db,
    rain_specific_attenuation_dbkm,
    specific_attenuation_coefficients,
)
from repro.atmosphere.itu_scintillation import scintillation_fade_db

__all__ = [
    "total_attenuation_db",
    "attenuation_to_power_fraction",
    "LinkWeather",
    "path_link_attenuations_db",
    "paths_worst_link_attenuation_db",
    "edge_weather_capacity_factors",
    "rain_rate_001_mmh",
    "rain_height_km",
    "columnar_cloud_liquid_kgm2",
    "water_vapour_density_gm3",
    "surface_temperature_k",
    "wet_term_nwet",
    "rain_attenuation_db",
    "rain_specific_attenuation_dbkm",
    "specific_attenuation_coefficients",
    "cloud_attenuation_db",
    "cloud_mass_absorption_dbkg",
    "gaseous_attenuation_db",
    "scintillation_fade_db",
]
