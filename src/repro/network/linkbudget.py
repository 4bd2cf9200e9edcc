"""Radio link budgets for GT-satellite links.

The paper deliberately excludes free-space path loss from its weather
analysis ("reflecting the assumption that the link design accounts for
that"). This module supplies that link design: a parameterized Ku-band
budget computing the received Es/N0 for a GT-satellite link as a
function of slant range, so that

* the MODCOD module's clear-sky operating point is *derived* rather
  than assumed, and
* low-elevation links (longer slant range, more atmosphere) correctly
  show less fade margin than zenith links.

Numbers are representative of published Starlink-generation user-terminal
budgets, not any specific filing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import SPEED_OF_LIGHT

__all__ = ["LinkBudget", "DEFAULT_DOWNLINK_BUDGET", "free_space_path_loss_db"]

#: Boltzmann constant in dBW/(K Hz).
_BOLTZMANN_DBW = -228.6


def free_space_path_loss_db(distance_m, freq_ghz: float) -> np.ndarray:
    """Free-space path loss, dB (vectorized over distance)."""
    if freq_ghz <= 0:
        raise ValueError("frequency must be positive")
    distance = np.asarray(distance_m, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("distance must be positive")
    wavelength = SPEED_OF_LIGHT / (freq_ghz * 1e9)
    return 20.0 * np.log10(4.0 * np.pi * distance / wavelength)


@dataclass(frozen=True)
class LinkBudget:
    """A one-direction radio link budget.

    ``eirp_dbw``
        Transmit EIRP (power + antenna gain), dBW.
    ``g_over_t_dbk``
        Receive figure of merit G/T, dB/K.
    ``bandwidth_hz``
        Occupied bandwidth (sets the noise floor and the bit rate via
        spectral efficiency).
    ``freq_ghz``
        Carrier frequency (sets FSPL).
    ``implementation_loss_db``
        Pointing, polarization and implementation margins.
    """

    eirp_dbw: float
    g_over_t_dbk: float
    bandwidth_hz: float
    freq_ghz: float
    implementation_loss_db: float = 1.5

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.freq_ghz <= 0:
            raise ValueError("frequency must be positive")

    def esn0_db(self, distance_m, extra_attenuation_db=0.0) -> np.ndarray:
        """Received Es/N0, dB, at slant range ``distance_m``.

        ``extra_attenuation_db`` adds atmospheric attenuation (rain,
        cloud, gas, scintillation) on top of free-space loss.
        """
        fspl = free_space_path_loss_db(distance_m, self.freq_ghz)
        return (
            self.eirp_dbw
            + self.g_over_t_dbk
            - fspl
            - np.asarray(extra_attenuation_db, dtype=float)
            - self.implementation_loss_db
            - _BOLTZMANN_DBW
            - 10.0 * np.log10(self.bandwidth_hz)
        )

    def capacity_bps(self, distance_m, extra_attenuation_db=0.0) -> np.ndarray:
        """Achievable bit rate through the DVB-S2X MODCOD ladder, bits/s."""
        from repro.network.modcod import spectral_efficiency

        esn0 = self.esn0_db(distance_m, extra_attenuation_db)
        return spectral_efficiency(esn0) * self.bandwidth_hz


#: Representative Ku-band down-link budget (satellite -> user terminal):
#: ~37 dBW EIRP per beam, 12 dB/K terminal G/T, 240 MHz channel. At the
#: 550 km zenith range this closes 16APSK-9/10 with a few dB to spare;
#: at the 25-degree-elevation edge (~1,120 km) the margin shrinks by
#: ~6 dB — the elevation dependence the flat MODCOD model misses.
DEFAULT_DOWNLINK_BUDGET = LinkBudget(
    eirp_dbw=37.0,
    g_over_t_dbk=12.0,
    bandwidth_hz=240e6,
    freq_ghz=11.7,
)
