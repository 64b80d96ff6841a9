"""Constants quoted in the paper's simulation section (Section 6).

Every experiment pulls its parameter values and reference matrices from this
module so that the correspondence between the code and the paper is recorded
in exactly one place.
"""

from __future__ import annotations

import numpy as np

from ..channels.scenario import DopplerSettings, MIMOArrayScenario, OFDMScenario

__all__ = [
    "N_BRANCHES",
    "IDFT_POINTS",
    "INPUT_VARIANCE_PER_DIM",
    "SAMPLING_FREQUENCY_HZ",
    "MAX_DOPPLER_HZ",
    "NORMALIZED_DOPPLER",
    "KM_EXPECTED",
    "CARRIER_FREQUENCY_HZ",
    "FREQUENCY_SEPARATION_HZ",
    "RMS_DELAY_SPREAD_S",
    "ARRIVAL_DELAYS_S",
    "ANTENNA_SPACING_WAVELENGTHS",
    "ANGULAR_SPREAD_RAD",
    "MEAN_ANGLE_RAD",
    "PLOTTED_SAMPLES",
    "EQ22_COVARIANCE",
    "EQ23_COVARIANCE",
    "paper_doppler_settings",
    "paper_ofdm_scenario",
    "paper_mimo_scenario",
]

#: Number of correlated envelopes in both simulation scenarios.
N_BRANCHES = 3

#: Number of IDFT points (Section 6: "M = 4096").
IDFT_POINTS = 4096

#: Variance per dimension of the Doppler-filter input sequences ("sigma_orig^2 = 1/2").
INPUT_VARIANCE_PER_DIM = 0.5

#: Sampling frequency of the transmitted signal ("Fs = 1 kHz").
SAMPLING_FREQUENCY_HZ = 1_000.0

#: Maximum Doppler frequency ("Fm = 50 Hz", i.e. 900 MHz carrier at 60 km/h).
MAX_DOPPLER_HZ = 50.0

#: Normalized maximum Doppler frequency ("fm = 0.05").
NORMALIZED_DOPPLER = MAX_DOPPLER_HZ / SAMPLING_FREQUENCY_HZ

#: The paper's value of k_m = floor(fm * M) ("km = 204").
KM_EXPECTED = 204

#: Carrier frequency used to motivate Fm ("900 MHz").
CARRIER_FREQUENCY_HZ = 900e6

#: Frequency separation between adjacent carriers ("200 kHz, e.g. GSM 900").
FREQUENCY_SEPARATION_HZ = 200e3

#: RMS delay spread of the channel ("sigma_tau = 1 microsecond").
RMS_DELAY_SPREAD_S = 1e-6

#: Pairwise arrival delays ("tau_12 = 1 ms, tau_23 = 3 ms, tau_13 = 4 ms").
ARRIVAL_DELAYS_S = np.array(
    [
        [0.0, 1e-3, 4e-3],
        [1e-3, 0.0, 3e-3],
        [4e-3, 3e-3, 0.0],
    ]
)

#: Antenna spacing for the spatial scenario ("D / lambda = 1").
ANTENNA_SPACING_WAVELENGTHS = 1.0

#: Angular spread ("Delta = pi/18 rad = 10 degrees").
ANGULAR_SPREAD_RAD = np.pi / 18.0

#: Mean angle of departure ("Phi = 0 rad").
MEAN_ANGLE_RAD = 0.0

#: Number of samples plotted in Fig. 4 (x-axis runs to 200).
PLOTTED_SAMPLES = 200

#: Eq. (22): the desired covariance matrix of the spectral-correlation scenario.
EQ22_COVARIANCE = np.array(
    [
        [1.0 + 0.0j, 0.3782 + 0.4753j, 0.0878 + 0.2207j],
        [0.3782 - 0.4753j, 1.0 + 0.0j, 0.3063 + 0.3849j],
        [0.0878 - 0.2207j, 0.3063 - 0.3849j, 1.0 + 0.0j],
    ]
)

#: Eq. (23): the desired covariance matrix of the spatial-correlation scenario.
EQ23_COVARIANCE = np.array(
    [
        [1.0, 0.8123, 0.3730],
        [0.8123, 1.0, 0.8123],
        [0.3730, 0.8123, 1.0],
    ],
    dtype=complex,
)


def paper_doppler_settings(n_points: int = IDFT_POINTS) -> DopplerSettings:
    """The Doppler settings of Section 6 (Fs = 1 kHz, Fm = 50 Hz, M = 4096)."""
    return DopplerSettings(
        sampling_frequency_hz=SAMPLING_FREQUENCY_HZ,
        max_doppler_hz=MAX_DOPPLER_HZ,
        n_points=n_points,
        input_variance_per_dim=INPUT_VARIANCE_PER_DIM,
    )


def paper_ofdm_scenario(n_points: int = IDFT_POINTS) -> OFDMScenario:
    """The spectral-correlation scenario of Section 6 (leads to Eq. 22).

    Carrier frequencies are 200 kHz apart with ``f1 > f2 > f3``; the absolute
    carrier (900 MHz band) only matters through the Doppler frequency, which
    the paper fixes directly at 50 Hz.
    """
    frequencies = CARRIER_FREQUENCY_HZ + FREQUENCY_SEPARATION_HZ * np.array([2.0, 1.0, 0.0])
    return OFDMScenario(
        carrier_frequencies_hz=frequencies,
        delays_s=ARRIVAL_DELAYS_S,
        rms_delay_spread_s=RMS_DELAY_SPREAD_S,
        doppler=paper_doppler_settings(n_points),
    )


def paper_mimo_scenario(n_points: int = IDFT_POINTS) -> MIMOArrayScenario:
    """The spatial-correlation scenario of Section 6 (leads to Eq. 23)."""
    return MIMOArrayScenario(
        n_antennas=N_BRANCHES,
        spacing_wavelengths=ANTENNA_SPACING_WAVELENGTHS,
        mean_angle_rad=MEAN_ANGLE_RAD,
        angular_spread_rad=ANGULAR_SPREAD_RAD,
        doppler=paper_doppler_settings(n_points),
    )
