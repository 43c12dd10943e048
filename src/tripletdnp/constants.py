"""Physical constants.

Gyromagnetic ratios are linear frequencies (gamma / 2 pi), so Hamiltonians
and transition frequencies in this package carry plain frequency units
(MHz) rather than angular ones.
"""

# gamma_e / 2pi for an isotropic, free-electron-like g factor, MHz/T
GAMMA_E_MHZ_PER_T = 28024.9

# gamma(1H) / 2pi, MHz/T
GAMMA_H_MHZ_PER_T = 42.577

PLANCK_J_S = 6.62607015e-34
BOLTZMANN_J_PER_K = 1.380649e-23

SECONDS_PER_MINUTE = 60.0
