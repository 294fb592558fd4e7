"""Biphoton generation in periodically poled crystals under pulsed pumping.

Predicts quasi-phase-matching efficiency profiles (Maker fringes), designs
poling periods, propagates spatially modulated pump beams, and computes
transverse coincidence-count scans by both the near-collinear pump-transfer
law and a joint-amplitude transport oracle.
"""
from .biphoton import (JointAmplitude, ScanResult, build_joint_amplitude,
                       coincidence_scan_analytic, coincidence_scan_oracle,
                       normalized_cross_correlation, spectral_envelope)
from .config import (DispersionConfig, NumericsConfig, ScenarioConfig,
                     load_scenario, parse_scenario_text, scenario_to_text)
from .core import (AXES, VACUUM_LIGHT_SPEED, CrystalSpec, DetectionGeometry,
                   FrequencyPair, PumpSpec, angular_frequency,
                   gamma_from_pulse_width, sinc, vacuum_wavelength)
from .dispersion import (ConstantIndexModel, IndexModel, KtpIndexModel,
                         TabulatedIndexModel, group_index)
from .errors import (ConfigError, GridCompatibilityError, GridSizeError,
                     GuardError, ParaxialityError, PhaseMatchingError,
                     SamplingGuardError, SimulationError, ValidationError,
                     WavelengthWindowError)
from .fields import (AngularSpectrum, MultiSlitAperture, SampledField,
                     ThinLens, apply_element, gaussian_source,
                     march_to_crystal_exit, propagate, to_angular_spectrum,
                     to_sampled_field)
from .phasematch import (QpmGrating, design_poling_period, delta_kz_paraxial,
                         detector_angle, efficiency_drop_over_scan,
                         first_maker_zero, fourier_coefficient,
                         grating_vector, maker_efficiency, mismatch_a)

__version__ = "0.1.0"
