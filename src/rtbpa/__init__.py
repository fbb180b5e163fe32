"""Multipath microwave imaging: geometrical-optics ray engines paired with a
polarization-aware back-projection adjoint and synthetic forward models."""

from .errors import (EmptyImage, EmptyInput, NonPlanarReflector,
                     ScenarioError, ShapeMismatch, Singular, UnknownReference,
                     UnresolvedLobe)
from .geometry import Facet, Hit, Scene, intersect
from .propagation import ImagePathTable, SbrConfig
from .fields import (AntennaArray, DipoleSource, FrequencySweep,
                     MeasurementSet, PointScatterer, add_noise, dipole_field,
                     image_dipole, synthesize_radiation_data,
                     synthesize_scattering_data)
from .imaging import (ImageGrid, PsfMetrics, ReconstructionConfig,
                      adjoint_pair_check, image_entropy, naive_bpa,
                      peak_locations, psf_metrics, rt_bpa)
from .scenes import (SCENARIOS, Scenario, get_scenario, load_scenario,
                     save_scenario, scenario_parallel_plates,
                     scenario_three_spheres, scenario_tum_logo)

__version__ = "0.1.0"

__all__ = [
    "AntennaArray", "DipoleSource", "EmptyImage", "EmptyInput", "Facet",
    "FrequencySweep", "Hit", "ImageGrid", "ImagePathTable", "MeasurementSet",
    "NonPlanarReflector", "PointScatterer", "PsfMetrics",
    "ReconstructionConfig", "SCENARIOS", "SbrConfig", "Scenario",
    "ScenarioError", "Scene", "ShapeMismatch", "Singular", "UnknownReference",
    "UnresolvedLobe", "add_noise", "adjoint_pair_check", "dipole_field",
    "get_scenario", "image_dipole", "image_entropy", "intersect",
    "load_scenario", "naive_bpa", "peak_locations", "psf_metrics", "rt_bpa",
    "save_scenario", "scenario_parallel_plates", "scenario_three_spheres",
    "scenario_tum_logo", "synthesize_radiation_data",
    "synthesize_scattering_data",
]
