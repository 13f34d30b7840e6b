"""Theta functions, hyperelliptic period matrices, kernel functions and
an exact jet calculus for opers and matrix opers."""

from .curves import (HyperellipticCurve, SurfacePoint, build_curve,
                     curve_from_spec, lattice_coordinates)
from .errors import ThetaKernelsError
from .kernels import (KernelValue, KleinCoordinates, bergman_a_period,
                      bergman_kernel, finiteness_probe, find_theta_zero,
                      gauss_limit_check, is_on_theta, klein_coordinates,
                      klein_kernel, prime_form, select_odd_characteristic,
                      szego_kernel, wirtinger_connection)
from .theta import (Characteristic, RiemannMatrix, ScaledComplex,
                    log_theta_hessian, second_order_theta_basis, theta_value)

__all__ = [
    "Characteristic",
    "HyperellipticCurve",
    "KernelValue",
    "KleinCoordinates",
    "RiemannMatrix",
    "ScaledComplex",
    "SurfacePoint",
    "ThetaKernelsError",
    "bergman_a_period",
    "bergman_kernel",
    "build_curve",
    "curve_from_spec",
    "find_theta_zero",
    "finiteness_probe",
    "gauss_limit_check",
    "is_on_theta",
    "klein_coordinates",
    "klein_kernel",
    "lattice_coordinates",
    "log_theta_hessian",
    "prime_form",
    "second_order_theta_basis",
    "select_odd_characteristic",
    "szego_kernel",
    "theta_value",
    "wirtinger_connection",
]

__version__ = "0.1.0"
