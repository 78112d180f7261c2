import importlib

import ballcopulas

MODULES = ("copulas", "errors", "oracle", "special_math")

PUBLIC_NAMES = {
    "BallCopulasError", "CheckResult", "CircularCopula", "CopulaModel",
    "DimensionError", "DomainError", "EllipticalCopula",
    "KS_CRITICAL_COEFF", "MCEstimate", "NonlinearDiskCopula",
    "NotAbsolutelyContinuousError", "OracleInconsistencyError", "PreconditionError",
    "QuadratureError", "RNG_ALGORITHM", "Rectangle", "SampleBatch",
    "SphericalCopula", "VerificationReport", "VerifyConfig", "alpha", "alpha_gamma",
    "cap_intersection_area", "cdf_volume", "circular_cdf", "circular_pdf",
    "circular_survival", "delta3", "ellipse_intersection_area", "elliptical_cdf",
    "elliptical_pdf", "evaluate", "h_identity", "integrate_adaptive", "ks_uniform",
    "mc_cdf", "model_from_name", "moment_check", "nonlinear_cdf", "nonlinear_forward",
    "nonlinear_inverse", "nonlinear_pdf", "quad_mass_2d", "quad_survival_circular",
    "quad_survival_spherical", "sigma", "spherical_cdf", "spherical_survival",
    "verify_suite",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 49
    assert len(ballcopulas.__all__) == 49
    assert set(ballcopulas.__all__) == PUBLIC_NAMES


def test_each_public_name_is_its_defining_module_object():
    # The package re-exports each module's own object, not a copy or a
    # wrapper; a module that imports a public name binds the same object.
    bound = set()
    for short in MODULES:
        module = importlib.import_module(f"ballcopulas.{short}")
        for name in PUBLIC_NAMES & vars(module).keys():
            assert getattr(ballcopulas, name) is getattr(module, name), (short, name)
            bound.add(name)
    assert bound == PUBLIC_NAMES


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from ballcopulas import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC_NAMES
