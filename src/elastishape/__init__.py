"""Elastic shape analysis of spherically parameterized closed surfaces.

Surfaces are sampled on azimuth/polar grids, compared through a
square-root normal field transform whose L2 metric is invariant to
reparameterization, and registered over rotations and sphere
diffeomorphisms.  On top of the registration sit mean shapes, principal
component models, score regressions, and a vertex-wise baseline
pipeline for comparison.

Importing the package loads none of its submodules, so a command
process loads only the modules its command runs (see `cli`).  The
first access to a public name or a submodule name (PEP 562) imports
every submodule of `_PUBLIC` and binds all of its names at once.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names the package binds from it.  All but the
# file-format names make up `__all__`.
_PUBLIC = {
    "errors": ("ConfigError", "InputError", "NumericalError", "OrientationError",
               "ParseError", "RankDeficiencyError", "ZeroAreaError"),
    "grids": ("SphericalGrid", "Surface", "make_grid", "normal_field", "normalize",
              "surface_area"),
    "srnf": ("SrnfField", "inner", "norm", "srnf", "srnf_action"),
    "diffeos": ("Diffeo", "identity_diffeo", "jacobian_det", "pullback", "random_diffeo"),
    "sphharm": (),
    "registration": ("RegistrationOpts", "RegistrationResult", "optimal_rotation",
                     "optimize_reparam", "register"),
    "shape_stats": ("KarcherResult", "ShapeModel", "cumulative_variance", "diff_field",
                    "karcher_mean", "pc_path", "pc_scores", "reconstruct", "register_cohort",
                    "shape_pca"),
    "regression": ("CovariateTable", "ModelSpec", "RegressionFit", "StepwiseResult",
                   "design_matrix", "ols_fit", "run_model_suite",
                   "stepwise_bidirectional"),
    "baseline": ("IcpResult", "MdsResult", "class_distances", "classical_mds",
                 "icp_register", "knn_accuracy"),
    "fileio": ("export_obj", "load_model", "load_surface", "save_model", "save_surface"),
    "synthetic": ("CohortSpec", "gen_regression_cohort", "gen_surface",
                  "shape_line_cohort"),
}

__all__ = ["__version__", *(name for module, names in _PUBLIC.items()
                            if module != "fileio" for name in names)]

_LAZY = {*_PUBLIC, *(name for names in _PUBLIC.values() for name in names)}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module, names in _PUBLIC.items():
        mod = importlib.import_module(f".{module}", __name__)
        namespace.update((n, getattr(mod, n)) for n in names)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *_LAZY})
