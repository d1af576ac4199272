"""Pseudospectral geodesic-flow solvers on the circle.

Simulates the periodic Camassa-Holm (CH) and Degasperis-Procesi (DP)
equations and their two-component extensions (2CH, 2DP) as geodesic flows
on the semidirect product of the circle diffeomorphism group with a
function space, and evaluates the sectional curvature of the 2CH metric
against closed-form values.

`import chdp` loads no submodule.  Each top-level name (`chdp.evolve`,
`chdp.Grid`, ...) is its defining module's own object, looked up in that
module on each access (PEP 562), so the module loads on first use.
"""

import importlib

__version__ = "0.1.0"

# Each top-level name -> the submodule that defines it.
_HOMES = {
    "Grid": "spectral",
    "PeriodicField": "spectral",
    "Diffeo": "spectral",
    "Model": "connection",
    "VelocityPair": "connection",
    "GroupElement": "flowmap",
    "CosineDirectionPair": "curvature",
    "EvolutionConfig": "evolution",
    "RigidBodyState": "rigidbody",
    "derivative": "spectral",
    "helmholtz": "spectral",
    "helmholtz_inverse": "spectral",
    "inner_l2": "spectral",
    "inner_h1": "spectral",
    "compose": "spectral",
    "invert_diffeo": "spectral",
    "christoffel": "connection",
    "metric": "connection",
    "evolve": "evolution",
    "evolve_flowmap": "flowmap",
    "unnormalized_curvature": "curvature",
    "sectional_curvature": "curvature",
    "positivity_scan": "curvature",
    "evolve_rigidbody": "rigidbody",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
