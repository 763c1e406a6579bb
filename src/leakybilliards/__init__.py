"""Dispersing billiards on the unit torus with holes, plus a tower toolkit.

Subpackages are organized by pipeline stage: geometry (scatterer tables,
horizon certification), billiard_map (the collision map and its
derivative), holes (leak specifications and membership), open_dynamics
(survival bookkeeping), measures (densities, histograms, distances),
escape (rate estimators and sweeps), tower (expanding towers with Markov
holes and their transfer operator), cli (batch entry points).  cli is
imported on demand (``from leakybilliards import cli``) so that
``python -m leakybilliards.cli`` runs it once, as ``__main__``.
"""

from . import (
    billiard_map,
    escape,
    geometry,
    holes,
    measures,
    open_dynamics,
    tower,
)
from .errors import LeakyBilliardsError

__all__ = [
    "LeakyBilliardsError",
    "billiard_map",
    "escape",
    "geometry",
    "holes",
    "measures",
    "open_dynamics",
    "tower",
]

__version__ = "0.1.0"
