"""pbwkit: exact-arithmetic PBW-deformation checking for finitely
presented connected graded algebras over Q or F_p.

The decision pipeline extracts the top-part relations R_P of a filtered
deformation P, minimizes them to a bimodule of relations, bounds the
number of Jacobi conditions by the homological complexity of the
associated graded algebra, and reads every Jacobi verdict, with its
witness, from the annihilator of the central variable in the extension
T[z]/<P*>.
"""

from importlib import resources

from .deformation import (CheckResult, FilteredSubspace, JacobiLadder,
                          apply_alpha, lift_presentation, minimize_relations,
                          pbw_check, pn_ladder, rp_of)
from .errors import PBWError
from .extension import ExtensionEngine, engine_for
from .freealg import Element, format_element, multiply, parse_element, project
from .gradedring import GradedSubspace, PresentedRing
from .homology import TorTable, complexity, tor3_resolution, tor_bar
from .linalg import QQ, PrimeField
from .presentations import Presentation, Report, parse_presentation

__version__ = "0.1.0"


def gallery_path(name):
    """Filesystem path of a bundled gallery presentation, e.g.
    gallery_path("heisenberg.pbw")."""
    return resources.files(__name__).joinpath("gallery", name)


def gallery_names():
    root = resources.files(__name__).joinpath("gallery")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".pbw"))
