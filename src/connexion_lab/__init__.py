"""connexion-lab: exact local connection germs, model metrics, L² lab."""

from .errors import ConnexionLabError, ParseError
from .formal import (formal_decompose, irregularity, newton_polygon,
                     residue_normal_form)
from .model import (ConnectionGerm, ElementaryModel, RegularBlockData,
                    assemble_matrix, descends_to_base, germ_or_model_from_dict,
                    model_to_dict, ramified_pullback, sigma_pullback,
                    twist_by_exponential)
from .series import CQ, PuiseuxSeries, ps_from_literal, ps_to_literal
from .sl2 import Sl2Triple, adapted_metric_frame, jm_triple, triple_for_partition

__version__ = "0.1.0"

__all__ = [
    "CQ", "PuiseuxSeries", "ps_from_literal", "ps_to_literal",
    "ConnectionGerm", "ElementaryModel", "RegularBlockData",
    "assemble_matrix", "ramified_pullback", "twist_by_exponential",
    "sigma_pullback", "descends_to_base",
    "germ_or_model_from_dict", "model_to_dict",
    "newton_polygon", "irregularity", "residue_normal_form",
    "formal_decompose",
    "Sl2Triple", "jm_triple", "triple_for_partition", "adapted_metric_frame",
    "ConnexionLabError", "ParseError",
    "__version__",
]
