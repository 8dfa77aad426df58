"""Certified optimal spacing, transform-positivity certificates and
clustered ground-state simulation for the inverse-power-plus-one
repulsive potential family."""

__version__ = "0.1.0"

from .interval import DomainError, Interval
from .potential import (
    AmbiguousSignChangeError,
    LatticeEnergyTerms,
    PotentialContext,
    solve_s_alpha,
)

__all__ = [
    "__version__",
    "DomainError",
    "Interval",
    "AmbiguousSignChangeError",
    "LatticeEnergyTerms",
    "PotentialContext",
    "solve_s_alpha",
]


def json_text(obj, **kwargs) -> str:
    """obj as strict JSON text, every NaN or infinite float written as null.

    An enclosure endpoint can overflow to +-inf, which json.dumps would
    write as the non-standard token Infinity.
    """
    # imported here, not with the package: that raised the peak memory of
    # importing repulse.cli by about 0.1 MB
    import json
    import math

    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return x

    return json.dumps(finite(obj), allow_nan=False, **kwargs)
