"""Joint cache placement and similarity-based delivery optimization."""

__version__ = "0.1.0"

from .cost import PrimalState  # noqa: F401
from .model import (Catalog, Network, Path, Request, Scenario,  # noqa: F401
                    position_in_path, validate_scenario)
from .scenario import GenConfig, generate_scenario, load_scenario, save_scenario  # noqa: F401
