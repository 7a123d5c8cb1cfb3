"""Exact-diagonalization dynamics of the two-mode Bose-Hubbard dimer.

Two single-mode Bose-Einstein condensates coupled by Josephson tunneling,
at fixed total boson number N, solved by full diagonalization of the
(N+1)-dimensional tridiagonal Hamiltonian. The package tracks the relative
particle number (imbalance), its variance and the two-mode entanglement
entropy along exact trajectories, classifies coupling regimes, and detects
collapse/revival of the imbalance oscillation.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    CollapseRevivalReport,
    Phase,
    Regime,
    RegimeReport,
    classify,
    collapse_revival_time,
    delta_mu_dominance,
    envelope,
    time_averaged_imbalance,
)
from .files import read_series
from .model import (
    CouplingConfig,
    TridiagonalHamiltonian,
    build_hamiltonian,
    imbalance_diagonal,
)
from .observables import (
    ObservableSeries,
    compute_series,
    entanglement_entropy,
    expectation_imbalance,
    variance_imbalance,
)
from .pipeline import ScenarioSpec, run_scenario, sweep
from .presets import PRESETS
from .spectral import (
    ConvergenceError,
    SpectralDecomposition,
    StateVector,
    eigendecompose,
    evolve,
    evolve_series,
)
from .states import cat, fock, maximally_entangled, parse_state

__version__ = "0.1.0"

# Every name imported above; importing a submodule also binds its name here.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
