"""Energy-conserving staggered-grid finite differences for the first-order
acoustic wave system on block-wise uniform grids with nonconforming
interfaces."""

__version__ = "0.1.0"

from .assembly import (SatCoefficients, SemiDiscreteSystem,
                       assemble_1d_boundary_system, assemble_1d_interface_system,
                       assemble_2d_block, assemble_interface_system,
                       assemble_single_block_system, free_surface_velocity_sats,
                       interface_sat_terms)
from .errors import (ConfigError, DomainError, FormatError,
                     InfeasibleStencilError, MisalignmentError,
                     OutOfCoverageError, SizeError, StagwaveError,
                     UnsupportedRatioError, VerificationFailure)
from .grids import (BlockLayout, StaggeredBlock2D, StaggeredGrid1D,
                    build_block_2d, build_grid_1d, build_layout)
from .leapfrog import (ReceiverSpec, SimState, SourceSpec, TimeGrid, find_cfl,
                       ricker, run, step_backward, step_forward)
from .media import (ConstantMedium, CoefficientDiagonals, GriddedMedium,
                    TwoLayerMedium, VerticalLinearMedium, load_gridded_model,
                    sample_coefficients)
from .sbp1d import (PeriodicOperatorSet1D, SbpOperatorSet1D, build_periodic_1d,
                    build_sbp_1d, verify_sbp_structure)
from .transfer import (ElementalStencilPair, TransferPair, certify_pair,
                       derive_elemental_pair, tabulated_elemental_pair,
                       tile_periodic, transfer_pair_for)

__all__ = [name for name in dir() if not name.startswith("_")]
