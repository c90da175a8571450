"""qmeaslab: exact desk-scale simulation of spin-chain measurement models,
superselection-restricted observers, and radiation decoherence.

The package verifies operator identities and the operational pure/mixed
indistinguishability claims of those models with dense brute-force oracles
at small dimension and direct amplitude-array kernels elsewhere.
"""

from .hilbert import (BranchDecomposition, DensityMatrix, HilbertLayout,
                      StateVector, Subsystem, basis_state, build_premeasurement,
                      canonical_split, mixture_of, partial_trace, qubit_state,
                      tensor)
from .pauli import (PauliString, PauliSum, all_strings, apply, apply_sum,
                    commutator, expectation, expectation_mixed, format_sum,
                    multiply, parse_sum, string_matrix, sum_matrix)
from .chain import (ChainModel, StrictMeasurementReport, closed_form_final,
                    eigenstate_residual, final_branches, full_passage,
                    heisenberg_hamiltonian, initial_state, it_commutator_audit,
                    it_operator, passage_step, pointer_operator, strict_check)
from .sectors import (DiscriminationVerdict, ObservableSet, Projector,
                      SectorDecomposition, chain_observable_preset,
                      discriminate, joint_sectors, restricted_algebra,
                      sector_decohere, structure_residual)
from .cascade import (BranchConnector, CascadeModel, build_B2_flip_sum,
                      b_eigenbranches, information_tradeoff, joint_it_operator,
                      run_cascade, second_chain_measure, unmeasured_it_exists)
from .radiation import (RadiationModel, add_uncorrelated_mode, build_final_state,
                        check_c22, check_no_vacuum_interference,
                        glauber_generators, number_op, quadrature_op,
                        vacuum_pattern_connector, with_vacuum_connector)
from .scenarios import RunReport, ScenarioConfig, emit, parse_config, run

__version__ = "0.1.0"
