"""The package namespace is pinned: the public API may shrink or stay the
same size, and any change to it has to edit this list."""

import types

import qmeaslab

PUBLIC_NAMES = (
    "BranchConnector", "BranchDecomposition", "CascadeModel", "ChainModel",
    "DensityMatrix", "DiscriminationVerdict", "HilbertLayout", "ObservableSet",
    "PauliString", "PauliSum", "Projector", "RadiationModel", "RunReport",
    "ScenarioConfig", "SectorDecomposition", "StateVector",
    "StrictMeasurementReport", "Subsystem", "add_uncorrelated_mode",
    "all_strings", "apply", "apply_sum", "b_eigenbranches", "basis_state",
    "build_B2_flip_sum", "build_final_state", "build_premeasurement",
    "canonical_split", "chain_observable_preset", "check_c22",
    "check_no_vacuum_interference", "closed_form_final", "commutator",
    "discriminate", "eigenstate_residual", "emit", "expectation",
    "expectation_mixed", "final_branches", "format_sum", "full_passage",
    "glauber_generators", "heisenberg_hamiltonian", "information_tradeoff",
    "initial_state", "it_commutator_audit", "it_operator", "joint_it_operator",
    "joint_sectors", "mixture_of", "multiply", "number_op", "parse_config",
    "parse_sum", "partial_trace", "passage_step", "pointer_operator",
    "quadrature_op", "qubit_state", "restricted_algebra",
    "run", "run_cascade", "second_chain_measure", "sector_decohere",
    "strict_check", "string_matrix", "structure_residual", "sum_matrix",
    "tensor", "unmeasured_it_exists", "vacuum_pattern_connector",
    "with_vacuum_connector",
)


def test_public_names_are_pinned():
    public = {name for name, value in vars(qmeaslab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 72
    assert public == set(PUBLIC_NAMES)
