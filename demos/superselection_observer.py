"""Superselection sectors and the operational collapse verdict.

An observer whose structure must survive the measurement can only apply
observables that preserve the pointer sectors.  This script enumerates
every Pauli string on the particle + chain at small N, splits them into
sector-preserving and sector-breaking families, and shows that the
preserving family cannot tell the entangled pure state from its branch
mixture, while admitting B immediately can.

Run:  python demos/superselection_observer.py
"""

import numpy as np

from qmeaslab import (ChainModel, chain_observable_preset, discriminate,
                      final_branches, full_passage, joint_sectors, mixture_of,
                      pointer_operator, sector_decohere, structure_residual)
from qmeaslab.pauli import PauliString, PauliSum, all_strings

N = 3
A1, A2 = np.sqrt(0.7), np.sqrt(0.3)

model = ChainModel(N, A1, A2)
psi = full_passage(model)
rho_pure = psi.to_density()
branches = final_branches(model)
rho_mixed = mixture_of(branches)

z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
sectors = joint_sectors([z0, pointer_operator(N)], model.layout)
print(f"joint (sigma0_z, mu_z) sectors at N={N}: "
      f"{len(sectors.projectors)} sectors of ranks "
      f"{[p.rank for p in sectors.projectors]}")

decohered = sector_decohere(rho_pure, sectors)
print(f"sector-decohered pure state equals the branch mixture to "
      f"{np.linalg.norm(decohered.matrix - rho_mixed.matrix):.2e}")

preserving = 0
worst_preserving = 0.0
breaking_seen = 0.0
for s in all_strings(model.layout.labels):
    op = PauliSum.from_string(s)
    from qmeaslab.pauli import expectation, expectation_mixed
    dev = abs(expectation(op, psi) - expectation_mixed(op, rho_mixed))
    if all(p.commutes_with(s) for p in sectors.projectors):
        preserving += 1
        worst_preserving = max(worst_preserving, dev)
    else:
        breaking_seen = max(breaking_seen, dev)
print(f"\n{4 ** (N + 1)} Pauli strings: {preserving} preserve every sector")
print(f"worst pure/mixed deviation among preserving strings: {worst_preserving:.2e}")
print(f"best deviation among sector-breaking strings:        {breaking_seen:.3f}")

verdict = discriminate(psi, branches, chain_observable_preset("sector_preserving", N))
print(f"\nrestricted observer verdict: distinguishable = {verdict.distinguishable} "
      f"(max deviation {verdict.max_deviation:.2e})")
verdict_b = discriminate(psi, branches, chain_observable_preset("with_B", N))
print(f"observer allowed to measure B: distinguishable = {verdict_b.distinguishable} "
      f"via {verdict_b.witness_name} (deviation {verdict_b.max_deviation:.3f})")

# structure conservation: the final state is not inside the all-up sector
p_plus = sectors.projectors[0]
print(f"\nstructure residual of the +1 sector projector on psi_f: "
      f"{structure_residual(psi, [p_plus]):.3f} (= |a2| = {abs(A2):.3f})")
