"""Decoherence by emitted radiation makes the record irreversible.

A particle taking path x2 excites a lattice into a new ground state and
the excess energy leaves as photons.  Photodetectors only measure
functions of photon numbers, and those have no matrix elements between
the vacuum and any emitted pattern, so nothing a photocounting observer
does can tell the superposition of the two histories from their mixture.
One vacuum-connecting Hermitian would break that, and is exactly what the
photocounting restriction forbids.

Run:  python demos/radiation_memory.py
"""

import numpy as np

from qmeaslab import (RadiationModel, add_uncorrelated_mode, build_final_state,
                      check_c22, check_no_vacuum_interference, glauber_generators,
                      quadrature_op, with_vacuum_connector)
from qmeaslab.radiation import glauber_field_generators

model = RadiationModel()  # one mode, cutoff 3, patterns {1, 2} photons
decomp = build_final_state(model)
(_, phi1), (_, phi2) = decomp.branches
print(f"final state on path x lattice x field, dim {model.layout.dim}")
print(f"branch overlap <phi1|phi2> = {abs(phi1.inner(phi2)):.1f} "
      "(vacuum orthogonal to every emission pattern)")

print("\nvacuum matrix elements of the allowed field observables:")
for name, gen in glauber_field_generators(model):
    print(f"  <vac|{name}|j gamma> max = "
          f"{check_no_vacuum_interference(gen, model):.1f}")
quad = quadrature_op(model, 1)
print(f"  <vac|(a+adag)1|j gamma> max = "
      f"{check_no_vacuum_interference(quad, model):.1f}   (NOT a number function)")

allowed = glauber_generators(model)
v = check_c22(model, allowed)
print(f"\nphotocounting observables ({len(allowed)} generators): "
      f"distinguishable = {v.distinguishable} "
      f"(max deviation {v.max_deviation:.2e})")

v_counter = check_c22(model, with_vacuum_connector(model))
print(f"admit one vacuum-connecting Hermitian: distinguishable = "
      f"{v_counter.distinguishable} via {v_counter.witness_name} "
      f"(deviation {v_counter.max_deviation:.3f})")

padded = add_uncorrelated_mode(model, 1)
v_bg = check_c22(padded, glauber_generators(padded))
print(f"\nwith one background photon in both branches: distinguishable = "
      f"{v_bg.distinguishable} (deviation {v_bg.max_deviation:.2e})")
print("uncorrelated photons change nothing")

print("\nemission bookkeeping: each detector generation emits fresh particles")
for depth in range(0, 11, 2):
    print(f"  generation {depth:2d}: {2 ** depth:5d} unmeasured particles")
print("the complete state can never be reconstructed by adding detectors")
