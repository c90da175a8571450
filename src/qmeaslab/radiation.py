"""Radiation-decoherence model: particle path x lattice state x truncated
photon field, with photodetection-restricted (number-diagonal) observables.
A field factor is a plain array: 1-D and real for a photon-number function
(its diagonal over the occupation basis), 2-D for a general field matrix.

The asymptotic state is  a1 |x1>|L>|vac>  +  a2 sum_j c_j |x2>|L'>|j gamma>,
with every emission pattern orthogonal to the vacuum.  Observables built
from photon-number functions have no vacuum matrix elements, so no allowed
measurement separates that superposition from its branch mixture.
`RadiationModel` owns that precondition and the other pattern and
occupation rules; the rd-basic config check reports its refusals as they
stand, so their messages name the config key path.

Glauber observables stay factored: each generator and each pairwise
product is a `KronObservable`, a 4x4 path x lattice matrix tensored with a
real photon-number diagonal, and `discriminate` evaluates the whole closed
family with one batched kernel, building no dim x dim matrix for it.  The
vacuum connector XX (x) (|r><p| + h.c.), the explicit counterexample to the
photocounting restriction, lives on the two field indices r (the reference
occupation) and p (the first emission pattern); it and its products are
8x8 blocks on C^4 (x) span{|r>, |p>}, stacked next to the factored members,
so no rd-basic family holds a dim x dim matrix.  `full_observable` is the
dense reference the tests compare both routes against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, BranchDecomposition, HilbertLayout, MODE,
                      Subsystem, _check_weights, _pointer_branches)
from .pauli import PAULI_MATRICES
from .sectors import (DiscriminationVerdict, KronObservable, ObservableSet,
                      _TwoIndexObservable, discriminate)

PATH_LABEL = "path"
LATTICE_LABEL = "lattice"


@dataclass(frozen=True)
class RadiationModel:
    """Path qubit, lattice qubit, and M photon modes truncated at `cutoff`.

    `photon_amplitudes` lists (occupation pattern, production amplitude c_j)
    for the emitting branch, at least one; patterns are per-emission-mode
    occupancies and must not be the vacuum.  `background` prepends extra modes occupied
    identically in BOTH branches (photons uncorrelated with the lattice).
    """

    a1: complex = complex(np.sqrt(0.5))
    a2: complex = complex(np.sqrt(0.5))
    modes: int = 1
    cutoff: int = 3
    photon_amplitudes: tuple[tuple[tuple[int, ...], complex], ...] = (
        ((1,), complex(np.sqrt(0.5))),
        ((2,), complex(np.sqrt(0.5))),
    )
    background: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "photon_amplitudes",
                           tuple((tuple(p), complex(c))
                                 for p, c in self.photon_amplitudes))
        object.__setattr__(self, "background", tuple(self.background))
        if self.modes < 1:
            raise ValueError(f"model needs modes >= 1, got {self.modes}")
        if self.cutoff < 2:
            raise ValueError(f"mode cutoff must be >= 2, got {self.cutoff}")
        _check_weights(self.a1, self.a2)
        if not self.photon_amplitudes:
            raise ValueError("photons: at least one emission pattern is required")
        seen = set()
        for k, (pattern, _) in enumerate(self.photon_amplitudes):
            path = f"photons[{k}].pattern"
            self._check_pattern(pattern, path)
            if pattern in seen:
                raise ValueError(f"{path}: duplicate pattern {list(pattern)}")
            seen.add(pattern)
        total_c = sum(abs(c) ** 2 for _, c in self.photon_amplitudes)
        if abs(total_c - 1.0) > 1e-9:
            raise ValueError(
                f"photons: amplitudes must satisfy sum |c_j|^2 = 1, got {total_c}")
        self._check_occupations(self.background, "background")
        self.layout  # raises DimensionCapError if over the cap

    def _check_pattern(self, pattern: tuple[int, ...], path: str):
        """An emission pattern has one occupation per mode and is not the
        vacuum, so it differs from the reference occupation."""
        self._check_occupations(pattern, path)
        if len(pattern) != self.modes:
            raise ValueError(f"{path}: requires one occupation per mode "
                             f"(modes = {self.modes}), got {list(pattern)}")
        if sum(pattern) < 1:
            raise ValueError(f"{path}: the vacuum, the reference occupation, cannot be "
                             f"an emission pattern, got {list(pattern)}")

    def _check_occupations(self, occupations: tuple[int, ...], path: str):
        """Every occupation is a photon number below the cutoff."""
        for k, n in enumerate(occupations):
            if not 0 <= n < self.cutoff:
                bound = ">= 0" if n < 0 else f"below cutoff = {self.cutoff}"
                raise ValueError(f"{path}[{k}]: requires an occupation {bound}, got {n}")

    @property
    def all_modes(self) -> int:
        return len(self.background) + self.modes

    def mode_labels(self) -> tuple[str, ...]:
        return tuple(f"mode{i}" for i in range(1, self.all_modes + 1))

    @cached_property
    def layout(self) -> HilbertLayout:
        # built once per model, so its flip tables are shared by every state
        subs = [Subsystem(PATH_LABEL), Subsystem(LATTICE_LABEL)]
        subs += [Subsystem(l, self.cutoff, MODE) for l in self.mode_labels()]
        return HilbertLayout(tuple(subs))

    def field_dims(self) -> tuple[int, ...]:
        return (self.cutoff,) * self.all_modes

    def field_dim(self) -> int:
        return self.cutoff ** self.all_modes

    def reference_occupation(self) -> tuple[int, ...]:
        """Field occupations of the non-emitting branch."""
        return self.background + (0,) * self.modes

    def branch_occupations(self) -> list[tuple[tuple[int, ...], complex]]:
        """(full occupation pattern, c_j) pairs of the emitting branch."""
        return [(self.background + p, c) for p, c in self.photon_amplitudes]

    def field_index(self, occupation: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(occupation), self.field_dims()))


def add_uncorrelated_mode(model: RadiationModel, occupancy: int) -> RadiationModel:
    """Prepend one background mode occupied by `occupancy` photons in both
    branches; every verdict must be invariant under this."""
    return replace(model, background=(occupancy,) + model.background)


def build_final_state(model: RadiationModel,
                      tol: float = DEFAULT_TOL) -> BranchDecomposition:
    """The asymptotic branch pair; the superposition itself is .state()."""
    layout = model.layout
    amps1 = np.zeros(layout.dim, dtype=complex)
    ref = model.reference_occupation()
    amps1[layout.index_of((0, 0) + ref)] = 1.0
    amps2 = np.zeros(layout.dim, dtype=complex)
    for occ, c in model.branch_occupations():
        amps2[layout.index_of((1, 1) + occ)] = c
    return _pointer_branches(layout, model.a1, amps1, model.a2, amps2, tol)


def number_op(model: RadiationModel, mode: int) -> np.ndarray:
    """Photon number of one mode (1-based over all modes), as a diagonal."""
    return np.array(list(np.ndindex(*model.field_dims())), dtype=float)[:, mode - 1]


def quadrature_op(model: RadiationModel, mode: int) -> np.ndarray:
    """Truncated a + a^dagger on one mode: Hermitian but NOT a photon-number
    function; it connects occupations differing by one."""
    d = model.cutoff
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    quad = a + a.conj().T
    mat = np.array([[1.0]], dtype=complex)
    for m in range(1, model.all_modes + 1):
        mat = np.kron(mat, quad if m == mode else np.eye(d))
    return mat


def vacuum_pattern_connector(model: RadiationModel,
                             pattern: Sequence[int] | None = None) -> np.ndarray:
    """|ref><pattern| + h.c. on the field: the vacuum-connecting Hermitian
    that the photocounting restriction excludes.  `pattern` (the emission
    modes' occupations, default the first emission pattern) follows the
    model's pattern rules, so it is never the reference occupation."""
    d = model.field_dim()
    mat = np.zeros((d, d), dtype=complex)
    r, p = _connector_indices(model, pattern)
    mat[r, p] = mat[p, r] = 1.0
    return mat


def _connector_indices(model: RadiationModel,
                       pattern: Sequence[int] | None = None) -> tuple[int, int]:
    """Field indices (r, p) of the reference occupation and of a checked
    emission pattern: distinct, as an emission pattern is not the vacuum."""
    if pattern is None:
        pattern = model.photon_amplitudes[0][0]
    else:
        pattern = tuple(pattern)
        model._check_pattern(pattern, "pattern")
    return (model.field_index(model.reference_occupation()),
            model.field_index(model.background + pattern))


_SYSTEM_PAULIS = tuple((p1 + p2, np.kron(PAULI_MATRICES[p1], PAULI_MATRICES[p2]))
                       for p1, p2 in itertools.product("IXYZ", repeat=2))


def full_observable(model: RadiationModel, system: np.ndarray,
                    field: np.ndarray) -> np.ndarray:
    """system (4x4 on path x lattice) tensor a field factor, on the full
    layout: the dense reference for the factored KronObservable and for the
    vacuum connector's two-index block."""
    sys = np.asarray(system, dtype=complex)
    if sys.shape != (4, 4):
        raise ValueError("system factor must be 4x4 (path x lattice)")
    field = np.asarray(field, dtype=complex)
    return np.kron(sys, np.diag(field) if field.ndim == 1 else field)


def glauber_field_generators(model: RadiationModel) -> list[tuple[str, np.ndarray]]:
    """(name, diagonal) of n_m, n_m^2, n_m n_m': the generating number functions."""
    occ = np.array(list(np.ndindex(*model.field_dims())), dtype=float)
    gens = []
    for m in range(1, model.all_modes + 1):
        gens.append((f"n{m}", occ[:, m - 1]))
        gens.append((f"n{m}^2", occ[:, m - 1] ** 2))
    for m1, m2 in itertools.combinations(range(1, model.all_modes + 1), 2):
        gens.append((f"n{m1}*n{m2}", occ[:, m1 - 1] * occ[:, m2 - 1]))
    return gens


def glauber_generators(model: RadiationModel) -> ObservableSet:
    """Photodetection-allowed generators: every number-function field factor
    tensored with every Hermitian path x lattice basis element, kept
    factored."""
    gens = []
    for f_name, f in glauber_field_generators(model):
        for sys_name, sys in _SYSTEM_PAULIS:
            gens.append((f"{sys_name}(x){f_name}", KronObservable(sys.copy(), f)))
    return ObservableSet("glauber", tuple(gens), closure_depth=2)


def with_vacuum_connector(model: RadiationModel,
                          base: ObservableSet | None = None) -> ObservableSet:
    """The Glauber set augmented with one vacuum-connecting Hermitian: the
    minimal violation of the photocounting restriction.  It is the 8x8 block
    XX (x) [[0, 1], [1, 0]] on C^4 (x) span{|ref>, |p_0>}, built without a
    dim x dim matrix."""
    base = glauber_generators(model) if base is None else base
    sys = np.kron(PAULI_MATRICES["X"], PAULI_MATRICES["X"])
    extra = _TwoIndexObservable(np.kron(sys, PAULI_MATRICES["X"]),
                                _connector_indices(model))
    return ObservableSet(base.name + "+vacuum_connector",
                         base.generators + (("XX(x)vacuum_connector", extra),),
                         closure_depth=base.closure_depth)


def check_no_vacuum_interference(q_e: np.ndarray,
                                 model: RadiationModel) -> float:
    """max_j |<vac|Q_E|j gamma>| over the emission patterns for a field
    factor Q_E; identically zero for photon-number functions."""
    i0 = model.field_index(model.reference_occupation())
    worst = 0.0
    for occ, _ in model.branch_occupations():
        j = model.field_index(occ)
        if q_e.ndim == 1:
            element = q_e[i0] if i0 == j else 0.0
        else:
            element = q_e[i0, j]
        worst = max(worst, abs(complex(element)))
    return worst


def check_c22(model: RadiationModel, allowed: ObservableSet,
              tol: float = DEFAULT_TOL) -> DiscriminationVerdict:
    """Pure/mixed discrimination verdict for the asymptotic state under an
    allowed observable family; false for photon-number families."""
    decomp = build_final_state(model, tol)
    return discriminate(decomp.state(), decomp, allowed, tol)
