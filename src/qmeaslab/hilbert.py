"""Labeled tensor-product Hilbert spaces: layouts, state vectors, density
matrices, branch decompositions, and the generic premeasurement builder.

Index convention: flat indices are row-major in subsystem order, so the
first subsystem is the most significant digit.  `HilbertLayout` is the only
place that maps flat indices to subsystem digits; every qubit kernel reads
a qubit's stride and per-index |u>/|d> sign from the layout's flip table.

The canonical branch gauge lives here once, over the rows of an amplitude
array (`_gauge_rows`); `canonical_split` is its one-row case.  So do the
models' unit-weight rule and their measured pointer pair.  Dataclasses
holding arrays compare and hash by identity (`eq=False`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-12
DEFAULT_DIM_CAP = 2 ** 14
DEFAULT_DENSE_CAP = 64

QUBIT = "qubit"
MODE = "mode"

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.\-']+$")


class LayoutError(ValueError):
    """Invalid layout: duplicate labels, bad dimensions, unknown labels."""


class DimensionCapError(LayoutError):
    """Total dimension exceeds a fixed cap."""


class StateError(ValueError):
    """Invalid state data: wrong shape, bad norm, failed invariants."""


@dataclass(frozen=True)
class Subsystem:
    label: str
    dim: int = 2
    kind: str = QUBIT

    def __post_init__(self):
        if not _LABEL_RE.match(self.label):
            raise LayoutError(f"invalid subsystem label {self.label!r}")
        if self.kind not in (QUBIT, MODE):
            raise LayoutError(f"unknown subsystem kind {self.kind!r}")
        if self.kind == QUBIT and self.dim != 2:
            raise LayoutError(f"qubit {self.label!r} must have dim 2, got {self.dim}")
        if self.kind == MODE and self.dim < 2:
            raise LayoutError(f"mode {self.label!r} must have dim >= 2, got {self.dim}")


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered list of labeled subsystems; the indexing contract for all
    states and operators.  Derived facts are computed once per object."""

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        if not self.subsystems:
            raise LayoutError("layout needs at least one subsystem")
        labels = [s.label for s in self.subsystems]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise LayoutError(f"duplicate subsystem labels: {dupes}")
        dim = 1
        for s in self.subsystems:
            dim *= s.dim
            if dim > DEFAULT_DIM_CAP:
                raise DimensionCapError(
                    f"layout dimension exceeds cap {DEFAULT_DIM_CAP} at subsystem "
                    f"{s.label!r} (labels: {labels})"
                )
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_labels", tuple(labels))
        object.__setattr__(self, "_dims", tuple(s.dim for s in self.subsystems))
        object.__setattr__(self, "_axes", {l: k for k, l in enumerate(labels)})
        object.__setattr__(self, "_flips", {})

    @classmethod
    def qubits(cls, labels: Iterable[str]) -> "HilbertLayout":
        return cls(tuple(Subsystem(l) for l in labels))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def dims(self) -> tuple[int, ...]:
        return self._dims

    def axis(self, label: str) -> int:
        if label not in self._axes:
            raise LayoutError(f"unknown label {label!r}; layout has {self.labels}")
        return self._axes[label]

    def _qubit_flip(self, label: str) -> tuple[np.intp, np.ndarray]:
        """(stride, sign) of a qubit label (callers check the kind): a read-only
        int8 sign over the flat basis, +1 on |u> and -1 on |d>; flipping the
        qubit moves flat index i to i + stride * sign[i]."""
        table = self._flips.get(label)
        if table is None:
            axis = self.axis(label)
            stride = np.intp(math.prod(self._dims[axis + 1:]))
            sign = np.empty((self._dim // (2 * stride), 2, stride), dtype=np.int8)
            sign[:, 0], sign[:, 1] = 1, -1
            sign = sign.reshape(self._dim)
            sign.setflags(write=False)
            table = self._flips[label] = (stride, sign)
        return table

    def index_of(self, assignment: Sequence[int]) -> int:
        """Flat index of a basis assignment (one local index per subsystem)."""
        return int(np.ravel_multi_index(tuple(assignment), self.dims()))

    def assignment_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.unravel_index(index, self.dims()))

    def extend(self, other: "HilbertLayout") -> "HilbertLayout":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise LayoutError(f"duplicate labels on tensor composition: {sorted(overlap)}")
        return HilbertLayout(self.subsystems + other.subsystems)

    def keep(self, labels: Iterable[str]) -> "HilbertLayout":
        wanted = set(labels)
        unknown = wanted - set(self.labels)
        if unknown:
            raise LayoutError(f"unknown labels {sorted(unknown)}; layout has {self.labels}")
        return HilbertLayout(tuple(s for s in self.subsystems if s.label in wanted))


def check_dense_dim(layout: HilbertLayout, what: str) -> None:
    """Refuse a dense dim x dim realization of `what` above DEFAULT_DENSE_CAP:
    dense matrices are the oracle path, checked at small dimension only."""
    if layout.dim > DEFAULT_DENSE_CAP:
        raise DimensionCapError(
            f"dense {what} of dim {layout.dim} exceeds cap {DEFAULT_DENSE_CAP}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude array over a layout (row-major basis order)."""

    layout: HilbertLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.layout.dim,):
            raise StateError(
                f"amplitude array has shape {amps.shape}, layout dim is {self.layout.dim}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def check_normalized(self, tol: float = DEFAULT_TOL) -> "StateVector":
        _check_unit_rows(self.amplitudes, tol)
        return self

    def inner(self, other: "StateVector") -> complex:
        if self.layout.labels != other.layout.labels:
            raise StateError("inner product between states on different layouts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.layout, np.outer(self.amplitudes,
                                                   self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix over a layout."""

    layout: HilbertLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise StateError(f"density matrix shape {mat.shape} does not match dim {d}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def validate(self, tol: float = DEFAULT_TOL) -> "DensityMatrix":
        herm = np.linalg.norm(self.matrix - self.matrix.conj().T)
        if herm > tol:
            raise StateError(f"density matrix not Hermitian (residual {herm})")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > tol:
            raise StateError(f"density matrix trace {tr} deviates from 1 beyond {tol}")
        lo = float(np.linalg.eigvalsh(self.matrix).min())
        if lo < -tol:
            raise StateError(f"density matrix has eigenvalue {lo} below -{tol}")
        return self

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class BranchDecomposition:
    """List of (amplitude, orthogonal unit state) pairs defining a
    superposition and its associated mixture."""

    layout: HilbertLayout
    branches: tuple[tuple[complex, StateVector], ...]

    def __post_init__(self):
        object.__setattr__(self, "branches",
                           tuple((complex(a), s) for a, s in self.branches))

    def validate(self, tol: float = DEFAULT_TOL) -> "BranchDecomposition":
        for k, (_, s) in enumerate(self.branches):
            if s.layout.labels != self.layout.labels:
                raise StateError(f"branch {k} lives on a different layout")
        units = np.array([s.amplitudes for _, s in self.branches], dtype=complex)
        _check_branch_rows(np.array([[a for a, _ in self.branches]], dtype=complex),
                           units.reshape(1, len(self.branches), self.layout.dim), tol)
        return self

    def state(self) -> StateVector:
        amps = np.zeros(self.layout.dim, dtype=complex)
        for a, s in self.branches:
            amps = amps + a * s.amplitudes
        return StateVector(self.layout, amps)

    def weights(self) -> tuple[float, ...]:
        return tuple(abs(a) ** 2 for a, _ in self.branches)


def basis_state(layout: HilbertLayout, assignment: Sequence[int]) -> StateVector:
    amps = np.zeros(layout.dim, dtype=complex)
    amps[layout.index_of(assignment)] = 1.0
    return StateVector(layout, amps)


def qubit_state(label: str, up: complex, down: complex,
                tol: float = DEFAULT_TOL) -> StateVector:
    """Single-qubit state up*|u> + down*|d> on a fresh one-qubit layout."""
    layout = HilbertLayout.qubits([label])
    return StateVector(layout, np.array([up, down], dtype=complex)).check_normalized(tol)


def tensor(states: Sequence[StateVector]) -> StateVector:
    """Kronecker composition in declared order; layouts must be label-disjoint."""
    if not states:
        raise StateError("tensor() needs at least one state")
    layout = states[0].layout
    amps = states[0].amplitudes
    for s in states[1:]:
        layout = layout.extend(s.layout)
        amps = np.kron(amps, s.amplitudes)
    return StateVector(layout, amps)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, bit for bit those of
    np.linalg.norm on each row."""
    re, im = rows.real, rows.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _check_unit_rows(rows: np.ndarray, tol: float) -> None:
    """StateVector.check_normalized for every row of an amplitude array."""
    norms = _row_norms(rows)
    bad = np.flatnonzero(np.abs(norms - 1.0) > tol)
    if bad.size:
        norm = float(norms.flat[bad[0]])
        raise StateError(f"state norm {norm!r} deviates from 1 beyond {tol}")


def _check_branch_rows(amps: np.ndarray, units: np.ndarray, tol: float,
                       kept: np.ndarray | None = None) -> None:
    """The branch rules, row p of a block holding the amplitudes amps[p] of
    the states units[p]: a branch at least, unit branches, pairwise orthogonal,
    weights summing to 1.  A branch not `kept` has amplitude 0, a zero row."""
    kept = np.ones(amps.shape, dtype=bool) if kept is None else kept
    if not kept.any(axis=-1).all():
        raise StateError("branch decomposition needs at least one branch")
    _check_unit_rows(units[kept], tol)
    for a in range(units.shape[-2] - 1):
        overlap = np.abs(np.vecdot(units[:, a, None], units[:, a + 1:]))
        if (overlap > tol).any():
            raise StateError(
                f"branches not orthogonal (overlap {float(overlap[overlap > tol][0])})")
    total = (np.abs(amps) ** 2).sum(axis=-1)
    off = np.abs(total - 1.0) > tol
    if off.any():
        raise StateError(f"branch weights sum to {float(total[off][0])}, not 1")


def _gauge_rows(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The canonical gauge of every row of a complex array: amplitudes a and
    unit rows u with row = a * u and the first component of u above
    1e-9 * |row| real positive."""
    norms = _row_norms(rows)
    if np.any(norms <= tol):
        raise StateError("cannot split a (numerically) zero vector")
    idx = np.argmax(np.abs(rows) > 1e-9 * norms[..., None], axis=-1)
    first = np.take_along_axis(rows, idx[..., None], axis=-1)[..., 0]
    # np.hypot, not np.abs: numpy's vectorised complex abs can differ from
    # hypot in the last bit, and hypot keeps every gauged branch (and so
    # every report) what the scalar rule gave
    amps = norms * (first / np.hypot(first.real, first.imag))
    return amps, rows / amps[..., None]


def canonical_split(layout: HilbertLayout, vector: np.ndarray,
                    tol: float = DEFAULT_TOL) -> tuple[complex, StateVector]:
    """Split an unnormalized vector into (amplitude, unit state) with the
    state's first significant component real positive: the one-row case of
    the canonical gauge.

    The gauge is deterministic, so branch amplitudes are reproducible.
    """
    amps, units = _gauge_rows(np.asarray(vector, dtype=complex)[None], tol)
    return complex(amps[0]), StateVector(layout, units[0])


def _check_weights(a1: complex, a2: complex) -> None:
    """A model's measured superposition a1|u> + a2|d> has unit weight, to 1e-9."""
    weight = abs(a1) ** 2 + abs(a2) ** 2
    if abs(weight - 1.0) > 1e-9:
        raise ValueError(f"amplitudes must satisfy |a1|^2+|a2|^2=1, got {weight}")


def _pointer_branches(layout: HilbertLayout, a1: complex, up: np.ndarray, a2: complex,
                      down: np.ndarray, tol: float) -> BranchDecomposition:
    """The measured pointer pair a1|up> + a2|down>, with `up` a unit vector:
    a branch is kept where its amplitude exceeds tol, the second one
    canonically gauged, and the pair validated."""
    branches = []
    if abs(a1) > tol:
        branches.append((a1, StateVector(layout, up)))
    if abs(a2) > tol:
        branches.append(canonical_split(layout, a2 * down, tol))
    return BranchDecomposition(layout, tuple(branches)).validate(tol)


def build_premeasurement(a1: complex, a2: complex,
                         pointer_pairs: Sequence[tuple[StateVector, StateVector]],
                         system_label: str = "S",
                         tol: float = DEFAULT_TOL) -> BranchDecomposition:
    """Entangled post-measurement state a1|s1>|D1>|O1> + a2|s2>|D2>|O2>.

    The measured system is a fresh qubit with basis states s1=|u>, s2=|d>;
    each pointer pair must be an orthogonal pair of unit states on its own
    subsystem layout.  Returns the branch decomposition; the superposition
    itself is ``.state()``.  Unlike `_pointer_branches`, the second branch
    is not gauged: it is the given pointer states' product as it stands.
    """
    a1, a2 = complex(a1), complex(a2)
    if abs(abs(a1) ** 2 + abs(a2) ** 2 - 1.0) > tol:
        raise StateError("amplitudes must satisfy |a1|^2 + |a2|^2 = 1")
    sys_layout = HilbertLayout.qubits([system_label])
    for k, (p, q) in enumerate(pointer_pairs):
        if p.layout.labels != q.layout.labels:
            raise StateError(f"pointer pair {k} must share one layout")
        p.check_normalized(tol)
        q.check_normalized(tol)
        ov = abs(p.inner(q))
        if ov > tol:
            raise StateError(f"pointer pair {k} not orthogonal (overlap {ov})")
    branch1 = tensor([basis_state(sys_layout, [0])] + [p for p, _ in pointer_pairs])
    branch2 = tensor([basis_state(sys_layout, [1])] + [q for _, q in pointer_pairs])
    branches = []
    if abs(a1) > tol:
        branches.append((a1, branch1))
    if abs(a2) > tol:
        branches.append((a2, branch2))
    return BranchDecomposition(branch1.layout, tuple(branches)).validate(tol)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix on the kept subsystems (original order)."""
    keep = set(keep)
    layout = rho.layout
    unknown = keep - set(layout.labels)
    if unknown:
        raise LayoutError(f"unknown labels {sorted(unknown)}; layout has {layout.labels}")
    dims = layout.dims()
    n = len(dims)
    tensor_rho = rho.matrix.reshape(dims + dims)
    # einsum subscripts: traced subsystems share a row/col index
    row = list(range(n))
    col = [n + k if layout.labels[k] in keep else k for k in range(n)]
    kept_axes = [k for k in range(n) if layout.labels[k] in keep]
    out = [k for k in kept_axes] + [n + k for k in kept_axes]
    reduced = np.einsum(tensor_rho, row + col, out)
    new_layout = layout.keep(keep)
    d = new_layout.dim
    return DensityMatrix(new_layout, reduced.reshape(d, d))


def mixture_of(branches: BranchDecomposition, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """The branch mixture: the pure-state projector with interblock terms
    deleted, sum_i |a_i|^2 |psi_i><psi_i|."""
    branches.validate(tol)
    d = branches.layout.dim
    mat = np.zeros((d, d), dtype=complex)
    for a, s in branches.branches:
        mat += (abs(a) ** 2) * np.outer(s.amplitudes, s.amplitudes.conj())
    return DensityMatrix(branches.layout, mat)
