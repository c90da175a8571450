"""Dense brute-force oracles for the test suite.

Everything here is built from literal 2x2 matrices and explicit Kronecker
products or index loops, independent of the package's amplitude-array
kernels and canonical-form algebra, so the two routes check each other.
The last sections keep routes the package replaced by closed forms or
leaner kernels, as references for their replacements.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from qmeaslab import cascade

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_all(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_string(layout, letters: dict, phase: complex = 1.0) -> np.ndarray:
    """Matrix of a Pauli string by explicit kron over the layout order."""
    mats = []
    for sub in layout.subsystems:
        if sub.label in letters:
            mats.append(MATS[letters[sub.label]])
        else:
            mats.append(np.eye(sub.dim, dtype=complex))
    return phase * kron_all(mats)


def dense_of(op, layout) -> np.ndarray:
    """Matrix of a library PauliString or PauliSum, from its term data only."""
    if hasattr(op, "terms"):
        total = np.zeros((layout.dim, layout.dim), dtype=complex)
        for coef, s in op.terms:
            total += coef * dense_string(layout, dict(s.letters), s.phase)
        return total
    return dense_string(layout, dict(op.letters), op.phase)


def dense_expect(mat: np.ndarray, vec: np.ndarray) -> complex:
    return complex(np.vdot(vec, mat @ vec))


def dense_expect_mixed(mat: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.trace(rho @ mat))


def reference_verdict(rows, tol: float = 1e-12):
    """(max deviation, first witness name) of a pure-vs-mixed sweep over
    explicit (name, pure expectation, mixed expectation, norm) rows in
    family order: rows of norm <= tol are skipped, and a later row replaces
    the witness only with a strictly larger |pure - mixed| / norm."""
    best, best_name = 0.0, None
    for name, pure, mixed, norm in rows:
        if norm <= tol:
            continue
        dev = abs(pure - mixed) / norm
        if dev > best:
            best, best_name = dev, name
    return best, best_name


def dense_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def loop_partial_trace(rho: np.ndarray, dims, keep_axes) -> np.ndarray:
    """Partial trace by explicit index loops (slow, unambiguous)."""
    n = len(dims)
    keep_axes = sorted(keep_axes)
    traced = [k for k in range(n) if k not in keep_axes]
    kd = int(np.prod([dims[k] for k in keep_axes])) if keep_axes else 1
    out = np.zeros((kd, kd), dtype=complex)
    for i in range(rho.shape[0]):
        mi = np.unravel_index(i, dims)
        for j in range(rho.shape[1]):
            mj = np.unravel_index(j, dims)
            if any(mi[t] != mj[t] for t in traced):
                continue
            ki = np.ravel_multi_index([mi[k] for k in keep_axes],
                                      [dims[k] for k in keep_axes]) if keep_axes else 0
            kj = np.ravel_multi_index([mj[k] for k in keep_axes],
                                      [dims[k] for k in keep_axes]) if keep_axes else 0
            out[ki, kj] += rho[i, j]
    return out


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_amplitude_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    v = rng.normal(size=4)
    a = complex(v[0], v[1])
    b = complex(v[2], v[3])
    n = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / n, b / n


def ch_final_dense(n: int, a1: complex, a2: complex) -> np.ndarray:
    """Final chain state assembled from the closed form, dense route."""
    dim = 2 ** (n + 1)
    out = np.zeros(dim, dtype=complex)
    out[0] = a1
    out[-1] = a2 * (-1j) ** n
    return out


def eigo_projectors(mat: np.ndarray, degeneracy_tol: float = 1e-9):
    """Spectral projectors grouped by eigenvalue, descending (oracle)."""
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(-vals)
    groups = []
    for idx in order:
        v = vals[idx]
        if groups and abs(groups[-1][0] - v) <= degeneracy_tol:
            groups[-1][1].append(idx)
        else:
            groups.append((v, [idx]))
    out = []
    for v, idxs in groups:
        block = vecs[:, idxs]
        out.append((float(v), block @ block.conj().T))
    return out


# ---------------------------------------------------------------------------
# earlier kernel routes, kept as bit-for-bit references for the kernels that
# replaced them: they read the layout's flip tables and a string's (pi, ph)
# action, but none of the package's pulse or closed-form kernels

def _pulse_coeffs(theta: float) -> tuple[float, float]:
    """cos/sin of the pulse, exact (0, 1) at the calibrated complete flip."""
    if abs(theta - math.pi / 2) < 1e-15:
        return 0.0, 1.0
    return math.cos(theta), math.sin(theta)


def copy_passage_step(layout, amps: np.ndarray, atom: str, theta: float,
                      system: str = "S0") -> np.ndarray:
    """One conditional pulse, written to a fresh copy of `amps`."""
    _, s_sign = layout._qubit_flip(system)
    a_stride, a_sign = layout._qubit_flip(atom)
    up = np.flatnonzero((s_sign < 0) & (a_sign > 0))
    down = up + a_stride
    c, s = _pulse_coeffs(theta)
    out = amps.copy()
    out[up] = c * amps[up] - 1j * s * amps[down]
    out[down] = c * amps[down] - 1j * s * amps[up]
    return out


def copy_passage(layout, atoms, a1: complex, a2: complex, theta: float) -> np.ndarray:
    """The whole passage from (a1|u> + a2|d>)|u...u>, one copy per step."""
    amps = np.zeros(layout.dim, dtype=complex)
    amps[0], amps[layout.dim // 2] = a1, a2
    for atom in atoms:
        amps = copy_passage_step(layout, amps, atom, theta)
    return amps


def kron_loop_closed_form(n: int, a1: complex, a2: complex, theta: float) -> np.ndarray:
    """a1|u>|u..u> + a2|d> prod_i (cos theta|u> - i sin theta|d>), the flipped
    branch built by one np.kron per atom for this one model."""
    c, s = _pulse_coeffs(theta)
    flipped = np.array([c, -1j * s], dtype=complex)
    branch = np.array([1.0], dtype=complex)
    for _ in range(n):
        branch = np.kron(branch, flipped)
    amps = np.zeros(2 ** (n + 1), dtype=complex)
    amps[0] = a1
    amps[2 ** n:] = a2 * branch
    return amps


def scatter_rows(pi: np.ndarray, ph: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """op|e_i> = ph[i] |e_pi[i]> on every row (last axis), always by a scatter."""
    out = np.empty(amps.shape, dtype=complex)
    out[..., pi] = ph * amps
    return out


# ---------------------------------------------------------------------------
# the pure/mixed deviation by three expectations, the route the phase pair
# (psi+ and psi-) replaced: it cancels the branch-diagonal terms in floating
# point, so it agrees with the phase pair to rounding, not bit for bit

def kron_expectations(vec: np.ndarray, systems: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """<v|S_m (x) diag(f_m)|v> of every stacked pair (systems[m], fields[m]),
    by one einsum over v as an (s, f) array."""
    v = vec.reshape(systems.shape[-1], fields.shape[-1])
    return np.einsum("ak,mab,mk,bk->m", v.conj(), systems, fields, v, optimize=True)


def block_expectations(vec: np.ndarray, blocks: np.ndarray, index: np.ndarray) -> np.ndarray:
    """<v|Q_m|v> of every stacked two-index member, blocks[m] on the field
    indices index[m], by one einsum over v as an (s, f) array."""
    s = blocks.shape[-1] // 2
    v = vec.reshape(s, -1)[:, index]
    return np.einsum("amk,makbl,bml->m", v.conj(), blocks.reshape(-1, s, 2, s, 2), v)


def fsum_expect(vec: np.ndarray, parts: np.ndarray) -> float:
    """Re <v|Q|v> for Q v = parts.sum(axis=0), one row per term of Q: every
    product conj(v_i) parts[k, i] is rounded once and then summed exactly
    (math.fsum), so no accumulation error enters."""
    return math.fsum(np.concatenate([(vec.real * parts.real).ravel(),
                                     (vec.imag * parts.imag).ravel()]))


def three_expectation_deviation(expect, pure: np.ndarray, branches):
    """<Q>_pure - sum_i |a_i|^2 <chi_i|Q|chi_i>, the pure/mixed deviation as
    the phase-pair route replaced it: one expectation per state, with
    `expect(v)` giving <v|Q|v> of one Q or of a stack of them."""
    return expect(pure) - sum(abs(a) ** 2 * expect(chi.amplitudes)
                              for a, chi in branches.branches)


# ---------------------------------------------------------------------------
# the phase scan as per-point runs, the route the closed-form scan
# (cascade._closed_form_terminal) replaced: one run_cascade per scan point


def scan_terminal_deviation(model, a2s, tol: float = 1e-12) -> np.ndarray:
    """`run_cascade(...).terminal_deviation()` of `model` with its a2
    replaced by each entry of `a2s` (a1 kept), one run per point.  A run
    whose stage k >= 2 leaves a single branch ends there and reads 0.0."""
    return np.array([
        cascade.run_cascade(dataclasses.replace(model, a2=a2), tol=tol).terminal_deviation()
        for a2 in np.asarray(a2s, dtype=complex)])
