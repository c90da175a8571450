"""Signed Pauli-string and Pauli-sum algebra.

Conventions are fixed once here: with the local basis ordered (|u>, |d>),

    X|u> = |d>,   Y|u> = i|d>,   Z|u> = +|u>.

String phases are stored exactly as integer powers of i, so products and
commutators of Hermitian strings stay in {+1, -1, +i, -i} with no rounding.
A string acts on the layout basis as a signed permutation,
op|e_i> = ph[i] |e_pi[i]>, read from the layout's qubit flip tables
(`_string_action`); state vectors, stacks of amplitude rows and density
matrices are transformed through it directly, and the dense matrix
realization is a separate oracle path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, DensityMatrix, HilbertLayout, QUBIT,
                      StateVector, check_dense_dim)

LETTERS = ("I", "X", "Y", "Z")

# all_strings enumerates 4^n strings; more labels than this are refused
MAX_ENUMERATED_LABELS = 6

# (a, b) -> (a*b letter, added power of i)
_MUL = {
    ("X", "X"): ("I", 0), ("Y", "Y"): ("I", 0), ("Z", "Z"): ("I", 0),
    ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
}

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class OperatorError(ValueError):
    """Invalid operator construction or application."""


@dataclass(frozen=True)
class PauliString:
    """A unit phase i^ipower times a product of single-qubit letters.

    ``letters`` maps qubit label -> {X, Y, Z}; identity is implied for
    absent labels and never stored.
    """

    letters: tuple[tuple[str, str], ...] = ()
    ipower: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ipower", int(self.ipower) % 4)
        items = tuple(sorted(self.letters))
        for label, letter in items:
            if letter not in ("X", "Y", "Z"):
                raise OperatorError(f"bad letter {letter!r} on {label!r}")
        labels = [l for l, _ in items]
        if len(set(labels)) != len(labels):
            raise OperatorError(f"repeated label in string: {labels}")
        object.__setattr__(self, "letters", items)

    @classmethod
    def from_map(cls, letters: Mapping[str, str], ipower: int = 0) -> "PauliString":
        return cls(tuple((l, p) for l, p in letters.items() if p != "I"), ipower)

    @classmethod
    def identity(cls) -> "PauliString":
        return cls()

    @classmethod
    def single(cls, label: str, letter: str) -> "PauliString":
        return cls.from_map({label: letter})

    @property
    def phase(self) -> complex:
        return _PHASES[self.ipower]

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.letters)

    def letter_on(self, label: str) -> str:
        for l, p in self.letters:
            if l == label:
                return p
        return "I"

    def bare(self) -> "PauliString":
        """Same letters with phase +1 (self when the phase already is)."""
        return self if self.ipower == 0 else PauliString(self.letters, 0)

    def dagger(self) -> "PauliString":
        return PauliString(self.letters, (-self.ipower) % 4)

    def is_hermitian(self) -> bool:
        return self.ipower in (0, 2)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __str__(self) -> str:
        return format_string(self)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Letterwise product with exactly accumulated phase."""
    letters: dict[str, str] = dict(a.letters)
    ipower = a.ipower + b.ipower
    for label, letter in b.letters:
        have = letters.get(label)
        if have is None:
            letters[label] = letter
            continue
        prod, dp = _MUL[(have, letter)] if have != letter else ("I", 0)
        ipower += dp
        if prod == "I":
            del letters[label]
        else:
            letters[label] = prod
    return PauliString(tuple(letters.items()), ipower)


@dataclass(frozen=True)
class PauliSum:
    """Canonical linear combination of Pauli strings.

    Terms are stored as (coefficient, bare string) with string phases
    absorbed into coefficients, like terms merged, exact zeros dropped,
    and terms sorted lexicographically by (label, letter) sequence.
    """

    terms: tuple[tuple[complex, PauliString], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonicalize(self.terms))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[complex, PauliString]]) -> "PauliSum":
        return cls(tuple(terms))

    @classmethod
    def from_string(cls, s: PauliString, coefficient: complex = 1.0) -> "PauliSum":
        return cls(((coefficient, s),))

    @classmethod
    def identity(cls, coefficient: complex = 1.0) -> "PauliSum":
        return cls(((coefficient, PauliString.identity()),))

    @classmethod
    def zero(cls) -> "PauliSum":
        return cls(())

    @property
    def support(self) -> tuple[str, ...]:
        labels: set[str] = set()
        for _, s in self.terms:
            labels.update(s.support)
        return tuple(sorted(labels))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + other.terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(tuple((scalar * c, s) for c, s in self.terms))

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        out = []
        for ca, sa in self.terms:
            for cb, sb in other.terms:
                prod = multiply(sa, sb)
                out.append((ca * cb * prod.phase, prod.bare()))
        return PauliSum(tuple(out))

    def dagger(self) -> "PauliSum":
        # bare strings are Hermitian, so only coefficients conjugate
        return PauliSum(tuple((np.conj(c), s) for c, s in self.terms))

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return all(abs(c.imag) <= tol for c, _ in self.terms)

    def prune(self, tol: float) -> "PauliSum":
        return PauliSum(tuple((c, s) for c, s in self.terms if abs(c) > tol))

    def __str__(self) -> str:
        return format_sum(self)


def _canonicalize(terms) -> tuple[tuple[complex, PauliString], ...]:
    acc: dict[tuple, complex] = {}
    keep: dict[tuple, PauliString] = {}
    for c, s in terms:
        coef = complex(c) * s.phase
        key = s.letters
        acc[key] = acc.get(key, 0.0) + coef
        keep[key] = s.bare()
    out = []
    for key in sorted(acc):
        if acc[key] != 0.0:
            out.append((acc[key], keep[key]))
    return tuple(out)


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """ab - ba in canonical form."""
    return (a @ b) - (b @ a)


def hermitian_part(a: PauliSum) -> PauliSum:
    return 0.5 * (a + a.dagger())


# ---------------------------------------------------------------------------
# direct application kernel (no matrices)

def _check_qubit_support(op_support: Sequence[str], layout: HilbertLayout):
    for label in op_support:
        axis = layout.axis(label)  # raises LayoutError on unknown label
        if layout.subsystems[axis].kind != QUBIT:
            raise OperatorError(f"qubit operator on non-qubit subsystem {label!r}")


def _flips(op: PauliString) -> tuple[str, ...]:
    """The labels op flips (its X and Y letters), in letter order: its basis
    permutation depends on these alone, not on its Z letters or phase."""
    return tuple(label for label, letter in op.letters if letter != "Z")


def _flip_permutation(flips: Sequence[str], layout: HilbertLayout) -> np.ndarray:
    """pi with pi[i] the basis index that flipping the qubits `flips` moves
    index i to: each flip moves it by stride * sign[i] of the layout's flip
    table.  Callers check that every label is a qubit of the layout."""
    pi = np.arange(layout.dim)
    for label in flips:
        stride, sign = layout._qubit_flip(label)
        pi = pi + stride * sign
    return pi


def _string_action(op: PauliString, layout: HilbertLayout):
    """pi, ph with op|e_i> = ph[i] |e_pi[i]> on the layout basis, read from
    the layout's qubit flip tables: pi is the flip permutation of the X/Y
    letters, and Z/Y multiply the phase by sign[i] (times i for Y)."""
    _check_qubit_support(op.support, layout)
    ph = np.full(layout.dim, _PHASES[op.ipower], dtype=complex)
    for label, letter in op.letters:
        if letter != "X":
            sign = layout._qubit_flip(label)[1]
            ph = ph * (1.0j * sign if letter == "Y" else sign)
    return _flip_permutation(_flips(op), layout), ph


def _apply_rows(op: PauliString, layout: HilbertLayout, amps: np.ndarray) -> np.ndarray:
    """op on every amplitude row (last axis) of `amps`: one scatter of the
    phased amplitudes through its basis permutation."""
    pi, ph = _string_action(op, layout)
    out = np.empty(amps.shape, dtype=complex)
    out[..., pi] = ph * amps
    return out


def _apply_sum_rows(op: PauliSum, layout: HilbertLayout, amps: np.ndarray) -> np.ndarray:
    """op on every amplitude row (last axis) of `amps`, term by term."""
    out = np.zeros(amps.shape, dtype=complex)
    for c, s in op.terms:
        out += c * _apply_rows(s, layout, amps)
    return out


def apply(op: PauliString, state: StateVector) -> StateVector:
    """Apply a Pauli string to a state vector; cost O(support * dim)."""
    return StateVector(state.layout, _apply_rows(op, state.layout, state.amplitudes))


def apply_sum(op: PauliSum, state: StateVector) -> np.ndarray:
    """Raw amplitude array of op|state> (not normalized)."""
    return _apply_sum_rows(op, state.layout, state.amplitudes)


def _real_part(val: complex, tol: float, what: str) -> float:
    """The real part of an expectation `what` of a Hermitian operator; an
    imaginary part above tol is an OperatorError."""
    if abs(val.imag) > tol:
        raise OperatorError(f"{what} has imaginary part {val.imag}")
    return float(val.real)


def expectation(op: PauliSum, state: StateVector, tol: float = DEFAULT_TOL) -> float:
    """<state|op|state> for Hermitian op; the imaginary part is checked
    against tol and discarded."""
    if not op.is_hermitian(tol):
        raise OperatorError(f"operator is not Hermitian: {format_sum(op)}")
    return _real_part(complex(np.vdot(state.amplitudes, apply_sum(op, state))), tol,
                      "expectation")


def _is_z_diagonal(op: PauliSum) -> bool:
    return all(all(letter == "Z" for _, letter in s.letters) for _, s in op.terms)


def _diagonal_values(op: PauliSum, layout: HilbertLayout) -> np.ndarray:
    """Exact diagonal of a {I,Z}-supported Pauli sum on the layout basis."""
    diag = np.zeros(layout.dim, dtype=complex)
    for c, s in op.terms:
        _, ph = _string_action(s, layout)
        diag += c * ph
    return diag


def expectation_mixed(op: PauliSum, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Tr(rho op) for Hermitian op via the basis permutation of each string."""
    if not op.is_hermitian(tol):
        raise OperatorError(f"operator is not Hermitian: {format_sum(op)}")
    total = 0.0 + 0.0j
    idx = np.arange(rho.layout.dim)
    for c, s in op.terms:
        pi, ph = _string_action(s, rho.layout)
        total += c * np.sum(ph * rho.matrix[idx, pi])
    return _real_part(total, tol, "trace expectation")


# ---------------------------------------------------------------------------
# dense oracle path

def string_matrix(op: PauliString, layout: HilbertLayout) -> np.ndarray:
    """Full matrix of a Pauli string by Kronecker products in layout order."""
    check_dense_dim(layout, "Pauli string")
    _check_qubit_support(op.support, layout)
    mat = np.array([[_PHASES[op.ipower]]], dtype=complex)
    for sub in layout.subsystems:
        letter = op.letter_on(sub.label)
        local = PAULI_MATRICES[letter] if sub.kind == QUBIT else np.eye(sub.dim)
        mat = np.kron(mat, local)
    return mat


def sum_matrix(op: PauliSum, layout: HilbertLayout) -> np.ndarray:
    mat = np.zeros((layout.dim, layout.dim), dtype=complex)
    for c, s in op.terms:
        mat += c * string_matrix(s, layout)
    return mat


def sup_norm_estimate(op: PauliSum, layout: HilbertLayout) -> float:
    """Exact spectral norm: |c| for a one-term sum c P (P is unitary) and
    max |diag| for an {I,Z}-supported sum, both at any dimension; any other
    sum takes the dense ord=2 norm, which is refused with a
    DimensionCapError above DEFAULT_DENSE_CAP rather than replaced by a
    bound."""
    if len(op.terms) == 1:
        return float(abs(op.terms[0][0]))
    if _is_z_diagonal(op):
        return float(np.max(np.abs(_diagonal_values(op, layout))))
    check_dense_dim(layout, "spectral norm of a non-diagonal multi-term Pauli sum")
    return float(np.linalg.norm(sum_matrix(op, layout), ord=2))


# ---------------------------------------------------------------------------
# textual notation: "X0*Y1*Y2", optional coefficient prefix, '+'-joined sums

def _format_complex(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return repr(c.imag) + "j"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r}{sign}{abs(c.imag)!r}j)"


def format_string(op: PauliString) -> str:
    prefix = {0: "", 1: "1j*", 2: "-1*", 3: "-1j*"}[op.ipower]
    if not op.letters:
        return prefix + "I"
    return prefix + "*".join(f"{letter}{label}" for label, letter in op.letters)


def format_sum(op: PauliSum) -> str:
    if not op.terms:
        return "0"
    parts = []
    for c, s in op.terms:
        body = format_string(s)
        if c == 1.0:
            parts.append(body)
        else:
            parts.append(f"{_format_complex(c)}*{body}")
    return " + ".join(parts)


def parse_string(text: str) -> tuple[complex, PauliString]:
    """Parse one term; returns (coefficient, bare string)."""
    factors = [f.strip() for f in text.strip().split("*")]
    coef = 1.0 + 0.0j
    string = PauliString.identity()
    for f in factors:
        if not f:
            raise OperatorError(f"empty factor in term {text!r}")
        if f[0] in ("X", "Y", "Z") and len(f) > 1:
            string = multiply(string, PauliString.single(f[1:], f[0]))
        elif f == "I":
            continue
        else:
            try:
                coef *= complex(f)
            except ValueError:
                raise OperatorError(f"cannot parse factor {f!r} in term {text!r}") from None
    return coef * string.phase, string.bare()


def parse_sum(text: str) -> PauliSum:
    """Inverse of format_sum; round-trips losslessly."""
    text = text.strip()
    if text == "0":
        return PauliSum.zero()
    terms = []
    for chunk in text.split(" + "):
        coef, string = parse_string(chunk)
        terms.append((coef, string))
    return PauliSum(tuple(terms))


def all_strings(labels: Sequence[str]) -> list[PauliString]:
    """Every bare Pauli string over the given qubit labels (4^n of them)."""
    if len(labels) > MAX_ENUMERATED_LABELS:
        raise OperatorError(f"refusing to enumerate 4^{len(labels)} strings")
    out = []
    for combo in itertools.product(LETTERS, repeat=len(labels)):
        out.append(PauliString.from_map(
            {l: p for l, p in zip(labels, combo) if p != "I"}))
    return out
