"""Exact pure-state simulation over a dynamic, party-tagged qubit registry.

States are kept as ensembles of weighted pure statevectors: measurements
split branches instead of sampling, so outcome distributions, entropies and
fidelities are exact up to float arithmetic.  Qubits are allocated and
discarded dynamically; every qubit belongs to one party (laboratory).

Conventions, fixed once:

* registry position 0 is the least significant bit of the amplitude index;
* a gate matrix indexes its targets the same way (first target = bit 0);
* Bell labels "00"/"01"/"10"/"11" are (I, X, Z, XZ) applied to the second
  qubit of the standard maximally entangled pair, i.e. phi+, psi+, phi-,
  psi-.  A Bell measurement reports the phase bit first.

Operations return fresh ensembles rather than mutating their input, so an
ensemble belongs to one logical owner at a time and pure queries (entropy,
reduced density, branch vectors) are safe on any snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import gates

DEFAULT_MAX_QUBITS = 24
NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
POVM_TOL = 1e-10
PRUNE_TOL = 1e-14
EIG_TOL = 1e-12


class RegistryCapacityError(RuntimeError):
    """Raised when an allocation would exceed the registry qubit cap."""


@dataclass(frozen=True, order=True)
class QubitId:
    """A qubit resident at a party, identified by an opaque local tag."""

    party: int
    label: str

    def __repr__(self) -> str:
        return f"{self.party}:{self.label}"


@dataclass
class Branch:
    """One pure-state component of an ensemble.

    ``record`` holds classical measurement outcomes keyed by the global
    measurement counter of the owning ensemble; conditional corrections
    look outcomes up through it.
    """

    probability: float
    amplitudes: np.ndarray
    record: dict[int, str] = field(default_factory=dict)


@dataclass
class BranchEnsemble:
    """Probability-weighted set of pure statevectors over a shared registry."""

    registry: tuple[QubitId, ...]
    branches: list[Branch]
    max_qubits: int = DEFAULT_MAX_QUBITS
    measurement_count: int = 0

    @classmethod
    def vacuum(cls, max_qubits: int = DEFAULT_MAX_QUBITS) -> "BranchEnsemble":
        return cls(registry=(), branches=[Branch(1.0, np.ones(1, dtype=complex))], max_qubits=max_qubits)

    @classmethod
    def from_amplitudes(
        cls,
        registry: Sequence[QubitId],
        amplitudes: Sequence[complex],
        max_qubits: int = DEFAULT_MAX_QUBITS,
    ) -> "BranchEnsemble":
        registry = tuple(registry)
        if len(set(registry)) != len(registry):
            raise ValueError("registry contains duplicate qubit ids")
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.shape != (2 ** len(registry),):
            raise ValueError(f"expected {2 ** len(registry)} amplitudes, got {vec.shape}")
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= 1e-9:  # negated so that a NaN norm fails
            raise ValueError(f"state is not normalized (norm {norm})")
        ens = cls(registry=registry, branches=[Branch(1.0, vec / norm)], max_qubits=max_qubits)
        ens.check()
        return ens

    @property
    def num_qubits(self) -> int:
        return len(self.registry)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def parties(self) -> set[int]:
        return {q.party for q in self.registry}

    def position(self, qubit: QubitId) -> int:
        try:
            return self.registry.index(qubit)
        except ValueError:
            raise ValueError(f"unknown target qubit {qubit!r}") from None

    def copy(self) -> "BranchEnsemble":
        return BranchEnsemble(
            registry=self.registry,
            branches=[Branch(b.probability, b.amplitudes.copy(), dict(b.record)) for b in self.branches],
            max_qubits=self.max_qubits,
            measurement_count=self.measurement_count,
        )

    def check(self) -> None:
        # the comparisons are negated so that a NaN fails them
        total = sum(b.probability for b in self.branches)
        if not abs(total - 1.0) <= NORM_TOL:
            raise AssertionError(f"branch probabilities sum to {total}")
        for b in self.branches:
            norm = np.linalg.norm(b.amplitudes)
            if not abs(norm - 1.0) <= 1e-9:
                raise AssertionError(f"branch norm {norm} drifted from 1")


@dataclass(frozen=True)
class Gate:
    """A unitary bound to an ordered tuple of target qubits."""

    targets: tuple[QubitId, ...]
    matrix: np.ndarray

    def __post_init__(self):
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", _checked_unitary(targets, self.matrix))


def _checked_unitary(targets: Sequence[QubitId], matrix) -> np.ndarray:
    """``matrix`` as a complex array, once it is a unitary on the distinct ``targets``."""
    if len(set(targets)) != len(targets):
        raise ValueError("gate targets must be distinct")
    mat = np.asarray(matrix, dtype=complex)
    dim = 1 << len(targets)
    if mat.shape != (dim, dim):
        raise ValueError(f"gate on {len(targets)} qubits needs a {dim}x{dim} matrix")
    err = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
    if not err <= UNITARY_TOL:  # negated so that a NaN deviation fails
        raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
    return mat


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD elements summing to identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("POVM needs at least one element")
        dim = elems[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for i, e in enumerate(elems):
            if e.shape != (dim, dim):
                raise ValueError(f"POVM element {i} has shape {e.shape}, expected {(dim, dim)}")
            if np.max(np.abs(e - e.conj().T)) > POVM_TOL:
                raise ValueError(f"POVM element {i} is not Hermitian")
            if np.min(np.linalg.eigvalsh(e)) < -POVM_TOL:
                raise ValueError(f"POVM element {i} is not positive semidefinite")
            total += e
        if np.max(np.abs(total - np.eye(dim))) > POVM_TOL:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


# --------------------------------------------------------------------------
# low-level index plumbing


def _apply_matrix(vec: np.ndarray, positions: Sequence[int], matrix: np.ndarray, k: int) -> np.ndarray:
    """Apply ``matrix`` to the registry ``positions`` of a 2**k statevector.

    This stays on tensordot: a matmul over ``_block`` sums in another order,
    moves the last digit of recorded distributions and so changes traces.
    """
    m = len(positions)
    tensor = vec.reshape((2,) * k)
    state_axes = [k - 1 - p for p in positions]  # axis of gate bit j
    op = matrix.reshape((2,) * (2 * m))
    # contract column bit j (op axis 2m-1-j) with the state axis of gate bit j
    out = np.tensordot(op, tensor, axes=([2 * m - 1 - j for j in range(m)], state_axes))
    # row bit j sits at out axis m-1-j; put it back where the input axis was
    out = np.moveaxis(out, [m - 1 - j for j in range(m)], state_axes)
    return np.ascontiguousarray(out).reshape(-1)


def _block(vec: np.ndarray, positions: Sequence[int], k: int) -> np.ndarray:
    """A 2**k statevector as a (2**m, rest) block for the m registry ``positions``.

    Row index bit j is the qubit at ``positions[j]``; columns run over the
    other qubits in their original index order.  A stack of statevectors,
    shape (..., 2**k), gives the stack of their blocks.
    """
    lead = vec.ndim - 1
    axes = [lead + k - 1 - p for p in reversed(positions)]
    order = [*range(lead), *axes, *(a for a in range(lead, lead + k) if a not in axes)]
    tensor = vec.reshape(vec.shape[:-1] + (2,) * k)
    return np.transpose(tensor, order).reshape(*vec.shape[:-1], 1 << len(positions), -1)


def _reduced_from_vec(vec: np.ndarray, keep_positions: Sequence[int], k: int) -> np.ndarray:
    """Density matrix of the qubits at ``keep_positions`` (ascending order).

    Row index bit j of the result is the qubit at ``keep_positions[j]``.
    """
    mat = _block(vec, keep_positions, k)
    return mat @ mat.conj().T


# --------------------------------------------------------------------------
# registry management


def allocate_qubits(
    ensemble: BranchEnsemble,
    party: int,
    count: int,
    init: str | None = None,
    labels: Sequence[str] | None = None,
) -> tuple[BranchEnsemble, tuple[QubitId, ...]]:
    """Append ``count`` fresh qubits at ``party`` in the basis state ``init``.

    New qubits occupy the highest registry positions.  ``init`` is a string
    of '0'/'1' characters, one per new qubit, defaulting to all zeros.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    init = "0" * count if init is None else init
    if len(init) != count or set(init) - {"0", "1"}:
        raise ValueError(f"init string {init!r} does not describe {count} basis qubits")
    if labels is None:
        base = len(ensemble.registry)
        labels = tuple(f"x{base + i}" for i in range(count))
    new_ids = tuple(QubitId(party, lbl) for lbl in labels)
    if len(new_ids) != count:
        raise ValueError(f"{len(new_ids)} labels given for {count} qubits")
    block = np.zeros(1 << count, dtype=complex)
    block[sum(int(c) << j for j, c in enumerate(init))] = 1.0
    return _append(ensemble, new_ids, block), new_ids


def insert_bell_pair(ensemble: BranchEnsemble, first: QubitId, second: QubitId) -> BranchEnsemble:
    """Append two fresh qubits jointly in the phi+ state.

    This is the resource primitive that realizes a held ebit in the
    statevector; it is not a local operation.
    """
    return _append(ensemble, (first, second), np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def _append(ensemble: BranchEnsemble, new_ids: tuple[QubitId, ...], block: np.ndarray) -> BranchEnsemble:
    """Append the qubits ``new_ids`` (``new_ids[j]`` = bit j of ``block``) to every branch."""
    if ensemble.num_qubits + len(new_ids) > ensemble.max_qubits:
        raise RegistryCapacityError(
            f"allocating {len(new_ids)} qubits would exceed the registry cap of {ensemble.max_qubits}"
        )
    if len(set(new_ids)) != len(new_ids) or set(new_ids) & set(ensemble.registry):
        raise ValueError("new qubit ids collide with existing registry entries")
    branches = [
        Branch(b.probability, np.kron(block, b.amplitudes), dict(b.record)) for b in ensemble.branches
    ]
    return BranchEnsemble(ensemble.registry + new_ids, branches, ensemble.max_qubits, ensemble.measurement_count)


def relabel_qubits(ensemble: BranchEnsemble, renames: Mapping[QubitId, QubitId]) -> BranchEnsemble:
    """Rename registry entries (party and/or label), all at once; no amplitude moves.

    A qubit permutation is such a rename: the state of ``q`` moves to
    ``renames[q]``.  The ids produced must be distinct, and the branches are
    shared with ``ensemble``.
    """
    for old in renames:
        ensemble.position(old)
    registry = tuple(renames.get(q, q) for q in ensemble.registry)
    if len(set(registry)) != len(registry):
        twice = next(q for q in registry if registry.count(q) > 1)
        raise ValueError(f"qubit id {twice!r} already in use")
    return BranchEnsemble(registry, ensemble.branches, ensemble.max_qubits, ensemble.measurement_count)


# --------------------------------------------------------------------------
# evolution


def apply_gate(ensemble: BranchEnsemble, gate: Gate) -> BranchEnsemble:
    """Apply a unitary to every branch; norms are preserved to 1e-12."""
    return _evolve(ensemble, gate.targets, lambda branch: gate.matrix)


def apply_conditional(
    ensemble: BranchEnsemble,
    targets: Sequence[QubitId],
    cases: Mapping[str, np.ndarray],
    measurement_index: int,
) -> BranchEnsemble:
    """Apply an outcome-dependent unitary per branch.

    ``cases`` maps the outcome string of measurement ``measurement_index``
    (as stored in each branch record) to the matrix applied on that branch.
    """
    targets = tuple(targets)
    checked = {outcome: _checked_unitary(targets, mat) for outcome, mat in cases.items()}

    def case_of(branch: Branch) -> np.ndarray:
        if measurement_index not in branch.record:
            raise ValueError(f"branch has no outcome recorded for measurement {measurement_index}")
        outcome = branch.record[measurement_index]
        if outcome not in checked:
            raise ValueError(f"no case for outcome {outcome!r}")
        return checked[outcome]

    return _evolve(ensemble, targets, case_of)


def _evolve(ensemble: BranchEnsemble, targets: Sequence[QubitId], matrix_of) -> BranchEnsemble:
    """Apply ``matrix_of(branch)`` to ``targets`` of every branch."""
    k = ensemble.num_qubits
    positions = [ensemble.position(q) for q in targets]
    branches = [
        Branch(b.probability, _apply_matrix(b.amplitudes, positions, matrix_of(b), k), dict(b.record))
        for b in ensemble.branches
    ]
    out = BranchEnsemble(ensemble.registry, branches, ensemble.max_qubits, ensemble.measurement_count)
    out.check()
    return out


def measure_computational(
    ensemble: BranchEnsemble, targets: Sequence[QubitId], discard: bool = False
) -> tuple[BranchEnsemble, dict[str, float]]:
    """Projective measurement in the computational basis.

    Every branch splits into its nonzero outcomes with Born-rule weights;
    branches below the pruning threshold are dropped.  With ``discard`` the
    measured qubits leave the registry.  The outcome string lists target
    values in target order.  Returns the post-measurement ensemble and the
    aggregate outcome distribution.
    """
    k = ensemble.num_qubits
    positions = [ensemble.position(q) for q in targets]
    m = len(targets)
    if len(set(positions)) != m:
        raise ValueError("measurement targets must be distinct")
    midx = ensemble.measurement_count
    outcomes = ["".join(str((code >> j) & 1) for j in range(m)) for code in range(1 << m)]
    # row ``code`` of the index block lists the amplitude indices of that outcome
    index_rows = None if discard else _block(np.arange(1 << k), positions, k)
    dist: dict[str, float] = {}
    branches: list[Branch] = []
    for b in ensemble.branches:
        for code, row in enumerate(_block(b.amplitudes, positions, k)):
            weight = float(np.sum(np.abs(row) ** 2))
            prob = b.probability * weight
            if prob <= PRUNE_TOL:
                continue
            outcome = outcomes[code]
            dist[outcome] = dist.get(outcome, 0.0) + prob
            if discard:
                vec = row / math.sqrt(weight)
            else:
                vec = np.zeros(1 << k, dtype=complex)
                vec[index_rows[code]] = row / math.sqrt(weight)
            record = dict(b.record)
            record[midx] = outcome
            branches.append(Branch(prob, vec, record))
    registry = ensemble.registry
    if discard:
        registry = tuple(q for q in registry if q not in set(targets))
    out = BranchEnsemble(registry, branches, ensemble.max_qubits, midx + 1)
    out.check()
    return out, dict(sorted(dist.items()))


# Two-qubit unitary sending each Bell state to its label's basis state:
# CNOT from the first qubit (bit 0), then a Hadamard on it.
_BELL_BASIS_CHANGE = np.kron(np.eye(2), gates.HADAMARD) @ gates.cnot_unitary()


def bell_measure(
    ensemble: BranchEnsemble, pair: Sequence[QubitId], discard: bool = False
) -> tuple[BranchEnsemble, dict[str, float]]:
    """Projective measurement of two qubits in the fixed Bell basis.

    The 2-bit outcome is (phase bit, flip bit), so phi+ reads "00", psi+
    "01", phi- "10" and psi- "11".
    """
    if len(pair) != 2:
        raise ValueError("bell_measure targets exactly 2 qubits")
    ens = apply_gate(ensemble, Gate(tuple(pair), _BELL_BASIS_CHANGE))
    ens, dist = measure_computational(ens, pair, discard=discard)
    if not discard:
        ens = apply_gate(ens, Gate(tuple(pair), _BELL_BASIS_CHANGE.conj().T))
    return ens, dist


def measure_povm(ensemble: BranchEnsemble, povm: Povm, targets: Sequence[QubitId]) -> list[float]:
    """Outcome probabilities of a POVM on ``targets``; the state is untouched."""
    if povm.dim != 1 << len(targets):
        raise ValueError(f"POVM dimension {povm.dim} does not match {len(targets)} targets")
    rho = reduced_density(ensemble, targets)
    probs = [float(np.real(np.trace(rho @ e))) for e in povm.elements]
    total = sum(probs)
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(f"POVM probabilities sum to {total}")
    return probs


def coalesce(ensemble: BranchEnsemble, tol: float = 1e-10) -> BranchEnsemble:
    """Merge branches whose states agree up to a global phase.

    Classical records survive only where merged branches agree, so
    conditioning across a coalesce is rejected loudly by apply_conditional.
    """
    groups: list[tuple[np.ndarray, Branch]] = []
    for b in ensemble.branches:
        vec = b.amplitudes
        anchor = int(np.argmax(np.abs(vec) > 1e-9))
        phase = vec[anchor] / abs(vec[anchor])
        canon = vec * np.conj(phase)
        for canon_g, merged in groups:
            if canon_g.shape == canon.shape and np.allclose(canon_g, canon, atol=tol):
                merged.probability += b.probability
                merged.record = {k: v for k, v in merged.record.items() if b.record.get(k) == v}
                break
        else:
            groups.append((canon, Branch(b.probability, vec.copy(), dict(b.record))))
    return BranchEnsemble(
        ensemble.registry, [g[1] for g in groups], ensemble.max_qubits, ensemble.measurement_count
    )


# --------------------------------------------------------------------------
# queries


def reduced_density(ensemble: BranchEnsemble, subset: Sequence[QubitId]) -> np.ndarray:
    """Ensemble-averaged density matrix of ``subset``.

    The basis orders the subset by registry position, least significant
    first; trace is 1 and the result Hermitian to 1e-10.
    """
    if not subset:
        raise ValueError("subset must be nonempty")
    positions = sorted(ensemble.position(q) for q in subset)
    if len(set(positions)) != len(subset):
        raise ValueError("subset qubits must be distinct")
    k = ensemble.num_qubits
    rho = np.zeros((1 << len(subset),) * 2, dtype=complex)
    for b in ensemble.branches:
        rho += b.probability * _reduced_from_vec(b.amplitudes, positions, k)
    return rho


def entropy_of_qubits(ensemble: BranchEnsemble, subset: Iterable[QubitId]) -> float:
    """Probability-weighted per-branch von Neumann entropy of ``subset`` (base 2).

    Every branch is pure, so ``subset`` and the rest of the registry share
    one Schmidt spectrum.  It is read from the reduced densities of the
    smaller side, all branches in one stacked eigensolve.
    """
    wanted = set(subset)
    missing = wanted.difference(ensemble.registry)
    if missing:
        raise ValueError(f"unknown target qubit {min(missing)!r}")
    k = ensemble.num_qubits
    inside = 2 * len(wanted) <= k  # whether the smaller side is the subset itself
    side = [p for p, q in enumerate(ensemble.registry) if (q in wanted) == inside]
    if not side:
        return 0.0
    blocks = _block(np.stack([b.amplitudes for b in ensemble.branches]), side, k)
    eigs = np.linalg.eigvalsh(blocks @ blocks.conj().swapaxes(-1, -2))
    logs = np.log2(eigs, out=np.zeros_like(eigs), where=eigs > EIG_TOL)
    per_branch = -np.sum(eigs * logs, axis=-1)
    return float(sum(b.probability * s for b, s in zip(ensemble.branches, per_branch)))


def entanglement_entropy(
    ensemble: BranchEnsemble, partition: Iterable[int], universe: Iterable[int] | None = None
) -> float:
    """Average entanglement across the cut (partition parties | the rest), in ebits."""
    parts = set(partition)
    all_parties = set(universe) if universe is not None else ensemble.parties()
    if not parts or not parts < all_parties:
        raise ValueError(f"partition {sorted(parts)} is not a proper nonempty subset of {sorted(all_parties)}")
    qubits = [q for q in ensemble.registry if q.party in parts]
    return entropy_of_qubits(ensemble, qubits)


def shannon_entropy(distribution) -> float:
    """Shannon entropy in bits of a probability distribution (mapping or sequence)."""
    probs = list(distribution.values()) if isinstance(distribution, Mapping) else list(distribution)
    if any(p < -1e-12 for p in probs):
        raise ValueError("probabilities must be nonnegative")
    total = sum(probs)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return float(-sum(p * math.log2(p) for p in probs if p > 0.0))


def branch_vectors(ensemble: BranchEnsemble, order: Sequence[QubitId]) -> list[tuple[float, np.ndarray]]:
    """Branch statevectors with qubit ``order[j]`` as amplitude-index bit j."""
    if sorted(order) != sorted(ensemble.registry):
        raise ValueError("order must list every registry qubit exactly once")
    k = ensemble.num_qubits
    positions = [ensemble.position(q) for q in order]
    return [(b.probability, _block(b.amplitudes, positions, k).reshape(-1)) for b in ensemble.branches]


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))) ** 2)


def ensemble_fidelity(ensemble: BranchEnsemble, order: Sequence[QubitId], reference: np.ndarray) -> float:
    """Worst-case branch fidelity against a reference pure state."""
    return min(state_fidelity(vec, reference) for _, vec in branch_vectors(ensemble, order))
