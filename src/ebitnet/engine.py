"""Exact pure-state simulation over a dynamic, party-tagged qubit registry.

States are kept as ensembles of weighted pure states: measurements split
branches instead of sampling, so outcome distributions, entropies and
fidelities are exact up to float arithmetic.  Qubits are allocated and
discarded dynamically; every qubit belongs to one party (laboratory).

Every branch is a product over the ensemble's product groups, ordered tuples
of qubit ids that partition the registry.  A branch holds one amplitude
factor per group, and bit j of a factor is the group's j-th qubit.
``product_groups`` is the one rule that carries the groups through an
operation; only the engine calls it, and the audit's replay reads the
groups from each ensemble.  New qubits start groups of their own (a phi+
pair one group), a gate or a measurement joins its targets' groups into one
whose factor is the kron of theirs, discarded qubits leave their group, and
renames rename its members.  ``_join`` locates an operation's targets and
joins their groups for gates, measurements and reduced densities alike.
``_block`` is the one layout of the bits an operation acts on: it views a
factor as a (2^m, rest) block whose row bit j is the j-th of those bits, and
``_unblock`` is its inverse.  Gates, kept outcomes, reduced densities,
entropies and dense vectors all go through it.  ``split_entropies`` is the one
entropy solve, and the one rule for the side of a split it solves.
``branch_vectors`` builds the dense vectors over the registry on demand.

Conventions, fixed once:

* registry position 0 is the least significant bit of the dense amplitude index;
* a gate matrix indexes its targets the same way (first target = bit 0);
* Bell labels "00"/"01"/"10"/"11" are (I, X, Z, XZ) applied to the second
  qubit of the standard maximally entangled pair, i.e. phi+, psi+, phi-,
  psi-.  A Bell measurement reports the phase bit first.

A branch is an immutable value.  Operations return new branches and
ensembles and never write into their input: branches and ensembles share
every factor and every record an operation did not change, so any ensemble,
such as a trace's initial state, stays valid as a snapshot however the run
goes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import gates

DEFAULT_MAX_QUBITS = 24
NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
POVM_TOL = 1e-10
PRUNE_TOL = 1e-14
COALESCE_TOL = 1e-10
EIG_TOL = 1e-12
# the most bytes one chunk of split_entropies holds at once (see _chunks)
ENTROPY_CHUNK_BYTES = 32 << 20


class RegistryCapacityError(RuntimeError):
    """Raised when an allocation would exceed the registry qubit cap."""


class QubitId(NamedTuple):
    """A qubit resident at a party, identified by an opaque local tag."""

    party: int
    label: str

    def __repr__(self) -> str:
        return f"{self.party}:{self.label}"


Group = tuple[QubitId, ...]


class Branch(NamedTuple):
    """One pure-state component of an ensemble: the product of ``factors``, one
    per product group of the owning ensemble.

    ``record`` holds classical measurement outcomes keyed by the global
    measurement counter of the owning ensemble; conditional corrections
    look outcomes up through it.
    """

    probability: float
    factors: tuple[np.ndarray, ...]
    record: Mapping[int, str]


@dataclass
class BranchEnsemble:
    """Probability-weighted set of pure product states over a shared registry."""

    registry: tuple[QubitId, ...]
    branches: list[Branch]
    max_qubits: int
    measurement_count: int
    groups: tuple[Group, ...]

    @classmethod
    def vacuum(cls, max_qubits: int = DEFAULT_MAX_QUBITS) -> "BranchEnsemble":
        return cls((), [Branch(1.0, (), {})], max_qubits, 0, ())

    @classmethod
    def from_vectors(cls, registry: Sequence[QubitId], branches: Sequence[tuple[float, Sequence[complex]]],
                     max_qubits: int) -> "BranchEnsemble":
        """The ensemble of the weighted dense vectors ``branches`` over ``registry``,
        registry qubit r as index bit r, once they pass every check of a state.

        This is the one constructor from dense vectors: a run's input and a
        trace header's initial state are both made here.  The registry must hold
        distinct ids and at most ``max_qubits`` of them, each probability must be
        non-negative and each vector hold 2^k entries, the probabilities must sum
        to 1 and each vector's norm be 1.  The whole registry is one product
        group, and an empty registry none: a branch over no qubits keeps no factor.
        """
        registry = tuple(registry)
        if len(set(registry)) != len(registry):
            raise ValueError("registry contains duplicate qubit ids")
        probabilities = [p for p, _ in branches]
        if not all(p >= 0 for p in probabilities):  # negated so that a NaN fails
            raise ValueError(f"branch probabilities must not be negative, got {probabilities}")
        vectors = [np.asarray(vec, dtype=complex) for _, vec in branches]
        if any(vec.shape != (1 << len(registry),) for vec in vectors):
            raise ValueError(f"every branch needs {1 << len(registry)} amplitudes")
        if len(registry) > max_qubits:
            raise ValueError(f"a registry of {len(registry)} qubits exceeds max_qubits {max_qubits}")
        groups = (registry,) if registry else ()
        ens = cls(registry, [Branch(p, (vec,) if registry else (), {}) for p, vec in zip(probabilities, vectors)],
                  max_qubits, 0, groups)
        try:
            ens.check(fresh=())
            for vec in vectors:
                _check_norm(vec)
        except AssertionError as exc:
            raise ValueError(f"initial state: {exc}") from None
        return ens

    @property
    def num_qubits(self) -> int:
        return len(self.registry)

    def parties(self) -> set[int]:
        return {q.party for q in self.registry}

    def locate(self, qubit: QubitId) -> tuple[int, int]:
        """The index of ``qubit``'s group and its bit in that group's factor."""
        for i, group in enumerate(self.groups):
            if qubit in group:
                return i, group.index(qubit)
        raise ValueError(f"unknown target qubit {qubit!r}")

    def check(self, fresh: Iterable[int] | None = None) -> None:
        """Refuse probabilities that do not sum to 1, and factors whose norm drifted.

        Only the factors at the group indices ``fresh`` are checked, all of
        them when it is None: an operation names the factors it produced, as
        the ones it shares were checked when they were made.
        """
        # the comparisons are negated so that a NaN fails them
        total = sum(b.probability for b in self.branches)
        if not abs(total - 1.0) <= NORM_TOL:
            raise AssertionError(f"branch probabilities sum to {total}")
        indices = range(len(self.groups)) if fresh is None else list(fresh)
        for b in self.branches:
            for i in indices:
                _check_norm(b.factors[i])


def _check_norm(vec: np.ndarray) -> None:
    norm = math.sqrt(np.vdot(vec, vec).real)
    if not abs(norm - 1.0) <= 1e-9:  # negated so that a NaN norm fails
        raise AssertionError(f"branch norm {norm} drifted from 1")


@dataclass(frozen=True)
class Gate:
    """A unitary bound to an ordered tuple of target qubits."""

    targets: tuple[QubitId, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "matrix", check_unitary([self.matrix], len(self.targets))[0])


def check_unitary(matrices: Sequence, n_targets: int) -> list[np.ndarray]:
    """``matrices`` as complex arrays, once each is the 2^n x 2^n matrix of a
    gate on ``n_targets`` = n qubits and is unitary to within UNITARY_TOL.

    This is the one gate-matrix rule, and it takes a gate event's matrices
    together: a ``Gate`` its one matrix, a traced ``LocalGate`` its matrix or
    every case matrix.  So it runs once for each gate a protocol steps or a
    load reads.  Every shape is checked first, then one stacked product
    M^H M - I covers all the matrices, and the first matrix past the
    tolerance is named by its own deviation.  The evolution functions trust
    the matrices they are given.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    dim = 1 << n_targets
    for mat in mats:
        if mat.shape != (dim, dim):
            raise ValueError(f"a gate on {n_targets} qubits needs a {dim}x{dim} matrix, got shape {mat.shape}")
    stack = mats[0][np.newaxis] if len(mats) == 1 else np.stack(mats)
    for err in np.abs(np.matmul(stack.conj().swapaxes(1, 2), stack) - np.eye(dim)).max(axis=(1, 2)).tolist():
        if not err <= UNITARY_TOL:  # negated so that a NaN deviation fails
            raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
    return mats


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
            # each comparison is negated so that a NaN entry fails it
            if not np.max(np.abs(e - e.conj().T)) <= POVM_TOL:
                raise ValueError(f"POVM element {i} is not Hermitian")
            if not np.min(np.linalg.eigvalsh(e)) >= -POVM_TOL:
                raise ValueError(f"POVM element {i} is not positive semidefinite")
            total += e
        if not np.max(np.abs(total - np.eye(dim))) <= POVM_TOL:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


# --------------------------------------------------------------------------
# low-level index plumbing


@lru_cache(maxsize=1024)
def _block_axes(positions: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The axes of a (2,) * k state tensor in the order of its block for the bits
    ``positions``: theirs, the last one first, then the others in index order."""
    rows = [k - 1 - p for p in reversed(positions)]
    return (*rows, *(a for a in range(k) if a not in rows))


@lru_cache(maxsize=1024)
def _unblock_axes(positions: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The inverse of the permutation ``_block_axes(positions, k)``."""
    return tuple(sorted(range(k), key=_block_axes(positions, k).__getitem__))


@lru_cache(maxsize=64)
def _reversed_column_axes(m: int) -> tuple[int, ...]:
    """The axes of an m-qubit matrix as a (2**m, 2, ..., 2) tensor with its column bits reversed."""
    return (0, *range(m, 0, -1))


def _block(vec: np.ndarray, positions: Sequence[int], k: int) -> np.ndarray:
    """A 2**k statevector as a (2**m, rest) block for the m bits ``positions``.

    Row index bit j is the qubit at ``positions[j]``; columns run over the
    other qubits in their original index order.
    """
    return vec.reshape((2,) * k).transpose(_block_axes(tuple(positions), k)).reshape(1 << len(positions), -1)


def _unblock(block: np.ndarray, positions: Sequence[int], k: int) -> np.ndarray:
    """The 2**k statevector whose ``_block`` for the bits ``positions`` is ``block``."""
    return block.reshape((2,) * k).transpose(_unblock_axes(tuple(positions), k)).reshape(-1)


def _apply_matrix(vec: np.ndarray, positions: Sequence[int], matrix: np.ndarray, k: int) -> np.ndarray:
    """Apply ``matrix`` to the bits ``positions`` of a 2**k statevector.

    The product is the matrix with its column bits reversed times the
    ``_block`` of the reversed targets, put back by ``_unblock``.  These are the
    operands np.tensordot builds to contract column bit j with the state axis
    of gate bit j, so the same ``np.dot`` sums in its order.  A matmul of
    ``matrix`` over the ``_block`` of ``positions`` would sum in another order,
    move the last digit of recorded distributions and so change traces.
    """
    m = len(positions)
    op = matrix.reshape(1 << m, *(2,) * m).transpose(_reversed_column_axes(m)).reshape(1 << m, 1 << m)
    return _unblock(np.dot(op, _block(vec, positions[::-1], k)), positions, k)


def _blocks(stack: np.ndarray, sides: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """The ``_block`` of each statevector of a (B, 2**k) stack for each of ``sides``,
    all of m bits, as one (B, len(sides), 2**m, 2**(k - m)) array made in one copy."""
    tensor = stack.reshape(len(stack), 1, *(2,) * k)
    views = [tensor.transpose(0, 1, *[a + 2 for a in _block_axes(tuple(side), k)]) for side in sides]
    return np.concatenate(views, axis=1).reshape(len(stack), len(sides), 1 << len(sides[0]), -1)


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The product state of ``factors``, factor 0 on the least significant bits.

    One factor is returned as it is, so the caller must not write into the result.
    """
    if not factors:
        return np.ones(1, dtype=complex)
    vec = factors[0]
    for f in factors[1:]:
        vec = np.multiply.outer(f, vec).reshape(-1)  # np.kron(f, vec), without its overhead for any shape
    return vec


# --------------------------------------------------------------------------
# product groups


def product_groups(
    groups: Sequence[Group],
    joined: Collection[QubitId] | None = None,
    discarded: Collection[QubitId] = frozenset(),
    renames: Mapping[QubitId, QubitId] | None = None,
    added: Sequence[Group] = (),
) -> tuple[tuple[Group, ...], list[tuple[int, ...]]]:
    """The product groups after an operation, from the groups before it, and for
    each group after it the indices of the groups before it that it holds.

    This is the one grouping rule of the engine's factors; only the engine
    calls it.  ``renames`` maps a qubit to the id it has afterwards.
    A gate or a measurement acts on the set ``joined`` at once: the groups
    holding any of those qubits become one group, placed last, that lists their
    qubits group by group, so its factor is the kron of theirs.  The set
    ``discarded`` then leaves its groups, and a group left with none of its
    qubits is gone.  The ``added`` groups come last.  Every other group keeps
    its place, its order and its factor.
    """
    sources = list(zip(range(len(groups))))
    if renames:
        groups = [g if renames.keys().isdisjoint(g) else tuple(map(renames.get, g, g)) for g in groups]
    hit = () if joined is None else tuple([i for i, g in enumerate(groups) if not joined.isdisjoint(g)])
    if joined is not None and hit != (len(groups) - 1,):  # a join of the last group alone moves nothing
        apart = [i for i in range(len(groups)) if i not in hit]
        sources = [(i,) for i in apart] + [hit]
        groups = [groups[i] for i in apart] + [tuple([q for i in hit for q in groups[i]])]
    if discarded:
        kept = [j for j, g in enumerate(groups) if not discarded.issuperset(g)]
        sources = [sources[j] for j in kept]
        groups = [groups[j] if discarded.isdisjoint(groups[j]) else tuple([q for q in groups[j] if q not in discarded])
                  for j in kept]
    return (*groups, *added), sources + [()] * len(added)


def _join(ensemble: BranchEnsemble, targets: Sequence[QubitId], what: str):
    """Locate the targets of a ``what`` (a gate, a measurement or a reduced
    density), once they are nonempty and distinct, and join their groups by
    ``product_groups``: every engine operation on targets starts here.

    Returns the groups after the join, the joined one last; the indices of the
    groups left apart; each target's bit in the kron of the joined factors; and
    that kron of each branch in turn, which the caller must not write into.
    """
    joined = set(targets)
    if not joined:  # it would add a group of no qubits
        raise ValueError(f"a {what} needs at least one target")
    if len(joined) != len(targets):
        raise ValueError(f"{what} targets must be distinct")
    located = [ensemble.locate(q) for q in targets]
    groups, sources = product_groups(ensemble.groups, joined=joined)
    *apart, hit = sources
    offsets, bit = {}, 0  # each joined group's first bit in the kron of their factors
    for i in hit:
        offsets[i], bit = bit, bit + len(ensemble.groups[i])
    return (groups, [i for (i,) in apart], [offsets[i] + j for i, j in located],
            (_kron([b.factors[i] for i in hit]) for b in ensemble.branches))


# --------------------------------------------------------------------------
# registry management


def allocate_qubits(ensemble: BranchEnsemble, qubits: Sequence[QubitId], init: str) -> BranchEnsemble:
    """Append the fresh ``qubits`` in the basis state ``init``, one '0'/'1' character each.

    New qubits occupy the highest registry positions, each in a group of its own.
    """
    blocks = [np.zeros(2, dtype=complex) for _ in qubits]
    for block, c in zip(blocks, init):
        block[int(c)] = 1.0
    return _append(ensemble, [(q,) for q in qubits], blocks)


def insert_bell_pair(ensemble: BranchEnsemble, first: QubitId, second: QubitId) -> BranchEnsemble:
    """Append two fresh qubits jointly in the phi+ state.

    This is the resource primitive that realizes a held ebit in the
    statevector; it is not a local operation.
    """
    return _append(ensemble, [(first, second)], [np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)])


def _append(ensemble: BranchEnsemble, new_groups: Sequence[Group], blocks: Sequence[np.ndarray]) -> BranchEnsemble:
    """Append the groups ``new_groups`` to the registry, ``blocks[i]`` the factor of
    ``new_groups[i]`` in every branch."""
    new_ids = tuple(q for group in new_groups for q in group)
    if ensemble.num_qubits + len(new_ids) > ensemble.max_qubits:
        raise RegistryCapacityError(
            f"allocating {len(new_ids)} qubits would exceed the registry cap of {ensemble.max_qubits}"
        )
    if len(set(new_ids)) != len(new_ids) or set(new_ids) & set(ensemble.registry):
        raise ValueError("new qubit ids collide with existing registry entries")
    registry = ensemble.registry + new_ids
    groups, _ = product_groups(ensemble.groups, added=new_groups)
    branches = [Branch(b.probability, (*b.factors, *blocks), b.record) for b in ensemble.branches]
    return BranchEnsemble(registry, branches, ensemble.max_qubits, ensemble.measurement_count, groups)


def relabel_qubits(ensemble: BranchEnsemble, renames: Mapping[QubitId, QubitId]) -> BranchEnsemble:
    """Rename registry entries (party and/or label), all at once; no amplitude moves.

    A qubit permutation is such a rename: the state of ``q`` moves to
    ``renames[q]``.  The ids produced must be distinct, and the branches are
    shared with ``ensemble``.
    """
    for old in renames:
        ensemble.locate(old)
    registry = tuple(map(renames.get, ensemble.registry, ensemble.registry))
    if len(set(registry)) != len(registry):
        twice = next(q for q in registry if registry.count(q) > 1)
        raise ValueError(f"qubit id {twice!r} already in use")
    groups, _ = product_groups(ensemble.groups, renames=renames)
    return BranchEnsemble(registry, ensemble.branches, ensemble.max_qubits, ensemble.measurement_count, groups)


# --------------------------------------------------------------------------
# evolution


def apply_gate(ensemble: BranchEnsemble, gate: Gate) -> BranchEnsemble:
    """Apply a unitary to every branch; norms are preserved to 1e-12.

    Only ``gate.targets`` and ``gate.matrix`` are read, so a traced local gate
    with a matrix serves as well as a ``Gate``; its unitarity is not checked again.
    """
    return _evolve(ensemble, gate.targets, lambda branch: gate.matrix)


def apply_conditional(
    ensemble: BranchEnsemble,
    targets: Sequence[QubitId],
    cases: Mapping[str, np.ndarray],
    measurement_index: int,
) -> BranchEnsemble:
    """Apply an outcome-dependent unitary per branch.

    ``cases`` maps the outcome string of measurement ``measurement_index``
    (as stored in each branch record) to the matrix applied on that branch;
    the matrices are trusted to be unitaries on ``targets``.
    """
    def case_of(branch: Branch) -> np.ndarray:
        if measurement_index not in branch.record:
            raise ValueError(f"branch has no outcome recorded for measurement {measurement_index}")
        outcome = branch.record[measurement_index]
        if outcome not in cases:
            raise ValueError(f"no case for outcome {outcome!r}")
        return cases[outcome]

    return _evolve(ensemble, targets, case_of)


def _evolve(ensemble: BranchEnsemble, targets: Sequence[QubitId], matrix_of) -> BranchEnsemble:
    """Apply ``matrix_of(branch)`` to ``targets`` of every branch, in the factor of
    their joined groups; the other factors are shared."""
    groups, apart, positions, gathered = _join(ensemble, targets, "gate")
    branches = []
    for b, factor in zip(ensemble.branches, gathered):
        factor = _apply_matrix(factor, positions, matrix_of(b), len(groups[-1]))
        branches.append(Branch(b.probability, (*(b.factors[i] for i in apart), factor), b.record))
    out = BranchEnsemble(ensemble.registry, branches, ensemble.max_qubits, ensemble.measurement_count, groups)
    out.check(fresh=(len(groups) - 1,))
    return out


def measure_computational(
    ensemble: BranchEnsemble, targets: Sequence[QubitId], discard: bool = False
) -> tuple[BranchEnsemble, dict[str, float]]:
    """Projective measurement in the computational basis.

    Every branch splits into its nonzero outcomes with Born-rule weights;
    branches below the pruning threshold are dropped.  The measurement joins
    its targets' groups as a gate does.  With ``discard`` the measured qubits
    leave the registry.  The outcome string lists target values in target
    order.  Returns the post-measurement ensemble and the aggregate outcome
    distribution.
    """
    return _measure(ensemble, targets, discard, None)


def _measure(ensemble: BranchEnsemble, targets: Sequence[QubitId], discard: bool,
             basis_change: np.ndarray | None) -> tuple[BranchEnsemble, dict[str, float]]:
    """The one measurement kernel: it acts on one block of the joined factor of
    ``targets``, after ``basis_change`` when one is given.

    Row ``code`` of the block holds the amplitudes of that outcome, so its
    squared norm is the outcome's weight.  A discarded outcome keeps the row
    alone, and the joined group shrinks by the targets; a kept one is written
    into row ``code`` of a zero block and put back by ``_unblock``, and the
    adjoint of ``basis_change`` is applied to it.
    """
    joined, apart, positions, gathered = _join(ensemble, targets, "measurement")
    size, gone = len(joined[-1]), set(targets)
    groups = product_groups(joined, discarded=gone)[0] if discard else joined
    registry = tuple([q for q in ensemble.registry if q not in gone]) if discard else ensemble.registry
    remains = len(groups) > len(apart)  # the joined group keeps a qubit
    midx = ensemble.measurement_count
    dist: dict[str, float] = {}
    branches: list[Branch] = []
    for b, factor in zip(ensemble.branches, gathered):
        if basis_change is not None:
            factor = _apply_matrix(factor, positions, basis_change, size)
        rest = tuple(b.factors[i] for i in apart)
        rows = _block(factor, positions, size)
        # np.add.reduce is np.sum without its wrapper; each row of the contiguous
        # squares is summed in the pairwise order of a sum of that row alone
        weights = np.add.reduce(np.abs(rows) ** 2, axis=1)
        probs = [b.probability * weight for weight in weights.tolist()]
        kept = [code for code, prob in enumerate(probs) if not prob <= PRUNE_TOL]  # a NaN is kept for check to refuse
        # only the kept rows are divided, so an outcome of weight 0 warns nothing
        for code, state in zip(kept, rows[kept] / np.sqrt(weights[kept])[:, np.newaxis]):
            prob = probs[code]
            outcome = format(code, f"0{len(targets)}b")[::-1]  # target j as character j
            dist[outcome] = dist.get(outcome, 0.0) + prob
            if not discard:
                block = np.zeros(rows.shape, dtype=complex)
                block[code] = state
                state = _unblock(block, positions, size)
                if basis_change is not None:
                    state = _apply_matrix(state, positions, basis_change.conj().T, size)
            record = dict(b.record)
            record[midx] = outcome
            branches.append(Branch(prob, (*rest, state) if remains else rest, record))
    out = BranchEnsemble(registry, branches, ensemble.max_qubits, midx + 1, groups)
    out.check(fresh=range(len(apart), len(groups)))
    return out, dict(sorted(dist.items()))


# Two-qubit unitary sending each Bell state to its label's basis state:
# CNOT from the first qubit (bit 0), then a Hadamard on it.
_BELL_BASIS_CHANGE = np.kron(np.eye(2), gates.HADAMARD) @ gates.cnot_unitary()


def bell_measure(
    ensemble: BranchEnsemble, pair: Sequence[QubitId], discard: bool = False
) -> tuple[BranchEnsemble, dict[str, float]]:
    """Projective measurement of two qubits in the fixed Bell basis: the
    computational measurement of the pair after the basis change, which is
    undone when the pair is kept.

    The 2-bit outcome is (phase bit, flip bit), so phi+ reads "00", psi+
    "01", phi- "10" and psi- "11".
    """
    if len(pair) != 2:
        raise ValueError("bell_measure targets exactly 2 qubits")
    return _measure(ensemble, pair, discard, _BELL_BASIS_CHANGE)


def measure_povm(ensemble: BranchEnsemble, povm: Povm, targets: Sequence[QubitId]) -> list[float]:
    """Outcome probabilities of a POVM on ``targets``; the state is untouched."""
    if povm.dim != 1 << len(targets):
        raise ValueError(f"POVM dimension {povm.dim} does not match {len(targets)} targets")
    rho = reduced_density(ensemble, targets)
    probs = [float(np.real(np.trace(rho @ e))) for e in povm.elements]
    total = sum(probs)
    if not abs(total - 1.0) <= 1e-10:  # negated so that a NaN sum fails
        raise AssertionError(f"POVM probabilities sum to {total}")
    return probs


def _canonical(vec: np.ndarray) -> np.ndarray:
    """``vec`` with the global phase that makes its first nonzero amplitude real and positive."""
    anchor = int(np.argmax(np.abs(vec) > 1e-9))
    return vec * np.conj(vec[anchor] / abs(vec[anchor]))


def coalesce(ensemble: BranchEnsemble) -> BranchEnsemble:
    """Merge branches whose states agree up to a global phase, factor by factor.

    Classical records survive only where merged branches agree, so
    conditioning across a coalesce is rejected loudly by apply_conditional.
    """
    # each merged branch as its canonical factors and [probability, factors, record]
    kept: list[tuple[list[np.ndarray], list]] = []
    for b in ensemble.branches:
        canon = [_canonical(f) for f in b.factors]
        for canon_k, merged in kept:
            # np.allclose(x, y, rtol=0, atol=COALESCE_TOL), without its overhead; a NaN fails it
            if all(x.shape == y.shape and (np.abs(x - y) <= COALESCE_TOL).all() for x, y in zip(canon_k, canon)):
                merged[0] += b.probability
                merged[2] = {k: v for k, v in merged[2].items() if b.record.get(k) == v}
                break
        else:
            kept.append((canon, list(b)))
    return BranchEnsemble(ensemble.registry, [Branch(*merged) for _, merged in kept], ensemble.max_qubits,
                          ensemble.measurement_count, ensemble.groups)


# --------------------------------------------------------------------------
# queries


def reduced_density(ensemble: BranchEnsemble, subset: Sequence[QubitId]) -> np.ndarray:
    """Ensemble-averaged density matrix of ``subset``, from the kron of the factors that hold it.

    Basis index bit j is ``subset[j]``, as a gate matrix reads its targets;
    trace is 1 and the result Hermitian to 1e-10.
    """
    groups, _, bits, gathered = _join(ensemble, subset, "reduced density")
    rho = np.zeros((1 << len(subset),) * 2, dtype=complex)
    for b, factor in zip(ensemble.branches, gathered):
        # row index bit j of the block is subset[j]
        mat = _block(factor, bits, len(groups[-1]))
        rho += b.probability * (mat @ mat.conj().T)
    return rho


def split_entropies(ensemble: BranchEnsemble, splits: Iterable[tuple[int, Iterable[int]]]) -> list[float]:
    """Probability-weighted per-branch von Neumann entropy (base 2) of each split.

    A split is (group index, bits of that group's factor on one side).  The
    factor is pure, so both sides share one Schmidt spectrum, and this is the
    one place that picks the side to solve: the smaller one, and of two halves
    the one without the group's last bit; an empty side is a product cut, of
    entropy 0.  So a split has one value, whichever side it is given by.  It is
    read from the Grams of that side, side size by side size, in chunks of at
    most ENTROPY_CHUNK_BYTES (``_chunks``): within a chunk, the blocks of each
    group's splits are copied out of its branch-stacked factors together
    (``_blocks``) and get their (B, 2^m, 2^m) Grams in one batched matmul, and
    the whole chunk goes through one ``eigvalsh`` call, which solves each matrix
    on its own.  A split weighs its per-branch entropies in branch order, so its
    value does not depend on the other splits of the call.
    """
    groups, branches = ensemble.groups, ensemble.branches
    probabilities = [b.probability for b in branches]
    entropies = []  # of each split; one whose side is empty stays 0.0
    # side size -> (group index, solved side as bits of the group's factor, index in entropies) of each split
    by_size: dict[int, list[tuple[int, list[int], int]]] = {}
    for i, bits in splits:
        size = len(groups[i])
        mask = sum(1 << j for j in set(bits))
        # the smaller of the side and its complement, and of two halves the one without bit size - 1
        side = min(mask, ((1 << size) - 1) ^ mask, key=lambda m: (m.bit_count(), m))
        if side:
            split = (i, [j for j in range(size) if side >> j & 1], len(entropies))
            by_size.setdefault(side.bit_count(), []).append(split)
        entropies.append(0.0)
    stacks: dict[int, np.ndarray] = {}
    for m, sides in by_size.items():
        for chunk in _chunks(sides, len(branches), list(map(len, groups))):
            grams = np.empty((len(branches), len(chunk), 1 << m, 1 << m), dtype=complex)
            at = 0
            for i, run in groupby(chunk, key=lambda s: sides[s][0]):
                run = list(run)
                if i not in stacks:
                    stacks[i] = (branches[0].factors[i][np.newaxis] if len(branches) == 1
                                 else np.stack([b.factors[i] for b in branches]))
                blocks = _blocks(stacks[i], [sides[s][1] for s in run], len(groups[i]))
                np.matmul(blocks, blocks.conj().swapaxes(-1, -2), out=grams[:, at:at + len(run)])
                at += len(run)
            eigs = np.linalg.eigvalsh(grams)
            logs = np.log2(eigs, out=np.zeros(eigs.shape), where=eigs > EIG_TOL)
            # np.add.reduce is np.sum without its wrapper; clamped at 0: an eigenvalue a
            # rounding error above 1 has a small negative term
            per_branch = np.maximum(-np.add.reduce(eigs * logs, axis=-1), 0.0).T.tolist()
            for s, values in zip(chunk, per_branch):
                entropies[sides[s][2]] = sum(p * v for p, v in zip(probabilities, values))
    return entropies


def _chunks(splits: Sequence[tuple], n_branches: int, sizes: Sequence[int]) -> list[list[int]]:
    """The indices of ``splits``, (group index, side, ...) all of one side size, sorted
    by group and cut into runs that each hold at most ENTROPY_CHUNK_BYTES at once;
    ``sizes`` are the groups' qubit counts.  A split holds its blocks and their
    conjugates and its Gram stack; a split over the limit is a run of its own."""
    chunks: list[list[int]] = []
    held = ENTROPY_CHUNK_BYTES
    for s in sorted(range(len(splits)), key=lambda s: splits[s][0]):
        i, side = splits[s][:2]
        need = 16 * n_branches * ((2 << sizes[i]) + (1 << 2 * len(side)))
        if held + need > ENTROPY_CHUNK_BYTES:
            chunks.append([])
            held = 0
        chunks[-1].append(s)
        held += need
    return chunks


def entanglement_entropy(
    ensemble: BranchEnsemble, partition: Iterable[int], universe: Iterable[int] | None = None
) -> float:
    """Average entanglement across the cut (partition parties | the rest), in ebits."""
    parts = set(partition)
    all_parties = set(universe) if universe is not None else ensemble.parties()
    if not parts or not parts < all_parties:
        raise ValueError(f"partition {sorted(parts)} is not a proper nonempty subset of {sorted(all_parties)}")
    splits = [(i, [j for j, q in enumerate(group) if q.party in parts]) for i, group in enumerate(ensemble.groups)]
    total = 0.0
    for term in split_entropies(ensemble, splits):  # in group order, one by one, as the audit adds them
        total += term  # not sum(): from Python 3.12 it adds floats with compensation
    return total


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
    """Dense branch statevectors with qubit ``order[j]`` as amplitude-index bit j."""
    if sorted(order) != sorted(ensemble.registry):
        raise ValueError("order must list every registry qubit exactly once")
    # the kron of a branch's factors holds the groups' qubits one group after another
    bits = list(map([q for group in ensemble.groups for q in group].index, order))
    return [(b.probability, _block(_kron(b.factors), bits, len(bits)).reshape(-1).copy()) for b in ensemble.branches]


def ensemble_fidelity(ensemble: BranchEnsemble, order: Sequence[QubitId], reference: np.ndarray) -> float:
    """Worst-case branch fidelity against a reference pure state."""
    return min(float(abs(np.vdot(vec, reference)) ** 2) for _, vec in branch_vectors(ensemble, order))
