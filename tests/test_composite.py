import math

import numpy as np
import pytest

from helpers import SX, SZ, immerse_oracle, partial_trace_oracle, permute_oracle, random_density
from qsdiag import (
    DensityMatrix,
    PureState,
    dm_from_pure,
    partial_trace,
    tensor,
)


def test_tensor_identities():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_orders_first_factor_most_significant():
    rho = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    full = tensor(np.diag([1.0, 0.0]), rho)
    assert np.allclose(full[:2, :2], rho)
    assert np.abs(full[2:, :]).max() == 0
    assert np.abs(full[:, 2:]).max() == 0


def test_tensor_pauli_blocks():
    m = tensor(SX, SZ)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = SZ
    expected[2:4, 0:2] = SZ
    assert np.array_equal(m, expected)


def test_partial_trace_bell():
    bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2.0))
    reduced = partial_trace(dm_from_pure(bell), [1])
    assert np.allclose(reduced.matrix, np.eye(2) / 2)


def test_partial_trace_product_state():
    gen = np.random.default_rng(3)
    a = random_density(gen)
    b = random_density(gen)
    rho = DensityMatrix(tensor(a.matrix, b.matrix))
    assert np.abs(partial_trace(rho, [1]).matrix - b.matrix).max() < 1e-12
    assert np.abs(partial_trace(rho, [0]).matrix - a.matrix).max() < 1e-12


def test_partial_trace_msb_adds_diagonal_blocks():
    gen = np.random.default_rng(4)
    rho = random_density(gen, 2)
    m = rho.matrix
    expected = m[:2, :2] + m[2:, 2:]
    assert np.allclose(partial_trace(rho, [1]).matrix, expected)


def test_partial_trace_matches_reshape_oracle():
    gen = np.random.default_rng(5)
    for n in (2, 3, 4):
        rho = random_density(gen, n)
        candidates = [[0], [n - 1], [0, n - 1], list(range(1, n))]
        for traced in candidates:
            if len(traced) == n:
                continue
            got = partial_trace(rho, traced).matrix
            want = partial_trace_oracle(rho.matrix, n, traced)
            assert np.abs(got - want).max() < 1e-12


def test_partial_trace_is_sequential():
    gen = np.random.default_rng(6)
    rho = random_density(gen, 3)
    both = partial_trace(rho, [0, 2])
    one_then_other = partial_trace(partial_trace(rho, [2]), [0])
    assert np.abs(both.matrix - one_then_other.matrix).max() < 1e-12


def test_partial_trace_rejects_degenerate_sets():
    gen = np.random.default_rng(7)
    rho = random_density(gen, 2)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [0, 1])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])
    with pytest.raises(ValueError):
        partial_trace(rho, [1, 0])  # must be strictly increasing


# --- the test oracles for qubit relabelling and dense immersion --------------

def test_permute_identity_and_swap():
    gen = np.random.default_rng(8)
    rho = random_density(gen, 2)
    assert np.array_equal(permute_oracle(rho.matrix, [0, 1]), rho.matrix)

    ket01 = dm_from_pure(PureState([0, 1, 0, 0]))  # qubit 0 set
    swapped = permute_oracle(ket01.matrix, [1, 0])
    assert np.allclose(swapped, dm_from_pure(PureState([0, 0, 1, 0])).matrix)


def test_permute_then_trace_matches_other_side():
    gen = np.random.default_rng(9)
    for _ in range(10):
        rho = random_density(gen, 2)
        direct = partial_trace(rho, [0])
        via_swap = partial_trace(DensityMatrix(permute_oracle(rho.matrix, [1, 0])), [1])
        assert np.abs(direct.matrix - via_swap.matrix).max() < 1e-12


def test_permute_preserves_spectrum():
    gen = np.random.default_rng(10)
    rho = random_density(gen, 3)
    before = np.linalg.eigvalsh(rho.matrix)
    after = np.linalg.eigvalsh(permute_oracle(rho.matrix, [2, 0, 1]))
    assert np.abs(before - after).max() < 1e-10


def test_immerse_single_qubit_gate():
    assert np.array_equal(immerse_oracle(SX, [0], 2), np.kron(np.eye(2), SX))
    assert np.array_equal(immerse_oracle(SX, [1], 2), np.kron(SX, np.eye(2)))


def test_immerse_cnot_truth_table():
    cnot = np.zeros((4, 4), dtype=complex)
    cnot[0, 0] = cnot[1, 1] = cnot[3, 2] = cnot[2, 3] = 1  # control = MSB
    full = immerse_oracle(cnot, [0, 1], 2)
    assert np.array_equal(full, cnot)
    # |10> (index 2) flips to |11> (index 3)
    assert full[3, 2] == 1 and full[2, 3] == 1 and full[2, 2] == 0


def test_immerse_preserves_unitarity():
    had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    u = immerse_oracle(had, [1], 3)
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12


def test_immerse_two_qubit_gate_in_three():
    gen = np.random.default_rng(12)
    rho = random_density(gen, 1)
    # swap immersed on qubits (0, 2) exchanges those marginals
    swap = np.eye(4)[[0, 2, 1, 3]]
    state = DensityMatrix(tensor(np.diag([1.0, 0.0]), tensor(np.eye(2) / 2, rho.matrix)))
    u = immerse_oracle(swap, [0, 2], 3)
    moved = DensityMatrix(u @ state.matrix @ u.conj().T)
    assert np.abs(partial_trace(moved, [0, 1]).matrix - rho.matrix).max() < 1e-12
