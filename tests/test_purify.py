import math

import numpy as np
import pytest

from helpers import random_density
from qsdiag import (
    DensityMatrix,
    dm_from_pure,
    partial_trace,
    purify_single_qubit,
    simulate,
    synthesize_purification_circuit,
)

SQ2 = 1.0 / math.sqrt(2.0)


def reduced_system(state) -> np.ndarray:
    """Trace the ancilla (LSB) out of a two-qubit pure state."""
    rho = dm_from_pure(state)
    return partial_trace(rho, [0]).matrix


def test_pure_input_purifies_to_itself():
    res = purify_single_qubit(DensityMatrix(np.diag([1.0, 0.0])))
    assert np.allclose(res.state.amplitudes, [1, 0, 0, 0])
    assert res.theta1 == 0.0
    assert res.theta2 == 0.0
    assert res.phi == 0.0


def test_maximally_mixed_gives_bell_state():
    res = purify_single_qubit(DensityMatrix(np.eye(2) / 2))
    assert res.c00 == pytest.approx(SQ2)
    assert res.c10 == pytest.approx(0.0)
    assert res.c11 == pytest.approx(SQ2)
    assert np.allclose(res.state.amplitudes, [SQ2, 0, 0, SQ2])


def test_rank_one_coherent_input():
    rho = DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
    res = purify_single_qubit(rho)
    assert res.c00 == pytest.approx(SQ2)
    assert res.c10 == pytest.approx(SQ2)
    assert abs(res.c11) < 1e-12


def test_gauge_conditions():
    gen = np.random.default_rng(31)
    for _ in range(50):
        res = purify_single_qubit(random_density(gen))
        assert res.c01 == 0
        assert res.c00.imag == 0 and res.c00.real >= 0
        total = sum(abs(c) ** 2 for c in (res.c00, res.c01, res.c10, res.c11))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_round_trip_random():
    gen = np.random.default_rng(32)
    for _ in range(200):
        rho = random_density(gen)
        res = purify_single_qubit(rho)
        assert np.abs(reduced_system(res.state) - rho.matrix).max() < 1e-10


def test_round_trip_near_degenerate_top_entry():
    # rho00 -> 0 exercises the division guard in the closed form
    for eps in (1e-6, 1e-12, 1e-18, 0.0):
        off = math.sqrt(eps * (1 - eps)) * 0.9
        rho = DensityMatrix([[eps, off], [off, 1 - eps]])
        res = purify_single_qubit(rho)
        assert np.abs(reduced_system(res.state) - rho.matrix).max() < 1e-10


def test_round_trip_near_pure_zero_state():
    # rho11 -> 0: C11's radicand approaches zero
    for eps in (1e-4, 1e-10, 0.0):
        rho = DensityMatrix([[1 - eps, 0], [0, eps]])
        res = purify_single_qubit(rho)
        assert np.abs(reduced_system(res.state) - rho.matrix).max() < 1e-10


def test_angles_for_maximally_mixed():
    res = purify_single_qubit(DensityMatrix(np.eye(2) / 2))
    theta1, theta2, phi = res.theta1, res.theta2, res.phi
    # cos(theta1) = sqrt(1/2): the quarter turn, not the half turn
    assert theta1 == pytest.approx(math.pi / 4)
    assert theta2 == pytest.approx(math.pi / 2)
    assert phi == 0.0


def test_angle_ranges():
    gen = np.random.default_rng(33)
    for _ in range(50):
        res = purify_single_qubit(random_density(gen))
        theta1, theta2, phi = res.theta1, res.theta2, res.phi
        assert 0 <= theta1 <= math.pi / 2 + 1e-12
        assert 0 <= theta2 <= math.pi / 2 + 1e-12
        assert -math.pi <= phi <= math.pi


def test_phase_matches_conjugated_off_diagonal():
    rho = DensityMatrix([[0.5, 0.25j], [-0.25j, 0.5]])
    res = purify_single_qubit(rho)
    assert res.phi == pytest.approx(-math.pi / 2)
    assert np.angle(res.c10) == pytest.approx(-math.pi / 2)


def test_circuit_reproduces_closed_form():
    gen = np.random.default_rng(34)
    for _ in range(50):
        rho = random_density(gen)
        res = purify_single_qubit(rho)
        out = simulate(synthesize_purification_circuit(rho))
        assert np.abs(out.amplitudes - res.state.amplitudes).max() < 1e-10


def test_circuit_for_pure_input_is_identity_on_00():
    out = simulate(synthesize_purification_circuit(DensityMatrix(np.diag([1.0, 0.0]))))
    assert np.allclose(out.amplitudes, [1, 0, 0, 0])


def test_circuit_for_maximally_mixed():
    out = simulate(synthesize_purification_circuit(DensityMatrix(np.eye(2) / 2)))
    assert np.abs(out.amplitudes - np.array([SQ2, 0, 0, SQ2])).max() < 1e-12


def test_rejects_multi_qubit_input():
    gen = np.random.default_rng(35)
    with pytest.raises(ValueError):
        purify_single_qubit(random_density(gen, 2))
