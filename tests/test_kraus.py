import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    SX,
    channel_to_json_oracle,
    kraus_apply_raw,
    partial_trace_oracle,
    random_density,
    random_unitary,
)
from qsdiag import (
    CHANNEL_KINDS,
    ChannelSpec,
    KrausChannel,
    PureState,
    apply_channel,
    channel_from_json_dict,
    channel_from_spec,
    channel_with_ancilla,
    dilate_single_ancilla,
    kraus_from_unitary,
    make_amp_damp,
    make_deformation,
    tensor,
    validate_channel,
)

CNOT_MSB = np.eye(4)[[0, 1, 3, 2]].astype(complex)


def env_state(theta: float) -> PureState:
    return PureState([math.cos(theta / 2.0), math.sin(theta / 2.0)])


def test_validate_identity_channel():
    assert validate_channel(KrausChannel((np.eye(2),))) == 0.0


def test_validate_broken_channel_defect():
    assert validate_channel(KrausChannel((np.eye(2) / 2,))) == pytest.approx(0.75)


def test_validate_deformation_operators():
    ch = make_deformation("bit_flip", math.pi / 3)
    assert validate_channel(ch) <= 1e-15


def test_apply_identity_channel():
    gen = np.random.default_rng(41)
    rho = random_density(gen)
    out = apply_channel(KrausChannel((np.eye(2),)), rho)
    assert np.array_equal(out.matrix, rho.matrix)


def test_apply_full_bit_flip():
    gen = np.random.default_rng(42)
    rho = random_density(gen)
    out = apply_channel(make_deformation("bit_flip", math.pi), rho)
    assert np.abs(out.matrix - SX @ rho.matrix @ SX).max() < 1e-12


def test_apply_rejects_incomplete_channel():
    gen = np.random.default_rng(43)
    with pytest.raises(ValueError):
        apply_channel(KrausChannel((np.eye(2) / 2,)), random_density(gen))


def test_apply_rejects_dimension_mismatch():
    gen = np.random.default_rng(44)
    with pytest.raises(ValueError):
        apply_channel(KrausChannel((np.eye(2),)), random_density(gen, 2))


def test_apply_preserves_trace_and_hermiticity():
    gen = np.random.default_rng(45)
    for theta in np.linspace(0.1, math.pi, 7):
        ch = make_amp_damp("y", "minus", theta)
        rho = random_density(gen)
        out = apply_channel(ch, rho).matrix
        assert abs(out.trace() - 1.0) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


@pytest.mark.parametrize("steps", [0, 1, 7, 80])
@pytest.mark.parametrize("kind", sorted(CHANNEL_KINDS))
def test_steps_equal_successive_single_applications(kind, steps):
    gen = np.random.default_rng(49)
    env = (0.1, 0.7, 0.1j, math.sqrt(0.49))
    spec = (ChannelSpec(kind, 0.0, env) if kind == "depolarizing_general"
            else ChannelSpec(kind, 1.3))
    ch = channel_from_spec(spec)
    rho = random_density(gen)
    single = rho
    for _ in range(steps):
        single = apply_channel(ch, single)
    assert np.array_equal(apply_channel(ch, rho, steps=steps).matrix, single.matrix)


def test_four_qubit_channel_allocates_no_transfer_matrix():
    """Above three qubits the channel keeps the operator sum: its 256 x 256
    transfer matrix would take 1 MiB."""
    gen = np.random.default_rng(51)
    q = np.linalg.qr(gen.normal(size=(64, 16)) + 1j * gen.normal(size=(64, 16)))[0]
    ch = KrausChannel(tuple(q[16 * i:16 * i + 16] for i in range(4)))
    rho = random_density(gen, 4)
    tracemalloc.start()
    try:
        apply_channel(ch, rho, steps=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_apply_rejects_negative_steps():
    gen = np.random.default_rng(50)
    with pytest.raises(ValueError, match="non-negative"):
        apply_channel(KrausChannel((np.eye(2),)), random_density(gen), steps=-1)


def test_apply_checks_the_channel_even_for_zero_steps():
    gen = np.random.default_rng(51)
    with pytest.raises(ValueError, match="not trace preserving"):
        apply_channel(KrausChannel((np.eye(2) / 2,)), random_density(gen), steps=0)


def test_kraus_from_identity_unitary():
    ch = kraus_from_unitary(np.eye(4), PureState([1.0, 0.0]))
    assert len(ch.operators) == 1
    assert np.array_equal(ch.operators[0], np.eye(2))


def test_kraus_from_cnot_is_bit_flip():
    theta = 2.0 * math.pi / 7
    ch = kraus_from_unitary(CNOT_MSB, env_state(theta))
    assert np.abs(ch.operators[0] - math.cos(theta / 2) * np.eye(2)).max() < 1e-12
    assert np.abs(ch.operators[1] - math.sin(theta / 2) * SX).max() < 1e-12


def test_kraus_blocks_for_ground_environment():
    # env |0> selects the left block column of U
    gen = np.random.default_rng(46)
    u = random_unitary(gen, 4)
    ch = kraus_from_unitary(u, PureState([1.0, 0.0]))
    assert np.abs(ch.operators[0] - u[0:2, 0:2]).max() < 1e-14
    assert np.abs(ch.operators[1] - u[2:4, 0:2]).max() < 1e-14


def test_kraus_from_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        kraus_from_unitary(np.ones((4, 4)), PureState([1.0, 0.0]))


def test_kraus_from_unitary_rejects_overflowing_matrix():
    # U^dagger U overflows, so the unitarity defect is NaN, which must not pass.
    u = np.kron(np.eye(2), [[1e200, 1e200], [1e200, 1e200j]])
    with pytest.raises(ValueError, match="not unitary"):
        kraus_from_unitary(u, PureState([1.0, 0.0]))


def test_master_oracle_direct_vs_dilated():
    """Kraus sum == tensor ancilla, apply the full unitary, trace the MSB."""
    gen = np.random.default_rng(47)
    for _ in range(25):
        u = random_unitary(gen, 4)
        env = PureState([1.0, 0.0])
        ch = kraus_from_unitary(u, env)
        rho = random_density(gen)
        direct = kraus_apply_raw(ch.operators, rho.matrix)
        rho_all = tensor(np.diag([1.0, 0.0]), rho.matrix)
        evolved = u @ rho_all @ u.conj().T
        routed = partial_trace_oracle(evolved, 2, [1])
        assert np.abs(direct - routed).max() < 1e-10


def test_dilation_round_trip_two_operator_channels():
    for theta in np.linspace(0.0, math.pi, 9):
        for ch in (
            make_deformation("phase_flip", theta),
            make_amp_damp("z", "plus", theta),
            make_amp_damp("x", "minus", theta),
        ):
            u = dilate_single_ancilla(ch)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-9
            again = kraus_from_unitary(u, PureState([1.0, 0.0]))
            want = list(ch.operators) + [np.zeros((2, 2))] * 2
            for got, ref in zip(again.operators, want):
                assert np.abs(got - ref).max() < 1e-10


def test_dilation_of_identity():
    u = dilate_single_ancilla(KrausChannel((np.eye(2),)))
    assert np.abs(u[0:2, 0:2] - np.eye(2)).max() < 1e-12
    assert np.abs(u[2:4, 0:2]).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-9


def test_dilation_rejects_incomplete_or_oversized():
    with pytest.raises(ValueError):
        dilate_single_ancilla(KrausChannel((np.eye(2) / 2,)))
    ops = tuple(np.eye(2) / math.sqrt(3.0) for _ in range(3))
    with pytest.raises(ValueError):
        dilate_single_ancilla(KrausChannel(ops))


def test_channel_with_ancilla_matches_direct_path():
    gen = np.random.default_rng(48)
    for theta in (0.3, 1.1, 2.9):
        ch = make_amp_damp("z", "minus", theta)
        rho = random_density(gen)
        via_ancilla = channel_with_ancilla(ch, rho)
        direct = apply_channel(ch, rho)
        assert np.abs(via_ancilla.matrix - direct.matrix).max() < 1e-10


def test_channel_json_round_trip():
    ch = make_deformation("bit_phase_flip", 0.77)
    doc = channel_to_json_oracle(ch)
    assert doc["name"] == "bit_phase_flip"
    again = channel_from_json_dict(doc)
    assert again.name == ch.name
    for a, b in zip(again.operators, ch.operators):
        assert np.array_equal(a, b)
