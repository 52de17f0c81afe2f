import hashlib
import math

import numpy as np
import pytest

from helpers import (
    SX,
    SY,
    SZ,
    affine_oracle,
    format_spec_oracle,
    kraus_apply_raw,
    partial_trace_oracle,
    random_density,
)
from qsdiag import (
    CHANNEL_KINDS,
    ChannelSpec,
    FormatError,
    PureState,
    affine_map_of_channel,
    apply_channel,
    bloch_from_dm,
    channel_from_spec,
    kraus_from_unitary,
    make_amp_damp,
    make_deformation,
    make_depolarizing_general,
    make_depolarizing_standard,
    make_rotation,
    parse_channel_spec,
    tensor,
    validate_channel,
)

THETAS = np.linspace(0.0, math.pi, 20)


def sample_specs(theta: float):
    """One ChannelSpec per factory kind at the given angle."""
    out = []
    for kind in sorted(CHANNEL_KINDS):
        if kind == "depolarizing_general":
            out.append(ChannelSpec(kind, 0.0, (0.5, 0.5, 0.5, 0.5)))
        else:
            out.append(ChannelSpec(kind, theta))
    return out


# --- rotations ---------------------------------------------------------------

def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    if axis == "x":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    if axis == "y":
        return np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def test_rotation_identity_at_zero():
    assert np.abs(make_rotation("z", 0.0).operators[0] - np.eye(2)).max() < 1e-15


def test_rotation_x_at_pi_is_minus_i_sigma_x():
    op = make_rotation("x", math.pi).operators[0]
    assert np.abs(op - (-1j) * SX).max() < 1e-15


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_rotation_bloch_action(axis):
    for theta in (0.0, math.pi / 4, math.pi / 2, math.pi, 2.2):
        m, c = affine_oracle(make_rotation(axis, theta).operators)
        assert np.abs(m - rotation_matrix(axis, theta)).max() < 1e-12
        assert np.abs(c).max() < 1e-12


def test_rotation_y_quarter_turn_sends_x_to_z():
    m, _ = affine_oracle(make_rotation("y", math.pi / 2).operators)
    assert np.allclose(m @ [1, 0, 0], [0, 0, 1], atol=1e-12)
    assert np.allclose(m @ [0, 0, 1], [-1, 0, 0], atol=1e-12)


def test_rotation_preserves_bloch_norm():
    gen = np.random.default_rng(51)
    for _ in range(20):
        rho = random_density(gen)
        theta = gen.uniform(0, 2 * math.pi)
        out = apply_channel(make_rotation("y", theta), rho)
        before = np.linalg.norm(bloch_from_dm(rho))
        after = np.linalg.norm(bloch_from_dm(out))
        assert after == pytest.approx(before, abs=1e-12)


# --- deformations ------------------------------------------------------------

DEFORMATION_PATTERNS = {
    "bit_flip": (1, 0, 0),       # the unit axis of diag(1, cos, cos)
    "bit_phase_flip": (0, 1, 0),
    "phase_flip": (0, 0, 1),
}


def test_deformation_at_zero_is_identity():
    ch = make_deformation("bit_flip", 0.0)
    assert len(ch.operators) == 1
    assert np.abs(ch.operators[0] - np.eye(2)).max() < 1e-15


@pytest.mark.parametrize("kind", sorted(DEFORMATION_PATTERNS))
def test_deformation_bloch_pattern(kind):
    unit = np.array(DEFORMATION_PATTERNS[kind], dtype=float)
    for theta in np.linspace(0.0, math.pi, 9):
        m, c = affine_oracle(make_deformation(kind, theta).operators)
        want = np.diag(np.where(unit > 0, 1.0, math.cos(theta)))
        assert np.abs(m - want).max() < 1e-12
        assert np.abs(c).max() < 1e-12


def test_bit_phase_flip_half_angle_arithmetic():
    rho = np.diag([1.0, 0.0]).astype(complex)
    ch = make_deformation("bit_phase_flip", math.pi / 2)
    got = kraus_apply_raw(ch.operators, rho)
    want = 0.5 * rho + 0.5 * (SY @ rho @ SY.conj().T)
    assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("kind,pauli", [
    ("bit_flip", SX), ("bit_phase_flip", SY), ("phase_flip", SZ),
])
def test_deformation_equals_controlled_pauli_extraction(kind, pauli):
    # coupling: env (MSB) in cos|0> + sin|1>, controlled-Pauli on the system
    controlled = np.eye(4, dtype=complex)
    controlled[2:4, 2:4] = pauli
    for theta in np.linspace(0.0, math.pi, 7):
        env = PureState([math.cos(theta / 2), math.sin(theta / 2)])
        extracted = kraus_from_unitary(controlled, env)
        built = make_deformation(kind, theta)
        assert len(extracted.operators) == len(built.operators)
        for a, b in zip(extracted.operators, built.operators):
            assert np.abs(a - b).max() < 1e-12


# --- amplitude damping -------------------------------------------------------

POLES = {
    ("x", "plus"): np.array([1.0, 0, 0]), ("x", "minus"): np.array([-1.0, 0, 0]),
    ("y", "plus"): np.array([0, 1.0, 0]), ("y", "minus"): np.array([0, -1.0, 0]),
    ("z", "plus"): np.array([0, 0, 1.0]), ("z", "minus"): np.array([0, 0, -1.0]),
}


def test_amp_damp_z_operator_entries():
    theta = 0.9
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    plus = make_amp_damp("z", "plus", theta).operators
    assert np.abs(plus[0] - [[1, 0], [0, c]]).max() < 1e-15
    assert np.abs(plus[1] - [[0, s], [0, 0]]).max() < 1e-15
    minus = make_amp_damp("z", "minus", theta).operators
    assert np.abs(minus[0] - [[c, 0], [0, 1]]).max() < 1e-15
    assert np.abs(minus[1] - [[0, 0], [s, 0]]).max() < 1e-15


def test_amp_damp_x_y_operator_entries():
    # frozen half-angle forms of the conjugated operators
    theta = 1.3
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    xp = make_amp_damp("x", "plus", theta).operators
    assert np.abs(xp[0] - 0.5 * np.array([[1 + c, 1 - c], [1 - c, 1 + c]])).max() < 1e-14
    assert np.abs(xp[1] - 0.5 * s * np.array([[-1, 1], [-1, 1]])).max() < 1e-14
    xm = make_amp_damp("x", "minus", theta).operators
    assert np.abs(xm[0] - 0.5 * np.array([[1 + c, c - 1], [c - 1, 1 + c]])).max() < 1e-14
    assert np.abs(xm[1] - 0.5 * s * np.array([[1, 1], [-1, -1]])).max() < 1e-14
    yp = make_amp_damp("y", "plus", theta).operators
    assert np.abs(yp[0] - 0.5 * np.array([[1 + c, 1j * (c - 1)],
                                          [1j * (1 - c), 1 + c]])).max() < 1e-14
    assert np.abs(yp[1] - 0.5 * s * np.array([[-1j, 1], [1, 1j]])).max() < 1e-14


def test_amp_damp_full_angle_collapses_everything():
    gen = np.random.default_rng(52)
    ch = make_amp_damp("z", "plus", math.pi)
    assert np.abs(ch.operators[0] - np.diag([1.0, 0.0])).max() < 1e-15
    for _ in range(5):
        out = apply_channel(ch, random_density(gen))
        assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-12


def test_amp_damp_bloch_map_shape():
    theta = 2.0 * math.pi / 5
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m, shift = affine_oracle(make_amp_damp("z", "plus", theta).operators)
    assert np.abs(m - np.diag([c, c, c * c])).max() < 1e-12
    assert np.allclose(shift, [0, 0, s * s], atol=1e-12)


@pytest.mark.parametrize("axis,sign", sorted(POLES))
def test_amp_damp_fixed_points(axis, sign):
    pole = POLES[(axis, sign)]
    rho_pole = 0.5 * (np.eye(2) + pole[0] * SX + pole[1] * SY + pole[2] * SZ)
    ch = make_amp_damp(axis, sign, 1.1)
    out = kraus_apply_raw(ch.operators, rho_pole)
    assert np.abs(out - rho_pole).max() < 1e-12


@pytest.mark.parametrize("axis,sign", sorted(POLES))
def test_amp_damp_converges_to_pole(axis, sign):
    # Per-step decay is cos^2(theta/2) on populations; the half turn gives
    # rate 1/2, so 50 steps land ~1e-15 from the pole.
    ch = make_amp_damp(axis, sign, math.pi / 2)
    pole = POLES[(axis, sign)]
    rho_pole = 0.5 * (np.eye(2) + pole[0] * SX + pole[1] * SY + pole[2] * SZ)
    state = np.eye(2, dtype=complex) / 2
    for _ in range(50):
        state = kraus_apply_raw(ch.operators, state)
    assert np.abs(state - rho_pole).max() < 1e-8


def test_amp_damp_rejects_out_of_range_theta():
    with pytest.raises(ValueError):
        make_amp_damp("z", "plus", -0.1)
    with pytest.raises(ValueError):
        make_amp_damp("x", "minus", 3.5)
    with pytest.raises(ValueError):
        make_amp_damp("w", "plus", 0.5)


# --- depolarizing ------------------------------------------------------------

def select_unitary(paulis) -> np.ndarray:
    out = np.zeros((8, 8), dtype=complex)
    for k, p in enumerate(paulis):
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = p
    return out


def test_depolarizing_general_matches_two_qubit_environment():
    gen = np.random.default_rng(53)
    u = select_unitary([np.eye(2), SX, SY, SZ])
    for _ in range(10):
        amps = gen.normal(size=4) + 1j * gen.normal(size=4)
        amps = amps / np.linalg.norm(amps)
        rho = random_density(gen)
        env = np.outer(amps, amps.conj())
        evolved = u @ tensor(env, rho.matrix) @ u.conj().T
        routed = partial_trace_oracle(evolved, 3, [1, 2])
        ch = make_depolarizing_general(tuple(amps))
        direct = kraus_apply_raw(ch.operators, rho.matrix)
        assert np.abs(direct - routed).max() < 1e-12


def test_depolarizing_general_special_cases():
    gen = np.random.default_rng(54)
    rho = random_density(gen)
    only_identity = make_depolarizing_general((1, 0, 0, 0))
    assert len(only_identity.operators) == 1
    pure_flip = make_depolarizing_general((0, 1, 0, 0))
    out = apply_channel(pure_flip, rho)
    assert np.abs(out.matrix - SX @ rho.matrix @ SX).max() < 1e-12
    twirl = make_depolarizing_general((0.5, 0.5, 0.5, 0.5))
    out = apply_channel(twirl, rho)
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12


def test_depolarizing_general_ignores_phases():
    amps = np.array([0.5, 0.5j, -0.5, 0.5 * np.exp(1j)])
    with_phases = make_depolarizing_general(tuple(amps))
    plain = make_depolarizing_general((0.5, 0.5, 0.5, 0.5))
    for a, b in zip(with_phases.operators, plain.operators):
        assert np.abs(a - b).max() < 1e-15


def test_depolarizing_general_rejects_bad_amplitudes():
    with pytest.raises(ValueError):
        make_depolarizing_general((1, 0, 0))
    with pytest.raises(ValueError):
        make_depolarizing_general((1, 1, 0, 0))


def test_depolarizing_standard_shrink():
    for theta in np.linspace(0.0, math.pi / 2, 10):
        m, c = affine_oracle(make_depolarizing_standard(theta).operators)
        factor = 1.0 - (4.0 / 3.0) * math.sin(theta) ** 2
        assert np.abs(m - factor * np.eye(3)).max() < 1e-12
        assert np.abs(c).max() < 1e-12


def test_depolarizing_standard_zero_point():
    gen = np.random.default_rng(55)
    ch = make_depolarizing_standard(math.pi / 3)
    for _ in range(5):
        out = apply_channel(ch, random_density(gen))
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12


# --- completeness across the gallery ----------------------------------------

def test_every_factory_channel_is_complete():
    for theta in THETAS:
        for spec in sample_specs(theta):
            assert validate_channel(channel_from_spec(spec)) < 1e-12


# --- spec strings ------------------------------------------------------------

def test_parse_and_format_round_trip():
    spec = parse_channel_spec("amp_damp_y_minus:pi/3")
    assert spec.kind == "amp_damp_y_minus"
    assert spec.theta == pytest.approx(math.pi / 3)
    again = parse_channel_spec(format_spec_oracle(spec))
    assert again == spec


def test_parse_general_depolarizing_spec():
    spec = parse_channel_spec("depolarizing_general:0:0.5,0.5,0.5,0.5")
    assert spec.env_amplitudes == (0.5, 0.5, 0.5, 0.5)
    ch = channel_from_spec(spec)
    assert len(ch.operators) == 4
    again = parse_channel_spec(format_spec_oracle(spec))
    assert again == spec


def test_parse_complex_amplitudes():
    spec = parse_channel_spec("depolarizing_general:0:0.5,0.5j,-0.5,0.5j")
    assert spec.env_amplitudes[1] == 0.5j


@pytest.mark.parametrize("text", [
    "bogus:1",
    "phase_flip",
    "phase_flip:one",
    "phase_flip:1:2:3",
    "phase_flip:0.5:0.5,0.5,0.5,0.5",
    "depolarizing_general:0:1,0,0",
    "depolarizing_general:0:1,1,0,0",
])
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(FormatError):
        parse_channel_spec(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("bit_flip", -0.5)
    with pytest.raises(ValueError):
        ChannelSpec("bit_flip", float("nan"))
    ChannelSpec("rotation_x", 12.0)  # rotations take any finite angle


def test_spec_rejects_nan_environment_amplitude():
    with pytest.raises(ValueError):
        ChannelSpec("depolarizing_general", 0.0, (float("nan"), 0.0, 0.0, 0.0))


def test_affine_map_of_channel_matches_oracle():
    for theta in np.linspace(0.0, math.pi, 10):
        for spec in sample_specs(theta):
            ch = channel_from_spec(spec)
            got = affine_map_of_channel(ch)
            want_m, want_c = affine_oracle(ch.operators)
            assert np.abs(got.m - want_m).max() < 1e-12
            assert np.abs(got.c - want_c).max() < 1e-12


# --- operator bytes ----------------------------------------------------------

# One SHA-256 over the name and every operator's bytes (signs of zeros
# included) of `channel_from_spec`, for every kind at seeded angles plus the
# domain ends and two angles whose sin(theta/2) lies just below and just
# above the pruning tolerance.  A change that must keep the channels keeps
# this digest.
OPERATOR_SEED = 20261020
FIXED_THETAS = (0.0, math.pi, 2e-14, 3e-14)
OPERATOR_DIGEST = "5c502f7b14b4fa4930946c0b40ef343de6dc15ffd3f4e651ee2ddcd2bedc042b"


def _operator_specs(gen):
    for kind in sorted(CHANNEL_KINDS):
        if kind == "depolarizing_general":
            draws = gen.normal(size=(16, 4)) + 1j * gen.normal(size=(16, 4))
            draws[:4] *= np.array([[1, 0, 0, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 0, 1]])
            for amps in draws / np.linalg.norm(draws, axis=1, keepdims=True):
                yield ChannelSpec(kind, 0.0, tuple(complex(a) for a in amps))
            continue
        low, high = (-4 * math.pi, 4 * math.pi) if kind.startswith("rotation") else (0.0, math.pi)
        for theta in FIXED_THETAS + tuple(float(t) for t in gen.uniform(low, high, 16)):
            yield ChannelSpec(kind, theta)


def operator_digest(seed=OPERATOR_SEED) -> str:
    h = hashlib.sha256()
    for spec in _operator_specs(np.random.default_rng(seed)):
        channel = channel_from_spec(spec)
        h.update(channel.name.encode())
        for op in channel.operators:
            h.update(op.tobytes())
    return h.hexdigest()


def test_channel_operators_keep_their_bytes():
    assert operator_digest() == OPERATOR_DIGEST
