"""The paper's channel identities as properties over random inputs.

Kraus channels come from QR-random isometries V (dk x d, V^dagger V = 1),
cut into k operators; states from Bloch vectors anywhere in the unit ball,
pure and maximally mixed ones included.  Checked: the operator sum agrees
with the dilation route, `apply_channel` agrees with the iterated raw sum
on both sides of `TRANSFER_MAX_QUBITS`, the Bloch map agrees with Pauli
traces, completeness holds, purification round-trips and channel specs
survive formatting and parsing.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import affine_oracle, format_spec_oracle, kraus_apply_raw, random_density
from qsdiag import (
    CHANNEL_KINDS,
    ChannelSpec,
    KrausChannel,
    affine_map_of_channel,
    apply_channel,
    channel_with_ancilla,
    dm_from_bloch,
    dm_from_pure,
    parse_channel_spec,
    partial_trace,
    purify_single_qubit,
    validate_channel,
)
from qsdiag.kraus import TRANSFER_MAX_QUBITS

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
UNIT = st.floats(-1.0, 1.0, allow_nan=False)
ROTATION_KINDS = {kind for kind in CHANNEL_KINDS if kind.startswith("rotation_")}


@st.composite
def channels(draw, max_ops=4, max_qubits=1):
    n_ops = draw(st.integers(1, max_ops))
    d = 2 ** draw(st.integers(1, max_qubits))
    gen = np.random.default_rng(draw(SEEDS))
    g = gen.normal(size=(d * n_ops, d)) + 1j * gen.normal(size=(d * n_ops, d))
    q = np.linalg.qr(g)[0]
    return KrausChannel(tuple(q[d * i:d * i + d] for i in range(n_ops)))


@st.composite
def states(draw):
    direction = np.array(draw(st.tuples(UNIT, UNIT, UNIT)))
    norm = np.linalg.norm(direction)
    radius = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    v = direction / norm * radius if norm > 1e-6 else np.zeros(3)
    return dm_from_bloch(v)


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(sorted(CHANNEL_KINDS)))
    if kind == "depolarizing_general":
        parts = np.array(draw(st.tuples(*[UNIT] * 8)))
        amps = parts[:4] + 1j * parts[4:] * draw(st.booleans())
        norm = np.linalg.norm(amps)
        if norm < 1e-3:
            amps, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
        return ChannelSpec(kind, draw(st.floats(-10.0, 10.0)),
                           tuple(complex(a) for a in amps / norm))
    theta = draw(st.floats(-1e3, 1e3) if kind in ROTATION_KINDS else st.floats(0.0, math.pi))
    return ChannelSpec(kind, theta)


@PROPERTY
@given(channels(max_ops=2), states())
def test_kraus_sum_matches_dilation(channel, rho):
    direct = apply_channel(channel, rho).matrix
    via_ancilla = channel_with_ancilla(channel, rho).matrix
    assert np.abs(direct - via_ancilla).max() < 1e-10


# Up to TRANSFER_MAX_QUBITS a channel steps through its transfer matrix, above
# it through the operator sum: draw both sides of the limit.
WIDE_CHANNELS = channels(max_qubits=TRANSFER_MAX_QUBITS + 1)


@PROPERTY
@given(WIDE_CHANNELS, st.sampled_from([0, 1, 7, 80]), SEEDS)
def test_apply_channel_matches_iterated_operator_sum(channel, steps, seed):
    rho = random_density(np.random.default_rng(seed), channel.n_qubits)
    got = apply_channel(channel, rho, steps=steps).matrix
    assert np.abs(got - kraus_apply_raw(channel.operators, rho.matrix, steps)).max() <= 1e-12


def test_wide_channels_cover_both_evolution_paths():
    seen = set()

    @PROPERTY
    @given(WIDE_CHANNELS)
    def collect(channel):
        seen.add(channel.n_qubits)

    collect()
    assert seen == set(range(1, TRANSFER_MAX_QUBITS + 2))


@PROPERTY
@given(channels())
def test_affine_map_matches_pauli_traces(channel):
    m, c = affine_oracle(channel.operators)
    affine = affine_map_of_channel(channel)
    assert np.abs(affine.m - m).max() <= 1e-12
    assert np.abs(affine.c - c).max() <= 1e-12


@PROPERTY
@given(channels())
def test_isometry_channels_are_complete(channel):
    assert validate_channel(channel) <= 1e-12


@PROPERTY
@given(states())
def test_purification_round_trips(rho):
    res = purify_single_qubit(rho)
    reduced = partial_trace(dm_from_pure(res.state), [0]).matrix
    assert np.abs(reduced - rho.matrix).max() < 1e-12


@PROPERTY
@given(specs())
def test_channel_spec_survives_format_and_parse(spec):
    assert parse_channel_spec(format_spec_oracle(spec)) == spec


def test_specs_cover_every_kind():
    seen = set()

    @PROPERTY
    @given(specs())
    def collect(spec):
        seen.add(spec.kind)

    collect()
    assert seen == CHANNEL_KINDS
