import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density
from qsdiag import (
    CHANNEL_KINDS,
    BlochAffineMap,
    ChannelSpec,
    DensityMatrix,
    affine_map_of_channel,
    apply_channel,
    bloch_from_dm,
    channel_from_spec,
    decompose_map,
    dm_from_bloch,
    ellipsoid_samples,
    make_deformation,
    make_depolarizing_standard,
    make_rotation,
    points_to_csv,
    KrausChannel,
)
from qsdiag.bloch import CSV_BLOCK_ROWS
from qsdiag.core import I2, PAULIS


def ellipsoid_oracle(affine, n_lat, n_lon):
    """Point-by-point grid walk through `BlochAffineMap.apply`."""
    points = np.empty((n_lat * n_lon, 3), dtype=float)
    row = 0
    for i in range(n_lat):
        colat = math.pi * i / (n_lat - 1)
        sin_c, cos_c = math.sin(colat), math.cos(colat)
        for j in range(n_lon):
            lon = 2.0 * math.pi * j / n_lon
            v = (sin_c * math.cos(lon), sin_c * math.sin(lon), cos_c)
            points[row] = affine.apply(v)
            row += 1
    return points


def csv_oracle(points):
    """One f-string per row."""
    lines = ["x,y,z"]
    for x, y, z in np.asarray(points, dtype=float):
        lines.append(f"{x:.17g},{y:.17g},{z:.17g}")
    return "\n".join(lines) + "\n"


def assert_same_csv(got, want):
    """Byte equality naming the first differing line (pytest's diff of long texts is slow)."""
    if got != want:
        pairs = enumerate(zip(got.split("\n"), want.split("\n")))
        first = next(((i, a, b) for i, (a, b) in pairs if a != b), "none; lengths differ")
        raise AssertionError(f"CSV texts differ; first differing line: {first}")


# Exact zeros of both signs and magnitudes from 1e-300 to 1e3.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-300, 2)),
)


def _random_affine(seed):
    gen = np.random.default_rng(seed)
    return BlochAffineMap(gen.normal(size=(3, 3)), gen.normal(size=3))


def test_bloch_from_dm_fixed_points():
    assert np.allclose(bloch_from_dm(DensityMatrix(np.diag([1.0, 0.0]))), [0, 0, 1])
    assert np.allclose(bloch_from_dm(DensityMatrix(np.eye(2) / 2)), [0, 0, 0])
    plus = DensityMatrix(np.full((2, 2), 0.5))
    assert np.allclose(bloch_from_dm(plus), [1, 0, 0])


def test_bloch_round_trip():
    gen = np.random.default_rng(61)
    for _ in range(50):
        rho = random_density(gen)
        v = bloch_from_dm(rho)
        assert np.linalg.norm(v) <= 1 + 1e-10
        again = dm_from_bloch(v)
        assert np.abs(again.matrix - rho.matrix).max() < 1e-14


def test_dm_from_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        dm_from_bloch([1.0, 1.0, 0.0])


def test_affine_map_identity_channel():
    affine = affine_map_of_channel(KrausChannel((np.eye(2),)))
    assert np.abs(affine.m - np.eye(3)).max() < 1e-14
    assert np.abs(affine.c).max() < 1e-14


def test_affine_map_exactness_on_random_states():
    gen = np.random.default_rng(62)
    for theta in np.linspace(0.1, math.pi, 5):
        for ch in (make_deformation("phase_flip", theta),
                   make_rotation("x", theta),
                   make_depolarizing_standard(theta / 2)):
            affine = affine_map_of_channel(ch)
            for _ in range(20):
                rho = random_density(gen)
                lhs = affine.apply(bloch_from_dm(rho))
                evolved = sum(f @ rho.matrix @ f.conj().T for f in ch.operators)
                rhs = bloch_from_dm(DensityMatrix(evolved))
                assert np.abs(lhs - rhs).max() < 1e-10


def validated_probing_oracle(channel):
    """(M, c) from four `apply_channel` calls on validated DensityMatrix probes."""
    center = bloch_from_dm(apply_channel(channel, DensityMatrix(I2 / 2.0)))
    columns = [bloch_from_dm(apply_channel(channel, DensityMatrix((I2 + sigma) / 2.0))) - center
               for sigma in PAULIS]
    return np.column_stack(columns), center


def _probe_channels():
    for kind in sorted(CHANNEL_KINDS):
        for theta in np.linspace(0.0, math.pi, 9):
            if kind == "depolarizing_general":
                env = np.random.default_rng(int(theta * 100)).normal(size=4)
                yield channel_from_spec(ChannelSpec(kind, 0.0, tuple(env / np.linalg.norm(env))))
            else:
                yield channel_from_spec(ChannelSpec(kind, float(theta)))
    gen = np.random.default_rng(64)
    for n_ops in (1, 2, 3, 4):
        for _ in range(5):
            g = gen.normal(size=(2 * n_ops, 2)) + 1j * gen.normal(size=(2 * n_ops, 2))
            q = np.linalg.qr(g)[0]
            yield KrausChannel(tuple(q[2 * i:2 * i + 2] for i in range(n_ops)))


def test_affine_map_equals_validated_probing_bit_for_bit():
    for ch in _probe_channels():
        m, c = validated_probing_oracle(ch)
        affine = affine_map_of_channel(ch)
        assert np.array_equal(affine.m, m)
        assert np.array_equal(affine.c, c)


def test_affine_map_rejects_incomplete_channel():
    with pytest.raises(ValueError, match="not trace preserving"):
        affine_map_of_channel(KrausChannel((np.eye(2) / 2,)))


def test_image_stays_in_unit_ball():
    gen = np.random.default_rng(63)
    for theta in np.linspace(0.0, math.pi, 7):
        for ch in (make_deformation("bit_flip", theta),
                   make_depolarizing_standard(theta / 2)):
            affine = affine_map_of_channel(ch)
            for _ in range(20):
                v = gen.normal(size=3)
                v = v / np.linalg.norm(v)
                assert np.linalg.norm(affine.apply(v)) <= 1 + 1e-10


def test_decompose_identity():
    dec = decompose_map(BlochAffineMap(np.eye(3), np.zeros(3)))
    assert np.allclose(dec.d, np.eye(3))
    assert np.allclose(dec.o1 @ dec.d @ dec.o2.T, np.eye(3))


def test_decompose_reconstructs_and_orders():
    gen = np.random.default_rng(64)
    for _ in range(25):
        m = gen.normal(size=(3, 3)) * 0.5
        dec = decompose_map(BlochAffineMap(m, np.zeros(3)))
        assert np.abs(dec.o1 @ dec.o1.T - np.eye(3)).max() < 1e-10
        assert np.abs(dec.o2 @ dec.o2.T - np.eye(3)).max() < 1e-10
        assert np.abs(dec.o1 @ dec.d @ dec.o2.T - m).max() < 1e-10
        diag = np.abs(np.diag(dec.d))
        assert np.all(np.diff(diag) <= 1e-12)  # descending magnitudes


def test_decompose_prefers_proper_rotations():
    gen = np.random.default_rng(65)
    for _ in range(25):
        m = gen.normal(size=(3, 3))
        dec = decompose_map(BlochAffineMap(m, np.zeros(3)))
        assert np.linalg.det(dec.o1) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.det(dec.o2) == pytest.approx(1.0, abs=1e-10)


def test_decompose_rotation_channel_gives_unit_diagonal():
    affine = affine_map_of_channel(make_rotation("y", 1.23))
    dec = decompose_map(affine)
    assert np.abs(np.diag(dec.d) - 1.0).max() < 1e-10


def test_decompose_deformation_pattern():
    theta = 1.0
    affine = affine_map_of_channel(make_deformation("phase_flip", theta))
    dec = decompose_map(affine)
    want = np.array([1.0, math.cos(theta), math.cos(theta)])
    assert np.abs(np.abs(np.diag(dec.d)) - want).max() < 1e-10


def test_ellipsoid_identity_grid():
    identity = BlochAffineMap(np.eye(3), np.zeros(3))
    pts = ellipsoid_samples(identity, 3, 4)
    assert pts.shape == (12, 3)
    # poles first and last, equator in the middle row
    assert np.allclose(pts[0], [0, 0, 1])
    assert np.allclose(pts[-1], [0, 0, -1], atol=1e-15)
    assert np.allclose(pts[4], [1, 0, 0], atol=1e-15)
    assert np.allclose(pts[5], [0, 1, 0], atol=1e-15)
    norms = np.linalg.norm(pts, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_ellipsoid_collapse_cases():
    zero = affine_map_of_channel(make_depolarizing_standard(math.pi / 3))
    pts = ellipsoid_samples(zero, 4, 6)
    assert np.abs(pts).max() < 1e-12

    flat = affine_map_of_channel(make_deformation("phase_flip", math.pi / 2))
    pts = ellipsoid_samples(flat, 5, 8)
    assert np.abs(pts[:, :2]).max() < 1e-12  # x and y collapse
    assert np.abs(pts[:, 2]).max() == pytest.approx(1.0, abs=1e-12)


def test_ellipsoid_rejects_tiny_grids():
    identity = BlochAffineMap(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        ellipsoid_samples(identity, 1, 4)
    with pytest.raises(ValueError):
        ellipsoid_samples(identity, 4, 1)


def test_points_to_csv_format():
    text = points_to_csv(np.array([[0.0, 0.5, -1.0], [1 / 3, 0.0, 0.25]]))
    lines = text.splitlines()
    assert lines[0] == "x,y,z"
    assert lines[1] == "0,0.5,-1"
    assert lines[2] == "0.33333333333333331,0,0.25"
    assert text.endswith("\n")


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(m=st.lists(ENTRIES, min_size=9, max_size=9), c=st.lists(ENTRIES, min_size=3, max_size=3),
       n_lat=st.integers(2, 40), n_lon=st.integers(2, 40))
def test_ellipsoid_and_csv_match_scalar_oracles_bit_for_bit(m, c, n_lat, n_lon):
    affine = BlochAffineMap(np.array(m).reshape(3, 3), np.array(c))
    pts = ellipsoid_samples(affine, n_lat, n_lon)
    want = ellipsoid_oracle(affine, n_lat, n_lon)
    assert np.array_equal(pts, want)
    # The CSV also pins the sign of every zero ("-0" against "0").
    assert_same_csv(points_to_csv(pts), csv_oracle(want))


@pytest.mark.parametrize("n_lat,n_lon", [(63, 65), (64, 64), (17, 241)])
def test_csv_block_boundary(n_lat, n_lon):
    # 4095, 4096 and 4097 rows: one short block, one full block, one row over.
    assert n_lat * n_lon - CSV_BLOCK_ROWS in (-1, 0, 1)
    affine = _random_affine(n_lat * n_lon)
    pts = ellipsoid_samples(affine, n_lat, n_lon)
    assert np.array_equal(pts, ellipsoid_oracle(affine, n_lat, n_lon))
    text = points_to_csv(pts)
    assert_same_csv(text, csv_oracle(pts))
    assert text.count("\n") == n_lat * n_lon + 1


def test_csv_of_random_bit_patterns_matches_the_oracle():
    # Every finite double class: normals of any exponent, subnormals, zeros of both signs.
    gen = np.random.default_rng(31)
    bits = gen.integers(0, 2 ** 64, size=3 * (CSV_BLOCK_ROWS + 5), dtype=np.uint64)
    bits[:40] = [0, 1 << 63, 1, (1 << 63) | 1, (1 << 52) - 1] * 8
    bits[40:4000] &= (1 << 52) - 1 | 1 << 63  # subnormals
    pts = bits.view(np.float64)
    pts = pts[np.isfinite(pts)][:3 * CSV_BLOCK_ROWS + 3].reshape(-1, 3)
    assert_same_csv(points_to_csv(pts), csv_oracle(pts))


def test_csv_of_no_points_is_the_header():
    assert points_to_csv(np.empty((0, 3))) == "x,y,z\n"


def test_points_to_csv_peak_memory_stays_near_its_output():
    pts = ellipsoid_samples(_random_affine(200), 200, 400)
    tracemalloc.start()
    try:
        text = points_to_csv(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A list of one string per row would need about 3.9x the output.
    assert peak < 3 * len(text)
