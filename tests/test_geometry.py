import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwopt.geometry import (
    Attachment,
    AttachmentPoint,
    Encoding,
    Genotype,
    Layout,
    Material,
    ScenarioGrid,
    convert,
    count_crossings,
    decode,
    min_distance_to_fairway,
    normalize_angle,
    polyline_segments,
    rasterize,
    sample_polyline,
    segments_cross,
    supercover_line,
    total_length,
    _fairway_samples,
    _min_sample_distance,
    _sample_family,
)

TWO_SEGMENTS = [Attachment(AttachmentPoint(5.0, 5.0, 30.0), n_segments=2)]
CHAIN = [
    Attachment(AttachmentPoint(2.0, 3.0, 0.0), n_segments=2),
    Attachment(AttachmentPoint(10.0, 4.0, -45.0), n_segments=1),
]


def mk_layout(*vertex_arrays):
    chains = [np.asarray(v, dtype=float) for v in vertex_arrays]
    return Layout(chains, [Material.SOLID_WALL] * len(chains))


def water_grid(n_cols=20, n_rows=20, cell_size=1.0):
    return ScenarioGrid.from_depth(np.full((n_rows, n_cols), 5.0), cell_size)


# ----- angles and genotypes -----

def test_normalize_angle_wraps_into_range():
    assert normalize_angle(180.0) == -180.0
    assert normalize_angle(-180.0) == -180.0
    assert normalize_angle(361.0) == pytest.approx(1.0)
    assert normalize_angle(-541.0) == pytest.approx(179.0)


@given(st.floats(min_value=-180.0, max_value=179.999999, allow_nan=False))
def test_normalize_angle_identity_in_range(angle):
    # bitwise pass-through protects exact gene comparisons elsewhere
    assert normalize_angle(angle) == angle


def test_normalize_angle_array():
    got = normalize_angle(np.array([0.0, 180.0, -270.0, 710.0]))
    assert got == pytest.approx([0.0, -180.0, 90.0, -10.0])


def test_genotype_rejects_negative_length():
    with pytest.raises(ValueError):
        Genotype(Encoding.ANGULAR, np.array([-1.0, 0.0]))


def test_genotype_rejects_odd_gene_count():
    with pytest.raises(ValueError):
        Genotype(Encoding.ANGULAR, np.array([1.0, 0.0, 2.0]))


def test_genotype_normalizes_angle_genes_on_construction():
    g = Genotype(Encoding.ANGULAR, np.array([1.0, 270.0]))
    assert g.genes[1] == -90.0


# ----- decode -----

def test_decode_angular_chains_relative_angles():
    # first angle measured from base_angle, second from the first segment
    g = Genotype(Encoding.ANGULAR, np.array([2.0, -30.0, 1.0, 90.0]))
    layout = decode(g, TWO_SEGMENTS)
    verts = layout.breakwaters[0]
    assert verts[0] == pytest.approx([5.0, 5.0])
    assert verts[1] == pytest.approx([7.0, 5.0])  # heading 30 - 30 = 0
    assert verts[2] == pytest.approx([7.0, 6.0])  # heading 0 + 90 = 90


def test_decode_zero_length_keeps_position_but_turns():
    g = Genotype(Encoding.ANGULAR, np.array([0.0, 90.0, 1.0, 0.0]))
    layout = decode(g, TWO_SEGMENTS)
    verts = layout.breakwaters[0]
    assert verts[1] == pytest.approx(verts[0])
    # zero-length block still turns the heading: 30 + 90 = 120
    expect = verts[1] + [math.cos(math.radians(120)), math.sin(math.radians(120))]
    assert verts[2] == pytest.approx(expect)


def test_decode_cartesian_genes_are_vertices():
    g = Genotype(Encoding.CARTESIAN, np.array([7.0, 5.0, 6.0, 9.0]))
    layout = decode(g, TWO_SEGMENTS)
    assert layout.breakwaters[0] == pytest.approx(
        np.array([[5.0, 5.0], [7.0, 5.0], [6.0, 9.0]])
    )


def test_decode_splits_blocks_across_attachments():
    g = Genotype(Encoding.ANGULAR, np.array([1.0, 0.0, 1.0, 0.0, 2.0, 0.0]))
    layout = decode(g, CHAIN)
    assert len(layout.breakwaters) == 2
    assert layout.breakwaters[0].shape == (3, 2)
    assert layout.breakwaters[1].shape == (2, 2)


def test_decode_rejects_block_count_mismatch():
    g = Genotype(Encoding.ANGULAR, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        decode(g, CHAIN)


# ----- convert round-trip -----

def random_genotype(rng, encoding, n_blocks):
    if encoding is Encoding.ANGULAR:
        genes = np.empty(2 * n_blocks)
        genes[0::2] = rng.uniform(0.0, 10.0, n_blocks)
        genes[1::2] = rng.uniform(-180.0, 180.0, n_blocks)
    else:
        genes = rng.uniform(-20.0, 20.0, 2 * n_blocks)
    return Genotype(encoding, genes)


def test_convert_round_trip_preserves_vertices():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(1000):
        for encoding in (Encoding.ANGULAR, Encoding.CARTESIAN):
            g = random_genotype(rng, encoding, 3)
            other = (
                Encoding.CARTESIAN if encoding is Encoding.ANGULAR else Encoding.ANGULAR
            )
            back = convert(convert(g, CHAIN, other), CHAIN, encoding)
            original = decode(g, CHAIN)
            returned = decode(back, CHAIN)
            for va, vb in zip(original.breakwaters, returned.breakwaters):
                assert np.max(np.abs(va - vb)) < 1e-9
    assert time.perf_counter() - start < 1.0


def test_convert_same_encoding_is_copy():
    g = Genotype(Encoding.ANGULAR, np.array([1.0, 10.0, 2.0, 20.0]))
    same = convert(g, TWO_SEGMENTS, Encoding.ANGULAR)
    assert same is not g
    assert np.array_equal(same.genes, g.genes)


def test_convert_zero_length_gets_angle_zero():
    g = Genotype(Encoding.CARTESIAN, np.array([5.0, 5.0, 5.0, 5.0]))
    angular = convert(g, TWO_SEGMENTS, Encoding.ANGULAR)
    assert np.array_equal(angular.genes, np.zeros(4))


# ----- intersection predicates -----

def test_segments_cross_transversal():
    assert segments_cross((0, 0), (2, 2), (0, 2), (2, 0))


def test_segments_touching_do_not_cross():
    # shared endpoint, T-touch and collinear overlap all count as legal
    assert not segments_cross((0, 0), (2, 0), (2, 0), (3, 1))
    assert not segments_cross((0, 0), (2, 0), (1, 0), (1, 2))
    assert not segments_cross((0, 0), (2, 0), (1, 0), (3, 0))


def test_segments_disjoint_do_not_cross():
    assert not segments_cross((0, 0), (1, 0), (0, 1), (1, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=16, max_size=24))
def test_self_intersections_match_all_pairs_oracle(flat):
    coords = np.array(flat[: len(flat) // 2 * 2]).reshape(-1, 2)
    half = len(coords) // 2
    layout = mk_layout(coords[:half], coords[half:])
    segs = [
        (p, q)
        for chain in (coords[:half], coords[half:])
        for p, q in zip(chain[:-1], chain[1:])
        if not np.array_equal(p, q)
    ]
    oracle = sum(
        segments_cross(*segs[i], *segs[j])
        for i in range(len(segs))
        for j in range(i + 1, len(segs))
    )
    assert count_crossings(layout.segments()) == oracle


def test_self_intersections_against_existing():
    bow = mk_layout([[0.0, 0.0], [4.0, 4.0]])
    existing = [np.array([[0.0, 4.0], [4.0, 0.0]])]
    assert count_crossings(bow.segments(), polyline_segments(existing)) == 1


def test_fairway_intersections():
    segments = mk_layout([[0.0, 1.0], [4.0, 1.0]]).segments()
    assert count_crossings(segments, polyline_segments([np.array([[2.0, 0.0], [2.0, 2.0]])])) == 1
    assert count_crossings(segments, polyline_segments([np.array([[5.0, 0.0], [5.0, 2.0]])])) == 0


def test_polyline_segments_are_plain_floats_without_zero_length():
    verts = np.array([[1.0, 2.0], [1.0, 2.0], [3.5, -0.0], [3.5, 0.0], [4.0, 1.0]])
    segments = polyline_segments([verts, np.array([[7.0, 7.0]])])
    assert segments == [((1.0, 2.0), (3.5, -0.0)), ((3.5, 0.0), (4.0, 1.0))]
    assert all(type(c) is float for s in segments for point in s for c in point)


# ----- distances -----

def test_min_distance_parallel_lines_is_125_m():
    layout = mk_layout([[0.0, 0.0], [0.0, 10.0]])
    fairway = np.array([[5.0, 0.0], [5.0, 10.0]])
    assert min_distance_to_fairway(layout, fairway, cell_size=25.0) == pytest.approx(125.0)


def test_min_distance_touching_is_zero():
    layout = mk_layout([[0.0, 0.0], [10.0, 0.0]])
    fairway = np.array([[5.0, -3.0], [5.0, 3.0]])
    assert min_distance_to_fairway(layout, fairway, cell_size=25.0) == pytest.approx(0.0)


def test_min_distance_skew_matches_dense_oracle():
    layout = mk_layout([[0.0, 0.0], [7.0, 3.0]])
    fairway = np.array([[2.0, 8.0], [9.0, 4.5]])
    got = min_distance_to_fairway(layout, fairway, cell_size=10.0, sampling_step=0.25)
    # brute-force oracle on a much finer sampling
    pa = sample_polyline(layout.breakwaters[0], 0.01)
    pf = sample_polyline(fairway, 0.01)
    oracle = float(np.min(np.linalg.norm(pa[:, None, :] - pf[None, :, :], axis=-1))) * 10.0
    # dense sampling can only overestimate the continuous minimum,
    # by at most one sampling step per curve
    assert oracle - 1e-9 <= got <= oracle + 2 * 0.25 * 10.0


def min_polyline_distance(polylines_a, polylines_b, step):
    """Smallest distance between two polyline families, by dense sampling.

    Built from the kernel min_distance_to_fairway uses, for families of any size.
    """
    return _min_sample_distance(_sample_family(polylines_a, step), _sample_family(polylines_b, step))


def test_min_distance_symmetric_in_point_sets():
    a = [np.array([[0.0, 0.0], [3.0, 1.0]])]
    b = [np.array([[5.0, 5.0], [6.0, 2.0]])]
    assert min_polyline_distance(a, b, 0.25) == pytest.approx(min_polyline_distance(b, a, 0.25))


def reference_sample_polyline(verts, step):
    """The earlier sampler, kept as the reference: one appended row per point."""
    verts = np.asarray(verts, dtype=float)
    points = [verts[0]]
    for p, q in zip(verts[:-1], verts[1:]):
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        if length == 0.0:
            continue
        n = max(1, math.ceil(length / step))
        ts = np.arange(1, n + 1) / n
        points.extend(p + ts[:, None] * (q - p))
    return np.asarray(points)


def dense_min_polyline_distance(polylines_a, polylines_b, step):
    """The earlier kernel, kept as the reference: one (na, nb, 2) temporary."""
    a = np.concatenate([reference_sample_polyline(v, step) for v in polylines_a])
    b = np.concatenate([reference_sample_polyline(v, step) for v in polylines_b])
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return float(math.sqrt(d2.min()))


def random_polyline(rng):
    verts = rng.uniform(-20.0, 20.0, size=(int(rng.integers(2, 6)), 2))
    if rng.random() < 0.5:
        verts = np.round(verts)  # integer vertices: ties and exact-zero gaps
    for i in range(1, len(verts)):
        if rng.random() < 0.3:
            verts[i] = verts[i - 1]  # zero-length segment
    return verts


def test_min_polyline_distance_is_bit_identical_to_dense_kernel():
    rng = np.random.default_rng(77)
    # first a fully degenerate family: every segment has zero length
    cases = [
        (
            [np.array([[1.5, 2.0], [1.5, 2.0], [1.5, 2.0]])],
            [np.array([[4.5, 6.0], [4.5, 6.0]]), np.array([[-2.0, 2.0], [-2.0, 2.0]])],
            0.25,
        )
    ]
    for _ in range(300):
        a = [random_polyline(rng) for _ in range(int(rng.integers(1, 4)))]
        b = [random_polyline(rng) for _ in range(int(rng.integers(1, 3)))]
        cases.append((a, b, float(rng.choice([0.1, 0.25, 0.7, 3.0]))))
    for a, b, step in cases:
        got = min_polyline_distance(a, b, step)
        assert type(got) is float
        assert got.hex() == dense_min_polyline_distance(a, b, step).hex()
        clearance = min_distance_to_fairway(mk_layout(*a), b[0], 25.0, step)
        assert clearance.hex() == (dense_min_polyline_distance(a, b[:1], step) * 25.0).hex()
    assert min_polyline_distance(*cases[0]) == 3.5


def test_degenerate_layout_distance_uses_attachment_point():
    layout = mk_layout([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]])
    fairway = np.array([[3.0, 0.0], [3.0, 2.0]])
    assert min_distance_to_fairway(layout, fairway, cell_size=10.0) == pytest.approx(20.0)


def test_sample_polyline_is_bit_identical_to_row_appending_sampler():
    rng = np.random.default_rng(78)
    for _ in range(300):
        verts = random_polyline(rng)
        if rng.random() < 0.2:
            verts = verts.astype(int)  # integer input is converted, not rounded
        step = float(rng.uniform(0.1, 3.0))
        got = sample_polyline(verts, step)
        want = reference_sample_polyline(verts, step)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_fairway_samples_are_cached_by_value_read_only():
    f1 = np.array([[0.0, 0.0], [0.0, 4.0]])
    f2 = np.array([[1.0, 0.0], [1.0, 4.0]])  # same shape, other values
    s1 = _fairway_samples(f1.tobytes(), f1.shape, 0.5)
    assert _fairway_samples(f1.copy().tobytes(), f1.shape, 0.5) is s1
    s2 = _fairway_samples(f2.tobytes(), f2.shape, 0.5)
    assert s2.tobytes() == reference_sample_polyline(f2, 0.5).tobytes() != s1.tobytes()
    s3 = _fairway_samples(f1.tobytes(), f1.shape, 0.25)
    assert s3.tobytes() == reference_sample_polyline(f1, 0.25).tobytes()
    assert len(s3) == 17 and len(s1) == 9
    assert not s1.flags.writeable
    with pytest.raises(ValueError):
        s1[0, 0] = 1.0
    layout = mk_layout([[3.0, 0.0], [3.0, 4.0]])
    assert min_distance_to_fairway(layout, f1, 1.0) == 3.0
    assert min_distance_to_fairway(layout, f2, 1.0) == 2.0
    point = mk_layout([[1.0, 1.0], [1.0, 1.0]])  # fairway samples at y = 0, 2, 4 for step 3
    assert min_distance_to_fairway(point, f1, 1.0, 3.0) == math.sqrt(2.0)
    assert min_distance_to_fairway(point, f1, 1.0, 0.5) == 1.0


def test_sample_polyline_spacing_and_endpoints():
    verts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    pts = sample_polyline(verts, 0.5)
    assert pts[0] == pytest.approx([0.0, 0.0])
    assert pts[-1] == pytest.approx([3.0, 4.0])
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.all(gaps <= 0.5 + 1e-12)


# ----- rasterization -----

def test_rasterize_horizontal_span():
    grid = water_grid()
    layout = mk_layout([[2.0, 5.0], [5.0, 5.0]])
    cells = dict(rasterize(layout, grid, {Material.SOLID_WALL: 0.1}))
    assert set(cells) == {(2, 5), (3, 5), (4, 5), (5, 5)}
    assert all(c == 0.1 for c in cells.values())


def test_rasterize_overlap_keeps_most_blocking_coeff():
    grid = water_grid()
    layout = Layout(
        [np.array([[2.0, 5.0], [6.0, 5.0]]), np.array([[4.0, 5.0], [4.0, 8.0]])],
        [Material.TETRAPOD, Material.SOLID_WALL],
    )
    cells = dict(
        rasterize(layout, grid, {Material.SOLID_WALL: 0.1, Material.TETRAPOD: 0.35})
    )
    assert cells[(4, 5)] == 0.1
    assert cells[(3, 5)] == 0.35


def supercover_oracle(p0, p1, samples=100001):
    """Independent voxelization: dense sampling marks every cell the segment meets."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    ts = np.linspace(0.0, 1.0, samples)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    cols = np.floor(pts[:, 0] + 0.5).astype(int)
    rows = np.floor(pts[:, 1] + 0.5).astype(int)
    return set(zip(cols.tolist(), rows.tolist()))


def test_supercover_diagonal_adds_corner_side_cells():
    got = set(supercover_line((1.0, 1.0), (6.0, 6.0)))
    diagonal = {(k, k) for k in range(1, 7)}
    side = {(k + 1, k) for k in range(1, 6)} | {(k, k + 1) for k in range(1, 6)}
    assert got == diagonal | side
    # the dense-sampling oracle only sees cells of positive measure
    assert supercover_oracle((1.0, 1.0), (6.0, 6.0)) <= got


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.floats(-3, 12), st.floats(-3, 12)),
    st.tuples(st.floats(-3, 12), st.floats(-3, 12)),
)
def test_supercover_is_superset_of_sampling_oracle(p0, p1):
    got = set(supercover_line(p0, p1))
    assert supercover_oracle(p0, p1, samples=2001) <= got


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.floats(-3, 12), st.floats(-3, 12)),
    st.tuples(st.floats(-3, 12), st.floats(-3, 12)),
)
def test_supercover_covers_endpoints_and_is_connected(p0, p1):
    cells = supercover_line(p0, p1)

    def cell_of(p):
        return (int(math.floor(p[0] + 0.5)), int(math.floor(p[1] + 0.5)))

    cell_set = set(cells)
    assert cell_of(p0) in cell_set
    assert cell_of(p1) in cell_set
    for cx, cy in cell_set:
        if len(cell_set) == 1:
            break
        assert any(
            (cx + dx, cy + dy) in cell_set
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0)
        )


def test_rasterize_zero_length_segment_is_empty():
    grid = water_grid()
    layout = mk_layout([[3.0, 3.0], [3.0, 3.0]])
    assert rasterize(layout, grid, {Material.SOLID_WALL: 0.1}) == []


def test_rasterize_clips_to_grid():
    grid = water_grid(n_cols=5, n_rows=5)
    layout = mk_layout([[3.0, 2.0], [9.0, 2.0]])
    cells = [c for c, _ in rasterize(layout, grid, {Material.SOLID_WALL: 0.1})]
    assert all(0 <= cx < 5 for cx, _ in cells)
    assert (4, 2) in cells and (3, 2) in cells


# ----- cost -----

def test_cost_3_4_5_triangle():
    # two legs 3 and 4 cells plus the 5-cell hypotenuse closing the triangle
    verts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
    layout = mk_layout(verts)
    assert total_length(layout.segments()) * 25.0 == pytest.approx(300.0, abs=1e-12)


def test_cost_of_random_layout_equals_length_sum():
    rng = np.random.default_rng(3)
    verts = rng.uniform(0, 10, size=(7, 2))
    layout = mk_layout(verts)
    oracle = sum(math.hypot(*(verts[i + 1] - verts[i])) for i in range(6))
    assert total_length(layout.segments()) == pytest.approx(oracle, rel=1e-12)
