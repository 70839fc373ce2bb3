"""The culled coverage partition against the full-grid reference loop.

``reference_partition`` scores every UAV on every cell, the way the
partition did before it learned to skip cells a UAV cannot win.  The
culled partition must reproduce its owner array and areas exactly,
bit for bit, on any placement.  Generated placements on small grids
also check properties that need no reference: mirror symmetry, the
independence of UAV order (the base station keeps its cells and owner
labels follow their UAVs), and areas that tile the window.  The owner
labels come in the narrowest signed integer type that holds them, and
one partition holds at most a few window-sized float arrays at once.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrum_contracts.config import DEFAULT_NOISE_DBM, _ring_positions, watts_to_dbm
from spectrum_contracts.geometry import (
    _BOUND_SLACK_DB,
    MBS_OWNER,
    Placement,
    RadioParams,
    RegionGrid,
    TerrainParams,
    _cell_centers,
    _free_space,
    partition_regions,
    pathloss_mbs,
    pathloss_uav,
    snr,
)

URBAN = TerrainParams(a=11.95, b=0.136, eta_los=2.0, eta_nlos=20.0)
SUBURBAN = TerrainParams(a=5.0, b=0.2, eta_los=0.1, eta_nlos=21.0)
DEFAULT_RADIO = RadioParams(
    frequency=3.0e9,
    p_mbs=watts_to_dbm(10.0),
    p_uav=watts_to_dbm(0.05),
    noise=DEFAULT_NOISE_DBM,
)
LOUD_RADIO = RadioParams(frequency=3.0e9, p_mbs=0.0, p_uav=60.0, noise=-120.0)


def uav_snr(placement, n, terrain, radio, xs, ys):
    """SNR of UAV n at the cell centers ``xs``, ``ys``."""
    ux, uy = placement.uav_positions[n]
    height = placement.height
    r = np.hypot(xs - ux, ys - uy)
    d = np.hypot(r, height)
    theta = np.degrees(np.arctan2(height, r))
    loss = pathloss_uav(theta, d, terrain, radio)
    return snr(radio.p_uav, loss, radio.noise)


def reference_partition(
    placement: Placement,
    terrain: TerrainParams,
    radio: RadioParams,
    extent: float = 3000.0,
    cell_size: float = 5.0,
) -> RegionGrid:
    """Full-grid partition: every UAV scored on every cell."""
    centers = _cell_centers(extent, cell_size)
    xs, ys = np.meshgrid(centers, centers, indexing="ij")

    r_mbs = np.hypot(xs, ys)
    with np.errstate(divide="ignore"):
        best = snr(radio.p_mbs, _free_space(r_mbs, radio.frequency) + terrain.eta_nlos, radio.noise)
    owner = np.full(xs.shape, MBS_OWNER, dtype=np.int64)

    for n in range(len(placement.uav_positions)):
        candidate = uav_snr(placement, n, terrain, radio, xs, ys)
        take = candidate > best
        owner[take] = n
        best = np.where(take, candidate, best)

    cell_area = cell_size * cell_size
    areas = tuple(
        float(np.count_nonzero(owner == n)) * cell_area
        for n in range(len(placement.uav_positions))
    )
    return RegionGrid(extent=extent, cell_size=cell_size, owner=owner, areas=areas)


def narrowest_label_type(uavs: int) -> np.dtype:
    """The narrowest signed integer type holding -1 and every UAV index."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if uavs - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"{uavs} UAVs need more than 64-bit labels")


def assert_same_partition(placement, terrain, radio, extent, cell_size):
    got = partition_regions(placement, terrain, radio, extent, cell_size)
    want = reference_partition(placement, terrain, radio, extent, cell_size)
    assert got.owner.shape == want.owner.shape
    assert got.owner.dtype == narrowest_label_type(len(placement.uav_positions))
    assert np.array_equal(got.owner, want.owner)
    assert got.areas == want.areas
    return got


@st.composite
def scenarios(draw):
    extent = draw(st.floats(100.0, 3000.0))
    cells = draw(st.integers(3, 80))
    cell_size = 2.0 * extent / cells
    centers = _cell_centers(extent, cell_size)
    coordinate = st.floats(-extent, extent)
    positions = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6)
    )
    if draw(st.booleans()):
        positions[0] = (
            float(draw(st.sampled_from(centers))),
            float(draw(st.sampled_from(centers))),
        )
    if draw(st.booleans()):
        # Directly above the base station.
        positions[-1] = (0.0, 0.0)
    positions = tuple(dict.fromkeys(positions))
    placement = Placement(
        uav_positions=positions, height=draw(st.floats(10.0, 20000.0))
    )
    terrain = draw(st.sampled_from([URBAN, SUBURBAN]))
    radio = draw(st.sampled_from([DEFAULT_RADIO, LOUD_RADIO]))
    return placement, terrain, radio, extent, cell_size


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_culled_partition_matches_the_full_grid(case):
    assert_same_partition(*case)


def test_uav_above_the_base_station_on_a_cell_center():
    # The odd 21-cell grid puts a cell center on the base station at the
    # origin, with the first UAV directly above it.
    placement = Placement(
        uav_positions=((0.0, 0.0), (-300.0, 500.0), (37.5, 12.25)),
        height=120.0,
    )
    for terrain in (URBAN, SUBURBAN):
        for radio in (DEFAULT_RADIO, LOUD_RADIO):
            assert_same_partition(placement, terrain, radio, 1050.0, 100.0)


def test_dominant_radio_gives_the_uavs_the_whole_window():
    placement = Placement(uav_positions=((900.0, 900.0),), height=50.0)
    grid = assert_same_partition(placement, URBAN, LOUD_RADIO, 1010.0, 20.0)
    # The odd grid puts a cell center on the base station, whose SNR is
    # infinite there; the relay in the far corner takes every other cell.
    assert int(np.count_nonzero(grid.owner == MBS_OWNER)) == 1


@pytest.mark.parametrize("height", [float(h) for h in range(200, 1001, 25)])
def test_preset_heights_match_the_full_grid(height):
    placement = Placement(uav_positions=_ring_positions(10, 1000.0), height=height)
    grid = assert_same_partition(placement, URBAN, DEFAULT_RADIO, 3000.0, 10.0)
    if height >= 700.0:
        # Every relay's reach is empty: the culled pass scores no cell.
        assert grid.areas == (0.0,) * 10


def test_no_uavs_leave_the_base_station_every_cell():
    placement = Placement(uav_positions=(), height=100.0)
    grid = assert_same_partition(placement, URBAN, LOUD_RADIO, 600.0, 100.0)
    assert np.all(grid.owner == MBS_OWNER)
    assert grid.areas == ()


@pytest.mark.parametrize(("uavs", "dtype"), [(128, np.int8), (129, np.int16)])
def test_the_last_label_fits_the_owner_type(uavs, dtype):
    # One relay on each of the first cell centers of a 12 x 12 grid: the
    # loud relays beat the base station, and each wins its own cell, so
    # the last label is written.  An owner type one size too narrow
    # would wrap it (numpy 1.24 does so with only a warning).
    centers = _cell_centers(600.0, 100.0)
    positions = tuple((float(x), float(y)) for x in centers for y in centers)
    placement = Placement(uav_positions=positions[:uavs], height=100.0)
    grid = assert_same_partition(placement, URBAN, LOUD_RADIO, 600.0, 100.0)
    assert grid.owner.dtype == dtype
    assert np.count_nonzero(grid.owner == uavs - 1) > 0


def union_window_cells(placement, terrain, radio, extent, cell_size):
    """Cells of the rectangle around every UAV's box, by the radial bound
    that ``partition_regions`` documents."""
    centers = _cell_centers(extent, cell_size)
    steps = math.ceil((2.0 * math.sqrt(2.0) * extent + cell_size) / cell_size)
    radii = np.arange(steps + 1) * cell_size
    height = placement.height
    theta = np.degrees(np.arctan2(height, radii[:-1]))
    loss = pathloss_uav(theta, np.hypot(radii[:-1], height), terrain, radio)
    inner = snr(radio.p_uav, loss, radio.noise)
    lows, highs = [], []
    for ux, uy in placement.uav_positions:
        loss = pathloss_mbs(math.hypot(ux, uy) + radii[1:], terrain, radio)
        floor = snr(radio.p_mbs, loss, radio.noise)
        kept = np.flatnonzero(inner > floor - _BOUND_SLACK_DB)
        if kept.size:
            reach = radii[kept[-1] + 1]
            lows.append(np.searchsorted(centers, (ux - reach, uy - reach), side="left"))
            highs.append(np.searchsorted(centers, (ux + reach, uy + reach), side="right"))
    if not lows:
        return 0
    return int(np.prod(np.max(highs, axis=0) - np.min(lows, axis=0)))


@pytest.mark.parametrize("height", [float(h) for h in range(400, 601, 25)])
def test_partition_memory_stays_within_four_window_arrays(height):
    # Besides its owner array, one partition holds the base station's
    # SNR over the union window of the boxes and, while it scores, the
    # distances and pathloss temporaries of one box: 2.03-2.12
    # window-sized float64 arrays at these heights.  Scoring on
    # np.meshgrid copies of the coordinates took 5.05 and fails here.
    placement = Placement(uav_positions=_ring_positions(10, 1000.0), height=height)
    window = union_window_cells(placement, URBAN, DEFAULT_RADIO, 3000.0, 10.0)
    assert window > 0
    tracemalloc.start()
    try:
        grid = partition_regions(placement, URBAN, DEFAULT_RADIO, 3000.0, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= grid.owner.nbytes + 4 * 8 * window


@st.composite
def origin_scenarios(draw):
    """Small grids (cells of at least 25 m), base station at the origin."""
    cells = draw(st.integers(3, 60))
    extent = draw(st.floats(12.5 * cells, 2000.0))
    coordinate = st.floats(-extent, extent)
    positions = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6, unique=True)
    )
    placement = Placement(
        uav_positions=tuple(dict.fromkeys(positions)),
        height=draw(st.floats(10.0, 2000.0)),
    )
    terrain = draw(st.sampled_from([URBAN, SUBURBAN]))
    radio = draw(st.sampled_from([DEFAULT_RADIO, LOUD_RADIO]))
    return placement, terrain, radio, extent, 2.0 * extent / cells


@settings(max_examples=60, deadline=None)
@given(origin_scenarios())
def test_mirroring_the_uavs_mirrors_the_owners(case):
    # Cell centers are exactly symmetric about the base station at the
    # origin, so every SNR in the mirrored layout is the same float.
    placement, terrain, radio, extent, cell_size = case
    mirrored = Placement(
        uav_positions=tuple((x, -y) for x, y in placement.uav_positions),
        height=placement.height,
    )
    grid = partition_regions(placement, terrain, radio, extent, cell_size)
    flipped = partition_regions(mirrored, terrain, radio, extent, cell_size)
    assert np.array_equal(flipped.owner, grid.owner[:, ::-1])
    assert flipped.areas == grid.areas


@settings(max_examples=60, deadline=None)
@given(origin_scenarios(), st.data())
def test_uav_order_permutes_the_owner_labels(case, data):
    # A UAV-versus-MBS tie goes to the MBS, so a cell is UAV-owned
    # exactly when its best UAV beats the MBS, whatever the UAV order.
    # Ties between UAVs go to the lowest index, so only a cell whose
    # owner's SNR no other UAV matches must follow its UAV.
    placement, terrain, radio, extent, cell_size = case
    order = data.draw(st.permutations(range(len(placement.uav_positions))))
    shuffled = Placement(
        uav_positions=tuple(placement.uav_positions[i] for i in order),
        height=placement.height,
    )
    grid = partition_regions(placement, terrain, radio, extent, cell_size)
    again = partition_regions(shuffled, terrain, radio, extent, cell_size)
    assert np.array_equal(again.owner == MBS_OWNER, grid.owner == MBS_OWNER)
    centers = _cell_centers(extent, cell_size)
    xs, ys = np.meshgrid(centers, centers, indexing="ij")
    snrs = np.stack(
        [uav_snr(placement, n, terrain, radio, xs, ys) for n in range(len(order))]
    )
    owned = grid.owner >= 0
    best = np.take_along_axis(snrs, np.maximum(grid.owner, 0)[None], axis=0)
    unique = np.count_nonzero(snrs == best, axis=0) == 1
    check = owned & unique
    # UAV order[j] of the original layout is UAV j of the shuffled one.
    relabel = np.argsort(order)
    assert np.array_equal(again.owner[check], relabel[grid.owner[check]])


@settings(max_examples=60, deadline=None)
@given(origin_scenarios())
def test_areas_tile_the_window(case):
    grid = partition_regions(*case)
    cell_area = grid.cell_size * grid.cell_size
    mbs_area = int(np.count_nonzero(grid.owner == MBS_OWNER)) * cell_area
    tiled = math.fsum(grid.areas) + mbs_area
    assert tiled == pytest.approx(grid.owner.size * cell_area, rel=1e-12, abs=0.0)
