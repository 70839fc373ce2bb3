"""The culled coverage partition against the full-grid reference loop.

``reference_partition`` scores every UAV on every cell, the way the
partition did before it learned to skip cells a UAV cannot win.  The
culled partition must reproduce its owner array and areas exactly,
bit for bit, on any placement.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrum_contracts.config import DEFAULT_NOISE_DBM, _ring_positions, watts_to_dbm
from spectrum_contracts.geometry import (
    MBS_OWNER,
    Placement,
    RadioParams,
    RegionGrid,
    TerrainParams,
    _cell_centers,
    _free_space,
    partition_regions,
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

    mx, my = placement.mbs_position
    r_mbs = np.hypot(xs - mx, ys - my)
    with np.errstate(divide="ignore"):
        best = snr(radio.p_mbs, _free_space(r_mbs, radio.frequency) + terrain.eta_nlos, radio.noise)
    owner = np.full(xs.shape, MBS_OWNER, dtype=np.int64)

    height = placement.height
    for n, (ux, uy) in enumerate(placement.uav_positions):
        r = np.hypot(xs - ux, ys - uy)
        d = np.hypot(r, height)
        theta = np.degrees(np.arctan2(height, r))
        loss = pathloss_uav(theta, d, terrain, radio)
        candidate = snr(radio.p_uav, loss, radio.noise)
        take = candidate > best
        owner[take] = n
        best = np.where(take, candidate, best)

    cell_area = cell_size * cell_size
    areas = tuple(
        float(np.count_nonzero(owner == n)) * cell_area
        for n in range(len(placement.uav_positions))
    )
    return RegionGrid(extent=extent, cell_size=cell_size, owner=owner, areas=areas)


def assert_same_partition(placement, terrain, radio, extent, cell_size):
    got = partition_regions(placement, terrain, radio, extent, cell_size)
    want = reference_partition(placement, terrain, radio, extent, cell_size)
    assert got.owner.shape == want.owner.shape
    assert got.owner.dtype == want.owner.dtype
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
    mbs = draw(
        st.one_of(st.just((0.0, 0.0)), st.tuples(coordinate, coordinate))
    )
    positions = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6)
    )
    if draw(st.booleans()):
        positions[0] = (
            float(draw(st.sampled_from(centers))),
            float(draw(st.sampled_from(centers))),
        )
    if draw(st.booleans()):
        positions[-1] = mbs
    positions = tuple(dict.fromkeys(positions))
    placement = Placement(
        uav_positions=positions,
        height=draw(st.floats(10.0, 20000.0)),
        mbs_position=mbs,
    )
    terrain = draw(st.sampled_from([URBAN, SUBURBAN]))
    radio = draw(st.sampled_from([DEFAULT_RADIO, LOUD_RADIO]))
    return placement, terrain, radio, extent, cell_size


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_culled_partition_matches_the_full_grid(case):
    assert_same_partition(*case)


def test_uav_above_an_offset_base_station_on_a_cell_center():
    mbs = (400.0, -200.0)
    placement = Placement(
        uav_positions=(mbs, (-300.0, 500.0), (37.5, 12.25)),
        height=120.0,
        mbs_position=mbs,
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
