"""Tests for the air-to-ground channel model and coverage partition."""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectrum_contracts.config import (
    ConfigError,
    GeometryScenario,
    ScenarioConfig,
    SweepSpec,
    loads_config,
)
from spectrum_contracts.contract import MbsLoad
from spectrum_contracts.geometry import (
    MBS_OWNER,
    DensityMap,
    Placement,
    RadioParams,
    RegionGrid,
    TerrainParams,
    derive_types,
    p_los,
    partition_regions,
    pathloss_mbs,
    pathloss_uav,
    snr,
)
from spectrum_contracts.runner import run_sweep
from spectrum_contracts.solver import Objective

URBAN = TerrainParams(a=11.95, b=0.136, eta_los=2.0, eta_nlos=20.0)
SUBURBAN = TerrainParams(a=5.0, b=0.2, eta_los=0.1, eta_nlos=21.0)
RADIO = RadioParams(
    frequency=3e9,
    p_mbs=40.0,
    p_uav=10.0 * math.log10(50.0),
    noise=-120.0,
)


def symmetric_ring(radius):
    """Ten positions on a circle built from mirrored float pairs.

    Reusing the same cos/sin products with sign flips makes the layout
    bitwise symmetric under both axis reflections, so ownership counts
    in mirrored cells are exactly equal, not merely close.
    """
    c1 = radius * math.cos(math.radians(36.0))
    s1 = radius * math.sin(math.radians(36.0))
    c2 = radius * math.cos(math.radians(72.0))
    s2 = radius * math.sin(math.radians(72.0))
    return (
        (radius, 0.0), (c1, s1), (c2, s2), (-c2, s2), (-c1, s1),
        (-radius, 0.0), (-c1, -s1), (-c2, -s2), (c2, -s2), (c1, -s1),
    )


class TestLosProbability:
    def test_midpoint_angle_hits_closed_form(self):
        # At theta equal to the sigmoid offset the exponent vanishes.
        assert p_los(11.95, URBAN) == pytest.approx(1.0 / 12.95, abs=1e-15)

    def test_zenith_is_near_one(self):
        value = p_los(90.0, URBAN)
        assert value == pytest.approx(0.9997067139222499, abs=1e-12)
        assert value < 1.0

    def test_open_interval_and_monotone_on_grid(self):
        grid = np.linspace(0.0, 90.0, 901)
        values = p_los(grid, URBAN)
        assert np.all(values > 0.0) and np.all(values < 1.0)
        assert np.all(np.diff(values) > 0.0)

    @pytest.mark.parametrize("theta", [-0.01, 90.01, float("nan")])
    def test_angle_outside_range_is_rejected(self, theta):
        with pytest.raises(ValueError, match="\\[0, 90\\]"):
            p_los(theta, URBAN)

    def test_scalar_in_scalar_out(self):
        assert isinstance(p_los(45.0, URBAN), float)


class TestPathloss:
    def test_average_equals_obstructed_minus_weighted_gap(self):
        """The LoS/NLoS mixture collapses to one subtraction."""
        rng = np.random.default_rng(20260817)
        for _ in range(500):
            theta = float(rng.uniform(0.0, 90.0))
            d = float(rng.uniform(1.0, 50000.0))
            direct = pathloss_uav(theta, d, URBAN, RADIO)
            nlos = pathloss_mbs(d, URBAN, RADIO)
            gap = URBAN.eta_nlos - URBAN.eta_los
            assert direct == pytest.approx(nlos - gap * p_los(theta, URBAN), abs=1e-9)

    def test_vanishing_los_probability_leaves_obstructed_loss(self):
        # A steep late sigmoid keeps the LoS weight around 1e-13 at zero
        # elevation, so the average collapses onto the obstructed path.
        steep = TerrainParams(a=50.0, b=0.5, eta_los=2.0, eta_nlos=20.0)
        assert pathloss_uav(0.0, 800.0, steep, RADIO) == pytest.approx(
            pathloss_mbs(800.0, steep, RADIO), abs=1e-9
        )

    def test_kilometer_free_space_reference(self):
        # 20*log10(4*pi*f*d/c) at f=3 GHz, d=1000 m, checked offline.
        free_space = 101.99020831627662
        assert pathloss_mbs(1000.0, URBAN, RADIO) == pytest.approx(
            free_space + URBAN.eta_nlos, abs=1e-9
        )

    def test_suburban_elevation_scan_has_interior_minimum(self):
        # Fixed horizontal range, rising elevation: the shrinking excess
        # loss first beats the growing slant range, then loses to it.
        r = 500.0
        phis = np.arange(1.0, 90.0, 0.5)
        slant = np.hypot(r, r * np.tan(np.radians(phis)))
        losses = pathloss_uav(phis, slant, SUBURBAN, RADIO)
        best = int(np.argmin(losses))
        assert 0 < best < len(phis) - 1
        assert losses[0] > losses[best] + 10.0
        assert losses[-1] > losses[best] + 10.0

    def test_obstructed_loss_increases_with_distance(self):
        d = np.linspace(10.0, 5000.0, 200)
        losses = pathloss_mbs(d, URBAN, RADIO)
        assert np.all(np.diff(losses) > 0.0)

    @pytest.mark.parametrize("d", [0.0, -2.0, float("nan")])
    def test_nonpositive_distance_is_rejected(self, d):
        with pytest.raises(ValueError, match="positive"):
            pathloss_uav(30.0, d, URBAN, RADIO)

    @pytest.mark.parametrize("d", [-2.0, float("nan")])
    def test_negative_base_station_distance_is_rejected(self, d):
        with pytest.raises(ValueError, match="distance"):
            pathloss_mbs(d, URBAN, RADIO)
        with pytest.raises(ValueError, match="distance"):
            pathloss_mbs(np.array([1000.0, d]), URBAN, RADIO)

    def test_zero_base_station_distance_gives_minus_infinity(self):
        # The partition scores a base station on a cell center through
        # this function: the cell gets an infinite SNR, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pathloss_mbs(0.0, URBAN, RADIO) == -math.inf
            losses = pathloss_mbs(np.array([0.0, 1000.0]), URBAN, RADIO)
        assert losses[0] == -math.inf
        assert losses[1] == pathloss_mbs(1000.0, URBAN, RADIO)


class TestSnr:
    def test_dbm_arithmetic(self):
        assert snr(40.0, 120.0, -90.0) == pytest.approx(10.0)

    def test_linear_in_each_argument(self):
        base = snr(30.0, 100.0, -100.0)
        assert snr(30.0, 110.0, -100.0) == pytest.approx(base - 10.0)
        assert snr(35.0, 100.0, -100.0) == pytest.approx(base + 5.0)
        assert snr(30.0, 100.0, -95.0) == pytest.approx(base - 5.0)

    def test_ordering_survives_common_noise_shift(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p1, p2 = rng.uniform(0.0, 50.0, size=2)
            l1, l2 = rng.uniform(80.0, 140.0, size=2)
            n0, shift = rng.uniform(-130.0, -80.0), rng.uniform(-30.0, 30.0)
            before = snr(p1, l1, n0) > snr(p2, l2, n0)
            after = snr(p1, l1, n0 + shift) > snr(p2, l2, n0 + shift)
            assert before == after


# Suburban to high-rise environments.  On each, the line-of-sight
# probability stays below 1 by more than 1e-7 even straight overhead,
# which keeps a relay at the exclusion height strictly below the base
# station rather than tied with it to within rounding.
TERRAINS = (
    SUBURBAN,
    URBAN,
    TerrainParams(a=12.08, b=0.11, eta_los=1.6, eta_nlos=23.0),
    TerrainParams(a=27.23, b=0.08, eta_los=2.3, eta_nlos=34.0),
)


def relay_exclusion_height(positions, terrain, radio):
    """Height from which no relay out-hears the base station at (0, 0).

    With ``dp = p_mbs - p_uav > deta = eta_nlos - eta_los``, a relay at
    ground distance D from the base station and height H is heard at
    most at ``p_uav - FSPL(sqrt(r^2 + H^2)) - eta_los`` at ground
    distance r, strictly less since line of sight is never certain,
    while the base station is heard at ``p_mbs - FSPL(s) - eta_nlos``
    at a distance s <= D + r.  The relay can win only if
    ``(D + r)^2 / (r^2 + H^2) > 10^((dp - deta) / 10)``, and the left
    side is at most ``1 + D^2 / H^2`` (Cauchy-Schwarz), so it wins no
    cell once ``H >= D / sqrt(10^((dp - deta) / 10) - 1)``.
    """
    margin = (radio.p_mbs - radio.p_uav) - (terrain.eta_nlos - terrain.eta_los)
    reach = max(math.hypot(x, y) for x, y in positions)
    return reach / math.sqrt(10.0 ** (margin / 10.0) - 1.0)


@st.composite
def heights_past_the_exclusion_bound(draw):
    """Relays, terrain and powers with dp > deta, at or above the bound."""
    extent = draw(st.floats(100.0, 3000.0))
    coordinate = st.floats(-extent, extent)
    positions = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6, unique=True)
    )
    terrain = draw(st.sampled_from(TERRAINS))
    p_uav = draw(st.floats(-10.0, 40.0))
    excess = draw(st.floats(0.1, 30.0))
    p_mbs = p_uav + terrain.eta_nlos - terrain.eta_los + excess
    radio = RadioParams(frequency=3e9, p_mbs=p_mbs, p_uav=p_uav, noise=-120.0)
    bound = relay_exclusion_height(positions, terrain, radio)
    assume(bound >= 1.0)
    scale = draw(st.sampled_from((1.0, 1.001)) | st.floats(1.0, 3.0))
    placement = Placement(uav_positions=tuple(positions), height=bound * scale)
    return placement, terrain, radio, extent, 2.0 * extent / draw(st.integers(3, 60))


PRESET_RING = symmetric_ring(1000.0)
PRESET_BOUND = relay_exclusion_height(PRESET_RING, URBAN, RADIO)


@settings(max_examples=60, deadline=None)
@given(heights_past_the_exclusion_bound())
@example((Placement(PRESET_RING, 20000.0), URBAN, RADIO, 3000.0, 50.0))
@example((Placement(PRESET_RING, PRESET_BOUND), URBAN, RADIO, 3000.0, 100.0))
def test_no_relay_owns_a_cell_from_the_exclusion_height_up(case):
    # The reference ring (dp = 23.01 dB, deta = 18 dB, D = 1000 m) is
    # excluded from about 679 m up: inside criterion 6's [600, 750] m
    # revenue window.
    placement, terrain, radio, extent, cell_size = case
    assert placement.height >= relay_exclusion_height(
        placement.uav_positions, terrain, radio
    )
    grid = partition_regions(placement, terrain, radio, extent, cell_size)
    assert grid.areas == (0.0,) * len(placement.uav_positions)
    assert np.all(grid.owner == MBS_OWNER)


class TestPartitionRegions:
    def test_dominant_uav_owns_the_cell_below_it(self):
        # extent 1050 / cell 100 puts centers on multiples of 100, so the
        # UAV at (400, 400) sits directly above a cell center.
        place = Placement(uav_positions=((400.0, 400.0),), height=50.0)
        loud = RadioParams(frequency=3e9, p_mbs=0.0, p_uav=60.0, noise=-120.0)
        grid = partition_regions(place, URBAN, loud, extent=1050.0, cell_size=100.0)
        centers = (np.arange(grid.owner.shape[0]) - (grid.owner.shape[0] - 1) / 2) * 100.0
        i = int(np.where(centers == 400.0)[0][0])
        i0 = int(np.where(centers == 0.0)[0][0])
        assert grid.owner[i, i] == 0
        # The base station antenna sits on the origin center: zero
        # distance means unbounded SNR, which beats any finite rival.
        assert grid.owner[i0, i0] == MBS_OWNER

    def test_mirrored_ring_areas_match_by_reflection_class(self):
        """Reflection symmetry of the grid forces exact per-class equality.

        The square lattice only has the two axis reflections in common
        with the ten-point ring, which splits the ring into the classes
        {0,5}, {1,4,6,9} and {2,3,7,8}; across classes the lattice has no
        reason to agree exactly, and measurably does not.
        """
        place = Placement(uav_positions=symmetric_ring(1000.0), height=400.0)
        grid = partition_regions(place, URBAN, RADIO, extent=3000.0, cell_size=25.0)
        counts = [int(np.count_nonzero(grid.owner == n)) for n in range(10)]
        assert counts[0] == counts[5] == 560
        assert counts[1] == counts[4] == counts[6] == counts[9] == 554
        assert counts[2] == counts[3] == counts[7] == counts[8] == 552

    def test_ring_area_spread_shrinks_with_the_grid(self):
        # At the default 5 m cells the cross-class disagreement is down
        # to a 0.05% sliver of each region.
        place = Placement(uav_positions=symmetric_ring(1000.0), height=400.0)
        grid = partition_regions(place, URBAN, RADIO, extent=3000.0, cell_size=5.0)
        areas = np.array(grid.areas)
        assert (areas.max() - areas.min()) <= 1e-3 * areas.max()

    def test_exact_ties_go_to_the_lowest_index(self):
        # Two relays mirrored about the y axis with equal power: every
        # cell on the x == 0 column is an exact SNR tie and must land on
        # relay 0.  The odd-sized grid guarantees such a column exists.
        place = Placement(uav_positions=((500.0, 0.0), (-500.0, 0.0)), height=300.0)
        even = RadioParams(frequency=3e9, p_mbs=30.0, p_uav=30.0, noise=-120.0)
        grid = partition_regions(place, URBAN, even, extent=1995.0, cell_size=10.0)
        n = grid.owner.shape[0]
        centers = (np.arange(n) - (n - 1) / 2) * 10.0
        column = grid.owner[int(np.where(centers == 0.0)[0][0]), :]
        tied = column[column >= 0]
        assert tied.size > 0
        assert np.all(tied == 0)
        a0 = int(np.count_nonzero(grid.owner == 0))
        a1 = int(np.count_nonzero(grid.owner == 1))
        assert a0 - a1 == tied.size

    def test_owner_is_the_horizontally_nearest_uav(self):
        """With one shared height, SNR ranks by ground distance alone."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            positions = tuple(
                (float(x), float(y))
                for x, y in rng.uniform(-800.0, 800.0, size=(m, 2))
            )
            place = Placement(uav_positions=positions, height=float(rng.uniform(50.0, 600.0)))
            grid = partition_regions(place, URBAN, RADIO, extent=1000.0, cell_size=20.0)
            n = grid.owner.shape[0]
            centers = (np.arange(n) - (n - 1) / 2) * 20.0
            xs, ys = np.meshgrid(centers, centers, indexing="ij")
            dists = np.stack(
                [np.hypot(xs - ux, ys - uy) for ux, uy in positions]
            )
            owned = grid.owner >= 0
            if not owned.any():
                continue
            winner = grid.owner[owned]
            taken = dists[:, owned]
            assert np.all(
                taken[winner, np.arange(winner.size)] == taken.min(axis=0)
            )

    def test_cell_counting_is_additive(self):
        place = Placement(uav_positions=((300.0, -200.0), (-500.0, 100.0)), height=250.0)
        grid = partition_regions(place, URBAN, RADIO, extent=900.0, cell_size=30.0)
        counted = int(np.count_nonzero(grid.owner == MBS_OWNER)) + sum(
            int(np.count_nonzero(grid.owner == n)) for n in range(2)
        )
        assert counted == grid.owner.size
        # With an integer-valued cell area every product and sum below is
        # exact in floating point, so this holds with no tolerance.
        cell_area = grid.cell_size * grid.cell_size
        mbs_area = int(np.count_nonzero(grid.owner == MBS_OWNER)) * cell_area
        assert mbs_area + sum(grid.areas) == grid.owner.size * cell_area

    def test_refinement_moves_areas_by_under_one_percent(self):
        place = Placement(uav_positions=symmetric_ring(1000.0), height=400.0)
        previous = None
        for cell in (20.0, 10.0, 5.0):
            grid = partition_regions(place, URBAN, RADIO, extent=3000.0, cell_size=cell)
            areas = np.array(grid.areas)
            if previous is not None:
                assert np.all(np.abs(areas - previous) < 0.01 * previous)
            previous = areas

    def test_uav_outside_window_is_rejected(self):
        place = Placement(uav_positions=((2500.0, 0.0),), height=100.0)
        with pytest.raises(ValueError, match="outside the analysis window"):
            partition_regions(place, URBAN, RADIO, extent=2000.0, cell_size=50.0)

    @pytest.mark.parametrize("kwargs", [{"extent": 0.0}, {"cell_size": -5.0}])
    def test_degenerate_window_is_rejected(self, kwargs):
        place = Placement(uav_positions=((0.0, 100.0),), height=100.0)
        with pytest.raises(ValueError, match="positive"):
            partition_regions(place, URBAN, RADIO, **{"extent": 2000.0, "cell_size": 50.0, **kwargs})


def _grid_with_areas(areas):
    """Minimal consistent grid carrying the given per-UAV areas."""
    owner = np.full((1, 1), MBS_OWNER, dtype=np.int64)
    return RegionGrid(extent=1000.0, cell_size=100.0, owner=owner, areas=tuple(areas))


class TestDeriveTypes:
    def test_half_square_kilometer_at_twelve_per(self):
        derived = derive_types(_grid_with_areas([5.0e5]), DensityMap((12e-6,)))
        assert derived.lambdas == (6.0,)
        assert derived.excluded_uavs == ()

    def test_equal_areas_and_densities_merge_into_one_type(self):
        derived = derive_types(
            _grid_with_areas([2.0e5, 2.0e5, 2.0e5]), DensityMap((15e-6,) * 3)
        )
        ladder = derived.ladder()
        assert ladder.lambdas == (3.0,)
        assert ladder.counts == (3,)

    def test_zero_area_uav_is_excluded_with_warning(self):
        derived = derive_types(
            _grid_with_areas([3.0e5, 0.0]), DensityMap((10e-6, 10e-6))
        )
        assert derived.excluded_uavs == (1,)
        assert derived.lambdas == (3.0e5 * 10e-6,)

    def test_density_count_must_match_regions(self):
        with pytest.raises(ValueError, match="3 densities for 2 UAV regions"):
            derive_types(_grid_with_areas([1e5, 1e5]), DensityMap((1e-6,) * 3))

    @pytest.mark.parametrize("bad", [0.0, -1e-6, float("nan")])
    def test_nonpositive_density_is_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            DensityMap((1e-6, bad))


class TestHeightSweep:
    """The height sweep is ``run_sweep``'s height branch: one partition,
    one type derivation and both solves per height."""

    DENSITY = DensityMap((12e-6,) * 10)
    GEOMETRY = GeometryScenario(
        terrain=URBAN,
        radio=RADIO,
        uav_positions=symmetric_ring(1000.0),
        height=400.0,
        density=DENSITY,
        extent=3000.0,
        cell_size=25.0,
    )

    def _partition(self, height):
        place = Placement(uav_positions=symmetric_ring(1000.0), height=height)
        return partition_regions(place, URBAN, RADIO, extent=3000.0, cell_size=25.0)

    def _sweep(self, heights, out_dir):
        config = ScenarioConfig(
            ladder=None,
            geometry=self.GEOMETRY,
            mbs=MbsLoad(60, 40.0),
            objectives=tuple(Objective),
            use_k_cap=True,
            sweep=SweepSpec("height", tuple(heights)),
            output_dir=str(out_dir),
        )
        (path,) = run_sweep(config).files
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if not line.startswith("#")]
        return [
            {key: float(value) for key, value in row.items()}
            for row in csv.DictReader(lines)
        ]

    def test_area_rises_then_falls(self):
        totals = [sum(self._partition(h).areas) for h in (250.0, 400.0, 700.0)]
        assert totals[1] > totals[0]
        assert totals[1] > totals[2]

    def test_all_regions_lost_yields_a_zero_record(self, tmp_path):
        assert self._partition(5000.0).areas == (0.0,) * 10
        (row,) = self._sweep([5000.0], tmp_path)
        assert row["total_area_m2"] == 0.0
        assert row["n_types"] == 0
        assert row["n_excluded"] == 10
        assert row["mbs_revenue"] == 0.0 and row["social_welfare"] == 0.0
        assert row["mbs_sold"] == 0 and row["social_sold"] == 0

    def test_larger_regions_mean_larger_revenue_and_welfare(self, tmp_path):
        # Every type mean grows with the region areas between these two
        # heights, which must push both objectives up.
        low, high = (
            derive_types(self._partition(h), self.DENSITY).lambdas
            for h in (250.0, 400.0)
        )
        assert all(b > a for a, b in zip(low, high))
        low, high = self._sweep([250.0, 400.0], tmp_path)
        assert high["mbs_revenue"] > low["mbs_revenue"]
        assert high["social_welfare"] > low["social_welfare"]

    def test_heights_must_be_ascending_and_nonempty(self):
        text = (
            "geometry:\n  placement: {height: 400.0, uav_ring: {count: 4, radius: 800.0}}\n"
            "  densities_per_km2: 12.0\n"
            "mbs: {total_channels: 30, load: 10.0}\n"
        )
        with pytest.raises(ConfigError, match="non-empty"):
            loads_config(text + "sweep: {parameter: height, values: []}\n")
        with pytest.raises(ConfigError, match="strictly ascending"):
            loads_config(text + "sweep: {parameter: height, values: [400.0, 300.0]}\n")

    def test_records_carry_the_partition_areas(self, tmp_path):
        grid = self._partition(400.0)
        derived = derive_types(grid, self.DENSITY)
        assert derived.lambdas == tuple(a * 12e-6 for a in grid.areas)
        (row,) = self._sweep([400.0], tmp_path)
        assert row["total_area_m2"] == float(sum(grid.areas))
        assert row["n_types"] == len(derived.lambdas)


class TestParameterValidation:
    def test_terrain_invariants(self):
        with pytest.raises(ValueError, match="a must be positive"):
            TerrainParams(a=0.0, b=0.1, eta_los=1.0, eta_nlos=20.0)
        with pytest.raises(ValueError, match="b must be positive"):
            TerrainParams(a=10.0, b=-0.1, eta_los=1.0, eta_nlos=20.0)
        with pytest.raises(ValueError, match="eta_los"):
            TerrainParams(a=10.0, b=0.1, eta_los=-1.0, eta_nlos=20.0)
        with pytest.raises(ValueError, match="eta_nlos must exceed"):
            TerrainParams(a=10.0, b=0.1, eta_los=20.0, eta_nlos=20.0)

    def test_radio_invariants(self):
        with pytest.raises(ValueError, match="frequency"):
            RadioParams(frequency=0.0, p_mbs=40.0, p_uav=17.0, noise=-120.0)
        with pytest.raises(ValueError, match="finite"):
            RadioParams(frequency=3e9, p_mbs=float("inf"), p_uav=17.0, noise=-120.0)
        with pytest.raises(ValueError, match="channel_bandwidth"):
            RadioParams(
                frequency=3e9, p_mbs=40.0, p_uav=17.0, noise=-120.0,
                channel_bandwidth=0.0,
            )

    def test_placement_invariants(self):
        with pytest.raises(ValueError, match="height"):
            Placement(uav_positions=((0.0, 1.0),), height=0.0)
        with pytest.raises(ValueError, match="distinct"):
            Placement(uav_positions=((1.0, 2.0), (1.0, 2.0)), height=100.0)

    def test_region_grid_rejects_overfull_areas(self):
        owner = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="exceed the analysis window"):
            RegionGrid(extent=10.0, cell_size=10.0, owner=owner, areas=(500.0,))
