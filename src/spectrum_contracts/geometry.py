"""Air-to-ground radio geometry and coverage partition.

Aerial relays hovering at a common height compete with a ground base
station for users spread over a square analysis window.  A user hears a
relay through a mix of line-of-sight and obstructed paths; the mix is
governed by the elevation angle, so coverage depends on height in a
non-trivial way.  This module computes:

* the line-of-sight probability and one pathloss function per link:
  ``pathloss_uav`` for a relay, ``pathloss_mbs`` for the base station,
* the SNR-based ownership partition of the window into per-transmitter
  regions, evaluated on a regular grid of cell centers; it scores each
  link through that link's pathloss function,
* mean demand derived from region areas and user densities, which is
  what turns a physical deployment into a ladder of contract types.

Distances are meters, angles are degrees, powers are dB-scale (dBm for
absolute powers), frequencies Hz.  The base station antenna sits at
ground level at the origin of the window, so its pathloss uses the
horizontal distance from there; a relay at height H above a point at
horizontal distance r is seen under elevation atan(H / r) at slant
range sqrt(r^2 + H^2).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .contract import TypeLadder

SPEED_OF_LIGHT = 2.99792458e8

MBS_OWNER = -1

# Rounding margin of the partition's radial bound, in dB (see
# partition_regions).
_BOUND_SLACK_DB = 1e-9


@dataclass(frozen=True)
class TerrainParams:
    """Sigmoid steepness/offset and the per-path excess losses in dB.

    ``a`` and ``b`` shape the line-of-sight probability curve;
    ``eta_los`` and ``eta_nlos`` are the excess losses added to free
    space on the open and obstructed paths respectively.
    """

    a: float
    b: float
    eta_los: float
    eta_nlos: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"a must be positive, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be positive, got {self.b}")
        if not (math.isfinite(self.eta_los) and self.eta_los >= 0.0):
            raise ValueError(f"eta_los must be >= 0, got {self.eta_los}")
        if not math.isfinite(self.eta_nlos) or self.eta_nlos <= self.eta_los:
            raise ValueError(
                f"eta_nlos must exceed eta_los, got {self.eta_nlos} <= {self.eta_los}"
            )


@dataclass(frozen=True)
class RadioParams:
    """Carrier frequency and dB-scale power levels.

    ``p_mbs`` and ``p_uav`` are transmit powers in dBm, ``noise`` the
    noise floor in dBm.  ``channel_bandwidth`` is carried as metadata
    for reporting; no formula here consumes it.
    """

    frequency: float
    p_mbs: float
    p_uav: float
    noise: float
    channel_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frequency) and self.frequency > 0.0):
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        for name in ("p_mbs", "p_uav", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.channel_bandwidth is not None and not (
            math.isfinite(self.channel_bandwidth) and self.channel_bandwidth > 0.0
        ):
            raise ValueError(
                f"channel_bandwidth must be positive, got {self.channel_bandwidth}"
            )


@dataclass(frozen=True)
class Placement:
    """Relay positions in the plane, with one shared relay height.

    The base station sits at the origin.
    """

    uav_positions: tuple[tuple[float, float], ...]
    height: float

    def __post_init__(self) -> None:
        positions = tuple(
            (float(x), float(y)) for x, y in self.uav_positions
        )
        object.__setattr__(self, "uav_positions", positions)
        if not (math.isfinite(self.height) and self.height > 0.0):
            raise ValueError(f"height must be positive, got {self.height}")
        for x, y in positions:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("UAV positions must be finite")
        if len(set(positions)) != len(positions):
            raise ValueError("UAV positions must be distinct")


@dataclass(frozen=True)
class RegionGrid:
    """Ownership labels on a cell grid plus per-UAV region areas.

    ``owner`` holds one label per cell: -1 for the base station, else
    the index of the owning UAV, in the narrowest signed integer type
    that holds both (int8 up to 128 UAVs, int16 from 129).  ``areas``
    are in square meters, counted from owned cells.
    """

    extent: float
    cell_size: float
    owner: np.ndarray
    areas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.extent) and self.extent > 0.0):
            raise ValueError(f"extent must be positive, got {self.extent}")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0.0):
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        total = 4.0 * self.extent * self.extent
        if sum(self.areas) > total * (1.0 + 1e-12):
            raise ValueError("region areas exceed the analysis window")


@dataclass(frozen=True)
class DensityMap:
    """Mean active-user density around each UAV, per square meter."""

    rho: tuple[float, ...]

    def __post_init__(self) -> None:
        rho = tuple(float(v) for v in self.rho)
        object.__setattr__(self, "rho", rho)
        if len(rho) == 0:
            raise ValueError("density map must cover at least one UAV")
        for value in rho:
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"density must be positive, got {value}")


@dataclass(frozen=True)
class DerivedTypes:
    """Mean demand per UAV with zero-area UAVs separated out."""

    lambdas: tuple[float, ...]
    excluded_uavs: tuple[int, ...]

    def ladder(self) -> TypeLadder:
        """Ascending type ladder; equal demands merge into one type."""
        merged = Counter(self.lambdas)
        ordered = sorted(merged)
        return TypeLadder(tuple(ordered), tuple(merged[lam] for lam in ordered))


def p_los(theta, terrain: TerrainParams):
    """Line-of-sight probability at elevation ``theta`` degrees.

    Accepts scalars or arrays; raises if any angle leaves [0, 90].
    """
    theta_arr = np.asarray(theta, dtype=np.float64)
    if np.any(theta_arr < 0.0) or np.any(theta_arr > 90.0) or np.any(np.isnan(theta_arr)):
        raise ValueError("elevation angle must lie in [0, 90] degrees")
    return 1.0 / (1.0 + terrain.a * np.exp(-terrain.b * (theta_arr - terrain.a)))


def _free_space(d, frequency: float):
    return 20.0 * np.log10(4.0 * math.pi * frequency * np.asarray(d) / SPEED_OF_LIGHT)


def pathloss_uav(theta, d, terrain: TerrainParams, radio: RadioParams):
    """Average pathloss in dB from a relay seen at angle theta, range d.

    The open and obstructed paths share the free-space term and differ
    by their excess losses; averaging over the line-of-sight probability
    collapses to the obstructed loss minus the probability-weighted
    excess gap.
    """
    d_arr = np.asarray(d, dtype=np.float64)
    if not np.all(d_arr > 0.0):
        raise ValueError("distance must be positive")
    prob = p_los(theta, terrain)
    free = _free_space(d_arr, radio.frequency)
    return prob * (free + terrain.eta_los) + (1.0 - prob) * (free + terrain.eta_nlos)


def pathloss_mbs(d, terrain: TerrainParams, radio: RadioParams):
    """Pathloss in dB from the base station: obstructed path only.

    A zero distance gives ``-inf``, so a base station on a cell center
    has an infinite SNR there.
    """
    d_arr = np.asarray(d, dtype=np.float64)
    if not np.all(d_arr >= 0.0):
        raise ValueError("distance must be non-negative")
    with np.errstate(divide="ignore"):
        return _free_space(d_arr, radio.frequency) + terrain.eta_nlos


def snr(transmit_power, pathloss, noise):
    """Received SNR in dB: transmit power less pathloss less noise."""
    return transmit_power - pathloss - noise


def _cell_centers(extent: float, cell_size: float) -> np.ndarray:
    """Symmetric cell-center coordinates tiling [-extent, extent]."""
    n = max(int(math.floor(2.0 * extent / cell_size + 1e-9)), 1)
    return (np.arange(n) - (n - 1) / 2.0) * cell_size


def partition_regions(
    placement: Placement,
    terrain: TerrainParams,
    radio: RadioParams,
    extent: float,
    cell_size: float,
) -> RegionGrid:
    """Assign every grid cell to its best-SNR transmitter.

    Cells are scored at their centers.  The base station is evaluated
    first and UAVs in index order with a strict improvement test, so
    exact SNR ties resolve to the base station, then to the lowest UAV
    index.  A transmitter directly on a cell center yields an infinite
    SNR and simply wins that cell; nothing errors.

    Each UAV is scored only inside a square box around it that holds
    every cell it can win; every other cell keeps the base station.
    The box half-width, the UAV's reach, comes from a radial bound.
    Write ``f(r)`` for the UAV SNR at ground distance ``r`` and ``g(s)``
    for the base-station SNR at distance ``s``; the UAV sits at ground
    distance ``D`` from the base station.

    * ``f`` is non-increasing: the slant range ``sqrt(r^2 + H^2)``
      grows with ``r``, so free-space loss grows, and the elevation
      ``atan(H / r)`` falls, so the line-of-sight probability falls
      (the sigmoid rises with elevation because ``a, b > 0``) and
      weight shifts to the larger obstructed excess loss.
    * ``g`` is decreasing, and by the triangle inequality a cell at
      distance ``r`` from the UAV lies within ``D + r`` of the base
      station, so its base-station SNR is at least ``g(D + r)``.

    Scan ``r_k = k * cell_size`` until ``r_k`` covers the largest
    UAV-to-center distance the window allows, ``2 sqrt(2) extent +
    cell_size``.  If ``f(r_k) <= g(D + r_{k+1}) - slack``, every cell
    whose distance lies in ``[r_k, r_{k+1}]`` has a UAV SNR of at most
    ``f(r_k)`` and a running best of at least ``g(D + r_{k+1})``, so the
    strict test can never pick this UAV there: the interval is dropped.
    A UAV that never takes a cell leaves its running best unchanged, so
    skipping such cells changes nothing for the UAVs scored after it.
    The reach is the upper edge of the last interval kept, and a UAV
    with none kept is skipped.  ``slack`` is a fixed ``1e-9`` dB, far
    above the rounding of any SNR here (about ``1e-13`` dB), so the
    bound holds for the computed values and not just the exact ones.
    Inside the boxes each cell is scored with the same expressions in
    the same order as a full-grid pass, so owners and areas are
    bit-identical to one.  A UAV owns no cell outside its box, so its
    area is counted there.  ``hypot`` ignores signs and the centers are
    symmetric, so the base station's SNR is scored once per (|x|, |y|).
    """
    if not (math.isfinite(extent) and extent > 0.0):
        raise ValueError(f"extent must be positive, got {extent}")
    if not (math.isfinite(cell_size) and cell_size > 0.0):
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    for x, y in placement.uav_positions:
        if abs(x) > extent or abs(y) > extent:
            raise ValueError(f"UAV at ({x}, {y}) lies outside the analysis window")
    centers = _cell_centers(extent, cell_size)
    labels = np.min_scalar_type(-max(len(placement.uav_positions), 1))
    owner = np.full((centers.size, centers.size), MBS_OWNER, dtype=labels)

    def uav_snr(r):
        d = np.hypot(r, placement.height)
        theta = np.degrees(np.arctan2(placement.height, r))
        return snr(radio.p_uav, pathloss_uav(theta, d, terrain, radio), radio.noise)

    def mbs_snr(dist):
        return snr(radio.p_mbs, pathloss_mbs(dist, terrain, radio), radio.noise)

    steps = math.ceil((2.0 * math.sqrt(2.0) * extent + cell_size) / cell_size)
    radii = np.arange(steps + 1) * cell_size
    inner = uav_snr(radii[:-1])
    boxes = []
    for n, (ux, uy) in enumerate(placement.uav_positions):
        mbs_floor = mbs_snr(math.hypot(ux, uy) + radii[1:])
        kept = np.flatnonzero(inner > mbs_floor - _BOUND_SLACK_DB)
        if kept.size:
            reach = radii[kept[-1] + 1]
            lo = np.searchsorted(centers, (ux - reach, uy - reach), side="left")
            hi = np.searchsorted(centers, (ux + reach, uy + reach), side="right")
            boxes.append((n, ux, uy, lo, hi))

    areas = [0.0] * len(placement.uav_positions)
    if boxes:
        top, left = np.min([lo for *_, lo, _ in boxes], axis=0)
        bottom, right = np.max([hi for *_, hi in boxes], axis=0)
        xs, rows = np.unique(np.abs(centers[top:bottom]), return_inverse=True)
        ys, cols = np.unique(np.abs(centers[left:right]), return_inverse=True)
        best = mbs_snr(np.hypot(xs[:, None], ys))[rows][:, cols]
        for n, ux, uy, (i0, j0), (i1, j1) in boxes:
            dx, dy = centers[i0:i1, None] - ux, centers[None, j0:j1] - uy
            candidate = uav_snr(np.hypot(dx, dy))
            incumbent = best[i0 - top:i1 - top, j0 - left:j1 - left]
            owner[i0:i1, j0:j1][candidate > incumbent] = n
            np.maximum(incumbent, candidate, out=incumbent)
        cell_area = cell_size * cell_size
        for n, _, _, (i0, j0), (i1, j1) in boxes:
            areas[n] = float(np.count_nonzero(owner[i0:i1, j0:j1] == n)) * cell_area
    return RegionGrid(
        extent=extent, cell_size=cell_size, owner=owner, areas=tuple(areas)
    )


def derive_types(grid: RegionGrid, density: DensityMap) -> DerivedTypes:
    """Mean demand per UAV: region area times local user density.

    UAVs that own no cells generate no demand and are excluded; the
    result lists them, and callers decide whether to warn.
    """
    if len(density.rho) != len(grid.areas):
        raise ValueError(
            f"{len(density.rho)} densities for {len(grid.areas)} UAV regions"
        )
    lambdas: list[float] = []
    excluded: list[int] = []
    for n, (area, rho) in enumerate(zip(grid.areas, density.rho)):
        lam = area * rho
        if lam > 0.0:
            lambdas.append(lam)
        else:
            excluded.append(n)
    return DerivedTypes(lambdas=tuple(lambdas), excluded_uavs=tuple(excluded))
