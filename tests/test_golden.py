"""Preset outputs against committed golden files, byte for byte.

``tests/golden/<preset>/`` holds every CSV that the preset's command
writes, with the timestamp line stripped.  Criterion 7 compares two runs
of the same code, so a change that moves every number consistently
passes it; these files pin the numbers themselves.  Regenerate them only
from a commit whose outputs are known to be right: run
``spectrum-contracts <command> --config <preset> --out DIR`` and store
each CSV through ``runner.strip_timestamp``.
"""

from importlib import resources
from pathlib import Path

import pytest

from spectrum_contracts.cli import main
from spectrum_contracts.config import loads_config
from spectrum_contracts.runner import strip_timestamp
from spectrum_contracts.solver import MAX_TABLE_BYTES, dp_table_bytes

GOLDEN = Path(__file__).parent / "golden"

PRESETS = (
    ("contract_menu_light_load", "solve"),
    ("contract_menu_heavy_load", "solve"),
    ("load_sweep", "sweep"),
    ("coverage_height_sweep", "sweep"),
)


@pytest.mark.parametrize("preset,command", PRESETS)
def test_preset_outputs_match_golden_files(preset, command, tmp_path, capsys):
    assert main([command, "--config", preset, "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / preset).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        fresh = strip_timestamp((tmp_path / name).read_bytes().decode("utf-8"))
        golden = (GOLDEN / preset / name).read_bytes()
        assert fresh.encode("utf-8") == golden, f"{preset}/{name} differs from its golden file"


@pytest.mark.parametrize("preset", [preset for preset, _ in PRESETS])
def test_preset_fits_the_default_table_budget(preset):
    """Even with the saturation cap off (K = M), every preset's DP fits.

    Head counts of 1 give the widest band, so they bound any ladder the
    preset's geometry derives.
    """
    text = resources.files("spectrum_contracts").joinpath("presets", f"{preset}.yaml")
    config = loads_config(text.read_text(encoding="utf-8"))
    if config.ladder is not None:
        types = config.ladder.size
    else:
        types = len(config.geometry.uav_positions)
    M = config.mbs.total_channels
    assert dp_table_bytes((1,) * types, M, M) <= MAX_TABLE_BYTES
