"""Preset outputs against committed golden files, byte for byte.

``tests/golden/<preset>/`` holds every CSV that the preset's command
writes, with the timestamp line stripped.  Criterion 7 compares two runs
of the same code, so a change that moves every number consistently
passes it; these files pin the numbers themselves.  Regenerate them only
from a commit whose outputs are known to be right: run
``spectrum-contracts <command> --config <preset> --out DIR`` and store
each CSV through ``runner.strip_timestamp``.
"""

from pathlib import Path

import pytest

from spectrum_contracts.cli import main
from spectrum_contracts.runner import strip_timestamp

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
