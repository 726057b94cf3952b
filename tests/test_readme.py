"""The README's reproduction table against runs of the bundled presets.

Each printed total and peak must lie within one unit of its last printed
digit of the run's value, which accepts rounding as well as truncation
(fig2a's total 0.908504 is printed 0.908, fig2b's 0.624652 as 0.625).
"""

import re
from pathlib import Path

import pytest

from epigame import preset

README = Path(__file__).resolve().parents[1] / "README.md"

PRESETS = ("fig2a", "fig2b", "fig2c", "fig4_migration")

# | preset | total | reference | peak | reference |, with "fig4 (zone 1)" naming a zone.
CELL = r"\s*([\d.]+)\s*\|"
ROW = re.compile(r"^\|\s*(fig\w+)(?:\s+\(zone (\d+)\))?\s*\|" + CELL * 4 + "$")


def readme_table() -> dict[str, list[tuple[int, str, str]]]:
    """Printed (zone, total, peak) rows of the reproduction table, by preset name."""
    table: dict[str, list[tuple[int, str, str]]] = {}
    for line in README.read_text().splitlines():
        match = ROW.match(line.strip())
        if match:
            name, zone, total, _, peak, _ = match.groups()
            name = "fig4_migration" if name == "fig4" else name
            table.setdefault(name, []).append((int(zone or 0), total, peak))
    return table


def within_printed_precision(value: float, printed: str) -> bool:
    return abs(value - float(printed)) < 10.0 ** -len(printed.split(".")[1])


def test_the_readme_table_lists_every_preset_zone():
    table = readme_table()
    assert sorted(table) == sorted(PRESETS)
    for name, rows in table.items():
        zones = preset(name).params.num_zones
        assert sorted(zone for zone, _, _ in rows) == list(range(zones))


@pytest.fixture(params=PRESETS)
def preset_run(request, preset_runs):
    return request.param, preset_runs[request.param][0].metrics


def test_the_readme_table_matches_the_presets_at_printed_precision(preset_run):
    name, m = preset_run
    for zone, total, peak in readme_table()[name]:
        assert within_printed_precision(float(m.zone_total_infections[zone]), total), (zone, total)
        assert within_printed_precision(float(m.zone_peak_infections[zone]), peak), (zone, peak)
