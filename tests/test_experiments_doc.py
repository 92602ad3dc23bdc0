"""EXPERIMENTS.md's headline table must match the results it cites.

The "Measured" column of the Fig. 10 headline table is copied from
``results/fig10_park_errors.txt`` (written by
``benchmarks/bench_fig10_park_errors.py``).  This test re-reads both, so a
regenerated result file and a stale table cannot both be committed.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _headline_measured() -> dict[str, list[str]]:
    """Row label -> the numbers of its "Measured" cell, as written."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("\n## Headline results", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0] in ("Quantity", "---"):
            continue
        rows[cells[0]] = _NUMBER.findall(cells[2])
    return rows


def _fig10_expected() -> dict[str, list[str]]:
    """The same numbers, read from the committed Fig. 10 result."""
    text = (ROOT / "results" / "fig10_park_errors.txt").read_text()

    def find(pattern: str) -> tuple[str, ...]:
        match = re.search(pattern, text, re.MULTILINE)
        assert match, f"fig10_park_errors.txt has no line matching {pattern!r}"
        return match.groups()

    (cycles_err,) = find(r"^MobileSoC\s+cycles\s+\S+\s+\S+\s+([\d.]+)\s*$")
    mobile = find(r"^MobileSoC: .*MAE ([\d.]+)%, speedup ([\d.]+)x")
    rtx = find(r"^RTX2060: .*MAE ([\d.]+)%, speedup ([\d.]+)x")
    capped = find(r"^MobileSoC @ 10% cap: MAE ([\d.]+)%, speedup ([\d.]+)x")
    analytical = find(r"^Analytical \(GCoM-style\) on MobileSoC: MAE ([\d.]+)%")
    return {
        "Mobile SoC on PARK, fully optimized": [
            f"{float(cycles_err):.1f}", *mobile
        ],
        "RTX 2060 on PARK": list(rtx),
        'Mobile SoC @ "up to 10% of pixels"': list(capped),
        "GCoM-style analytical comparison": list(analytical),
    }


def test_headline_table_matches_fig10_results():
    assert _headline_measured() == _fig10_expected()
