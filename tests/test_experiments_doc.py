"""EXPERIMENTS.md's numbers must match the results they cite.

The "Measured" column of the Fig. 10 headline table is copied from
``results/fig10_park_errors.txt`` (written by
``benchmarks/bench_fig10_park_errors.py``); the baselines paragraph from
``results/baselines.txt`` (``bench_baselines.py``); the adaptive-control
paragraph from ``results/extension_adaptive.txt``
(``bench_extension_adaptive.py``); the tuning paragraph from
``results/table3_tuning.txt`` (``bench_table3_tuning.py``).  These tests re-read both sides, so a
regenerated result file and stale prose cannot both be committed.
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


def _section(heading: str) -> str:
    """The text of the EXPERIMENTS.md section starting ``## {heading}``."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    return text.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]


def _table(name: str) -> dict[str, list[str]]:
    """Scene -> the cells of its row in a ``results/`` table, as written."""
    lines = (ROOT / "results" / name).read_text().splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("-----"))
    return {
        cells[0]: cells[1:]
        for cells in (line.split() for line in lines[rule + 1 :])
        if cells
    }


def _prose(section: str) -> str:
    return " ".join(section.split())  # undo line wrapping


def test_baselines_paragraph_matches_results():
    text = _prose(_section("Baselines"))
    rows = _table("baselines.txt")
    # "PARK 16.6% vs 36.7%": Zatel MAE vs the analytical model's.
    mae_claims = re.findall(r"\b([A-Z]{3,5}) ([\d.]+)% vs ([\d.]+)%", text)
    assert mae_claims, "no Zatel-vs-analytical MAE numbers found"
    for scene, zatel, analytical in mae_claims:
        assert [zatel, analytical] == rows[scene][0:2], scene
    # "BATH: 19.5% cycles error vs Zatel's 10.9%": PKA vs Zatel cycles error.
    pka_claims = re.findall(
        r"\b([A-Z]{3,5}): ([\d.]+)% cycles error vs Zatel's ([\d.]+)%", text
    )
    assert pka_claims, "no PKA-vs-Zatel cycles-error numbers found"
    for scene, pka, zatel in pka_claims:
        assert [pka, zatel] == rows[scene][3:5], scene


def test_adaptive_paragraph_matches_results():
    section = _section("Beyond the paper")
    bullet = section.split("**Adaptive sample-complexity control**", 1)[1]
    text = _prose(bullet.split("\n* ", 1)[0])
    rows = _table("extension_adaptive.txt")
    # "SHIP (...) improves from 12.9% to 5.3%", "SPRNG (12.7% to 14.4%)".
    claims = re.findall(r"\b([A-Z]{3,5})\b[^%]*?([\d.]+)% to ([\d.]+)%", text)
    assert {scene for scene, _, _ in claims} == {"SHIP", "BATH", "SPRNG", "PARK"}
    for scene, fixed, adaptive in claims:
        assert [fixed, adaptive] == rows[scene][0:2], scene


def test_tuning_paragraph_matches_results():
    text = _prose(_section("Tuning (Table III"))
    results = (ROOT / "results" / "table3_tuning.txt").read_text()
    # "Measured: SHIP 19.7%, WKND 13.5%, BUNNY 15.9%".
    measured = text.split("Measured:", 1)[1]
    claims = dict(re.findall(r"\b([A-Z]{3,5}) ([\d.]+)%", measured)[:3])
    expected = dict(
        re.findall(r"^([A-Z]{3,5}): best-combo MAE ([\d.]+)%$", results, re.M)
    )
    assert claims == expected
    # "SHIP (coldest) is the worst-predicted scene".
    assert "SHIP (coldest) is the worst-predicted" in text
    assert max(expected, key=lambda scene: float(expected[scene])) == "SHIP"
    # The paper's numbers are quoted the same way on both sides.
    paper = text.split("Paper best-combo MAEs:", 1)[1].split("Measured:", 1)[0]
    assert re.findall(r"\b([A-Z]{3,5}) ([\d.]+)%", paper) == re.findall(
        r"\b([A-Z]{3,5}) ([\d.]+)%", results.split("(paper:", 1)[1]
    )
