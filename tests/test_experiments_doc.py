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
import statistics
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


def _tables(name: str) -> list[dict[str, list[float]]]:
    """Every table of a ``results/`` file: first cell -> numeric cells.

    A table starts after its ``-----`` rule and ends at a blank line or
    at a line that is not a row of numbers.  A row is keyed by its cells
    before the first decimal one, joined by one space (``fine 6``);
    thousands separators are dropped.
    """
    tables: list[dict[str, list[float]]] = []
    rows = None
    for line in (ROOT / "results" / name).read_text().splitlines():
        if line.startswith("-----"):
            rows = {}
            tables.append(rows)
        elif rows is not None and line.strip():
            cells = line.split()
            first = next(i for i, cell in enumerate(cells) if "." in cell)
            try:
                rows[" ".join(cells[:first])] = [
                    float(cell.replace(",", "")) for cell in cells[first:]
                ]
            except ValueError:
                rows = None
        else:
            rows = None
    return tables


def _column(table: dict[str, list[float]], index: int) -> dict[str, float]:
    return {row: cells[index] for row, cells in table.items()}


def test_sampling_sweep_paragraph_matches_results():
    text = _prose(_section("Sampling sweep"))
    rtx, mobile = _tables("fig13_cycles_error.txt")
    # "(BATH 56.7% … SHIP 457.0%)": the best and worst scene at 10%.
    spread = re.search(
        r"At 10% on the RTX 2060 .*?\(([A-Z]+) ([\d.]+)% … ([A-Z]+) ([\d.]+)%\)",
        text,
    ).groups()
    at10 = _column(rtx, 0)
    low, high = min(at10, key=at10.get), max(at10, key=at10.get)
    assert spread == (low, f"{at10[low]:.1f}", high, f"{at10[high]:.1f}")
    # "at most 8.7% at 90% (PARK)".
    at90 = _column(rtx, 8)
    worst = max(at90, key=at90.get)
    assert re.search(r"at most ([\d.]+)% at 90% \(([A-Z]+)\)", text).groups() == (
        f"{at90[worst]:.1f}",
        worst,
    )
    # "SPRNG shows >100% error at 10% (303.5%)".
    sprng = re.search(r"SPRNG shows >100% error at 10% \(([\d.]+)%\)", text)
    assert float(sprng.group(1)) == at10["SPRNG"] > 100.0
    # "SPNZA is the best-predicted scene at 20% (9.4%)" on the Mobile SoC.
    best = re.search(
        r"On the Mobile SoC, ([A-Z]+) is the best-predicted scene at 20% "
        r"\(([\d.]+)%\)",
        text,
    ).groups()
    at20 = _column(mobile, 1)
    assert best == (min(at20, key=at20.get), f"{min(at20.values()):.1f}")

    # Fig. 14: "corr > 0.95 per scene", and BATH's 90% cost against SPNZA's.
    (cost,) = _tables("fig14_running_time.txt")
    percs = list(range(10, 100, 10))
    for scene, cells in cost.items():
        assert statistics.correlation(percs, cells[:9]) > 0.95, scene
    assert max(cost, key=lambda scene: cost[scene][8]) == "BATH"
    claimed = re.search(
        r"\(([\d,]+) kilo work-units at 90% against SPNZA's ([\d,]+)\)", text
    ).groups()
    assert claimed == (f"{cost['BATH'][8]:,.0f}", f"{cost['SPNZA'][8]:,.0f}")

    # Fig. 15: the 90% speedup range and the fitted power law.
    (speedup,) = _tables("fig15_speedup.txt")
    at90 = [cells[8] for row, cells in speedup.items() if row.isupper()]
    assert re.search(r"fall to ([\d.]+)-([\d.]+)x at 90%", text).groups() == (
        f"{min(at90):.2f}",
        f"{max(at90):.2f}",
    )
    fit = (ROOT / "results" / "fig15_speedup.txt").read_text()
    law = r"([\d.]+) \* perc\^(-[\d.]+)"
    ours, paper = re.findall(law, fit)
    assert re.findall(law, text) == [ours, paper]

    # Fig. 16: "L1D MAE ≤ 4pp at every percentage".
    mae = (ROOT / "results" / "fig16_metric_mae.txt").read_text()
    l1d = re.search(r"^\s*l1d_miss_rate\s+(.*)$", mae, re.M).group(1)
    means = [int(cell) for cell in re.findall(r"(\d+) \[", l1d)]
    bound = re.search(r"L1D MAE ≤ (\d+)pp at every percentage", text).group(1)
    assert len(means) == 9 and max(means) == int(bound)


def test_downscaling_sweep_paragraph_matches_results():
    text = _prose(_section("Downscaling sweep"))
    # Columns after "division K": ipc, cycles, l1d, l2, rt, dram, bw.
    (subset,) = _tables("fig17_downscale_error_subset.txt")
    ipc, cycles, dram = (subset["fine 6"][i] for i in (0, 1, 5))
    assert re.search(r"even at K=6 \(([\d.]+)%\)", text).group(1) == f"{cycles}"
    assert cycles < 12.0
    assert re.search(r"IPC error stays moderate \(([\d.]+)%\)", text).group(1) == (
        f"{ipc}"
    )
    assert re.search(r"DRAM efficiency degrades to ([\d.]+)pp", text).group(1) == (
        f"{dram}"
    )

    (every,) = _tables("fig18_downscale_error_all.txt")
    coarse = re.search(
        r"\(IPC ([\d.]+)% at K=2 to ([\d.]+)% at K=6\)", text
    ).groups()
    assert coarse == (f"{every['coarse 2'][0]}", f"{every['coarse 6'][0]}")
    fine = max(cells[0] for row, cells in every.items() if row.startswith("fine"))
    assert re.search(r"\(IPC at most ([\d.]+)%\)", text).group(1) == f"{fine}"

    (speedup,) = _tables("fig19_downscale_speedup.txt")
    k6 = [cells[2] for cells in speedup.values()]
    assert re.search(r"K=6 → ([\d.]+)-([\d.]+)x", text).groups() == (
        f"{min(k6):.1f}",
        f"{max(k6):.1f}",
    )
