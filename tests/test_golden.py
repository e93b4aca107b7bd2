"""The README commands against outputs recorded from an earlier version.

`tests/golden/<name>/` holds every file a command wrote plus its stdout
(`stdout.txt`). Numbers may move by at most 1e-12; everything between them
(headers, keys, labels, separators) must match byte for byte. `scan grid2d`
runs at --steps 41 to keep the recorded file small.
"""
import re
from pathlib import Path

import pytest

from dmcp.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "derive-pi": ("derive", "--theta", "pi", "--n", "4", "--order", "1", "--out", "derive.json"),
    "derive-pi2": ("derive", "--theta", "pi/2", "--n", "4", "--order", "1"),
    "scan-area": ("scan", "area", "--table", "pi-n4-o1", "--eps=-0.3:0.3:0.001", "--out", "area.csv"),
    "scan-grid2d": ("scan", "grid2d", "--table", "pi-n4-o1", "--range", "1.0", "--steps", "41",
                    "--out", "grid.csv"),
    "scan-radius": ("scan", "radius", "--table", "pi-n6-o2", "--threshold", "1e-4"),
    "scan-decoherence": ("scan", "decoherence", "--table", "pi-n4-o1", "--gamma", "0:0.2:0.005"),
    "nlevel-populations": ("nlevel", "--n", "3", "--table", "pi-n4-o1", "--populations"),
    "waveguide": ("waveguide", "--table", "pi-n4-o1", "--synthetic", "--out", "device"),
    "waveguide-cross": ("waveguide", "--table", "pi-n4-o1", "--synthetic", "--input", "0,1",
                        "--out", "device-cross"),
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def assert_same_up_to_numbers(got: str, want: str, where: str) -> None:
    assert NUMBER.split(got) == NUMBER.split(want), f"{where}: text between numbers differs"
    for k, (a, b) in enumerate(zip(NUMBER.findall(got), NUMBER.findall(want))):
        x, y = float(a), float(b)
        # 1e-12 absolute, plus a few ulp for the decimal-to-binary round trip
        assert abs(x - y) <= 1e-12 + 1e-15 * max(abs(x), abs(y)), f"{where}: number {k}: {a} != {b}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DMCP_OUT_DIR", raising=False)
    assert main(list(COMMANDS[name])) == 0
    got = {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()}
    got["stdout.txt"] = capsys.readouterr().out
    want = {p.name: p.read_text(encoding="utf-8") for p in (GOLDEN / name).iterdir()}
    assert sorted(got) == sorted(want)
    for file_name, text in want.items():
        assert_same_up_to_numbers(got[file_name], text, f"{name}/{file_name}")
