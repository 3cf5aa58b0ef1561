"""The experiment scripts in ``scripts/`` run end to end on the library."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import ifsbound

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ifsbound.__file__)))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_make_figures(tmp_path):
    result = _run_script("make_figures.py", "--out-dir", str(tmp_path))
    assert result.returncode == 0 and result.stderr == "", result.stderr
    figures = sorted(tmp_path.iterdir())
    assert [p.name for p in figures] == [
        "circum_vs_general.svg",
        "iterative_containment.svg",
        "line_intersection.svg",
    ]
    for path in figures:
        root = ET.parse(path).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) > 20000


def test_tightness_survey():
    result = _run_script("tightness_survey.py", "--count", "20")
    assert result.returncode == 0 and result.stderr == "", result.stderr
    assert "2-map systems (20 samples" in result.stdout
    assert "3-map systems (20 samples" in result.stdout


def test_parity_against_itself():
    root = Path(__file__).resolve().parent.parent
    result = _run_script("parity.py", str(root), "--seeds", "1", "--workloads", "cli,refine,line_query")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "cli seed 1: fingerprint" in result.stdout
    assert "refine seed 1: fingerprint" in result.stdout
    assert "line_query seed 1: fingerprint" in result.stdout
    assert result.stdout.splitlines()[-1] == "3 decks, 620 ops here: 0 differences"
