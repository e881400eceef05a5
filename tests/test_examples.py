"""Smoke tests: every example script runs and prints its headline."""

import os
import subprocess
import sys

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True,
        text=True,
        timeout=240,
        check=True,
    )
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "karate club: 15 of 34" in out
    assert "clique K10" in out


def test_sensor_placement():
    out = run_example("sensor_placement.py", "4")
    assert "speedup" in out
    assert "NeiSkyGC" in out


def test_collaboration_cores():
    out = run_example("collaboration_cores.py", "3")
    assert "sizes agree rank by rank: True" in out


def test_karate_case_study():
    out = run_example("karate_case_study.py")
    assert "skyline: 15 vertices (44%)" in out
    assert "bombing_proxy" in out
