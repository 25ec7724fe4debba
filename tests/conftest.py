from __future__ import annotations

from pathlib import Path

import pytest

from privtrace.scenario import Scenario, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def hospital() -> Scenario:
    return load_scenario(SCENARIOS / "hospital" / "scenario.json")


@pytest.fixture(scope="session")
def enterprise() -> Scenario:
    return load_scenario(SCENARIOS / "enterprise" / "scenario.json")


@pytest.fixture(scope="session")
def published(hospital):
    return hospital.table("published")
