from __future__ import annotations

import json
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


def salary_scenario(tmp_path, pay_salary_extra=(), schema_salary_extra=()) -> None:
    """State s1 learns (John,7), read under the schema's Salary, and R1
    joins it to (John,7,Phys); the secrets are names:l1 (John) and pay:l1
    (5,Chem).  Each `_extra` adds to a Salary column's document."""
    nominal = {"class": "nominal", "group": "quasi-identifier"}
    name = {"name": "Name", "class": "nominal", "group": "identifier"}
    salary = {"name": "Salary", "class": "numerical", "group": "quasi-identifier"}
    (tmp_path / "schema.json").write_text(json.dumps(
        {"columns": [name, {**salary, **dict(schema_salary_extra)}]}))
    for table, text in [("depts", "Name,Dept\nJohn,Phys\n"), ("names", "Name\nJohn\n"),
                        ("pay", "Salary,Dept\n5,Chem\n")]:
        (tmp_path / f"{table}.csv").write_text(text)
    pay_salary = {**salary, **dict(pay_salary_extra)}
    (tmp_path / "scenario.json").write_text(json.dumps({
        "name": "order",
        "schema": "schema.json",
        "tables": {
            "depts": {"file": "depts.csv", "columns": [name, {"name": "Dept", **nominal}]},
            "names": {"file": "names.csv", "columns": [name]},
            "pay": {"file": "pay.csv", "columns": [pay_salary, {"name": "Dept", **nominal}]},
        },
        "externals": ["depts"],
        "runs": {"r": {"steps": [{"from": "s0", "action": "q", "branches": [
            {"to": "s1", "prob": "1", "learn": ["(John,7)"]}]}]}},
        "analysis": {"runs": ["r"]},
    }))
