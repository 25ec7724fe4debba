from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from privtrace.cli import cli_main
from privtrace.dltts import DlttsBuilder, OracleVerdict, reach_stop, validate
from privtrace.dotexport import export_dot
from privtrace.indist import MAX_LN_DIGITS
from privtrace.privacy import MECHANISM
from privtrace.profiles import PROFILE
from privtrace.records import MAX_DECIMAL_EXPONENT, InputError, Names, Required
from privtrace.scenario import SCENARIO, build_run, load_scenario, parse_mode, run_scenario
from privtrace.schema import SCHEMA
from privtrace.values import Taxon

from conftest import SCENARIOS
from reference import oracle_verdict

HOSPITAL = str(SCENARIOS / "hospital" / "scenario.json")
ENTERPRISE = str(SCENARIOS / "enterprise" / "scenario.json")


def test_hospital_run_reaches_stop(hospital):
    dltts, verdicts = build_run(hospital, "trace")
    assert validate(dltts) == []
    assert verdicts["s6"] is OracleVerdict.VIOLATION
    assert all(
        v is OracleVerdict.CONTINUE for s, v in verdicts.items() if s != "s6"
    )
    reached, runs = reach_stop(dltts)
    assert reached
    assert runs[0].states == ("s0", "s2", "s4", "s6", "STOP")
    assert runs[0].probability == F(2, 3)


def test_unknown_run_errors(hospital):
    with pytest.raises(InputError):
        build_run(hospital, "nope")


def test_empty_scenario_rejected(tmp_path):
    (tmp_path / "scenario.json").write_text("{}")
    with pytest.raises(InputError):
        load_scenario(tmp_path / "scenario.json")


def test_epsilon_violation_run(hospital):
    secret = [hospital.table("published").row("l4").cells]
    dltts, verdicts = build_run(hospital, "trace", epsilon=F(0), secret=secret)
    assert verdicts["s5"] is OracleVerdict.EPSILON_VIOLATION
    assert verdicts["s6"] is OracleVerdict.VIOLATION
    reached, runs = reach_stop(dltts)
    assert reached and len(runs) == 2
    assert sum(r.probability for r in runs) == 1


def test_cli_analyze_epsilon_flags(capsys):
    code = cli_main(
        ["analyze", "--scenario", HOSPITAL, "--epsilon", "0",
         "--secret", "published:l4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle at s5: epsilon-violation" in out
    assert cli_main(["analyze", "--scenario", HOSPITAL, "--epsilon", "0"]) == 2


@pytest.mark.parametrize("mode", ["integer-set", "paper-compat"])
def test_cli_analyze_oracle_uses_the_given_mode(capsys, monkeypatch, hospital, mode):
    """s5's rho against l5 is 39/20 in paper-compat mode and 41/21 in
    integer-set mode, so a bound of 1.951 catches s5 in the former only."""
    assert cli_main(["analyze", "--scenario", HOSPITAL, "--epsilon", "1.951",
                     "--secret", "published:l5", "--mode", mode]) == 0
    reported = dict(re.findall(r"^oracle at (\S+): (\S+)", capsys.readouterr().out,
                               re.MULTILINE))
    builders = []
    build = DlttsBuilder.build
    monkeypatch.setattr(DlttsBuilder, "build",
                        lambda self: builders.append(self) or build(self))
    build_run(hospital, "trace")
    (builder,) = builders
    secret = [hospital.table("published").row("l5").cells]
    expected = {}
    for state, tag in builder.saturated.items():
        verdict = oracle_verdict(tag, hospital.schema.policy, secret, F("1.951"),
                                 parse_mode(mode))
        if verdict is not OracleVerdict.CONTINUE:
            expected[state] = verdict.value
    assert reported == expected
    assert (reported.get("s5") == "epsilon-violation") is (mode == "paper-compat")


def test_cli_analyze_dot_draws_the_epsilon_armed_system(capsys, tmp_path):
    dot_path = tmp_path / "trace.dot"
    code = cli_main(
        ["analyze", "--scenario", HOSPITAL, "--epsilon", "0",
         "--secret", "published:l4", "--dot", str(dot_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle at s5: epsilon-violation" in out
    assert "s0 -> s2 -> s4 -> s5 -> STOP" in out
    assert '"s5" -> "STOP"' in dot_path.read_text()


def test_cli_builds_each_system_once(capsys, tmp_path, monkeypatch):
    import privtrace.profiles
    import privtrace.scenario

    built = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((privtrace.scenario, "build_run"),
                         (privtrace.profiles, "build_attack_dltts")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    run_scenario(load_scenario(HOSPITAL))
    report_builds = list(built)
    assert "build_run" in report_builds
    built.clear()
    # `--dot` draws the systems the report built: the CLI builds none itself.
    assert cli_main(["analyze", "--scenario", HOSPITAL,
                     "--dot", str(tmp_path / "trace.dot")]) == 0
    assert (tmp_path / "trace.dot").read_text().startswith("digraph")
    assert built == report_builds
    built.clear()
    assert cli_main(["attack", "--scenario", ENTERPRISE, "--attacker", "A",
                     "--attacker", "B", "--built",
                     "--dot", str(tmp_path / "attack.dot")]) == 0
    assert built == ["build_attack_dltts"] * 2
    capsys.readouterr()


def test_cli_attack_built_is_checked_against_the_table_it_was_built_from(
        capsys, tmp_path, monkeypatch):
    """With no `attack.table`, a tree is built from the first table, and
    `attack --built` checks it against that same table."""
    import privtrace.profiles

    checked = []
    real = privtrace.profiles.attack_problems

    def recording(attack, db=None):
        checked.append(None if db is None else db.name)
        return real(attack, db)

    monkeypatch.setattr(privtrace.profiles, "attack_problems", recording)
    argv = ["attack", "--attacker", "A", "--built", "--scenario"]
    assert cli_main(argv + [ENTERPRISE]) == 0
    named = capsys.readouterr().out
    shutil.copytree(Path(ENTERPRISE).parent, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    del doc["analysis"]["attack"]["table"]
    path.write_text(json.dumps(doc))
    assert cli_main(argv + [str(path)]) == 0
    assert capsys.readouterr().out == named
    assert checked == ["responses", "responses"]
    # With no table at all there is nothing to build from: exit 2.
    doc["tables"] = {}
    path.write_text(json.dumps(doc))
    assert cli_main(argv + [str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_attack_dot_writes_one_file_per_attacker(capsys, tmp_path, enterprise):
    dot_path = tmp_path / "x.dot"
    assert cli_main(["attack", "--scenario", ENTERPRISE, "--attacker", "A",
                     "--attacker", "B", "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    assert not dot_path.exists()
    for name, prior in (("A", "1/5"), ("B", "4/5")):
        dot = (tmp_path / f"x-{name}.dot").read_text()
        assert dot == export_dot(enterprise.attack_dltts[name].dltts)
        assert f'"s0" -> "s1" [label="sex=M {{l3,l4}} / {prior}"]' in dot
    assert cli_main(["attack", "--scenario", ENTERPRISE, "--attacker", "A",
                     "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    assert dot_path.read_text() == (tmp_path / "x-A.dot").read_text()


def test_report_is_deterministic(hospital):
    a = run_scenario(hospital)
    b = run_scenario(hospital)
    assert a.body() == b.body()


def test_report_values_reparse_to_exact_fractions(hospital):
    report = run_scenario(hospital)
    text = report.body()
    rho_pc = report.values["metric/published/l4/l5/paper-compat/rho"]
    assert rho_pc == F(39, 20)
    assert "rho = 39/20" in text
    assert F("39/20") == rho_pc
    m = re.search(r"probability (\d+/\d+)", text)
    assert m and F(m.group(1)) == F(2, 3)


def test_enterprise_report_flags_discrepancy(enterprise):
    report = run_scenario(enterprise)
    text = report.body()
    assert "Max_pr(l4) = 1/4 (declared 3/16)" in text
    assert "NOTE: computed value differs" in text
    assert "Pr(response=3 | M) = 3/5" in text
    assert report.values["attack/C/max_pr/l4"] == F(1, 4)
    assert report.values["attack/C/max_pr/l3"] == F(3, 16)


def test_enterprise_strategy_sections(enterprise):
    report = run_scenario(enterprise)
    assert report.values["strategy/B/C/declared/off"] == [("s7", "l3"), ("s8", "l4")]
    assert report.values["strategy/B/C/computed/off"] == [("s7", "l3")]
    assert report.values["strategy/A/C/declared/off"] == [("s5", "l1"), ("s6", "l2")]
    text = report.body()
    assert "s8 response(l4): Pr = 1/5 <= baseline 1/4 -> stays ON" in text


def test_cli_metric_prints_published_value(capsys):
    code = cli_main(
        ["metric", "--scenario", HOSPITAL, "--mode", "paper-compat",
         "--pair", "l4", "l5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "39/20" in out


def test_cli_metric_uncomparable_exits_one(tmp_path, capsys):
    # a numerical column with no normalizer has no d_eucl: enterprise's
    # Response column makes every pair of its rows uncomparable
    code = cli_main(["metric", "--scenario", ENTERPRISE, "--table", "responses",
                     "--pair", "l1", "l2"])
    assert code == 1
    assert capsys.readouterr().out.endswith(
        "## metric responses l1 l2 (integer-set)\nuncomparable pair\n\n")
    # a missing row is an input error
    code = cli_main(
        ["metric", "--scenario", HOSPITAL, "--pair", "l4", "nope"]
    )
    assert code == 2


def test_cli_metric_names_a_missing_row_plainly(capsys):
    """A lookup miss reads as its message, not as a quoted KeyError."""
    assert cli_main(["metric", "--scenario", HOSPITAL, "--pair", "l9", "l1"]) == 2
    assert capsys.readouterr().err == "error: table published: no row 'l9'\n"


def test_unparsable_prior_key_exits_two_naming_its_place(tmp_path, capsys):
    shutil.copytree(Path(ENTERPRISE).parent, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    doc["profiles"]["A"]["priors"]["Age"] = {"abc": "1"}
    path.write_text(json.dumps(doc))
    assert cli_main(["analyze", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: profile 'A' priors.Age: cell 'abc' is not an interval or integer\n")


def test_declared_column_normalizer_reaches_the_metrics(tmp_path, capsys):
    """A numerical column's `normalizer` is the D of d_eucl, both for
    `metric` and for a rho-scaled indistinguishability entry."""
    shutil.copytree(Path(ENTERPRISE).parent, tmp_path, dirs_exist_ok=True)
    schema_path = tmp_path / "schema.json"
    schema = json.loads(schema_path.read_text())
    schema["columns"][2]["normalizer"] = "10"  # Response
    schema_path.write_text(json.dumps(schema))
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    doc["mechanisms"] = {"m": {"outputs": ["o", "x"], "probs": {
        "l1": {"o": "1/4", "x": "3/4"}, "l2": {"o": "1/2", "x": "1/2"}}}}
    doc["analysis"] = {"scaled_indist": [
        {"mechanism": "m", "pair": ["l1", "l2"], "table": "responses", "alpha": "o"}
    ]}
    path.write_text(json.dumps(doc))
    code = cli_main(["metric", "--scenario", str(path), "--table", "responses",
                     "--pair", "l1", "l2"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "d_vector = (0, 0, 7/10)" in out
    assert "rho = 7/10" in out
    assert cli_main(["analyze", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rho-scaled min epsilon (integer-set) = (10/7)*ln(2/1)" in out


def test_cli_analyze_full_report(capsys):
    code = cli_main(["analyze", "--scenario", HOSPITAL, "--expect-violation"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stop reached: s0 -> s2 -> s4 -> s6 -> STOP  probability 2/3" in out
    assert "(20/39)*ln(2/1)" in out


def test_cli_dp_check(capsys, tmp_path):
    scenario = {
        "name": "rrcheck",
        "schema": "schema.json",
        "tables": {},
        "mechanisms": {
            "rr": {
                "outputs": ["True", "False"],
                "probs": {
                    "True": {"True": "3/4", "False": "1/4"},
                    "False": {"True": "1/4", "False": "3/4"},
                },
            }
        },
    }
    (tmp_path / "schema.json").write_text(json.dumps(
        {"columns": [{"name": "X", "class": "nominal", "group": "identifier"}]}
    ))
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    code = cli_main(
        ["dp-check", "--scenario", str(tmp_path / "scenario.json"),
         "--mechanism", "rr"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "min LDP epsilon = ln(3/1)" in out
    assert "min DP epsilon (hamming) = ln(3/1)" in out


def test_cli_dp_check_standalone_mechanism_file(capsys, tmp_path):
    doc = {
        "name": "rr",
        "outputs": ["True", "False"],
        "probs": {
            "True": {"True": "3/4", "False": "1/4"},
            "False": {"True": "1/4", "False": "3/4"},
        },
    }
    path = tmp_path / "rr.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["dp-check", "--mechanism-file", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "min LDP epsilon = ln(3/1)" in out
    assert "witness:" in out


@pytest.mark.parametrize("doc", [
    [],
    {"probs": 5},
    {"probs": [[1]], "outputs": 3},
    {"probs": {"v": ["1/2", "1/2"]}, "outputs": ["a", "b"]},
    {"probs": {"v": {"a": "1"}}, "outputs": [["a"]]},
    {"probs": {"v": {"a": [1]}}},
    {"probs": {"a": {"x": True, "y": False}, "b": {"x": "1/2", "y": "1/2"}}},
    {"probs": {"a": {"x": "3/2", "y": "-1/2"}}},
])
def test_cli_dp_check_malformed_mechanism_file_exits_two(tmp_path, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    done = _cli_process("dp-check", "--mechanism-file", str(path))
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def _hospital_copy(tmp_path, edit=None, **sections) -> str:
    """A copy of the hospital scenario with `sections` replaced, after
    `edit(scenario_dir)` changed its files; returns the scenario path."""
    shutil.copytree(Path(HOSPITAL).parent, tmp_path, dirs_exist_ok=True)
    if edit is not None:
        edit(tmp_path)
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    doc.update(sections)
    path.write_text(json.dumps(doc))
    return str(path)


def _set_in_schema(*keys, value):
    """An `edit` of `_hospital_copy` that sets the schema document's item
    at the path `keys` (the whole document when none) to `value`."""
    def edit(directory):
        path = directory / "schema.json"
        doc = json.loads(path.read_text())
        if keys:
            item = doc
            for key in keys[:-1]:
                item = item[key]
            item[keys[-1]] = value
        else:
            doc = value
        path.write_text(json.dumps(doc))
    return edit


@pytest.mark.parametrize("text", ["[" * 100_000, '{"name":\n', "1" * 5000],
                         ids=["nested", "malformed", "digits"])
@pytest.mark.parametrize("document, what", [
    ("scenario.json", "scenario "),
    ("schema.json", "schema document"),
    ("p.json", "profile P file p.json"),
    ("m.json", "mechanism file "),
], ids=["scenario", "schema", "profile", "mechanism"])
def test_cli_unreadable_json_document_exits_two_naming_it(tmp_path, document, what,
                                                          text):
    """Each JSON document, nested past the decoder's recursion limit, not
    JSON at all or holding an integer past the interpreter's 4,300-digit
    limit, exits 2 with a message naming it."""
    if document == "m.json":
        argv = ("dp-check", "--mechanism-file", str(tmp_path / document))
    else:
        argv = ("validate", "--scenario",
                _hospital_copy(tmp_path, profiles={"P": "p.json"}))
    (tmp_path / document).write_text(text)
    done = _cli_process(*argv)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"error: {what}"), done.stderr
    assert "Traceback" not in done.stderr


def _replace_in(file: str, old: str, new: str):
    """An `edit` of `_hospital_copy` that replaces the first `old`, which
    must be there, by `new` in `file`."""
    def edit(directory):
        path = directory / file
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    return edit


@pytest.mark.parametrize("sections", [
    {"mechanisms": {"m": 5}},
    {"tables": {"t": 7}},
    {"tables": {"t": {"file": 7}}},
    {"runs": {"r": 5}, "analysis": {"runs": ["r"]}},
    {"runs": {"r": {"steps": [3]}}, "analysis": {"runs": ["r"]}},
    {"runs": {"trace": {"steps": [{"from": "s0", "branches": 1}]}}},
    {"analysis": [1]},
    {"analysis": {"indist": [1]}},
    {"analysis": {"attack": {"attackers": 5}}},
    {"dltts": {"trace": 3}},
    {"attack_dltts": []},
    {"profiles": {"p": 4}},
    {"profiles": {"p": {"priors": [1]}}},
    {"declared_baseline": [1]},
    {"declared_baseline": {"l1": [1]}},
    {"externals": 5},
    {"analysis": {"indist": [
        {"mechanism": "viral_query", "pair": 5, "alpha": "Viral-Infection"}]}},
    {"analysis": {"scaled_indist": [
        {"mechanism": "viral_query", "pair": 5, "alpha": "Viral-Infection",
         "table": "published"}]}},
    {"analysis": {"metric": {"table": "published", "pairs": [5]}}},
    {"runs": {"trace": {"steps": [{"from": "s0", "action": "q", "branches": [
        {"to": "s1", "prob": "1", "learn": 5}]}]}}},
    {"runs": {"trace": {"steps": [{"from": "s0", "action": "q", "branches": [
        {"to": "s1", "prob": True}]}]}}, "analysis": {"runs": ["trace"]}},
    {"edit": _set_in_schema("columns", value=5)},
    {"edit": _set_in_schema("policy", value=5)},
    {"edit": _set_in_schema("policy", value=[5])},
    {"edit": _set_in_schema("taxonomies", value=[1])},
    {"edit": _set_in_schema("taxonomies", "ailment", "children",
                            value={"Ailment": 5})},
    {"edit": _set_in_schema("taxonomies", "ailment", "children",
                            "Viral-Infection", value="XY")},
    {"edit": _set_in_schema("taxonomies", "ailment", "root", value=["A"])},
    {"edit": _set_in_schema("columns", 0, "name", value=["a"])},
    {"edit": _set_in_schema("columns", 4, "taxonomy", value=["a"])},
    {"edit": _set_in_schema(value=[1])},
    {"edit": _replace_in("published.csv", "Heart-Disease", "H" * 200_000)},
    # an integer literal past the interpreter's 4,300-digit limit, in a
    # field nothing reads; `json.dumps` cannot write one
    {"edit": _replace_in("schema.json", '"columns"', f'"digits": {"1" * 5000}, "columns"')},
])
def test_cli_malformed_scenario_exits_two(tmp_path, sections):
    done = _cli_process("analyze", "--scenario", _hospital_copy(tmp_path, **sections))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def _digit_limit_error(digits: int) -> str:
    """The interpreter's own words on reading an integer of `digits` digits."""
    try:
        int("1" * digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{digits} digits are within the limit")


@pytest.mark.parametrize("edit, message", [
    (_replace_in("trace.dltts", "[(s1, 1, M:0", "[((s1, 1, M:0"),
     "trace:4: unbalanced brackets in '((s1, 1, M:0 {l1,l3})'"),
    (_replace_in("scenario.json", "(John,*,F,*,*)", "(John,*,F,*)"),
     "scenario runs.trace.steps[0].branches[0].learn[0]: "
     "pattern arity 4 does not match schema arity 5"),
    (_replace_in("schema.json", "!(John,*,*,*,CoVid)", "!(John,*,*,CoVid)"),
     "schema policy[0]: pattern arity 4 does not match schema arity 5"),
    (_replace_in("published.csv", "[20-30]", f"[20-{'1' * 5000}]"),
     f"table published: row l1, column Age: {_digit_limit_error(5000)}"),
])
def test_cli_text_grammar_error_names_its_place(tmp_path, capsys, edit, message):
    """A transcript line, a run's learn pattern, a policy pattern and an
    interval endpoint past the interpreter's digit limit that do not parse
    exit 2 with a message naming where they are."""
    assert cli_main(["analyze", "--scenario", _hospital_copy(tmp_path, edit)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("edit, error", [
    (_replace_in("trace.dltts", "] delta\n", "] delta\ns0 -> [(s1, 1, " + "x" * 100_000),
     "error: trace:10: unterminated branch list\n"),
    (_replace_in("trace.dltts", "] delta\n", "] delta\ns0 -> [" + "(" * 100_000 + "]"),
     "error: trace:10: unbalanced brackets in '((((("),
    (_replace_in("scenario.json", "(John,*,F,*,*)", "(John,*,F,*," + "{a" * 50_000 + ")"),
     "error: scenario runs.trace.steps[0].branches[0].learn[0]: unbalanced brackets "
     "in 'John,*,F,*,{a{a{a"),
], ids=["unterminated-list", "open-brackets", "learn-pattern"])
def test_cli_long_bracket_text_is_refused_in_time(tmp_path, edit, error):
    """Transcripts and patterns share one bracket scanner, which makes one
    pass over the text: a 100,000-character line is refused, exit 2, well
    within the timeout."""
    done = _cli_process("analyze", "--scenario", _hospital_copy(tmp_path, edit),
                        timeout=20)
    assert done.returncode == 2, done.stderr[:300]
    assert done.stderr.startswith(error), done.stderr[:300]


def _without(entry: dict, field: str) -> dict:
    return {k: v for k, v in entry.items() if k != field}


def _missing_field_cases() -> list:
    """(sections of a hospital copy, the error naming the field it lacks);
    None stands for a standalone mechanism file without `probs`."""
    doc = json.loads(Path(HOSPITAL).read_text())
    trace = doc["runs"]["trace"]
    step, rest = trace["steps"][0], trace["steps"][1:]

    def run(first_step):
        return {"runs": {"trace": {**trace, "steps": [first_step, *rest]}}}

    cases = [(None, "mechanism 'm' has no field 'probs'"),
             ({"mechanisms": {"viral_query": _without(
                 doc["mechanisms"]["viral_query"], "probs")}},
              "mechanism 'viral_query' has no field 'probs'")]
    for field in ("from", "action", "branches"):
        cases.append((run(_without(step, field)),
                      f"scenario runs.trace.steps[0] has no field '{field}'"))
    for field in ("to", "prob"):
        branch = _without(step["branches"][0], field)
        cases.append((run({**step, "branches": [branch]}),
                      f"scenario runs.trace.steps[0].branches[0] has no field "
                      f"'{field}'"))
    entries = {
        "metric": {"table": "published", "pairs": [["l4", "l5"]]},
        "indist": {"mechanism": "viral_query", "pair": ["l4", "l5"],
                   "alpha": "Viral-Infection"},
        "scaled_indist": {"mechanism": "viral_query", "pair": ["l4", "l5"],
                          "alpha": "Viral-Infection", "table": "published"},
        "label_equivalence": {"run": "trace", "state": "s4",
                              "mechanism": "viral_query", "epsilon": "ln(2)"},
        "strategy": {"attacker": "A", "baseline": "C"},
        "dp_check": {"mechanism": "viral_query"},
    }
    for key, entry in entries.items():
        for field in entry:
            if field == "pairs" or (key, field) == ("strategy", "baseline"):
                continue  # optional
            lacking = _without(entry, field)
            where = key if key == "metric" else f"{key}[0]"
            cases.append(({"analysis": {key: lacking if key == "metric" else [lacking]}},
                          f"scenario analysis.{where} has no field '{field}'"))
    return cases


_MISSING_FIELDS = _missing_field_cases()


@pytest.mark.parametrize("sections, message", _MISSING_FIELDS,
                         ids=[message for _, message in _MISSING_FIELDS])
def test_missing_required_field_exits_two_naming_it(tmp_path, sections, message):
    if sections is None:
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"outputs": ["a"]}))
        argv = ["dp-check", "--mechanism-file", str(path)]
    else:
        argv = ["analyze", "--scenario", _hospital_copy(tmp_path, **sections)]
    done = _cli_process(*argv)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: {message}\n"


def _wrong(shape):
    """A value of the wrong JSON type for `shape`: `true`, since a boolean
    is neither a string nor a number, or "false" where one is expected."""
    return "false" if shape is bool else True


def _shape_cases(shape, doc, path, seen):
    """(path, value) for the first place in `doc` that each field of the
    shape table `shape`, each entry of a `Names` map and each array item
    reaches: value None drops a `Required` field, and every such part,
    present in `doc` or not, is also set to a value of the wrong type."""
    if isinstance(shape, (list, Names)):
        inner = shape[0] if isinstance(shape, list) else shape.shape
        for key, item in enumerate(doc) if isinstance(shape, list) else doc.items():
            if id(shape) not in seen:
                seen.add(id(shape))
                yield (*path, key), _wrong(inner)
            yield from _shape_cases(inner, item, (*path, key), seen)
    elif isinstance(shape, dict):
        for key, field in shape.items():
            required = isinstance(field, Required)
            field = field.shape if required else field
            if (id(shape), key) not in seen:
                seen.add((id(shape), key))
                if required:
                    yield (*path, key), None
                yield (*path, key), _wrong(field)
            if key in doc:
                yield from _shape_cases(field, doc[key], (*path, key), seen)


def _mechanism_file() -> dict:
    doc = json.loads(Path(HOSPITAL).read_text())["mechanisms"]["viral_query"]
    return {"name": "viral_query", **doc}


def _shape_table_cases() -> list:
    """The cases of `_shape_cases` over the bundled documents, each table
    against the documents that hold its parts: (scenario directory, or
    None for a mechanism file, file name, path, value)."""
    def load(scenario, name):
        return json.loads((SCENARIOS / scenario / name).read_text())

    enterprise = load("enterprise", "scenario.json")
    docs = [
        ("SCENARIO", SCENARIO, "hospital", "scenario.json", (),
         load("hospital", "scenario.json")),
        ("SCENARIO", SCENARIO, "enterprise", "scenario.json", (), enterprise),
        ("SCHEMA", SCHEMA, "hospital", "schema.json", (), load("hospital", "schema.json")),
        *(("PROFILE", PROFILE, "enterprise", "scenario.json", ("profiles", name), doc)
          for name, doc in enterprise["profiles"].items()),
        ("MECHANISM", MECHANISM, None, "m.json", (), _mechanism_file()),
    ]
    seen: dict[str, set] = {}
    cases = []
    for table, shape, scenario, name, at, doc in docs:
        for path, value in _shape_cases(shape, doc, at, seen.setdefault(table, set())):
            shown = "dropped" if value is None else json.dumps(value)
            cases.append(pytest.param(scenario, name, path, value,
                                      id=f"{table} {'.'.join(map(str, path))} {shown}"))
    # Inputs that loaded before the tables: "false" read as true, and
    # neither field was checked.
    for scenario, path, value in (
        ("enterprise", ("profiles", "C", "empirical"), "false"),
        ("enterprise", ("profiles", "C", "objective"), 7),
        ("hospital", ("name",), ["x"]),
    ):
        cases.append(pytest.param(scenario, "scenario.json", path, value,
                                  id=f"{'.'.join(path)} {json.dumps(value)}"))
    return cases


@pytest.mark.parametrize("scenario, name, path, value", _shape_table_cases())
def test_shape_tables_refuse_every_missing_or_mistyped_field(
    tmp_path, capsys, scenario, name, path, value
):
    """Every `Required` field dropped from a bundled document, and every
    part set to a value of the wrong JSON type, exits 2 with an `error:`
    line that names it."""
    if scenario is None:
        doc = _mechanism_file()
    else:
        shutil.copytree(SCENARIOS / scenario, tmp_path, dirs_exist_ok=True)
        doc = json.loads((tmp_path / name).read_text())
    item = doc
    for key in path[:-1]:
        item = item[key]
    if value is None:
        del item[path[-1]]
    else:
        item[path[-1]] = value
    (tmp_path / name).write_text(json.dumps(doc))
    if scenario is None:
        argv = ["dp-check", "--mechanism-file", str(tmp_path / name)]
    else:
        argv = ["analyze", "--scenario", str(tmp_path / "scenario.json")]
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    last = path[-1]
    if value is None:
        assert f"has no field '{last}'" in err
    else:
        assert (f"[{last}]" if isinstance(last, int) else last) in err


def test_strategy_without_any_baseline_exits_two(tmp_path, capsys):
    """A strategy with no baseline, in a scenario that names none, is
    refused by `analyze` and by `strategy` alike."""
    shutil.copytree(SCENARIOS / "enterprise", tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    del doc["baseline"]
    doc["analysis"]["strategy"] = [{"attacker": "A"}]
    path.write_text(json.dumps(doc))
    for command in (["analyze"], ["strategy", "--attacker", "A"]):
        code = cli_main([*command, "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: no baseline given and the scenario names none\n"
        assert captured.out == ""


HUGE = "1e999999999"
_RUN = {"trace": {"steps": [{"from": "s0", "action": "q",
                             "branches": [{"to": "s1", "prob": HUGE}]}]}}


@pytest.mark.parametrize("where", [
    "mechanism-file", "epsilon", "mechanism", "cell", "transcript",
    "run-prob", "declared-baseline", "prior", "label-equivalence",
])
def test_huge_decimal_exponent_exits_two_at_once(tmp_path, where):
    """`Fraction("1e999999999")` would build a billion-digit power of ten;
    each reader of input numbers refuses it instead."""
    if where == "mechanism-file":
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"probs": {"a": {"x": HUGE, "y": "0"}}}))
        argv = ["dp-check", "--mechanism-file", str(path)]
    elif where == "epsilon":
        argv = ["analyze", "--scenario", HOSPITAL, "--epsilon", HUGE,
                "--secret", "published:l4"]
    else:
        scenario = _hospital_copy(tmp_path, **{
            "mechanism": {"edit": _replace_in("scenario.json", '"1/3"', f'"{HUGE}"')},
            "cell": {"edit": _replace_in("covid_cases.csv", "Physics,M,1,", f"Physics,M,{HUGE},")},
            "transcript": {"edit": _replace_in("trace.dltts", "(s1, 1,", f"(s1, {HUGE},")},
            "run-prob": {"runs": _RUN},
            "declared-baseline": {"declared_baseline": {"l1": HUGE}},
            "prior": {"profiles": {"p": {"priors": {"Gender": {"M": HUGE}}}}},
            "label-equivalence": {"analysis": {"label_equivalence": [
                {"run": "trace", "state": "s4", "mechanism": "viral_query",
                 "alpha": "Viral-Infection", "epsilon": HUGE}]}},
        }[where])
        argv = ["analyze", "--scenario", scenario]
    done = _cli_process(*argv, timeout=20)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
    assert f"exponent beyond ±{MAX_DECIMAL_EXPONENT}" in done.stderr


def test_label_epsilon_agreeing_past_the_digit_bound_exits_two(tmp_path):
    """(1/k)*ln(2**k + 1) exceeds viral_query's ln(2) by about 2**-k / k,
    which k = 13300 puts past `MAX_LN_DIGITS`: the label pair is refused
    instead of computing ln to ever more digits."""
    k = 13300
    scenario = _hospital_copy(tmp_path, analysis={"label_equivalence": [
        {"run": "trace", "state": "s4", "mechanism": "viral_query",
         "alpha": "Viral-Infection", "epsilon": f"(1/{k})*ln({2**k + 1})"}]})
    done = _cli_process("analyze", "--scenario", scenario, timeout=20)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: cannot order epsilons (1/13300)*ln(")
    assert f"and ln(2/1): they agree to {MAX_LN_DIGITS} digits" in done.stderr


def test_cli_dp_check_has_no_output_count_limit(capsys, tmp_path):
    outputs = [f"o{i}" for i in range(24)]
    skewed = {o: "1/24" for o in outputs} | {"o0": "1/16", "o1": "1/48"}
    doc = {
        "name": "wide",
        "outputs": outputs,
        "probs": {"u": {o: "1/24" for o in outputs}, "v": skewed},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["dp-check", "--mechanism-file", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1:] == [
        "report: wide",
        "## dp-check wide",
        "min LDP epsilon = ln(2/1) ≈ 0.69314718056",
        "  witness: ('u', 'v', ('o1',))",
        "min DP epsilon (hamming) = ln(2/1) ≈ 0.69314718056",
        "  witness: ('u', 'v', ('o1',))",
    ]


@pytest.mark.parametrize("entry, error", [
    ({"adjacency": "hamm"},
     "unknown adjacency 'hamm'; expected one of ['hamming', 'rho']"),
    ({"adjacency": "hamming", "mode": "bogus"},
     "unknown mode 'bogus'; expected one of ['integer-set', 'paper-compat']"),
], ids=["adjacency", "mode"])
def test_analyze_refuses_an_unknown_dp_check_adjacency_or_mode(tmp_path, capsys,
                                                               entry, error):
    """A dp_check entry is measured only under an adjacency and a mode the
    report knows, even where that adjacency never reads the mode."""
    path = _hospital_copy(tmp_path, analysis={"dp_check": [
        {"mechanism": "viral_query"}, {"mechanism": "viral_query", **entry}]})
    assert cli_main(["analyze", "--scenario", path]) == 2
    assert capsys.readouterr().err == f"error: scenario analysis.dp_check[1]: {error}\n"


def test_analyze_dp_check_entries(tmp_path):
    (tmp_path / "schema.json").write_text(json.dumps(
        {"columns": [{"name": "X", "class": "nominal", "group": "identifier"}]}
    ))
    scenario = {
        "name": "dpcheck",
        "schema": "schema.json",
        "tables": {},
        "mechanisms": {
            "m": {
                "outputs": ["a", "b", "c"],
                "probs": {
                    "u": {"a": "1/2", "b": "1/3", "c": "1/6"},
                    "v": {"a": "1/4", "b": "1/4", "c": "1/2"},
                    "w": {"a": "1/3", "b": "1/3", "c": "1/3"},
                },
            },
            "z": {
                "outputs": ["a", "b"],
                "probs": {"p": {"a": "1"}, "q": {"a": "1/2", "b": "1/2"}},
            },
        },
        "analysis": {
            "dp_check": [
                {"mechanism": "m"},
                {"mechanism": "z", "adjacency": "rho", "mode": "paper-compat"},
            ]
        },
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    report = run_scenario(load_scenario(tmp_path / "scenario.json"))
    assert report.lines[report.lines.index("## dp-check m"):] == [
        "## dp-check m",
        "min LDP epsilon = ln(3/1) ≈ 1.09861228867",
        "  witness: ('v', 'u', ('c',))",
        "min DP epsilon (hamming) = ln(3/1) ≈ 1.09861228867",
        "  witness: ('v', 'u', ('c',))",
        "",
        "## dp-check z",
        "min LDP epsilon = unbounded",
        "  witness: ('q', 'p', ('b',))",
        "min DP epsilon (rho) = unbounded",
        "  witness: ('q', 'p', ('b',))",
        "",
    ]
    assert report.values["dp/m/dp/hamming"].ratio == 3
    assert report.values["dp/z/dp/rho"].unbounded


def test_cli_strategy_dot_marks_off_edges(capsys, tmp_path):
    dot_path = tmp_path / "b.dot"
    code = cli_main(
        ["strategy", "--scenario", ENTERPRISE, "--attacker", "B",
         "--dot", str(dot_path)]
    )
    capsys.readouterr()
    assert code == 0
    dot = dot_path.read_text()
    assert dot.count("style=dashed") == 2


def test_profile_file_indirection(tmp_path):
    src = SCENARIOS / "enterprise"
    for name in ("schema.json", "responses.csv"):
        (tmp_path / name).write_text((src / name).read_text())
    profile = {
        "attribute_order": ["Sex"],
        "priors": {"Sex": {"F": "1/2", "M": "1/2"}},
    }
    (tmp_path / "p.json").write_text(json.dumps(profile))
    scenario_doc = {
        "name": "indirect",
        "schema": "schema.json",
        "tables": {"responses": {"file": "responses.csv"}},
        "profiles": {"P": "p.json"},
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario_doc))
    sc = load_scenario(tmp_path / "scenario.json")
    assert sc.profiles["P"].attribute_order == ("Sex",)


def test_strategy_report_refused_marker(enterprise):
    report = run_scenario(enterprise).body()
    assert "response(l3) at s7 answers 'refused'" in report


def test_cli_strategy_off_list(capsys):
    code = cli_main(
        ["strategy", "--scenario", ENTERPRISE, "--attacker", "B", "--baseline", "C"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "switched off: s7:l3, s8:l4" in out
    assert "s8 response(l4): Pr = 1/5 <= baseline 1/4 -> stays ON" in out


def test_cli_attack_reports(capsys):
    code = cli_main(
        ["attack", "--scenario", ENTERPRISE, "--attacker", "B", "--attacker", "A"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Pr(response=3 | M) = 3/5" in out
    assert "Pr(response=1 | F) = 2/5" in out


def test_cli_attack_switches_respond_for_any_line_id(capsys, tmp_path):
    """With the enterprise line ids renamed l-1..l-4, the built trees break
    no invariant and the transcripts' drawn responses are read, so every
    attack report is the l1..l4 one under the new names."""
    shutil.copytree(Path(ENTERPRISE).parent, tmp_path, dirs_exist_ok=True)
    for path in tmp_path.iterdir():
        path.write_text(re.sub(r"\bl(\d)\b", r"l-\1", path.read_text()))
    for built in ([], ["--built"]):
        reports = []
        for scenario in (ENTERPRISE, str(tmp_path / "scenario.json")):
            assert cli_main(["attack", "--scenario", scenario, *built, "--attacker",
                             "A", "--attacker", "B", "--attacker", "C"]) == 0
            reports.append(capsys.readouterr().out)
        assert "Max_pr(l-1) = 2/5" in reports[1]
        assert reports[1].replace("l-", "l") == reports[0]


def test_cli_attack_builds_a_profile_of_three_thousand_levels(capsys, tmp_path):
    shutil.copytree(Path(ENTERPRISE).parent, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    doc["profiles"]["D"] = {"attribute_order": ["Sex", "Age"] * 1500}
    path.write_text(json.dumps(doc))
    assert cli_main(["attack", "--scenario", str(path), "--built",
                     "--attacker", "D"]) == 0
    out = capsys.readouterr().out
    assert "Max_pr(l1) = 1/4" in out and "INVALID" not in out


def test_cli_export_dot_counts(capsys, tmp_path):
    path = tmp_path / "trace.dot"
    code = cli_main(
        ["export-dot", "--scenario", HOSPITAL, "--dltts", "trace",
         "--dot", str(path)]
    )
    assert code == 0
    dot = path.read_text()
    assert len([l for l in dot.splitlines() if "[shape=" in l]) == 8
    assert '"s6" -> "STOP" [label="δ / 1"]' in dot

    code = cli_main(
        ["export-dot", "--scenario", ENTERPRISE, "--attacker", "B"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert len([l for l in out.splitlines() if "[shape=" in l]) == 12

    # the system a scripted run builds, here the same as the drawn trace
    assert cli_main(["export-dot", "--scenario", HOSPITAL, "--run", "trace"]) == 0
    assert capsys.readouterr().out == dot


def test_cli_validate_ok_and_malformed(capsys, tmp_path):
    assert cli_main(["validate", "--scenario", HOSPITAL]) == 0
    capsys.readouterr()
    bad_schema = {
        "columns": [{"name": "A", "class": "nominal", "group": "identifier"}],
        "taxonomies": {"t": {"root": "x", "children": {"x": ["y"], "y": ["x"]}}},
    }
    (tmp_path / "schema.json").write_text(json.dumps(bad_schema))
    (tmp_path / "scenario.json").write_text(
        json.dumps({"name": "bad", "schema": "schema.json", "tables": {}})
    )
    assert cli_main(["validate", "--scenario", str(tmp_path / "scenario.json")]) == 2


def test_cli_validate_reports_transcript_inconsistency(capsys):
    # the baseline transcript's drawn label sets do not partition; validate
    # surfaces exactly that and signals it through the exit code
    code = cli_main(["validate", "--scenario", ENTERPRISE])
    out = capsys.readouterr().out
    assert code == 1
    assert "do not partition" in out


def test_cli_validate_flags_invalid_system(capsys, tmp_path):
    (tmp_path / "schema.json").write_text(json.dumps(
        {"columns": [{"name": "A", "class": "nominal", "group": "identifier"}]}
    ))
    (tmp_path / "bad.dltts").write_text("s0 -> [(s1, 1/2, x)] q\n")
    (tmp_path / "scenario.json").write_text(json.dumps(
        {"name": "bad", "schema": "schema.json", "tables": {},
         "dltts": {"bad": "bad.dltts"}}
    ))
    code = cli_main(["validate", "--scenario", str(tmp_path / "scenario.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "INVALID" in out


def test_cli_validate_checks_the_attack_transcripts(capsys, tmp_path):
    """A's first branches -1/2 and 3/2 still sum to 1, but a negative
    probability breaks the distribution rules `validate` checks on every
    transcript, attack transcripts included."""
    shutil.copytree(Path(ENTERPRISE).parent, tmp_path, dirs_exist_ok=True)
    _replace_in("attack_a.dltts", "(s1, 1/5,", "(s1, -1/2,")(tmp_path)
    _replace_in("attack_a.dltts", "(s2, 4/5,", "(s2, 3/2,")(tmp_path)
    assert cli_main(["validate", "--scenario", str(tmp_path / "scenario.json")]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "INVALID: A: branch s0->s1 has non-positive probability",
        "INVALID: C: s1: children ['l1', 'l2', 'l3', 'l4'] do not partition "
        "['l1', 'l2', 'l3']",
    ]


@pytest.mark.parametrize("argv", [["analyze"], ["attack", "--attacker", "A"],
                                  ["strategy", "--attacker", "A"]])
def test_cli_reports_refuse_an_attack_transcript_that_breaks_a_rule(capsys, tmp_path,
                                                                    argv):
    """The priority runs that every attack report reads check each
    transition they reach, so the negative branch `validate` lists stops
    `analyze`, `attack` and `strategy` with exit 2 instead of a report
    built from it; `export-dot` still draws the transcript."""
    shutil.copytree(Path(ENTERPRISE).parent, tmp_path, dirs_exist_ok=True)
    _replace_in("attack_a.dltts", "(s1, 1/5,", "(s1, -1/2,")(tmp_path)
    _replace_in("attack_a.dltts", "(s2, 4/5,", "(s2, 3/2,")(tmp_path)
    scenario = str(tmp_path / "scenario.json")
    assert cli_main([*argv, "--scenario", scenario]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: A: branch s0->s1 has non-positive probability\n"
    assert captured.out == ""
    assert cli_main(["export-dot", "--scenario", scenario, "--attacker", "A"]) == 0
    assert '"s0" -> "s1"' in capsys.readouterr().out


@pytest.mark.parametrize("argv, builds", [
    ([], 1), (["--epsilon", "0", "--secret", "published:l4"], 2),
])
def test_analyze_builds_each_run_once(monkeypatch, capsys, argv, builds):
    """Unarmed, the label-equivalence section reads the run the run
    section built; armed, that run is another system, so the unarmed one
    is built too.  The report is the one a fresh build gives."""
    made = []
    init = DlttsBuilder.__init__

    def counted(self, **kwargs):
        made.append(self)
        init(self, **kwargs)

    def label_section(text):
        return text[text.index("## label equivalence"):].split("\n\n")[0]

    monkeypatch.setattr(DlttsBuilder, "__init__", counted)
    assert cli_main(["analyze", "--scenario", HOSPITAL, *argv]) == 0
    assert len(made) == builds
    hospital = load_scenario(HOSPITAL)
    alone = hospital.replace(analysis={
        k: v for k, v in hospital.analysis.items() if k != "runs"})
    assert label_section(capsys.readouterr().out) == label_section(
        run_scenario(alone).text())


def test_cli_a_key_error_is_a_bug_not_an_input_error(monkeypatch, capsys):
    """Every refusal of an input, a lookup an input can reach included,
    raises InputError, so a KeyError or a bare ValueError inside a command
    is a program fault: it escapes `cli_main` instead of printing `error:`
    and exiting 2."""
    import privtrace.cli

    for error in (KeyError, ValueError):
        def broken(scenario, args):
            raise error("no such entry")

        _, about, options = privtrace.cli.COMMANDS["validate"]
        monkeypatch.setitem(privtrace.cli.COMMANDS, "validate", (broken, about, options))
        with pytest.raises(error, match="no such entry"):
            cli_main(["validate", "--scenario", HOSPITAL])
        assert capsys.readouterr().err == ""


def test_cli_output_it_cannot_write_exits_two(tmp_path):
    """A `--dot` path with no file name to put a system's name beside, and
    a report or drawing holding a lone surrogate (which a JSON escape can
    put in a name or a label, and no UTF-8 output can encode) each exit 2
    with one `error:` line."""
    shutil.copytree(SCENARIOS / "hospital", tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    doc["name"] = "\ud800"
    doc["runs"]["trace"]["steps"][0]["branches"][0]["text"] = "\ud800"
    path.write_text(json.dumps(doc))
    for argv in (["attack", "--scenario", ENTERPRISE, "--attacker", "A",
                  "--attacker", "B", "--dot", "/"],
                 ["analyze", "--scenario", str(path)],
                 ["export-dot", "--scenario", str(path), "--run", "trace"],
                 ["export-dot", "--scenario", str(path), "--run", "trace",
                  "--dot", str(tmp_path / "trace.dot")]):
        done = _cli_process(*argv)
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, argv


def test_cli_scaled_epsilon_past_the_float_range_prints_inf(tmp_path, capsys):
    """A normalizer of 1e400 puts rho at 1e-400 and the scale 1/rho past the
    float range: the approximation reads `inf` instead of raising."""
    (tmp_path / "schema.json").write_text(json.dumps({"columns": [
        {"name": "Age", "class": "numerical", "group": "quasi-identifier",
         "normalizer": "1e400"}]}))
    (tmp_path / "t.csv").write_text("Line,Age\nl1,1\nl2,2\n")
    (tmp_path / "scenario.json").write_text(json.dumps({
        "name": "huge", "schema": "schema.json", "tables": {"t": {"file": "t.csv"}},
        "mechanisms": {"m": {"outputs": ["y", "n"], "probs": {
            "l1": {"y": "1/3", "n": "2/3"}, "l2": {"y": "2/3", "n": "1/3"}}}},
        "analysis": {"scaled_indist": [
            {"mechanism": "m", "pair": ["l1", "l2"], "alpha": "y", "table": "t"}]},
    }))
    assert cli_main(["analyze", "--scenario", str(tmp_path / "scenario.json")]) == 0
    line = f"rho-scaled min epsilon (integer-set) = ({10 ** 400}/1)*ln(2/1) ≈ inf"
    assert line in capsys.readouterr().out.splitlines()


def test_cli_unknown_flag_exits_two(capsys):
    assert cli_main(["metric", "--scenario", HOSPITAL, "--frobnicate"]) == 2
    assert cli_main(["no-such-command"]) == 2
    assert cli_main(["analyze", "--scenario", HOSPITAL, "--jobs", "2"]) == 2


def test_export_dot_is_valid_dot_syntax(hospital):
    dltts, _ = build_run(hospital, "trace")
    dot = export_dot(dltts)
    assert dot.startswith("digraph ")
    assert dot.rstrip().endswith("}")
    assert dot.count("{") == dot.count("}")
    assert dot.count('"') % 2 == 0
    body = dot[dot.index("{") + 1 : dot.rindex("}")]
    node_re = re.compile(r'^\s*"[^"]+" \[[^\]]*\];$')
    edge_re = re.compile(r'^\s*"[^"]+" -> "[^"]+" \[label="[^"]*"(, style=\w+)?\];$')
    attr_re = re.compile(r"^\s*\w+=\w+;$")
    for line in filter(None, (l.strip() for l in body.splitlines())):
        assert node_re.match(line) or edge_re.match(line) or attr_re.match(line), line


def test_export_dot_single_state():
    from privtrace.lts import Dltts

    single = Dltts("s0", "STOP", ())
    dot = export_dot(single)
    assert len([l for l in dot.splitlines() if "[shape=" in l]) == 1


def test_label_equivalence_in_report(hospital):
    report = run_scenario(hospital)
    classes = report.values["label_equivalence/trace/s4"]
    assert len(classes) == 1
    assert "1 class(es)" in report.body()


def test_label_equivalence_null_alpha_is_left_out_alpha(tmp_path):
    """A null `alpha` loads, and reads as an `alpha` left out: the output
    is inferred, which at s4 of the hospital run is ambiguous."""
    entry = {"run": "trace", "state": "s4", "mechanism": "viral_query",
             "epsilon": "ln(2)"}
    errors = []
    for i, alpha in enumerate([{}, {"alpha": None}]):
        analysis = {"runs": ["trace"], "label_equivalence": [{**entry, **alpha}]}
        scenario = load_scenario(_hospital_copy(tmp_path / str(i), analysis=analysis))
        with pytest.raises(InputError) as err:
            run_scenario(scenario)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "output alpha is ambiguous; pass it explicitly"


DEEP = 1500


def _cli_process(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    src = str(SCENARIOS.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "privtrace.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def _deep_scenario(tmp_path, transcript: str, runs: dict | None = None) -> str:
    (tmp_path / "schema.json").write_text(json.dumps({
        "columns": [
            {"name": "Name", "class": "nominal", "group": "identifier"},
            {"name": "Dept", "class": "nominal", "group": "quasi-identifier"},
        ],
        "policy": [],
    }))
    (tmp_path / "chain.dltts").write_text(transcript)
    doc = {
        "schema": "schema.json",
        "attack_dltts": {"chain": "chain.dltts"},
        "baseline": "chain",
        "runs": runs or {},
        "analysis": {"runs": sorted(runs or {})},
    }
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    return str(tmp_path / "scenario.json")


def _chain(n: int, back_edge: bool = False) -> str:
    lines = ["initial: s0"]
    for i in range(n - 2):
        lines.append(f"s{i} -> [(s{i + 1}, 1, P_db c=v{i})] query:c")
    lines.append(f"s{n - 2} -> [(s{n - 1}, 1, P_db pick {{l1}})] pick")
    if back_edge:
        lines.append(f"s{n - 1} -> [(s0, 1, P_db again)] query:c")
    return "\n".join(lines) + "\n"


def test_deep_chain_transcript_attack_and_strategy(tmp_path):
    scenario = _deep_scenario(tmp_path, _chain(DEEP))
    done = _cli_process("attack", "--scenario", scenario, "--attacker", "chain")
    assert done.returncode in (0, 1) and "Traceback" not in done.stderr
    assert "Max_pr(l1) = 1" in done.stdout
    done = _cli_process("strategy", "--scenario", scenario, "--attacker", "chain",
                        "--baseline", "chain")
    assert done.returncode in (0, 1) and "Traceback" not in done.stderr
    assert f"s{DEEP - 1} response(l1): Pr = 1 <= baseline 1 -> stays ON" in done.stdout


def test_deep_scripted_run_analyze(tmp_path):
    steps = [
        {"from": f"s{i}", "action": "query:Dept",
         "branches": [{"to": f"s{i + 1}", "prob": "1"}]}
        for i in range(1200)
    ]
    scenario = _deep_scenario(tmp_path, _chain(3), {"deep": {"steps": steps}})
    done = _cli_process("analyze", "--scenario", scenario)
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert "## run deep\nstop not reached\n" in done.stdout


def test_deep_cyclic_transcript_exits_two(tmp_path):
    scenario = _deep_scenario(tmp_path, _chain(DEEP, back_edge=True))
    done = _cli_process("attack", "--scenario", scenario, "--attacker", "chain")
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "attack system has a cycle" in done.stderr


def _salary_scenario(tmp_path, pay_salary_extra=(), schema_salary_extra=()) -> None:
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


def test_epsilon_oracle_outcome_does_not_depend_on_set_order(tmp_path, monkeypatch):
    """State s1 adds two ground tuples: (John,7) is within epsilon 0 of the
    secret (John), and its R1 join (John,7,Phys) pairs a numerical cell with
    the secret (5,Chem), whose table declares no normalizer.  The oracle
    measures every added tuple, so the run exits 2 under every hash seed,
    not only when its tag set happens to iterate the join first."""
    _salary_scenario(tmp_path)
    for seed in range(8):
        monkeypatch.setenv("PYTHONHASHSEED", str(seed))
        done = _cli_process("analyze", "--scenario", str(tmp_path / "scenario.json"),
                            "--epsilon", "0", "--secret", "names:l1",
                            "--secret", "pay:l1")
        assert done.returncode == 2, (seed, done.stdout)
        assert "numerical cells need an explicit normalizer D" in done.stderr


def test_epsilon_oracle_reads_the_secret_tables_normalizer(tmp_path):
    """With a normalizer declared on pay's Salary, the join (John,7,Phys)
    is measured against the secret (5,Chem) with D = 10, so the run ends in
    a report: s1 is an epsilon violation through the secret (John)."""
    _salary_scenario(tmp_path, {"normalizer": "10"})
    done = _cli_process("analyze", "--scenario", str(tmp_path / "scenario.json"),
                        "--epsilon", "0", "--secret", "names:l1",
                        "--secret", "pay:l1")
    assert done.returncode == 0, done.stderr
    assert "oracle at s1: epsilon-violation" in done.stdout


def test_epsilon_oracle_reads_no_normalizer_from_the_knowledge_side(tmp_path):
    """D is the secret's: with a normalizer on the schema's Salary, which
    the learned (John,7) is read under, and none on pay's Salary, the join
    (John,7,Phys) still has no D against the secret (5,Chem)."""
    _salary_scenario(tmp_path, schema_salary_extra={"normalizer": "10"})
    done = _cli_process("analyze", "--scenario", str(tmp_path / "scenario.json"),
                        "--epsilon", "0", "--secret", "names:l1",
                        "--secret", "pay:l1")
    assert done.returncode == 2, done.stdout
    assert done.stderr == ("error: scenario runs.r.steps[0]: numerical cells need "
                           "an explicit normalizer D\n")


def test_label_equivalence_with_a_tiny_ln_epsilon_ends_quickly(tmp_path):
    """ln(3/2) against (1/100000007)*ln(2): no power of 3/2 is built, so
    the report comes out at once."""
    shutil.copytree(Path(HOSPITAL).parent, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    doc["mechanisms"]["viral_query"]["probs"] = {
        "l4": {"Viral-Infection": "2/5", "no-answer": "3/5"},
        "l5": {"Viral-Infection": "3/5", "no-answer": "2/5"},
    }
    doc["analysis"]["label_equivalence"][0]["epsilon"] = "(1/100000007)*ln(2)"
    path.write_text(json.dumps(doc))
    done = _cli_process("analyze", "--scenario", str(path), timeout=20)
    assert done.returncode == 0, done.stderr
    assert "2 class(es)" in done.stdout


def test_cli_analyze_ln_epsilon_exits_two():
    done = _cli_process("analyze", "--scenario", HOSPITAL, "--epsilon", "ln(2)",
                        "--secret", "published:l4")
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "--epsilon 'ln(2)'" in done.stderr


def test_cli_analyze_epsilon_is_an_exact_bound(tmp_path, capsys):
    """rho([1-7], [1-10]) = 3/10 exactly; a decimal bound of 0.3 catches it."""
    (tmp_path / "schema.json").write_text(json.dumps({
        "columns": [{"name": "Age", "class": "numerval",
                     "group": "quasi-identifier"}],
    }))
    (tmp_path / "t.csv").write_text("Age\n[1-10]\n")
    (tmp_path / "scenario.json").write_text(json.dumps({
        "name": "bound",
        "schema": "schema.json",
        "tables": {"t": {"file": "t.csv"}},
        "runs": {"r": {"steps": [{"from": "s0", "action": "query:Age", "branches": [
            {"to": "s1", "prob": "1", "learn": ["([1-7])"]}]}]}},
        "analysis": {"runs": ["r"]},
    }))
    scenario = str(tmp_path / "scenario.json")
    for bound, verdict in [("0.3", True), ("3/10", True), ("1/3", True),
                           ("0.2999", False), ("0.5e-1", False)]:
        assert cli_main(["analyze", "--scenario", scenario, "--epsilon", bound,
                         "--secret", "t:l1"]) == 0
        out = capsys.readouterr().out
        assert ("oracle at s1: epsilon-violation" in out) is verdict, bound
    for bad in ["ln(2)", "(1/2)*ln(3)", "-0.1", "x"]:
        assert cli_main(["analyze", "--scenario", scenario, "--epsilon", bad,
                         "--secret", "t:l1"]) == 2
        assert "error: --epsilon" in capsys.readouterr().err


def _set_sex_priors(priors):
    return lambda doc: doc["profiles"]["A"]["priors"].update(Sex=priors)


def _step_4(change):
    return lambda doc: change(doc["runs"]["trace"]["steps"][4])


def _long_run_probability(doc):
    """Steps 1 and 4 each split (N-1)/N and 1/N, N = 10**4200 + 1: each
    number reads within the digit limit, but s6's run probability has
    about 8,400 digits."""
    n = 10**4200 + 1
    steps = doc["runs"]["trace"]["steps"]
    (branch,) = steps[1]["branches"]
    branch["prob"] = f"{n - 1}/{n}"
    steps[1]["branches"].append(dict(branch, to="s7", prob=f"1/{n}"))
    steps[4]["branches"][0]["prob"] = f"1/{n}"
    steps[4]["branches"][1]["prob"] = f"{n - 1}/{n}"


def _long_branch_sum(step):
    """Branches 1/A and 1/B, A = 10**4200 + 1 and B = 10**4200 + 3: each
    reads within the digit limit, but their sum has about 8,400 digits."""
    a = 10**4200 + 1
    step["branches"][0]["prob"] = f"1/{a}"
    step["branches"][1]["prob"] = f"1/{a + 2}"


@pytest.mark.parametrize("scenario, change, argv, message", [
    ("hospital", _step_4(lambda step: step.update(action="delta")), ["analyze"],
     "scenario runs.trace.steps[4]: action 'delta' is reserved for the oracle's "
     "move to Stop"),
    ("hospital", _step_4(lambda step: step.update(action="delta")), ["validate"],
     "scenario runs.trace.steps[4]: action 'delta' is reserved for the oracle's "
     "move to Stop"),
    ("hospital", _step_4(lambda step: step["branches"][0].update(prob="1/2")),
     ["analyze"], "scenario runs.trace.steps[4]: branch probabilities from 's4' sum "
     "to 7/6, not 1"),
    ("enterprise", _set_sex_priors({"F": "1", "M": "-1", "X": "1"}),
     ["attack", "--built", "--attacker", "A"],
     "profile A: prior for Sex value M is -1, negative"),
    ("enterprise", _set_sex_priors({"F": "0", "M": "0", "X": "1"}),
     ["attack", "--built", "--attacker", "A"],
     "profile A: Sex values ['F', 'M'] at one query level all have prior 0"),
    ("enterprise", _set_sex_priors({"F": "1", "M": "0"}),
     ["attack", "--built", "--attacker", "A"],
     "profile A: Sex values ['M'] at one query level have prior 0"),
    ("enterprise", _set_sex_priors({"F": "1/2", "M": "1/4"}),
     ["attack", "--built", "--attacker", "A"],
     "profile A: priors for Sex sum to 3/4, not 1"),
    ("enterprise", lambda doc: doc["profiles"]["A"]["priors"].update(Dept={"x": "1"}),
     ["attack", "--built", "--attacker", "A"], "profile A: unknown column 'Dept'"),
    ("hospital", lambda doc: doc["analysis"]["indist"][0].update(pair=["l4"]),
     ["analyze"], "scenario analysis.indist[0].pair must be a pair"),
    ("hospital", lambda doc: None, ["dp-check"],
     "dp-check needs --mechanism-file, or --scenario plus --mechanism"),
    # absolute, so that the message does not depend on the directory
    ("hospital", lambda doc: doc.update(schema="/sche\u0000ma.json"), ["analyze"],
     "file /sche\u0000ma.json: embedded null byte"),
    ("hospital", _long_run_probability, ["analyze"],
     "an exact number in the report has more than 4300 digits"),
    ("hospital", _step_4(_long_branch_sum), ["analyze"], "scenario runs.trace.steps[4]: "
     "branch probabilities from 's4' sum to a number too long to print, not 1"),
])
def test_cli_refusals_exit_two_naming_their_place(tmp_path, scenario, change, argv,
                                                  message):
    """A scripted `delta` step, a step whose branches do not sum to 1, a
    negative prior, a query level where some or all values have prior 0,
    priors that do not sum to 1 or name no column, a pair of one line id,
    a `dp-check` that names no mechanism and a file name holding a NUL
    each exit 2 with one line naming where they are, as does a branch sum
    too long to print; a report number past the interpreter's digit limit
    exits 2 with one line saying so."""
    shutil.copytree(SCENARIOS / scenario, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "scenario.json"
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    done = _cli_process(*argv, "--scenario", str(path))
    assert done.returncode == 2
    assert done.stderr == f"error: {message}\n"


@pytest.mark.parametrize("scenario, old", [("hospital", "s6"), ("enterprise", "l1")])
def test_a_name_whose_digits_int_cannot_read_is_reported(tmp_path, capsys, scenario, old):
    """A state name or line id is text: one whose digit run is longer than
    the interpreter converts to an integer (here `old` with its number
    made 5,000 ones) is reported, not refused as a number too long, and
    sorts by the value of its digits, after every shorter run."""
    long = old[0] + "1" * 5000
    shutil.copytree(SCENARIOS / scenario, tmp_path, dirs_exist_ok=True)
    for path in tmp_path.iterdir():
        path.write_text(re.sub(rf"\b{old}\b", long, path.read_text()))
    assert cli_main(["analyze", "--scenario", str(SCENARIOS / scenario / "scenario.json")]) == 0
    before = re.sub(rf"\b{old}\b", long, capsys.readouterr().out)
    assert cli_main(["analyze", "--scenario", str(tmp_path / "scenario.json")]) == 0
    out = capsys.readouterr().out
    if scenario == "hospital":
        assert out == before
        assert f"oracle at {long}: violation (state probability 2/3)" in out
    else:  # the long line id now sorts last in each attack section
        assert sorted(out.splitlines()) == sorted(before.splitlines())
        assert re.findall(r"^Max_pr\((l\d+)\)", out, re.M) == ["l2", "l3", "l4", long] * 3


def _replace_in(name, old, new):
    """An edit of the copied hospital scenario's file `name`."""
    def edit(root):
        path = root / name
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    return edit


@pytest.mark.parametrize("edit, message", [
    (_replace_in("published.csv", "Heart-Disease", "Heart-Diseas"),
     "table published: row l1, column Ailment: node 'Heart-Diseas' not in "
     "taxonomy ailment"),
    (_replace_in("schema.json", "!(John,*,*,*,CoVid)", "!(John,*,*,*,Plague)"),
     "schema policy[0]: node 'Plague' not in taxonomy ailment"),
    (_replace_in("scenario.json", "(John,*,F,*,*)", "(John,*,F,*,Plague)"),
     "scenario runs.trace.steps[0].branches[0].learn[0]: node 'Plague' not in "
     "taxonomy ailment"),
    (_replace_in("scenario.json", '"runs":',
                 '"profiles": {"P": {"attribute_order": ["Gender"], '
                 '"priors": {"Ailment": {"Plague": "1"}}}}, "runs":'),
     "profile 'P' priors.Ailment: node 'Plague' not in taxonomy ailment"),
])
def test_cli_an_out_of_tree_node_exits_two_naming_its_place(tmp_path, edit, message):
    """A taxoral cell is checked against its column's tree wherever one is
    parsed: a table cell, a policy pattern, a run's learned pattern and a
    profile prior each exit 2 with one line naming the place and the node."""
    shutil.copytree(SCENARIOS / "hospital", tmp_path, dirs_exist_ok=True)
    edit(tmp_path)
    for command in ("analyze", "validate"):
        done = _cli_process(command, "--scenario", str(tmp_path / "scenario.json"))
        assert done.returncode == 2
        assert done.stderr == f"error: {message}\n"


def test_cells_of_two_loads_compare_equal_and_hash_alike():
    """Each load builds its own trees, and its taxons carry them; cells
    still compare by tree name and node, so two loads' rows are equal."""
    first, second = load_scenario(HOSPITAL), load_scenario(HOSPITAL)
    tree1, tree2 = (s.schema.taxonomies["ailment"] for s in (first, second))
    assert tree1 is not tree2
    for name in ("published", "secret", "covid_cases"):
        rows1, rows2 = first.table(name).rows, second.table(name).rows
        assert rows1 == rows2
        assert [hash(r.cells) for r in rows1] == [hash(r.cells) for r in rows2]
        taxons = [c for r in rows1 for c in r.cells if isinstance(c, Taxon)]
        assert taxons and all(c.tree is tree1 for c in taxons)
    assert first.schema.policy == second.schema.policy


@pytest.mark.parametrize("scenario, argv, message", [
    (ENTERPRISE, ["metric", "--pair", "l1", "l2"],
     "no table given and the scenario names none"),
    (ENTERPRISE, ["attack", "--attacker", "Z"], "no attack transcript named 'Z'"),
    (ENTERPRISE, ["attack", "--built", "--attacker", "Z"], "no profile named 'Z'"),
    (HOSPITAL, ["dp-check", "--mechanism", "m"],
     "scenario references unknown mechanism 'm'"),
    (HOSPITAL, ["export-dot"], "export-dot needs --dltts, --attacker, or --run"),
    (HOSPITAL, ["export-dot", "--dltts", "t"], "no explicit system named 't'"),
    (HOSPITAL, ["validate", "--dltts", "t"], "no explicit system named 't'"),
    (HOSPITAL, ["analyze", "--epsilon", "0", "--secret", "published"],
     "secret reference 'published' is not table:line"),
    (lambda tmp_path: _hospital_copy(tmp_path, analysis={"metric": {
        "table": "published", "pairs": [["l4", "l5"]], "modes": ["exact"]}}),
     ["analyze"], "unknown mode 'exact'; expected one of ['integer-set', 'paper-compat']"),
])
def test_cli_names_what_it_cannot_find(tmp_path, capsys, scenario, argv, message):
    """A command that names no table, system or export target, or a
    transcript, profile, mechanism, secret row or interval mode the
    scenario does not hold, exits 2 with one line saying so."""
    path = scenario if isinstance(scenario, str) else scenario(tmp_path)
    assert cli_main([*argv, "--scenario", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _profile_file(directory: Path) -> str:
    """Move the enterprise profile A into its own file; returns its name."""
    path = directory / "scenario.json"
    doc = json.loads(path.read_text())
    (directory / "profile_a.json").write_text(json.dumps(doc["profiles"]["A"]))
    doc["profiles"]["A"] = "profile_a.json"
    path.write_text(json.dumps(doc))
    return "profile_a.json"


def _mechanism_json(directory: Path) -> str:
    (directory / "m.json").write_text(json.dumps(
        {"outputs": ["y", "n"], "probs": {"a": {"y": "1/2", "n": "1/2"}}}))
    return "m.json"


@pytest.mark.parametrize("scenario, bad, argv", [
    ("hospital", "scenario.json", ["analyze", "--scenario", "scenario.json"]),
    ("hospital", "schema.json", ["analyze", "--scenario", "scenario.json"]),
    ("hospital", "published.csv", ["analyze", "--scenario", "scenario.json"]),
    ("hospital", "trace.dltts", ["validate", "--scenario", "scenario.json"]),
    ("enterprise", "attack_a.dltts", ["attack", "--scenario", "scenario.json",
                                      "--attacker", "A"]),
    ("enterprise", _profile_file, ["attack", "--scenario", "scenario.json",
                                   "--built", "--attacker", "A"]),
    ("enterprise", _mechanism_json, ["dp-check", "--mechanism-file", "m.json"]),
])
def test_cli_a_file_that_is_not_text_is_named(tmp_path, scenario, bad, argv):
    """A byte that does not decode, in any file a command reads, exits 2
    with one `error:` line naming that file."""
    shutil.copytree(SCENARIOS / scenario, tmp_path, dirs_exist_ok=True)
    name = bad if isinstance(bad, str) else bad(tmp_path)
    with open(tmp_path / name, "ab") as f:
        f.write(b"\xff")
    done = _cli_process(*(str(tmp_path / a) if a.endswith(".json") else a
                          for a in argv))
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: file {tmp_path / name}: ")
    assert "can't decode byte 0xff" in done.stderr
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize("old, new, message", [
    ("initial: s0", "initial: s00", "A:2: no transition leaves the initial state 's00'"),
    ("initial: s0", "initial:", "A:2: empty initial state"),
    ("] query:Sex", "] ] query:Sex",
     "A:3: action '] query:Sex' holds a square bracket"),
    ("s2 -> [(s3, 1, P_db age=[30-40] {l1,l2})]", "s2 -> []", "A:5: empty branch list"),
    ("(s10, 1, P_db response(l4)=7)",
     "(s10, 1/2, P_db response(l4)=7), (s11, 1/2, P_db response(l4)=8)",
     "A: response at s8 must go one way, p=1"),
])
@pytest.mark.parametrize("argv", [["analyze"], ["attack", "--attacker", "A"],
                                  ["validate"]])
def test_cli_transcript_refusals_exit_two(tmp_path, old, new, message, argv):
    """A wrong or empty initial state gave an all-zero attack report, and
    junk after the branch list was read as the action; each, and an empty
    branch list, now exits 2 naming the transcript and line.  A drawn
    response that may go two ways exits 2 naming its state."""
    shutil.copytree(SCENARIOS / "enterprise", tmp_path, dirs_exist_ok=True)
    path = tmp_path / "attack_a.dltts"
    path.write_text(path.read_text().replace(old, new, 1))
    done = _cli_process(*argv, "--scenario", str(tmp_path / "scenario.json"))
    assert (done.returncode, done.stderr) == (2, f"error: {message}\n")


def test_cli_a_drawn_response_switch_at_stop_is_refused(tmp_path, capsys):
    """Stop has no outgoing transition, a response switch included: reports
    refuse one drawn there as they refuse any other broken rule, and
    `validate` lists it, with the response at a node that is no singleton
    (a branch into Stop marks none)."""
    shutil.copytree(SCENARIOS / "enterprise", tmp_path, dirs_exist_ok=True)
    path = tmp_path / "attack_a.dltts"
    path.write_text(path.read_text().replace(
        "s7 -> [(s9, 1, P_db response(l3)=3)] response(l3)",
        "s7 -> [(STOP, 1, P_db {l3})] pick\n"
        "STOP -> [(s9, 1, P_db response(l3)=3)] response(l3)"))
    scenario = str(tmp_path / "scenario.json")
    for argv in (["analyze"], ["attack", "--attacker", "A"]):
        assert cli_main([*argv, "--scenario", scenario]) == 2
        assert capsys.readouterr().err == "error: A: Stop has an outgoing transition\n"
    assert cli_main(["validate", "--scenario", scenario]) == 1
    out = capsys.readouterr().out
    assert "INVALID: A: Stop has an outgoing transition\n" in out
    assert "INVALID: A: STOP: response(l3) at a non-singleton node\n" in out


# The subcommand forms the mutation test runs on each bundled scenario;
# DOT stands for a file in the scenario's directory.
_FORMS = {
    "hospital": (["analyze"], ["validate"], ["export-dot", "--run", "trace"],
                 ["analyze", "--dot", "DOT"],
                 ["metric", "--pair", "l4", "l5", "--table", "published"],
                 ["dp-check", "--mechanism", "viral_query", "--adjacency", "rho"],
                 ["analyze", "--epsilon", "1/2", "--secret", "published:l4"]),
    "enterprise": (["analyze"], ["validate"], ["attack", "--built", "--attacker", "A"],
                   ["attack", "--attacker", "A", "--attacker", "B", "--dot", "DOT"],
                   ["strategy", "--attacker", "B", "--baseline", "C"]),
}
# What a mutation writes in place of a JSON leaf, and into a span of text;
# a JSON string may also hold a lone surrogate, written as an escape.
_WORDS = ["", "0", "1", "-1", "1/2", "1/0", "2/1", "1e5000", "x", "*", "l1", "l4", "s0",
          "STOP", "delta", "A", "[1-2]", "{a,b}", "(a,b)", "nominal", "taxoral",
          "identifier", "Ailment", "published", "trace", "²", "a/b"]
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(),
                    st.sampled_from(_WORDS), st.just([]), st.just({}),
                    st.text(st.characters(blacklist_categories=()), max_size=4))
_PIECES = st.lists(st.sampled_from(_WORDS + list("()[]{},-/!#: ") + ["->", "P_db"]),
                   max_size=3).map("".join)


def _leaf_paths(doc, path=()):
    """The path of every node of a JSON document, the root's last."""
    if isinstance(doc, (dict, list)):
        for key, item in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaf_paths(item, path + (key,))
    yield path


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_cli_a_mutated_scenario_ends_in_a_report_or_one_error_line(data):
    """One JSON node of a bundled scenario or schema document replaced, or
    one span of a table or transcript line: every subcommand form exits 0,
    1 or 2 without raising, with an empty stderr or one `error:` line."""
    scenario = data.draw(st.sampled_from(sorted(_FORMS)))
    files = {p.name: p.read_text() for p in (SCENARIOS / scenario).iterdir()}
    name = data.draw(st.sampled_from(sorted(files)))
    if name.endswith(".json"):
        doc = json.loads(files[name])
        *keys, last = data.draw(st.sampled_from(list(_leaf_paths(doc))[:-1]))
        item = doc
        for key in keys:
            item = item[key]
        item[last] = data.draw(_LEAVES)
        files[name] = json.dumps(doc)
    else:
        lines = files[name].split("\n")
        k = data.draw(st.integers(0, len(lines) - 1))
        i = data.draw(st.integers(0, len(lines[k])))
        j = data.draw(st.integers(i, len(lines[k])))
        lines[k] = lines[k][:i] + data.draw(_PIECES) + lines[k][j:]
        files[name] = "\n".join(lines)
    form = data.draw(st.sampled_from(_FORMS[scenario]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for file, text in files.items():
            Path(tmp, file).write_text(text)
        argv = [str(Path(tmp, "out.dot")) if a == "DOT" else a for a in form]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([*argv, "--scenario", str(Path(tmp, "scenario.json"))])
    assert code in (0, 1, 2)
    error = err.getvalue()
    assert error == "" or (error.startswith("error: ") and error.count("\n") == 1
                           and error.endswith("\n")), error
