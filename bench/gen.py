"""Seeded input generators for the privtrace benchmark.

Each generator writes the files one CLI invocation needs into a directory
and returns a `Case`: the CLI arguments, the loader the set-up probe calls,
and the planted truth that `oracle.py` checks the report against.  This
module never imports `privtrace`, so the program only ever sees generated
files and the oracles never reuse the program's own arithmetic.

The same (workload, seed, parameters) always gives byte-identical files.
Random choices only fill roles of a fixed shape (which names, which values,
which leaves), so the work a report does is nearly the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Input sizes per workload.  Chosen so that one report takes a few tenths of
# a second on a 2-core virtual machine, which lets a 40 s run collect enough
# reports for a tail percentile with ten reports beyond it, while the named
# hot layer still takes most of each report.
PARAMS = {
    "trace-saturate": {
        "depts": 3,
        "categories": 3,
        "leaves_per_category": 3,
        "used_leaves_per_category": 2,
        "secrets": 4,
        "depth": 3,
        "fanout": 3,
        "learn_per_branch": 3,
        "violation_leaves": 3,
        "epsilon_leaves": 3,
    },
    "attack-strategy": {
        "qi_values": [2, 3, 3],
        "rows_per_combo": 2,
    },
    "dp-audit": {
        "inputs": 5,
        "outputs": 8,
        "max_weight": 40,
    },
}

WORKLOADS = tuple(PARAMS)


@dataclass
class Case:
    """One generated input: how to run it and what its report must say."""

    workload: str
    argv: list[str]
    loader: tuple[str, str]
    truth: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"privtrace-bench:{workload}:{seed}")


def _probs(rng: random.Random, n: int, top: int = 9) -> list[Fraction]:
    weights = [rng.randint(1, top) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


# --------------------------------------------------------------- trace-saturate

_DEPTS = ["Anatomy", "Biology", "Chemistry", "Physics", "Maths", "History",
          "Law", "Music"]
_CATEGORIES = ["Cardiac", "Oncology", "Viral", "Neural", "Renal", "Skin"]


def gen_trace_saturate(out: Path, seed: int, params: dict | None = None) -> Case:
    """A hospital-style scenario whose scripted run saturates every state.

    Interior branches learn only names of public (non-secret, non-target)
    registry rows, so every derived tuple carries a public name: no interior
    state can match the policy or equal a secret row.  Violations are planted
    at leaves only, by learning the policy target's name (R1 then derives the
    target row, which the policy forbids) or a secret row's name (R1 derives
    the secret row, so rho = 0 <= epsilon).
    """
    p = dict(PARAMS["trace-saturate"], **(params or {}))
    rng = _rng("trace-saturate", seed)
    depts = _DEPTS[: p["depts"]]
    cats = _CATEGORIES[: p["categories"]]
    leaves = {c: [f"{c}-{k + 1}" for k in range(p["leaves_per_category"])]
              for c in cats}
    all_leaves = [leaf for c in cats for leaf in leaves[c]]
    category_of = {leaf: c for c in cats for leaf in leaves[c]}

    schema = {
        "columns": [
            {"name": "Name", "class": "nominal", "group": "identifier"},
            {"name": "Age", "class": "numerval", "group": "quasi-identifier"},
            {"name": "Gender", "class": "nominal", "group": "quasi-identifier"},
            {"name": "Dept", "class": "nominal", "group": "quasi-identifier"},
            {"name": "Ailment", "class": "taxoral", "group": "sensitive",
             "taxonomy": "ailment"},
        ],
        "taxonomies": {"ailment": {
            "root": "Ailment",
            "children": dict({"Ailment": cats}, **leaves),
        }},
    }

    # Every registry row has its own (Dept, Gender, Ailment) combination and
    # each (Dept, Gender) pair uses the same number of leaves per category,
    # so the count base is exactly 0/1 and every rule fires the same number
    # of times whatever the seed.
    combos = []
    for d in depts:
        for g in "MF":
            for c in cats:
                used = rng.sample(leaves[c], p["used_leaves_per_category"])
                combos += [(d, g, leaf) for leaf in used]
    rng.shuffle(combos)
    registry = [
        {"line": f"l{i + 1}", "Name": f"P{i + 1:04d}", "Age": rng.randint(20, 69),
         "Gender": g, "Dept": d, "Ailment": leaf}
        for i, (d, g, leaf) in enumerate(combos)
    ]
    used_combos = set(combos)
    order = list(range(len(registry)))
    rng.shuffle(order)
    target = registry[order[0]]
    secrets = [registry[i] for i in order[1 : 1 + p["secrets"]]]
    public = [registry[i] for i in order[1 + p["secrets"] :]]
    schema["policy"] = [f"!({target['Name']},*,*,*,{target['Ailment']})"]

    counts = [[d, g, "1" if (d, g, leaf) in used_combos else "0", leaf]
              for d in depts for g in "MF" for leaf in all_leaves]

    # States numbered breadth first: s0, then s1..s{fanout}, and so on.
    levels = [["s0"]]
    next_id = 1
    steps = []
    prob_of = {"s0": Fraction(1)}
    path_of = {"s0": ("s0",)}
    # Each depth draws names from its own slice of the public rows, so the
    # names along one path never repeat and every leaf's tag has one size.
    slice_len = len(public) // p["depth"]
    for depth in range(1, p["depth"] + 1):
        public_iter = itertools.cycle(public[(depth - 1) * slice_len : depth * slice_len])
        level = []
        for parent in levels[-1]:
            branches = []
            for pr in _probs(rng, p["fanout"]):
                child = f"s{next_id}"
                next_id += 1
                level.append(child)
                prob_of[child] = prob_of[parent] * pr
                path_of[child] = path_of[parent] + (child,)
                learn = []
                for k in range(p["learn_per_branch"]):
                    row = next(public_iter)
                    if k % 3 == 0:
                        # R1 joins the name to its registry row.
                        learn.append(f"({row['Name']},*,*,*,*)")
                    elif k % 3 == 1:
                        # R2 refines the category to both used leaves; R1
                        # links the row's own leaf, R3 the other row's.
                        learn.append(f"({row['Name']},*,{row['Gender']},"
                                     f"{row['Dept']},{category_of[row['Ailment']]})")
                    else:
                        # Quasi-identifiers only: scanned, derives nothing.
                        learn.append(f"(*,{row['Age']},{row['Gender']},"
                                     f"{row['Dept']},*)")
                branches.append({"to": child, "prob": str(pr),
                                 "text": f"answer-{child}", "learn": learn})
            steps.append({"from": parent, "action": f"query:d{depth}",
                          "branches": branches})
        levels.append(level)

    leaf_states = levels[-1]
    planted = rng.sample(leaf_states, p["violation_leaves"] + p["epsilon_leaves"])
    verdicts = {}
    branch_of = {b["to"]: b for s in steps for b in s["branches"]}
    for k, state in enumerate(planted):
        learn = branch_of[state]["learn"]
        if k < p["violation_leaves"]:
            learn[0] = f"({target['Name']},*,*,*,*)"
            verdicts[state] = "violation"
        else:
            learn[0] = f"({secrets[k - p['violation_leaves']]['Name']},*,*,*,*)"
            verdicts[state] = "epsilon-violation"

    scenario = {
        "name": f"trace-saturate-{seed}",
        "schema": "schema.json",
        "tables": {
            "registry": {"file": "registry.csv"},
            "counts": {"file": "counts.csv", "columns": [
                {"name": "Dept", "class": "nominal", "group": "quasi-identifier"},
                {"name": "Gender", "class": "nominal", "group": "quasi-identifier"},
                {"name": "Count", "class": "numerical", "group": "quasi-identifier"},
                {"name": "Ailment", "class": "taxoral", "group": "sensitive",
                 "taxonomy": "ailment"},
            ]},
        },
        "externals": ["registry", "counts"],
        "runs": {"trace": {"externals": ["registry", "counts"], "steps": steps}},
        "analysis": {"runs": ["trace"]},
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "schema.json", schema)
    _write_csv(out / "registry.csv", ["Name", "Age", "Gender", "Dept", "Ailment"],
               [[r["Name"], str(r["Age"]), r["Gender"], r["Dept"], r["Ailment"]]
                for r in registry])
    _write_csv(out / "counts.csv", ["Dept", "Gender", "Count", "Ailment"], counts)
    _write_json(out / "scenario.json", scenario)

    argv = ["analyze", "--scenario", str(out / "scenario.json"), "--epsilon", "0"]
    for row in secrets:
        argv += ["--secret", f"registry:{row['line']}"]
    truth = {
        "verdicts": {s: [v, str(prob_of[s])] for s, v in verdicts.items()},
        "stop_runs": sorted(
            ([list(path_of[s]) + ["STOP"], str(prob_of[s])] for s in verdicts),
            key=lambda r: (-Fraction(r[1]), r[0]),
        ),
    }
    return Case("trace-saturate", argv, ("scenario", str(out / "scenario.json")),
                truth)


# -------------------------------------------------------------- attack-strategy

_QI = [("Sex", ["F", "M", "X"]),
       ("Age", ["[20-30]", "[30-40]", "[40-50]", "[50-60]"]),
       ("Dept", ["Sales", "Ops", "Legal", "Dev"])]


def _attack_tree(name, source, rows, order, weights):
    """Write one attack tree as transcript lines, the way a published
    diagram would draw it: one query level per attribute in `order`, a
    uniform pick among the rows left, and a response edge at every node
    whose incoming label is a single line.

    Returns (lines, singletons) where singletons lists (node, line, product
    of branch probabilities from the root)."""
    lines = [f"# {name}: attribute order {', '.join(order)}", "initial: s0"]
    singletons = []
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"s{counter[0]}"

    def label(text, line_ids):
        body = f"P_{source} {text}".strip()
        return f"{body} {{{','.join(line_ids)}}}"

    def expand(state, group, depth, prob):
        if depth == len(order):
            if len(group) <= 1:
                return
            branches = []
            for r in group:
                child = fresh()
                pr = Fraction(1, len(group))
                branches.append((child, pr, label("", [r["line"]]), [r], depth))
            emit(state, "pick", branches, prob)
            return
        col = order[depth]
        values = []
        for r in group:
            if r[col] not in values:
                values.append(r[col])
        if len(values) == 1:
            probs = [Fraction(1)]
        elif weights is None:
            probs = [Fraction(sum(1 for r in group if r[col] == v), len(group))
                     for v in values]
        else:
            total = sum(weights[col][v] for v in values)
            probs = [Fraction(weights[col][v], total) for v in values]
        branches = []
        for v, pr in zip(values, probs):
            members = [r for r in group if r[col] == v]
            child = fresh()
            branches.append((child, pr,
                             label(f"{col.lower()}={v}", [r["line"] for r in members]),
                             members, depth + 1))
        emit(state, f"query:{col}", branches, prob)

    def emit(state, action, branches, prob):
        parts = ", ".join(f"({c}, {pr}, {lab})" for c, pr, lab, _, _ in branches)
        lines.append(f"{state} -> [{parts}] {action}")
        for child, pr, _, members, depth in branches:
            reached = prob * pr
            if len(members) == 1:
                r = members[0]
                singletons.append((child, r["line"], reached))
                lines.append(f"{child} -> [({child}r, 1, P_db response({r['line']})"
                             f"={r['Response']})] response({r['line']})")
            expand(child, members, depth, reached)

    expand("s0", rows, 0, Fraction(1))
    return lines, singletons


def gen_attack_strategy(out: Path, seed: int, params: dict | None = None) -> Case:
    """An enterprise-style table, two attacker transcripts with skewed
    priors and one empirical baseline transcript, all written directly in
    the `.dltts` text format; the analysis asks for every attack section and
    a strategy per attacker against the baseline."""
    p = dict(PARAMS["attack-strategy"], **(params or {}))
    rng = _rng("attack-strategy", seed)
    qi = [(col, vals[:n]) for (col, vals), n in zip(_QI, p["qi_values"])]
    # Every combination of quasi-identifier values holds the same number of
    # rows, so all three trees have one shape whatever the seed; the seed
    # picks the row order, the responses and the attackers' priors.
    combos = list(itertools.product(*(vals for _, vals in qi))) * p["rows_per_combo"]
    rng.shuffle(combos)
    rows = []
    for i, combo in enumerate(combos):
        row = {"line": f"l{i + 1}", "Response": str(rng.randint(1, 9))}
        row.update(zip((col for col, _ in qi), combo))
        rows.append(row)
    cols = [c for c, _ in qi]

    def skewed():
        return {c: {v: rng.randint(1, 12) for v in vals} for c, vals in qi}

    systems = {
        "A": _attack_tree("attacker A", "a", rows, cols, skewed()),
        "B": _attack_tree("attacker B", "b", rows, list(reversed(cols)),
                          skewed()),
        "C": _attack_tree("empirical baseline", "db", rows,
                          cols[1:] + cols[:1], None),
    }
    schema = {
        "columns": [{"name": c, "class": "numerval" if c == "Age" else "nominal",
                     "group": "quasi-identifier"} for c in cols]
        + [{"name": "Response", "class": "numerical", "group": "sensitive"}],
        "taxonomies": {},
        "policy": [],
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "schema.json", schema)
    _write_csv(out / "responses.csv", ["Line"] + cols + ["Response"],
               [[r["line"]] + [r[c] for c in cols] + [r["Response"]] for r in rows])
    for name, (lines, _) in systems.items():
        (out / f"attack_{name.lower()}.dltts").write_text("\n".join(lines) + "\n")
    scenario = {
        "name": f"attack-strategy-{seed}",
        "schema": "schema.json",
        "tables": {"responses": {"file": "responses.csv"}},
        "attack_dltts": {n: f"attack_{n.lower()}.dltts" for n in systems},
        "baseline": "C",
        "analysis": {
            "attack": {"attackers": ["A", "B", "C"], "table": "responses"},
            "strategy": [{"attacker": "A", "baseline": "C"},
                         {"attacker": "B", "baseline": "C"}],
        },
    }
    _write_json(out / "scenario.json", scenario)
    truth = {"singletons": {
        n: [[node, line, str(pr)] for node, line, pr in singles]
        for n, (_, singles) in systems.items()
    }, "attackers": ["A", "B"], "baseline": "C"}
    return Case("attack-strategy",
                ["analyze", "--scenario", str(out / "scenario.json")],
                ("scenario", str(out / "scenario.json")), truth)


# --------------------------------------------------------------------- dp-audit

def gen_dp_audit(out: Path, seed: int, params: dict | None = None) -> Case:
    """A standalone mechanism file: every input maps to a distribution over
    all outputs with strictly positive probabilities."""
    p = dict(PARAMS["dp-audit"], **(params or {}))
    rng = _rng("dp-audit", seed)
    outputs = [f"o{k + 1}" for k in range(p["outputs"])]
    probs = {}
    for i in range(p["inputs"]):
        dist = _probs(rng, len(outputs), p["max_weight"])
        probs[f"v{i + 1}"] = {o: str(pr) for o, pr in zip(outputs, dist)}
    out.mkdir(parents=True, exist_ok=True)
    path = out / "mechanism.json"
    _write_json(path, {"name": f"mech-{seed}", "outputs": outputs, "probs": probs})
    return Case("dp-audit", ["dp-check", "--mechanism-file", str(path)],
                ("mechanism", str(path)), {"probs": probs})


GENERATORS = {
    "trace-saturate": gen_trace_saturate,
    "attack-strategy": gen_attack_strategy,
    "dp-audit": gen_dp_audit,
}


def generate(workload: str, out: Path, seed: int, params: dict | None = None) -> Case:
    return GENERATORS[workload](Path(out), seed, params)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("out", type=Path, help="directory to write the inputs to")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    case = generate(args.workload, args.out, args.seed)
    print(json.dumps({"argv": case.argv, "loader": case.loader}))
