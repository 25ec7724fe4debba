"""The rules of one transition have one home, `lts.transition_problems`.
The builder and `validate` read them there; both are checked here against
the inline checks they replaced (`tests/reference.py`) on seeded random
transitions: zero, negative, huge and 5,000-digit probabilities, empty
branch lists, repeated targets, transitions out of Stop and `delta` of
every shape.  Each must accept or refuse exactly what its reference does
and name the same broken rules in the same order; only the wording may
differ.  The references print every number, so they run with no limit on
the digits of a printed integer; the checks name a sum past the default
limit without printing it."""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction as F

import pytest

import reference
from privtrace.dltts import DlttsBuilder, OracleVerdict, validate
from privtrace.lts import DELTA, Branch, Dltts, Label, Transition
from privtrace.records import InputError

STATES = ("s0", "s1", "s2", "s3", "s4", "s5", "STOP")
ACTIONS = ("query", "query:Age", DELTA)
HUGE = F(10**40 + 1, 10**40)
LONG = F(10**4999 + 7, 10**5000)  # 5,000-digit numerator and denominator

# Each rule and the pattern of both its old and its new wording.
RULES = (
    ("stop", r"^Stop has"),
    ("reserved", r"is reserved for the oracle"),
    ("unknown", r"^unknown source state"),
    ("closed", r"is closed by a violation$"),
    ("exists", r"already exists$"),
    ("branches", r"has no branches$|needs at least one branch$"),
    ("positive", r"non-positive probability$|is not positive$"),
    ("sum", r" sum to "),
    ("distinct", r"^duplicate branch target"),
    ("share", r"share one distribution$"),
    ("delta", r"must go to Stop alone$"),
    ("delta-1", r"must have probability 1$"),
)


def _rule(message: str) -> str:
    (rule,) = [name for name, pattern in RULES if re.search(pattern, message)]
    return rule


def _total(message: str) -> str:
    return re.search(r" sum to (.+?)(?:, not 1)?$", message).group(1)


def _printed(total: str) -> str:
    """How the checks print a sum the reference printed as `total`."""
    limit = sys.get_int_max_str_digits()
    if any(len(part.lstrip("-")) > limit for part in total.split("/")):
        return "a number too long to print"
    return total


def _probs(rng: random.Random, n: int) -> list[F]:
    """`n` probabilities, most summing to exactly 1, some broken."""
    cuts = sorted(F(rng.randint(0, 10**6), 10**6) for _ in range(n - 1))
    probs = [b - a for a, b in zip([F(0)] + cuts, cuts + [F(1)])]
    if n and rng.random() < 0.3:
        probs[0] = LONG
        probs[-1] += 1 - sum(probs)
    for k in range(n):
        if rng.random() < 0.15:
            probs[k] = rng.choice((F(0), F(-1, 2), F(3, 2), HUGE, LONG, -LONG, F(1)))
    return probs[:n]


def _transition(rng: random.Random) -> Transition:
    n = rng.choice((0, 1, 1, 2, 2, 3, 4))
    targets = [rng.choice(STATES) for _ in range(n)]
    return Transition(rng.choice(STATES), rng.choice(ACTIONS), tuple(
        Branch(to, p, Label(f"b{k}")) for k, (to, p) in enumerate(zip(targets, _probs(rng, n)))
    ))


def _outcome(fn, *args, **kwargs):
    """`fn`'s result, or the ValueError (InputError included) it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return exc


def _unlimited(fn, *args, **kwargs):
    """`fn`'s result with no limit on the digits of a printed integer."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(limit)


def _per_transition(check, d: Dltts):
    """`check(d)` cut into each transition's lines: both validators list
    the lines of one transition after those of the transitions before it."""
    found = []
    for k in range(len(d.transitions)):
        before = check(d.replace(transitions=d.transitions[:k]))
        after = check(d.replace(transitions=d.transitions[:k + 1]))
        found.append(after[len(before):])
    return found


def test_validate_lists_the_rules_the_inline_checks_listed():
    """Each transition gets the same lines, but for the one sum wording, the
    dropped "delta must have probability 1", which a sum line of the same
    transition always accompanies, and one order: a shared distribution is
    listed after the transition's own lines, where the inline checks listed
    it before a `delta` line."""
    rng = random.Random(20261019)
    unprintable = 0
    for _ in range(4000):
        transitions: list[Transition] = []
        for _ in range(rng.randint(1, 5)):
            transitions.append(rng.choice(transitions) if transitions and rng.random() < 0.2
                               else _transition(rng))
        d = Dltts("s0", "STOP", tuple(transitions))
        want = _unlimited(_per_transition, reference.validate, d)
        got = _per_transition(validate, d)
        assert sum(got, []) == validate(d)
        for old_lines, new_lines in zip(want, got, strict=True):
            kept = [p for p in old_lines if _rule(p) not in ("delta-1", "share")]
            kept += [p for p in old_lines if _rule(p) == "share"]
            assert [_rule(p) for p in new_lines] == [_rule(p) for p in kept], d
            for old, new in zip(kept, new_lines):
                if _rule(old) == "sum":
                    assert _total(new) == _printed(_total(old))
                    unprintable += _total(new) != _total(old)
                    assert re.fullmatch(r"branch probabilities from '.*' sum to "
                                        r"(\S+|a number too long to print), not 1", new)
                else:
                    assert old == new
            if len(kept) < len(old_lines):
                assert any(_rule(p) == "sum" for p in new_lines)
    assert 0 < unprintable < 1500


def _builder() -> DlttsBuilder:
    """s0 continued into s1, s2 and s3; s3 is closed by a violation."""
    b = DlttsBuilder()
    b.add_transition("s0", "query", [("s1", F(1, 3), Label()), ("s2", F(1, 3), Label()),
                                     ("s3", F(1, 3), Label())])
    b.verdicts["s3"] = OracleVerdict.VIOLATION
    return b


def test_builder_refuses_what_the_inline_checks_refused():
    """The same transitions are accepted.  A refused one names the rule the
    inline checks named, with one difference of order: the builder checks
    that every target is new before the transition's own rules, where the
    inline checks took each branch's probability before its target."""
    rng = random.Random(1019)
    accepted = refused = 0
    for _ in range(3000):
        t = _transition(rng)
        if rng.random() < 0.5:  # from a state the builder can extend
            t = t.replace(source=rng.choice(("s1", "s2")), action="query")
        if rng.random() < 0.5:  # to states it has not made, some repeated
            t = t.replace(branches=tuple(b.replace(to=f"n{rng.randint(0, k)}")
                                         for k, b in enumerate(t.branches)))
        b = _builder()
        branches = [(br.to, br.prob, br.label) for br in t.branches]
        want = _unlimited(reference.builder_refusal,
                          t.source, t.action, branches, stop=b.stop,
                          verdicts=dict(b.verdicts), existing=list(b.saturated))
        if want is None:
            b.add_transition(t.source, t.action, branches)
            assert b.transitions[-1] == t
            accepted += 1
            continue
        got = _outcome(b.add_transition, t.source, t.action, branches)
        assert isinstance(got, InputError), (t, want)
        got = str(got)
        nonpositive = [br for br in t.branches if br.prob <= 0]
        rule = _rule(want)
        if rule == "positive" and any(br.to in b.saturated or br.to == b.stop
                                      for br in t.branches):
            rule = "exists"
        assert _rule(got) == rule, (t, want, got)
        if rule == "positive":
            assert got == (f"branch {t.source}->{nonpositive[0].to} has non-positive "
                           "probability")
        elif rule in ("reserved", "unknown", "closed") or want.endswith("already exists"):
            assert got == want  # the builder's own rules keep their wording
        elif rule == "sum":
            assert _total(got) == _printed(_total(want))
        refused += 1
    assert accepted > 100 and refused > 1000


@pytest.mark.parametrize("branches, message", [
    ((), "transition from 's1' has no branches"),
    ((("a", F(0)), ("b", F(1))), "branch s1->a has non-positive probability"),
    ((("a", F(1, 2)), ("b", F(2, 3))), "branch probabilities from 's1' sum to 7/6, not 1"),
    ((("a", F(1, 2)), ("a", F(1, 2))), "duplicate branch target from 's1'"),
])
def test_builder_names_the_source_in_each_transition_rule(branches, message):
    b = _builder()
    with pytest.raises(InputError) as caught:
        b.add_transition("s1", "query", [(to, p, Label()) for to, p in branches])
    assert str(caught.value) == message
