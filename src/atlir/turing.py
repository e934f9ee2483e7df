"""Deterministic single-tape Turing machines, run on the empty word.

A configuration is the tape word with the control state written
immediately to the left of the scanned cell: ``a q1 B`` means the tape
reads ``a B``, the machine is in state ``q1``, and the head scans cell 2.
Words are kept minimal: blanks strictly to the right of both the scanned
cell and the last non-blank cell are dropped, so equal configurations
have equal words.

The machine halts when no rule applies to the scanned pair, or when a
left move is attempted on the leftmost cell.  The two reasons are kept
apart for diagnostics.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Mapping

LEFT = "L"
RIGHT = "R"

NO_RULE = "no-rule"
LEFT_EDGE = "left-edge"

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")


class MalformedMachine(ValueError):
    pass


class MachineDocumentError(MalformedMachine):
    """A machine file that is not JSON, or a document of the wrong shape."""


class MalformedConfiguration(ValueError):
    pass


@dataclass(frozen=True)
class TuringMachine:
    states: frozenset[str]
    alphabet: frozenset[str]
    q0: str
    blank: str
    delta: Mapping[tuple[str, str], tuple[str, str, str]]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(
            self,
            "delta",
            {(q, a): tuple(rule) for (q, a), rule in dict(self.delta).items()},
        )
        if self.q0 not in self.states:
            raise MalformedMachine(f"initial state {self.q0!r} not declared")
        if self.blank not in self.alphabet:
            raise MalformedMachine(f"blank symbol {self.blank!r} not declared")
        if self.states & self.alphabet:
            raise MalformedMachine("state and tape symbol names must be disjoint")
        for name in sorted(self.states | self.alphabet):
            if not _NAME_RE.fullmatch(name):
                raise MalformedMachine(f"identifier {name!r} must match [A-Za-z0-9_]+")
        for (q, a), rule in self.delta.items():
            if q not in self.states or a not in self.alphabet:
                raise MalformedMachine(f"rule for undeclared pair ({q!r}, {a!r})")
            if len(rule) != 3:
                raise MalformedMachine(f"rule for ({q!r}, {a!r}) is not a triple")
            q2, a2, move = rule
            if q2 not in self.states or a2 not in self.alphabet:
                raise MalformedMachine(f"rule ({q!r}, {a!r}) -> {rule!r} uses undeclared names")
            if move not in (LEFT, RIGHT):
                raise MalformedMachine(f"rule ({q!r}, {a!r}) has move {move!r}, expected L or R")


@dataclass(frozen=True)
class Configuration:
    """A machine configuration as a mixed state/tape word."""

    word: tuple[str, ...]

    def __str__(self):
        return "".join(self.word)


@dataclass(frozen=True)
class Halted:
    """Result of a single step that cannot be taken."""

    reason: str


@dataclass(frozen=True)
class HaltedAt:
    """Result of a bounded run that halted at step ``step``."""

    step: int
    reason: str


def lint_initial_state_reentry(m: TuringMachine) -> list[str]:
    """Report rules that re-enter the initial state.

    Machines are normally written so the initial state is never entered
    again after step 0.  Violations are reported, not rejected.
    """
    warnings = []
    for (q, a), (q2, _, _) in sorted(m.delta.items()):
        if q2 == m.q0:
            warnings.append(f"rule for ({q}, {a}) re-enters the initial state {m.q0}")
    return warnings


def initial_configuration(m: TuringMachine) -> Configuration:
    return Configuration((m.q0, m.blank))


def split_configuration(m: TuringMachine, c: Configuration):
    """Decompose a word into (cells left of the head, state, head cell onward)."""
    idx = [k for k, x in enumerate(c.word) if x in m.states]
    if len(idx) != 1:
        raise MalformedConfiguration(
            f"configuration {''.join(c.word)!r} must contain exactly one state symbol"
        )
    k = idx[0]
    left, right = c.word[:k], c.word[k + 1 :]
    if not right:
        raise MalformedConfiguration(
            f"configuration {''.join(c.word)!r} has no cell under the head"
        )
    bad = [x for x in left + right if x not in m.alphabet]
    if bad:
        raise MalformedConfiguration(f"undeclared tape symbols {bad!r}")
    return left, c.word[k], right


def head_cell(m: TuringMachine, c: Configuration) -> int:
    """1-based index of the scanned cell."""
    left, _, _ = split_configuration(m, c)
    return len(left) + 1


def tape(m: TuringMachine, c: Configuration) -> tuple[str, ...]:
    left, _, right = split_configuration(m, c)
    return left + right


def parse_configuration(m: TuringMachine, word) -> Configuration:
    c = Configuration(tuple(word))
    split_configuration(m, c)  # validates
    return c


def minimal_word(m: TuringMachine, word: tuple[str, ...]) -> tuple[str, ...]:
    """``word`` without the blanks right of both its head's cell and its
    last non-blank cell; the word must hold a state symbol."""
    head = next(k for k, x in enumerate(word) if x in m.states)
    end = len(word)
    while end > head + 2 and word[end - 1] == m.blank:
        end -= 1
    return word[:end]


def step(m: TuringMachine, c: Configuration):
    """One transition on configurations; ``Halted`` when none applies."""
    left, q, right = split_configuration(m, c)
    scanned = right[0]
    rule = m.delta.get((q, scanned))
    if rule is None:
        return Halted(NO_RULE)
    q2, written, move = rule
    if move == LEFT:
        if not left:
            return Halted(LEFT_EDGE)
        word = left[:-1] + (q2, left[-1], written) + right[1:]
    else:
        rest = right[1:] if len(right) > 1 else (m.blank,)
        word = left + (written, q2) + rest
    return Configuration(minimal_word(m, word))


def run(m: TuringMachine, n: int):
    """n-fold step from the initial configuration.

    Returns the configuration after ``n`` steps, or ``HaltedAt(j)`` where
    ``j <= n`` is the index of the first step that could not be taken.
    """
    if n < 0:
        raise ValueError("step count must be non-negative")
    c = initial_configuration(m)
    for j in range(1, n + 1):
        nxt = step(m, c)
        if isinstance(nxt, Halted):
            return HaltedAt(j, nxt.reason)
        c = nxt
    return c


def trajectory(m: TuringMachine, upto: int) -> list[Configuration]:
    """Configurations after 0..upto steps, truncated if the machine halts."""
    out = [initial_configuration(m)]
    for _ in range(upto):
        nxt = step(m, out[-1])
        if isinstance(nxt, Halted):
            break
        out.append(nxt)
    return out


def halts_within(m: TuringMachine, n: int) -> bool:
    """Whether the machine halts on the empty word within ``n`` steps."""
    return isinstance(run(m, n), HaltedAt)


# -- file format -------------------------------------------------------------


def tm_to_json(m: TuringMachine) -> dict:
    return {
        "states": sorted(m.states),
        "alphabet": sorted(m.alphabet),
        "q0": m.q0,
        "blank": m.blank,
        "delta": [
            [q, a, q2, a2, move] for (q, a), (q2, a2, move) in sorted(m.delta.items())
        ],
    }


def _malformed(what: str) -> MachineDocumentError:
    return MachineDocumentError(f"malformed machine document: {what}")


def _strings(value, field: str, *at) -> list[str]:
    """``value`` if it is a list of strings; ``field`` is a format string
    for ``at``, filled in only on error."""
    if not isinstance(value, (list, tuple)):
        raise _malformed(f"{field.format(*at)} must be a list, not {type(value).__name__}")
    for x in value:
        if not isinstance(x, str):
            raise _malformed(f"{field.format(*at)} holds {x!r}, which is not a string")
    return value


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise _malformed(f"{field} must be a string, not {type(value).__name__}")
    return value


def tm_from_json(doc: Mapping) -> TuringMachine:
    """Build a machine from its JSON document, in one pass over it.

    Raises :class:`MachineDocumentError` naming the field when the
    document is not an object, a key is missing or a value has the wrong
    type, and plain :class:`MalformedMachine` when the fields are well
    typed but do not make a machine.
    """
    if not isinstance(doc, Mapping):
        raise _malformed(f"the document must be an object, not {type(doc).__name__}")
    try:
        states = _strings(doc["states"], "states")
        alphabet = _strings(doc["alphabet"], "alphabet")
        q0 = _string(doc["q0"], "q0")
        blank = _string(doc["blank"], "blank")
        rows = doc["delta"]
    except KeyError as exc:
        raise _malformed(f"missing field {exc}") from None
    if not isinstance(rows, (list, tuple)):
        raise _malformed(f"delta must be a list, not {type(rows).__name__}")
    delta = {}
    for row in rows:
        _strings(row, "delta row {!r}", row)
        if len(row) != 5:
            raise MalformedMachine(f"rule row {row!r} must have 5 fields")
        q, a, q2, a2, move = row
        if (q, a) in delta:
            raise MalformedMachine(f"duplicate rule for ({q!r}, {a!r})")
        delta[(q, a)] = (q2, a2, move)
    return TuringMachine(frozenset(states), frozenset(alphabet), q0, blank, delta)


def save_tm(m: TuringMachine, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tm_to_json(m), fh, indent=2)
        fh.write("\n")


def load_tm(path) -> TuringMachine:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # undecodable bytes and over-deep nesting are not valid JSON either
            raise MachineDocumentError(f"not valid JSON: {exc}") from exc
    return tm_from_json(doc)
