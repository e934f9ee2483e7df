"""Bounded three-valued checking of coalition formulas.

Atoms, negation, conjunction and the one-step coalition modality are
decided outright.  The two unbounded modalities are approximated in
their sound direction only:

* ``<<A>> G f`` is refutation-only.  False means that every uniform
  strategy table admits, within the bound, a reachable state where ``f``
  fails; since any full strategy restricts to such a table, no strategy
  enforces ``f`` globally.  True is never produced.
* ``<<A>> f U g`` is witness-only.  True comes with a finite table that
  forces ``g`` within the bound on every outcome, ``f`` holding strictly
  before; False is never produced.

Verdicts carry evidence: True a witness, False a counterexample, and
Unknown neither.  The evidence shape depends on the operator and is
documented on :func:`check`.  Strategy tables are searched in
lexicographic order (history length, observation blocks, action name),
one observation class at a time, so verdicts and evidence are
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .cgs import Cgs, CgsError, UnknownAgent
from .formulas import And, Atom, Formula, Globally, Next, Not, Until, atoms, coalitions
from .strategies import table_rows


class BoundTooSmall(ValueError):
    pass


class UnknownProposition(CgsError):
    pass


class Truth(Enum):
    TRUE = "True"
    FALSE = "False"
    UNKNOWN = "Unknown"


@dataclass
class Verdict:
    value: Truth
    bound_used: int
    witness: object = None
    counterexample: object = None

    def to_json(self) -> dict:
        return {
            "verdict": self.value.value,
            "bound": self.bound_used,
            "witness": self.witness,
            "counterexample": self.counterexample,
        }


def _flip(v: Verdict) -> Verdict:
    if v.value is Truth.TRUE:
        return Verdict(Truth.FALSE, v.bound_used, counterexample=v.witness)
    if v.value is Truth.FALSE:
        return Verdict(Truth.TRUE, v.bound_used, witness=v.counterexample)
    return Verdict(Truth.UNKNOWN, v.bound_used)


class _Search:
    """Depth-first search for a uniform strategy table.

    A candidate table is grown depth by depth.  At each depth the
    frontier histories are grouped, per team member, into observation
    classes (slots), and the slots are assigned one available action
    each, one slot at a time, so tables are still tried in lexicographic
    order.  Each frontier history is classified as soon as the last of
    its member slots is fixed, and a partial assignment is cut, with
    every table extending it, at its first failing history (forward
    checking).  When a slot has no action left, the search backs up to
    the latest slot that its failing histories read, since no change to
    a later slot could save them (conflict-directed backjumping); only
    assignments that extend to no table at this depth are skipped, so
    the tables, their order and the first cut stay those of plain
    backtracking.  Classifications per (state, member actions) are
    cached for the whole search; subformula verdicts per state are
    memoised by the caller.

    ``classify`` maps a successor set to ``(bad, cont)``: a successor
    that fails the objective (or None), and the successors whose
    histories stay on the frontier.
    """

    def __init__(self, g: Cgs, members: list[int], classify=None):
        self.g = g
        self.members = members
        self.free = [i for i in range(1, g.agents + 1) if i not in members]
        # member actions then free actions, put back in agent order
        order = members + self.free
        self._joint = _picker(tuple(order.index(i) for i in range(1, g.agents + 1)))
        self._classify = classify
        # per state, per member actions
        self._classified: dict[str, dict[tuple[str, ...], tuple]] = {}
        # the failing path of the lexicographically first refuted table:
        # it ends in a failing state, or where a member has no action
        self.first_failure: list[str] | None = None

    def successors(self, state: str, member_acts: tuple[str, ...]) -> tuple[str, ...]:
        free_opts = [self.g.available_sorted(i, state) for i in self.free]
        delta, joint = self.g.delta, self._joint
        seen: list[str] = []
        for free_acts in itertools.product(*free_opts):
            t = delta.get((state, joint(member_acts + free_acts)))
            if t is not None and t not in seen:
                seen.append(t)
        return tuple(seen)

    def classified(self, state: str, member_acts: tuple[str, ...]) -> tuple:
        per_state = self._classified.setdefault(state, {})
        got = per_state.get(member_acts)
        if got is None:
            got = per_state[member_acts] = self._classify(self.successors(state, member_acts))
        return got

    def run(self, root: str, depth: int, horizon_ok: bool) -> dict | None:
        """A table under which no history fails within ``depth`` steps.

        Returns the table as a map from (member, observation key) to an
        action, or None when every table fails.  A history still on the
        frontier at the horizon counts as a success when ``horizon_ok``.

        Depths are searched depth first with an explicit stack, one
        generator of one-depth assignments per depth on the current path,
        so the bound does not add to the recursion depth.
        """
        levels = []
        parts: list[tuple[list, tuple[str, ...]]] = []
        frontier = (((root,), ((),) * len(self.members)),)
        while True:
            if not frontier or len(levels) == depth:
                if not frontier or horizon_ok:
                    table: dict = {}
                    for slots, acts in parts:
                        table.update(zip(slots, acts))
                    return table
            else:
                levels.append(self._assignments(frontier))
            # the next assignment of the deepest depth that has one left
            while levels:
                got = next(levels[-1], None)
                if got is not None:
                    break
                levels.pop()
            else:
                return None
            frontier, part = got
            del parts[len(levels) - 1 :]
            parts.append(part)

    def _assignments(self, frontier):
        """Yield ``(next frontier, (slots, actions))`` for each assignment of
        this depth's slots under which no frontier history fails, in order.

        A frontier entry is a history and the members' observation keys of
        the history without its last state, so each key grows by one block
        per depth instead of being rebuilt from the whole history.
        """
        block_of = self.g.block_of
        rep: dict[tuple[int, tuple[int, ...]], str] = {}
        lasts = []
        hist_keys = []
        for h, prefix in frontier:
            last = h[-1]
            keys = tuple(k + (block_of(m, last),) for m, k in zip(self.members, prefix))
            for m, k in zip(self.members, keys):
                rep.setdefault((m, k), last)
            lasts.append(last)
            hist_keys.append(keys)
        slots = sorted(rep, key=lambda mk: (mk[0], len(mk[1]), mk[1]))
        options = [self.g.available_sorted(m, rep[(m, k)]) for m, k in slots]
        if not all(options):
            # a class with no available action admits no table at all; if
            # nothing failed before, its first history is the failing path
            if self.first_failure is None:
                empty = {slot for slot, opts in zip(slots, options) if not opts}
                self.first_failure = next(
                    list(h)
                    for (h, _), keys in zip(frontier, hist_keys)
                    if not empty.isdisjoint(zip(self.members, keys))
                )
            return
        pos = {slot: i for i, slot in enumerate(slots)}
        rows = [tuple(pos[mk] for mk in zip(self.members, keys)) for keys in hist_keys]
        picks = [_picker(ix) for ix in rows]
        cached = [self._classified.setdefault(last, {}) for last in lasts]
        # the histories that become checkable when slot i is fixed, and
        # the earlier slots each of them reads, as a bit set
        due: list[list[int]] = [[] for _ in slots]
        reads = []
        for j, ix in enumerate(rows):
            due[max(ix)].append(j)
            reads.append(sum(1 << k for k in ix) & ~(1 << max(ix)))
        n = len(slots)
        choice = [0] * n
        # per slot, the earlier slots its failed options read
        conflict = [0] * n
        acts: list[str] = [""] * n
        conts: list[tuple[str, ...]] = [()] * len(frontier)
        i = 0
        while i >= 0:
            if i == n:
                nxt = tuple(
                    (h + (t,), keys)
                    for (h, _), keys, cont in zip(frontier, hist_keys, conts)
                    for t in cont
                )
                yield nxt, (slots, tuple(acts))
                # every slot's action led to a table: back up one at a time
                conflict = [(1 << k) - 1 for k in range(n)]
                i -= 1
            else:
                acts[i] = options[i][choice[i]]
                for j in due[i]:
                    member_acts = picks[j](acts)
                    got = cached[j].get(member_acts)
                    if got is None:
                        got = cached[j][member_acts] = self._classify(
                            self.successors(lasts[j], member_acts)
                        )
                    bad, conts[j] = got
                    if bad is not None:
                        if self.first_failure is None:
                            self._record_failure(frontier, rows, options, acts[: i + 1])
                        conflict[i] |= reads[j]
                        break
                else:
                    i += 1
                    if i < n:
                        choice[i] = 0
                        conflict[i] = 0
                    continue
            # next option; a slot with none left backs up to the latest
            # slot in its conflict set, or ends the depth if that is empty
            while i >= 0:
                choice[i] += 1
                if choice[i] < len(options[i]):
                    break
                back = conflict[i].bit_length() - 1
                if back >= 0:
                    conflict[back] |= conflict[i] & ~(1 << back)
                i = back

    def _record_failure(self, frontier, rows, options, prefix) -> None:
        # The first cut refutes the table that completes its prefix with
        # each remaining slot's first option.  Report that table's
        # failure as a full scan would: first failing history in
        # frontier order, first failing successor.
        acts = prefix + [opts[0] for opts in options[len(prefix) :]]
        for (h, _), ix in zip(frontier, rows):
            bad = self.classified(h[-1], tuple(acts[k] for k in ix))[0]
            if bad is not None:
                self.first_failure = list(h) + [bad]
                return


def _picker(ix: tuple[int, ...]):
    """A function from a sequence to the tuple of its items at ``ix``."""
    if len(ix) == 1:
        k = ix[0]
        return lambda acts: (acts[k],)
    return itemgetter(*ix)


def check(g: Cgs, s: str, f: Formula, bound: int) -> Verdict:
    """Three-valued bounded evaluation of ``f`` at state ``s``.

    Evidence shapes: atoms carry the state as a one-element path; the
    one-step modality carries the chosen member actions (True) or one
    failing successor per assignment (False); the globally modality
    carries a falsifying state path, which on a structure that fails
    validation can instead end where a coalition member has no available
    action; the until modality carries a strategy table dump.  Negation
    swaps the roles, conjunction propagates the deciding side.

    Nested coalition modalities are evaluated by fresh state-based
    sub-checks at the same bound; their Unknowns propagate.
    """
    if bound < 1:
        raise BoundTooSmall(f"bound {bound} is below the minimal horizon 1")
    g.check_state(s)
    for p in sorted(atoms(f)):
        if p not in g.props:
            raise UnknownProposition(f"formula uses undeclared proposition {p!r}")
    for coalition in coalitions(f):
        for i in coalition:
            if not 1 <= i <= g.agents:
                raise UnknownAgent(f"formula uses undeclared agent {i}")
    memo: dict[tuple[str, Formula], Verdict] = {}
    return _eval(g, s, f, bound, memo)


def _eval(g: Cgs, s: str, f: Formula, bound: int, memo) -> Verdict:
    key = (s, f)
    got = memo.get(key)
    if got is None:
        got = _eval_raw(g, s, f, bound, memo)
        memo[key] = got
    return got


def _eval_raw(g: Cgs, s: str, f: Formula, bound: int, memo) -> Verdict:
    if isinstance(f, Atom):
        if f.name in g.label[s]:
            return Verdict(Truth.TRUE, bound, witness=[s])
        return Verdict(Truth.FALSE, bound, counterexample=[s])
    if isinstance(f, Not):
        return _flip(_eval(g, s, f.operand, bound, memo))
    if isinstance(f, And):
        left = _eval(g, s, f.left, bound, memo)
        if left.value is Truth.FALSE:
            return Verdict(Truth.FALSE, bound, counterexample=left.counterexample)
        right = _eval(g, s, f.right, bound, memo)
        if right.value is Truth.FALSE:
            return Verdict(Truth.FALSE, bound, counterexample=right.counterexample)
        if left.value is Truth.TRUE and right.value is Truth.TRUE:
            return Verdict(
                Truth.TRUE, bound, witness={"left": left.witness, "right": right.witness}
            )
        return Verdict(Truth.UNKNOWN, bound)
    if isinstance(f, Next):
        return _check_next(g, s, f, bound, memo)
    if isinstance(f, Globally):
        return _check_box(g, s, f, bound, memo)
    if isinstance(f, Until):
        return _check_until(g, s, f, bound, memo)
    raise TypeError(f"not a formula: {f!r}")


def _check_next(g: Cgs, s: str, f: Next, bound: int, memo) -> Verdict:
    members = sorted(f.agents)
    search = _Search(g, members)
    options = [g.available_sorted(m, s) for m in members]
    failures = []
    saw_undecided = False
    for combo in itertools.product(*options):
        succs = search.successors(s, combo)
        verdicts = [_eval(g, t, f.operand, bound, memo) for t in succs]
        if all(v.value is Truth.TRUE for v in verdicts):
            return Verdict(
                Truth.TRUE,
                bound,
                witness={"actions": {m: a for m, a in zip(members, combo)}},
            )
        bad = next(
            (t for t, v in zip(succs, verdicts) if v.value is Truth.FALSE), None
        )
        if bad is None:
            saw_undecided = True
        else:
            failures.append(
                {"actions": {m: a for m, a in zip(members, combo)}, "path": [s, bad]}
            )
    if saw_undecided:
        return Verdict(Truth.UNKNOWN, bound)
    return Verdict(Truth.FALSE, bound, counterexample={"per_assignment": failures})


def _check_box(g: Cgs, s: str, f: Globally, bound: int, memo) -> Verdict:
    root = _eval(g, s, f.operand, bound, memo)
    if root.value is Truth.FALSE:
        return Verdict(Truth.FALSE, bound, counterexample=[s])

    def classify(succs):
        for t in succs:
            if _eval(g, t, f.operand, bound, memo).value is Truth.FALSE:
                return t, ()
        return None, succs

    search = _Search(g, sorted(f.agents), classify)
    if search.run(s, bound, horizon_ok=True) is not None:
        return Verdict(Truth.UNKNOWN, bound)
    return Verdict(Truth.FALSE, bound, counterexample=search.first_failure)


def _check_until(g: Cgs, s: str, f: Until, bound: int, memo) -> Verdict:
    goal = _eval(g, s, f.right, bound, memo)
    if goal.value is Truth.TRUE:
        return Verdict(Truth.TRUE, bound, witness={"satisfied_at": [s], "table": []})
    keep = _eval(g, s, f.left, bound, memo)
    if keep.value is not Truth.TRUE:
        return Verdict(Truth.UNKNOWN, bound)

    def classify(succs):
        cont = []
        for t in succs:
            if _eval(g, t, f.right, bound, memo).value is Truth.TRUE:
                continue
            if _eval(g, t, f.left, bound, memo).value is not Truth.TRUE:
                return t, ()
            cont.append(t)
        return None, tuple(cont)

    table = _Search(g, sorted(f.agents), classify).run(s, bound, horizon_ok=False)
    if table is None:
        return Verdict(Truth.UNKNOWN, bound)
    return Verdict(Truth.TRUE, bound, witness={"table": table_rows(table)})
