"""Fuzz the exit-code contract of ``atlir check`` and the machine commands.

Whatever the structure document, the formula text or the job file, a
call returns an exit code in 0..5 without an uncaught exception, and it
returns 1 exactly when it prints a ``False`` verdict.  Whatever the
machine document, ``reduce``, ``simulate --decode`` and ``verify-claims``
return an exit code in 0..5 without an uncaught exception, and
``verify-claims`` returns 1 exactly when its report has a failing entry.
Whatever the command line, ``main`` shows the same bytes and codes as a
parser built for that call alone.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from machines import M5, M_HALT
from oracles import random_cgs, reference_main, run_cli

from atlir.cgs import cgs_to_json, save_cgs
from atlir.cli import main
from atlir.reduction import build_cgs
from atlir.turing import save_tm

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
formula_texts = st.text(alphabet="<>,!&()XGU pq012", max_size=16) | st.text(max_size=6)

WELL_FORMED = (
    "p",
    "!p",
    "p & !p",
    "<<1>> X p",
    "<<1,2>> G p",
    "<<2>> p U !p",
    "<<1>> G <<2>> X p",
    "!<<1,2>> X (p & <<1>> G p)",
    "<<3>> G p",
    "<<0>> X p",
    "q",
)

# stands for the structure file's path in a generated job document
GAME = "<game>"


def _corrupt(doc, rng, draw):
    """Replace or delete a value anywhere inside the document, now and then."""
    while doc and rng.random() < 0.2:
        parent, key = doc, rng.choice(sorted(doc))
        while isinstance(parent[key], (dict, list)) and parent[key] and rng.random() < 0.6:
            parent = parent[key]
            key = rng.choice(sorted(parent) if isinstance(parent, dict) else range(len(parent)))
        if rng.random() < 0.5:
            parent[key] = draw(json_values)
        else:
            del parent[key]


@st.composite
def calls(draw):
    """A structure document, a job document or None, and the state,
    formula, bound and ``--allow-invalid`` of one call.

    A seeded generator makes the choices, so most calls get as far as a
    verdict; Hypothesis supplies the arbitrary values and texts.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if rng.random() < 0.1:
        doc = draw(json_values)
    else:
        doc = cgs_to_json(random_cgs(rng, max_states=3, max_actions=2))
        _corrupt(doc, rng, draw)
    state = rng.choice(["s0", "s1"]) if rng.random() < 0.92 else draw(st.text(max_size=3))
    formula = rng.choice(WELL_FORMED) if rng.random() < 0.85 else draw(formula_texts)
    bound = rng.randint(1, 3) if rng.random() < 0.9 else draw(st.integers(-2, 0))
    job = None
    if rng.random() < 0.5:
        job = {"cgs": GAME, "state": state, "formula": formula, "bound": bound}
        for name in sorted(job):
            roll = rng.random()
            if roll < 0.05:
                job[name] = draw(json_values)
            elif roll < 0.08:
                del job[name]
        if rng.random() < 0.05:
            job = draw(json_values)
    return doc, job, state, formula, bound, rng.random() < 0.3


@settings(max_examples=300, deadline=None)
@given(calls())
def test_check_keeps_the_exit_code_contract(call):
    doc, job, state, formula, bound, allow_invalid = call
    with tempfile.TemporaryDirectory() as tmp:
        game = Path(tmp, "game.json")
        game.write_text(json.dumps(doc))
        if job is None:
            argv = ["check", str(game), f"--state={state}", f"--formula={formula}",
                    f"--bound={bound}"]
        else:
            if isinstance(job, dict) and job.get("cgs") == GAME:
                job["cgs"] = str(game)
            path = Path(tmp, "job.json")
            path.write_text(json.dumps(job))
            argv = ["check", "--job", str(path)]
        if allow_invalid:
            argv.append("--allow-invalid")
        (kind, code), out, err = run_cli(main, argv)
    assert kind == "return" and code in range(6)
    payload = json.loads(out) if out else None
    assert (code == 1) == (payload is not None and payload["verdict"] == "False")
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")


# names a machine document may use: its own, those whose cell states
# would clash with the construction's states, and invalid identifiers
ODD_NAMES = ("gen", "init", "tr", "err", "lb", "q0", "B", "a-b", "", "q,B")


@st.composite
def machine_calls(draw):
    """A machine document and one machine command line for it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if rng.random() < 0.1:
        doc = draw(json_values)
    else:
        states = rng.sample(["q0", "q1", "q2"], rng.randint(1, 3))
        alphabet = ["B"] + rng.sample(["a", "b"], rng.randint(0, 2))
        names = states + alphabet
        if rng.random() < 0.15:
            names[rng.randrange(len(names))] = rng.choice(ODD_NAMES)
        states, alphabet = names[: len(states)], names[len(states) :]
        delta = [
            [q, a, rng.choice(states), rng.choice(alphabet), rng.choice("LRR")]
            for q in states
            for a in alphabet
            if rng.random() < 0.7
        ]
        doc = {"states": states, "alphabet": alphabet, "q0": states[0], "blank": alphabet[0],
               "delta": delta}
        _corrupt(doc, rng, draw)
    command = rng.choice(["reduce", "simulate", "verify-claims"])
    options = []
    if command == "simulate":
        options = ["--decode", "-d", str(rng.randint(3, 6))]
        options += rng.choice([[], ["--format", "dot"]])
    elif command == "verify-claims":
        options = ["-d", str(rng.randint(3, 6))] + rng.choice([[], ["--format", "json"]])
    return doc, command, options


@settings(max_examples=300, deadline=None)
@given(machine_calls())
def test_machine_commands_keep_the_exit_code_contract(call):
    doc, command, options = call
    with tempfile.TemporaryDirectory() as tmp:
        machine = Path(tmp, "machine.json")
        machine.write_text(json.dumps(doc))
        (kind, code), out, err = run_cli(main, [command, str(machine)] + options)
    assert kind == "return" and code in range(6)
    if code in (2, 3):
        assert out == ""
        assert err.startswith("error: ")
    if command != "verify-claims":
        assert code != 1
    elif code in (0, 1):
        if "json" in options:
            failing = any(not e["pass"] for e in json.loads(out))
        else:
            rows = out.splitlines()[1:-1]
            failing = any(row.split()[3] == "FAIL" for row in rows)
        assert (code == 1) == failing


COMMANDS = ("reduce", "simulate", "check", "verify-claims")
OPTIONS = ("-d", "--depth", "--format", "--decode", "-b", "--bound", "--state", "--formula",
           "--job", "--allow-invalid", "-h", "--help", "--")
VALUES = ("<machine>", "<game>", "<job>", "<missing>", "0", "3", "5", "-1", "x", "json", "dot",
          "table", "s_init", "ok", "<<1,2>> G ok", "")


@st.composite
def argvs(draw):
    """A command line of subcommand names, option names and values.  The
    placeholders in ``VALUES`` stand for files; ``-o`` is left out, so no
    call writes a file."""
    first = draw(st.sampled_from(COMMANDS) | st.sampled_from(OPTIONS + VALUES))
    rest = draw(st.lists(st.sampled_from(COMMANDS + OPTIONS + VALUES), max_size=7))
    return [first] + rest


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    files = {"<machine>": tmp / "m.json", "<game>": tmp / "g.json", "<job>": tmp / "job.json",
             "<missing>": tmp / "missing.json"}
    save_tm(M5, files["<machine>"])
    save_cgs(build_cgs(M_HALT).cgs, files["<game>"])
    files["<job>"].write_text(json.dumps(
        {"cgs": str(files["<game>"]), "state": "s_init", "formula": "<<1,2>> G ok", "bound": 4}
    ))
    return {name: str(path) for name, path in files.items()}


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_any_command_line_matches_a_fresh_parser(cli_files, argv):
    argv = [cli_files.get(token, token) for token in argv]
    got = run_cli(main, argv)
    assert got == run_cli(reference_main, argv)
    assert got[0] in {("exit", 0), ("exit", 2)} | {("return", c) for c in range(6)}
