import json

import pytest

from machines import LBOUNCE, M5, M5_EXT, M_HALT
from oracles import reference_main, run_cli

from atlir import cli
from atlir.cgs import cgs_to_json, load_cgs, save_cgs
from atlir.cli import build_parser, main
from atlir.reduction import build_cgs
from atlir.turing import save_tm, tm_to_json


@pytest.fixture()
def m5_file(tmp_path):
    path = tmp_path / "m5.json"
    save_tm(M5, path)
    return path


@pytest.fixture()
def halt_file(tmp_path):
    path = tmp_path / "halt.json"
    save_tm(M_HALT, path)
    return path


@pytest.fixture()
def ext_file(tmp_path):
    path = tmp_path / "ext.json"
    save_tm(M5_EXT, path)
    return path


def test_reduce_writes_cgs(tmp_path, m5_file, capsys):
    out = tmp_path / "m5.cgs.json"
    assert main(["reduce", str(m5_file), "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "states: 22" in stdout
    assert "actions: 6" in stdout
    g = load_cgs(out)
    assert len(g.states) == 22


def test_reduce_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["reduce", str(bad)]) == 2


def test_reduce_invalid_machine(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "states": ["q0"],
                "alphabet": ["B"],
                "q0": "q9",
                "blank": "B",
                "delta": [],
            }
        )
    )
    assert main(["reduce", str(bad)]) == 3


def test_reduce_halting_machine_is_fine(tmp_path, halt_file):
    out = tmp_path / "halt.cgs.json"
    assert main(["reduce", str(halt_file), "-o", str(out)]) == 0


def test_simulate_decode(m5_file, capsys):
    assert main(["simulate", str(m5_file), "-d", "7", "--decode"]) == 0
    out = capsys.readouterr().out
    assert "level 3: q0B" in out
    assert "level 5: aq1B" in out
    assert "level 7: q2ab" in out


def test_simulate_err_exit(halt_file, capsys):
    code = main(["simulate", str(halt_file), "-d", "8"])
    assert code == 4
    assert "level 6" in capsys.readouterr().err


def test_simulate_decode_stops_at_error_level(tmp_path, capsys):
    path = tmp_path / "lbounce.json"
    save_tm(LBOUNCE, path)
    code = main(["simulate", str(path), "-d", "21", "--decode", "-o", str(tmp_path / "t.json")])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["level 3: q0B", "level 5: aq1B", "level 7: q2ab"]
    assert "error state reached at level 8" in captured.err


def test_simulate_depth_zero_dot(m5_file, capsys):
    assert main(["simulate", str(m5_file), "-d", "0", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and "s_init" in out


def test_check_true(tmp_path, m5_file, capsys):
    cgs = tmp_path / "g.json"
    main(["reduce", str(m5_file), "-o", str(cgs)])
    capsys.readouterr()
    code = main(
        ["check", str(cgs), "--state", "s_init", "--formula", "ok", "-b", "1"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "True"


def test_check_false_and_unknown(tmp_path, halt_file, ext_file, capsys):
    cgs = tmp_path / "halt.cgs.json"
    main(["reduce", str(halt_file), "-o", str(cgs)])
    capsys.readouterr()
    code = main(
        ["check", str(cgs), "--state", "s_init", "--formula", "<<1,2>> G ok", "-b", "6"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "False"
    assert doc["counterexample"][-1] == "s_err"

    cgs2 = tmp_path / "ext.cgs.json"
    main(["reduce", str(ext_file), "-o", str(cgs2)])
    capsys.readouterr()
    code = main(
        ["check", str(cgs2), "--state", "s_init", "--formula", "<<1,2>> G ok", "-b", "4"]
    )
    assert code == 5


def test_check_bound_zero_is_parse_error(tmp_path, m5_file, capsys):
    cgs = tmp_path / "g.json"
    main(["reduce", str(m5_file), "-o", str(cgs)])
    code = main(["check", str(cgs), "--state", "s_init", "--formula", "ok", "-b", "0"])
    assert code == 2


def test_check_bad_formula(tmp_path, m5_file, capsys):
    cgs = tmp_path / "g.json"
    main(["reduce", str(m5_file), "-o", str(cgs)])
    code = main(["check", str(cgs), "--state", "s_init", "--formula", "<<>> G ok", "-b", "1"])
    assert code == 2


@pytest.mark.parametrize("formula", ["<<0>> G ok", "<<1,0>> G ok", "<<>> G ok"])
def test_check_coalition_errors_are_parse_errors(tmp_path, m5_file, capsys, formula):
    cgs = tmp_path / "g.json"
    main(["reduce", str(m5_file), "-o", str(cgs)])
    capsys.readouterr()
    code = main(["check", str(cgs), "--state", "s_init", "--formula", formula, "-b", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "position" in captured.err


def test_check_jobs_flag_is_gone(tmp_path, m5_file):
    cgs = tmp_path / "g.json"
    main(["reduce", str(m5_file), "-o", str(cgs)])
    with pytest.raises(SystemExit) as exc:
        main(["check", str(cgs), "--state", "s_init", "--formula", "ok", "-b", "1", "--jobs", "2"])
    assert exc.value.code == 2


def test_check_job_file(tmp_path, m5_file, capsys):
    cgs = tmp_path / "g.json"
    main(["reduce", str(m5_file), "-o", str(cgs)])
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {"cgs": str(cgs), "state": "s_init", "formula": "ok", "bound": 1}
        )
    )
    capsys.readouterr()
    assert main(["check", "--job", str(job)]) == 0


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cgs", None, "cgs must be a string, not NoneType"),
        # a number would open a file descriptor: 0 is standard input
        ("cgs", 0, "cgs must be a string, not int"),
        ("state", ["s_init"], "state must be a string, not list"),
        ("formula", 5, "formula must be a string, not int"),
        ("bound", 2.9, "bound must be an integer, not float"),
        ("bound", True, "bound must be an integer, not bool"),
        ("bound", "3", "bound must be an integer, not str"),
    ],
)
def test_check_job_file_mistyped_field(tmp_path, m5_file, capsys, field, value, message):
    cgs = tmp_path / "g.json"
    main(["reduce", str(m5_file), "-o", str(cgs)])
    job = {"cgs": str(cgs), "state": "s_init", "formula": "ok", "bound": 1}
    job[field] = value
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    capsys.readouterr()
    assert main(["check", "--job", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad job file: {message}\n"


def test_check_job_file_missing_field(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"cgs": "g.json", "state": "s", "formula": "ok"}))
    assert main(["check", "--job", str(path)]) == 2
    assert capsys.readouterr().err == "error: bad job file: 'bound'\n"


def test_check_unreadable_structure_is_parse_error(tmp_path, capsys):
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    huge = tmp_path / "huge.json"
    huge.write_text('{"agents": ' + "9" * 5000 + "}")
    for path, message in (
        (tmp_path, "cannot read"),
        (undecodable, "not valid JSON"),
        (deep, "not valid JSON"),
        (huge, "not valid JSON"),
    ):
        argv = ["check", str(path), "--state", "s", "--formula", "ok", "-b", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
    # only a job file can name a path that no file can have
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"cgs": "g\u0000.json", "state": "s", "formula": "ok", "bound": 1}))
    assert main(["check", "--job", str(job)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read g")


@pytest.mark.parametrize("command", ["reduce", "simulate", "verify-claims"])
def test_unreadable_machine_is_parse_error(tmp_path, capsys, command):
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    depth = [] if command == "reduce" else ["-d", "3"]
    for path, message in (
        (tmp_path, "cannot read"),
        (undecodable, "not valid JSON"),
        (deep, "not valid JSON"),
    ):
        assert main([command, str(path)] + depth) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


MACHINE_COMMANDS = [["reduce"], ["simulate", "-d", "3"], ["verify-claims", "-d", "3"]]


@pytest.mark.parametrize("command", MACHINE_COMMANDS)
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("states", 5, "states must be a list, not int"),
        ("states", ["q0", 3], "states holds 3, which is not a string"),
        ("q0", ["q0"], "q0 must be a string, not list"),
    ],
)
def test_mistyped_machine_is_parse_error(tmp_path, capsys, command, field, value, message):
    doc = tm_to_json(M5)
    doc[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path)] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed machine document: {message}\n"


@pytest.mark.parametrize("command", MACHINE_COMMANDS)
@pytest.mark.parametrize(
    "field, value, message",
    [
        # validation errors whose text quotes a parse error's phrase
        (
            "delta",
            [["not valid JSON", "B", "q0", "B", "R"]],
            "rule for undeclared pair ('not valid JSON', 'B')",
        ),
        (
            "q0",
            "malformed machine document",
            "initial state 'malformed machine document' not declared",
        ),
    ],
)
def test_validation_message_naming_a_parse_error_exits_3(
    tmp_path, capsys, command, field, value, message
):
    doc = tm_to_json(M5)
    doc[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path)] + command[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["reduce"], ["simulate", "-d", "3"]])
def test_unwritable_output_is_parse_error(tmp_path, capsys, m5_file, command):
    for target, reason in (
        (tmp_path / "missing" / "out.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
    ):
        argv = [command[0], str(m5_file)] + command[1:] + ["-o", str(target)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {target}: {reason}\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", MACHINE_COMMANDS)
def test_machine_symbol_named_like_a_construction_state(tmp_path, capsys, command):
    # the cell state of symbol "gen" would be the generator state s_gen
    doc = tm_to_json(M5)
    doc["alphabet"].append("gen")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path)] + command[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: generated state names collide: s_gen\n"


def test_check_allow_invalid(tmp_path, capsys):
    doc = {
        "agents": 1,
        "states": ["s"],
        "props": ["ok"],
        "label": {"s": ["ok"]},
        "obs": {"1": [["s"]]},
        "actions": ["a"],
        "avail": {"1": {"s": ["a"]}},
        "delta": [],
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--state", "s", "--formula", "ok", "-b", "1"]) == 2
    capsys.readouterr()
    assert (
        main(
            [
                "check",
                str(path),
                "--state",
                "s",
                "--formula",
                "ok",
                "-b",
                "1",
                "--allow-invalid",
            ]
        )
        == 0
    )


def test_check_allow_invalid_class_without_actions(tmp_path, capsys):
    # agent 1 has no action at t, so no table reaches past it: the search
    # reports the first history that ends in that class
    doc = {
        "agents": 2,
        "states": ["s", "t"],
        "props": ["ok"],
        "label": {"s": ["ok"], "t": ["ok"]},
        "obs": {"1": [["s"], ["t"]], "2": [["s", "t"]]},
        "actions": ["a"],
        "avail": {"1": {"s": ["a"]}, "2": {"s": ["a"], "t": ["a"]}},
        "delta": [["s", ["a", "a"], "t"]],
    }
    path = tmp_path / "no-action.json"
    path.write_text(json.dumps(doc))
    argv = ["check", str(path), "--state", "s", "--formula", "<<1>> G ok", "-b", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: invalid game structure: agent 1 has no available action at state 't'\n"
    )
    assert main(argv + ["--allow-invalid"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "False",
        "bound": 2,
        "witness": None,
        "counterexample": ["s", "t"],
    }
    assert main(argv[:-1] + ["1", "--allow-invalid"]) == 5


def test_check_structure_with_undeclared_name(tmp_path, capsys):
    doc = cgs_to_json(build_cgs(M_HALT).cgs)
    doc["obs"]["1"][0].append("s_nowhere")
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--state", "s_init", "--formula", "ok", "-b", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: observation partition of agent 1 mentions 's_nowhere'\n"


def test_reduce_machine_rule_with_undeclared_names(tmp_path, capsys):
    doc = tm_to_json(M5)
    doc["delta"].append(["q2", "a", "q9", "a", "R"])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["reduce", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rule ('q2', 'a') -> ('q9', 'a', 'R') uses undeclared names\n"


def test_verify_claims_pass(ext_file, capsys):
    assert main(["verify-claims", str(ext_file), "-d", "9"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_verify_claims_rows_for_decoding(m5_file, capsys):
    assert main(["verify-claims", str(m5_file), "-d", "7", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    decode_rows = [r for r in rows if r["claim"] == 4 and r["subclaim"] == "4.2"]
    assert sorted(r["level"] for r in decode_rows) == [3, 5]


def test_verify_claims_depth_guard(m5_file):
    assert main(["verify-claims", str(m5_file), "-d", "2"]) == 2


def test_check_requires_arguments(tmp_path, m5_file):
    cgs = tmp_path / "g.json"
    main(["reduce", str(m5_file), "-o", str(cgs)])
    assert main(["check", str(cgs), "--state", "s_init"]) == 2


def test_check_stdout_is_deterministic(tmp_path, halt_file, capsys):
    cgs = tmp_path / "halt.cgs.json"
    main(["reduce", str(halt_file), "-o", str(cgs)])
    capsys.readouterr()
    argv = ["check", str(cgs), "--state", "s_init", "--formula", "<<1,2>> G ok", "-b", "6"]
    main(argv)
    first = capsys.readouterr()
    main(argv)
    second = capsys.readouterr()
    assert first.out == second.out
    # timing varies but stays off the payload stream
    assert "elapsed" in first.err and "elapsed" not in first.out


@pytest.mark.parametrize(
    "formula",
    ["!" * 2000 + "ok", "<<1>> X " * 400 + "ok", " & ".join(["ok"] * 3000)],
    ids=["2000 negations", "400 nested next", "3000-term conjunction"],
)
def test_check_too_deep_formula_is_parse_error(tmp_path, halt_file, capsys, formula):
    cgs = tmp_path / "halt.cgs.json"
    main(["reduce", str(halt_file), "-o", str(cgs)])
    capsys.readouterr()
    code = main(["check", str(cgs), "--state", "s_init", "--formula", formula, "-b", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: formula nests deeper than")
    assert "position" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "field, value",
    [("states", ["s", 3]), ("label", {"s": "ok"}), ("delta", [["s", ["a"], "s"]] * 2)],
)
def test_check_mistyped_structure_is_parse_error(tmp_path, capsys, field, value):
    doc = {
        "agents": 1,
        "states": ["s"],
        "props": ["ok"],
        "label": {"s": ["ok"]},
        "obs": {"1": [["s"]]},
        "actions": ["a"],
        "avail": {"1": {"s": ["a"]}},
        "delta": [["s", ["a"], "s"]],
    }
    doc[field] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path), "--state", "s", "--formula", "ok", "-b", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed game structure document: {field}")


# -- the parser kept for the process --------------------------------------------


def _corpus(tmp_path, m5_file, halt_file, ext_file):
    """Argument lists covering argparse's errors and help, each command,
    and each exit code."""
    game = tmp_path / "halt.cgs.json"
    save_cgs(build_cgs(M_HALT).cgs, game)
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps({"cgs": str(game), "state": "s_init", "formula": "<<1,2>> G ok", "bound": 3})
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(tm_to_json(M5), q0="q9")))
    m5, game = str(m5_file), str(game)
    check = ["check", game, "--state", "s_init", "--formula"]
    return [
        [],
        ["frobnicate"],
        ["-h"],
        ["check", "-h"],
        ["simulate", m5],
        check + ["ok", "-b", "two"],
        ["verify-claims", m5, "-d", "5", "--format", "xml"],
        check + ["ok", "-b", "1", "--fast", "extra"],
        ["check"],
        check + ["ok", "-b", "1"],
        check + ["<<1,2>> G ok", "-b", "6"],
        ["check", m5, "--state", "s_init", "--formula", "ok", "-b", "1"],
        ["check", "--job", str(job)],
        ["check", "--job", str(tmp_path / "missing.json")],
        ["reduce", m5],
        ["reduce", str(bad)],
        ["simulate", m5, "-d", "7", "--decode"],
        ["simulate", m5, "-d", "7", "--decode", "--format", "dot"],
        ["simulate", str(halt_file), "-d", "8", "--decode"],
        ["verify-claims", m5, "-d", "7"],
        ["verify-claims", str(ext_file), "-d", "5", "--format", "json"],
    ]


def test_main_matches_a_fresh_parser_per_call(tmp_path, m5_file, halt_file, ext_file):
    corpus = _corpus(tmp_path, m5_file, halt_file, ext_file)
    cli._parser.cache_clear()
    codes = set()
    for argv in corpus + corpus[::-1]:
        got = run_cli(main, argv)
        assert got == run_cli(reference_main, argv), argv
        codes.add(got[0])
    assert codes == {("exit", 0), ("exit", 2)} | {("return", c) for c in range(6)}


def test_main_builds_its_parser_once(monkeypatch, m5_file):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    calls = [
        ["verify-claims", str(m5_file), "-d", "3"],
        ["simulate", str(m5_file), "-d", "3", "--decode"],
        ["simulate", str(m5_file)],
        ["-h"],
        ["reduce", str(m5_file)],
    ]
    for k in range(50):
        run_cli(main, calls[k % len(calls)])
    assert len(builds) == 1
