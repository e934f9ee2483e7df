import pytest

from machines import LBOUNCE, LOOP3, M5, M5_EXT, M_HALT, RIGHT2

from atlir.reduction import build_cgs
from atlir.turing import (
    Configuration,
    Halted,
    HaltedAt,
    MachineDocumentError,
    MalformedConfiguration,
    MalformedMachine,
    TuringMachine,
    halts_within,
    head_cell,
    initial_configuration,
    lint_initial_state_reentry,
    load_tm,
    parse_configuration,
    run,
    save_tm,
    split_configuration,
    step,
    tape,
    tm_from_json,
    tm_to_json,
    trajectory,
)


def test_step_right_extends_with_blank():
    c = step(M5, initial_configuration(M5))
    assert c.word == ("a", "q1", "B")


def test_step_left():
    c = step(M5, Configuration(("a", "q1", "B")))
    assert c.word == ("q2", "a", "b")


def test_step_halts_without_rule():
    m = TuringMachine({"q0"}, {"B"}, "q0", "B", {})
    assert step(m, initial_configuration(m)) == Halted("no-rule")


def test_step_halts_on_left_edge():
    m = TuringMachine({"q0", "q1"}, {"B"}, "q0", "B", {("q0", "B"): ("q1", "B", "L")})
    assert step(m, initial_configuration(m)) == Halted("left-edge")


def test_left_edge_halt_reason_distinct():
    assert run(LBOUNCE, 10) == HaltedAt(3, "left-edge")
    assert run(M_HALT, 10) == HaltedAt(2, "no-rule")


def test_written_blank_is_kept_but_padding_is_not():
    m = TuringMachine(
        {"q0", "q1", "q2"},
        {"B", "a"},
        "q0",
        "B",
        {("q0", "B"): ("q1", "a", "R"), ("q1", "B"): ("q2", "B", "L")},
    )
    assert run(m, 2).word == ("q2", "a")


def test_run_zero_steps():
    assert run(M5, 0).word == ("q0", "B")


def test_run_m5():
    assert run(M5, 2).word == ("q2", "a", "b")
    assert run(M5, 3) == HaltedAt(3, "no-rule")


def test_run_m_halt():
    assert run(M_HALT, 2) == HaltedAt(2, "no-rule")


def test_halts_within():
    assert halts_within(M_HALT, 5)
    assert not halts_within(M_HALT, 1)
    assert not halts_within(M5_EXT, 100)
    assert not halts_within(LOOP3, 100)
    assert not halts_within(TuringMachine({"q0"}, {"B"}, "q0", "B", {}), 0)
    assert halts_within(TuringMachine({"q0"}, {"B"}, "q0", "B", {}), 1)


def test_right2_trace():
    words = ["".join(c.word) for c in trajectory(RIGHT2, 3)]
    assert words == ["q0B", "xq1B", "xBq2B", "xBxq1B"]


def test_step_preserves_well_formedness():
    for m in (M5, M5_EXT, RIGHT2, LBOUNCE, LOOP3):
        c = initial_configuration(m)
        for _ in range(12):
            nxt = step(m, c)
            if isinstance(nxt, Halted):
                break
            split_configuration(m, nxt)  # raises if malformed
            c = nxt


def test_tape_growth_bound():
    for m in (M5_EXT, RIGHT2, LOOP3):
        for n in range(12):
            c = run(m, n)
            assert len(tape(m, c)) <= n + 1


def test_head_cell():
    assert head_cell(M5, Configuration(("q0", "B"))) == 1
    assert head_cell(M5, Configuration(("a", "q1", "B"))) == 2


def test_parse_configuration_validates():
    with pytest.raises(MalformedConfiguration):
        parse_configuration(M5, ("q0", "q1", "B"))
    with pytest.raises(MalformedConfiguration):
        parse_configuration(M5, ("a", "q0"))
    with pytest.raises(MalformedConfiguration):
        parse_configuration(M5, ("a", "B"))


def test_machine_validation():
    with pytest.raises(MalformedMachine):
        TuringMachine({"q0"}, {"B"}, "q1", "B", {})
    with pytest.raises(MalformedMachine):
        TuringMachine({"q0"}, {"B"}, "q0", "x", {})
    with pytest.raises(MalformedMachine):
        TuringMachine({"q0", "B"}, {"B"}, "q0", "B", {})
    with pytest.raises(MalformedMachine):
        TuringMachine({"q0"}, {"B"}, "q0", "B", {("q0", "B"): ("q0", "B", "up")})


def test_lint_initial_state_reentry():
    assert lint_initial_state_reentry(M5) == []
    looping = TuringMachine(
        {"q0"}, {"B"}, "q0", "B", {("q0", "B"): ("q0", "B", "R")}
    )
    assert len(lint_initial_state_reentry(looping)) == 1


def test_file_round_trip(tmp_path):
    path = tmp_path / "m.json"
    save_tm(LBOUNCE, path)
    assert load_tm(path) == LBOUNCE


def test_load_rejects_duplicate_rules(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        '{"states": ["q0"], "alphabet": ["B"], "q0": "q0", "blank": "B",'
        ' "delta": [["q0", "B", "q0", "B", "R"], ["q0", "B", "q0", "B", "L"]]}'
    )
    with pytest.raises(MalformedMachine):
        load_tm(path)


MISSING = object()


@pytest.mark.parametrize(
    "field, value, message",
    [
        (None, [], "the document must be an object, not list"),
        ("states", "q0", "states must be a list, not str"),
        ("alphabet", ["B", None], "alphabet holds None, which is not a string"),
        ("blank", 0, "blank must be a string, not int"),
        ("delta", {}, "delta must be a list, not dict"),
        ("delta", [5], "delta row 5 must be a list, not int"),
        ("delta", [["q0", "B", "q0", "B", ["R"]]], "holds ['R'], which is not a string"),
        ("delta", None, "delta must be a list, not NoneType"),
        ("q0", MISSING, "missing field 'q0'"),
    ],
)
def test_load_rejects_mistyped_fields(field, value, message):
    doc = tm_to_json(M5)
    if field is None:
        doc = value
    elif value is MISSING:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(MalformedMachine, match=r"^malformed machine document: ") as info:
        tm_from_json(doc)
    assert str(info.value).endswith(message)


def test_rule_rows_keep_their_validation_errors():
    # well-typed rows that make no machine are not malformed documents
    doc = tm_to_json(M5)
    doc["delta"].append(["q0", "B", "q1", "a", "R", "x"])
    with pytest.raises(MalformedMachine, match=r"^rule row .* must have 5 fields$"):
        tm_from_json(doc)


def test_document_errors_have_their_own_type(tmp_path):
    # a machine file's shape errors and its JSON errors are one type, so a
    # caller tells them from validation errors without reading messages
    for doc in ([], {**tm_to_json(M5), "states": 5}, {**tm_to_json(M5), "q0": ["q0"]}):
        with pytest.raises(MachineDocumentError):
            tm_from_json(doc)
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(MachineDocumentError, match=r"^not valid JSON: "):
        load_tm(path)


def _validation_error(make) -> MalformedMachine:
    with pytest.raises(MalformedMachine) as info:
        make()
    return info.value


def test_validation_errors_are_plain_malformed_machine():
    doc = tm_to_json(M5)
    doc["delta"].append(["q0", "B", "q1", "a", "R", "x"])
    clash = TuringMachine({"q0"}, {"B", "gen"}, "q0", "B", {})
    for make in (
        lambda: TuringMachine({"q0"}, {"B"}, "q9", "B", {}),
        lambda: TuringMachine({"q0"}, {"B"}, "q0", "B", {("q0", "B"): ("q0", "B", "X")}),
        lambda: tm_from_json(doc),
        lambda: tm_from_json({**tm_to_json(M5), "q0": "malformed machine document"}),
        lambda: build_cgs(clash),
    ):
        assert type(_validation_error(make)) is MalformedMachine
