import pytest

from tbntools.ipmodel import build
from tbntools.lpformat import (
    LpFormatError,
    parse_lp,
    parse_solution,
    write_lp,
    write_solution,
)


def test_roundtrip_plain_model(intro_tbn):
    program = build(intro_tbn, 2).program
    parsed = parse_lp(write_lp(program))
    assert parsed.objective == program.objective
    assert set(parsed.variables) == set(program.variables)
    assert len(parsed.constraints) == len(program.constraints)
    for a, b in zip(parsed.constraints, program.constraints):
        assert dict(a.coeffs) == dict(b.coeffs)
        assert (a.sense, a.rhs, a.name) == (b.sense, b.rhs, b.name)


def test_roundtrip_enumeration_model(translator_tbn):
    program = build(translator_tbn, 3, symmetry_breaking=True).program
    program = program.fixed(6)
    parsed = parse_lp(write_lp(program))
    assert parsed.objective is None
    assert set(parsed.variables) == set(program.variables)
    assert len(parsed.constraints) == len(program.constraints)


def test_lp_text_shape(intro_tbn):
    text = write_lp(build(intro_tbn, 1).program)
    assert text.startswith("Minimize")
    assert "Subject To" in text
    assert "Bounds" in text
    assert "Generals" in text
    assert text.rstrip().endswith("End")
    assert "C_m0_p1" in text and "E_p1" in text


def test_parse_rejects_garbage():
    with pytest.raises(LpFormatError):
        parse_lp("Minimize\n obj: x\nSubject To\n r1: x ?? 3\nEnd\n")


def test_solution_roundtrip():
    assignment = {"C_m0_p1": 2, "E_p1": 1, "E_p2": 0}
    assert parse_solution(write_solution(assignment)) == assignment


def test_general_without_bounds_rejected():
    # LP semantics give x in [0, inf), which no IntegerProgram holds; it
    # was read as binary, so x >= 3 looked infeasible
    with pytest.raises(LpFormatError, match="'x' needs finite bounds"):
        parse_lp("Minimize\n x\nSubject To\n c: x >= 3\nGenerals\n x\nEnd\n")


def test_binary_without_bounds_is_zero_one():
    for section in ("Binaries", "Binary"):
        program = parse_lp(
            f"Minimize\n x + y\nSubject To\n c: x + y >= 1\n"
            f"Bounds\n 0 <= y <= 4\n{section}\n x y\nEnd\n"
        )
        assert [(v.name, v.lower, v.upper) for v in program.variables] == [
            ("x", 0, 1), ("y", 0, 4),
        ]


def test_bounded_general_keeps_its_bounds():
    program = parse_lp(
        "Minimize\n x\nSubject To\n c: x >= 3\n"
        "Bounds\n 0 <= x <= 7\nGenerals\n x\nEnd\n"
    )
    assert [(v.name, v.lower, v.upper) for v in program.variables] == [
        ("x", 0, 7),
    ]


def test_solution_accepts_float_text_and_comments():
    parsed = parse_solution("# solver output\nx 1.0000\ny = 3\n")
    assert parsed == {"x": 1, "y": 3}


def test_solution_rejects_malformed():
    with pytest.raises(LpFormatError):
        parse_solution("x = y = 3")


def test_solution_rejects_a_repeated_name():
    # the later line would silently win; both line numbers are named
    with pytest.raises(LpFormatError, match="line 3: x already set on line 1"):
        parse_solution("x = 1\ny = 0\nx = 2\n")


@pytest.mark.parametrize("value, expected", [
    ("3", 3), ("1e2", 100), ("1.0000000001", 1), ("0.9999999999", 1),
])
def test_solution_values_within_the_tolerance_of_an_integer(value, expected):
    assert parse_solution(f"x = {value}\n") == {"x": expected}


@pytest.mark.parametrize(
    "value", ["inf", "nan", "1e400", "0.5", "0.6", "1.00001"]
)
def test_solution_values_off_an_integer_rejected(value):
    with pytest.raises(LpFormatError, match="line 2"):
        parse_solution(f"y = 1\nx = {value}\n")
