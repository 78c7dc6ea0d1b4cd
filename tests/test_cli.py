import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quiverseq
from quiverseq import cli
from quiverseq.cli import MAX_RANGE_VALUES, main
from quiverseq.dualnum import DualScalar
from quiverseq.periodicity import primitive, solve_weight
from quiverseq.quiver import Quiver, WeightedQuiver

from golden import somos4_quiver_a


def run_cli(argv):
    out = io.StringIO()
    status = main(argv, out=out)
    return status, out.getvalue()


@pytest.fixture
def somos4a_path(tmp_path):
    path = tmp_path / "somos4a.json"
    path.write_text(json.dumps(somos4_quiver_a().to_dict()))
    return str(path)


@pytest.fixture
def somos4a_weighted_path(tmp_path):
    q = somos4_quiver_a()
    wq = WeightedQuiver(q, solve_weight(q))
    path = tmp_path / "somos4a_weighted.json"
    path.write_text(json.dumps(wq.to_dict()))
    return str(path)


@pytest.fixture
def p31_path(tmp_path):
    path = tmp_path / "p31.json"
    path.write_text(json.dumps(primitive(3, 1).to_dict()))
    return str(path)


class TestWeight:
    def test_somos4(self, somos4a_path):
        status, output = run_cli(["weight", "--quiver", somos4a_path])
        assert status == 0
        assert "exists: true" in output
        assert "w = (1, 0, 0, -1)" in output
        assert "closing residual: 0" in output

    def test_no_weight_function(self, p31_path):
        status, output = run_cli(["weight", "--quiver", p31_path])
        assert status == 0
        assert "exists: false" in output

    def test_not_period_one_is_domain_error(self, tmp_path):
        q = Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(q.to_dict()))
        status, _ = run_cli(["weight", "--quiver", str(path)])
        assert status == 1

    def test_json_format(self, somos4a_path):
        status, output = run_cli(["weight", "--quiver", somos4a_path, "--format", "json"])
        record = json.loads(output)
        assert record == {"closing_residual": 0, "exists": True, "weights": [1, 0, 0, -1]}


class TestMutate:
    def test_p31_not_rotation_invariant(self, p31_path):
        status, output = run_cli(["mutate", "--quiver", p31_path, "--at", "1"])
        assert status == 0
        record = json.loads(output)
        assert record["unchanged_by_rotation"] is False

    def test_round_trip_reload(self, somos4a_path, tmp_path):
        status, output = run_cli(["mutate", "--quiver", somos4a_path, "--at", "2"])
        assert status == 0
        reloaded = Quiver.from_dict(json.loads(output))
        assert reloaded == somos4_quiver_a().mutate(2)

    def test_bad_vertex_is_domain_error(self, somos4a_path):
        status, _ = run_cli(["mutate", "--quiver", somos4a_path, "--at", "9"])
        assert status == 1


class TestSeq:
    def test_somos4_bodies(self):
        status, output = run_cli(["seq", "--family", "somos4", "--terms", "15"])
        assert status == 0
        bodies = [json.loads(line)["body"] for line in output.splitlines()]
        assert bodies == [
            "1", "1", "1", "1", "2", "3", "7", "23", "59", "314",
            "1529", "8209", "83313", "620297", "7869898",
        ]

    def test_deform_and_init(self):
        status, output = run_cli(
            ["seq", "--family", "somos4", "--terms", "15", "--init-b", "0,0,0,0", "--deform", "m2:1"]
        )
        slopes = [json.loads(line)["slope"] for line in output.splitlines()]
        assert slopes[-1] == "87284761"

    def test_from_quiver(self, somos4a_weighted_path):
        status, output = run_cli(
            ["seq", "--quiver", somos4a_weighted_path, "--terms", "10"]
        )
        assert status == 0
        rows = [json.loads(line) for line in output.splitlines()]
        assert [r["slope"] for r in rows] == [
            "0", "0", "0", "0", "1", "2", "10", "48", "160", "1273",
        ]

    def test_csv(self):
        status, output = run_cli(
            ["seq", "--family", "somos4", "--terms", "6", "--format", "csv"]
        )
        lines = output.splitlines()
        assert lines[0] == "index,paper_index,body,slope,integral"
        assert lines[6] == "5,6,3,0,true"

    def test_rows_are_printed_as_they_are_formatted(self, monkeypatch):
        out, lines_before = io.StringIO(), []

        def format_scalar(value):
            lines_before.append(out.getvalue().count("\n"))
            return str(value)

        monkeypatch.setattr(cli, "format_scalar", format_scalar)
        assert main(["seq", "--family", "somos4", "--terms", "6"], out=out) == 0
        assert lines_before == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_fraction_marked_non_integral(self):
        status, output = run_cli(
            [
                "seq", "--family", "fordy-marsh-s4", "--p", "1", "--q", "0",
                "--deform", "m1:1", "--terms", "10",
            ]
        )
        rows = [json.loads(line) for line in output.splitlines()]
        assert rows[9]["slope"] == "307/3"
        assert rows[9]["integral"] is False

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["seq", "--family"])
        assert err.value.code == 2

    def test_missing_family_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["seq", "--terms", "10"])
        assert err.value.code == 2

    def test_bad_family_params_are_domain_errors(self):
        status, _ = run_cli(["seq", "--family", "gale_robinson", "--N", "6", "--r", "2", "--s", "2"])
        assert status == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["seq", "--family", "gale-robinson"], "gale_robinson takes N, r, s; missing N, r, s"),
            (["seq", "--family", "gale-robinson", "--N", "6", "--r", "1"], "gale_robinson takes N, r, s; missing s"),
            (["seq", "--family", "somos4", "--p", "1"], "somos4 takes no parameters; got p"),
            (["seq", "--family", "fordy-marsh-s4", "--N", "4", "--p", "1"], "fordy_marsh_s4 takes p, q; missing q; got N"),
            (["scan", "--family", "gale-robinson", "--N", "6..8"], "gale_robinson takes N, r, s; missing r, s"),
            (["scan", "--family", "fordy-marsh-s4", "--r", "1", "--p", "1..2", "--q", "0"], "fordy_marsh_s4 takes p, q; got r"),
            (["seq", "--family", "gale-robinson", "--N", "4000000", "--r", "1", "--s", "2"], "need N <= 10000, got N=4000000"),
        ],
    )
    def test_family_parameter_errors_name_the_parameters(self, argv, message, capsys):
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err == f"error: BadParamsError: {message}\n"

    def test_unknown_family_message_is_not_quoted(self, capsys):
        status, output = run_cli(["seq", "--family", "nope"])
        assert (status, output) == (1, "")
        assert capsys.readouterr().err == (
            "error: UnknownFamilyError: unknown family 'nope'; known: cassini_minus, "
            "cassini_plus, fordy_marsh_s4, gale_robinson, limping_fibonacci, order3, "
            "order3_alt, somos4, somos5\n"
        )


class TestDecompose:
    def test_somos4(self):
        status, output = run_cli(["decompose", "--family", "somos4", "--terms", "13"])
        rows = [json.loads(line) for line in output.splitlines()]
        assert rows[0]["basis"] == 1
        assert rows[0]["values"][:6] == ["1", "0", "0", "0", "-2", "-2"]
        assert rows[3]["values"][-1] == "120536"


class TestScan:
    def test_fingerprints(self):
        status, output = run_cli(
            [
                "scan", "--family", "fordy-marsh-s4", "--p", "1", "--q", "0..3",
                "--deform", "m1:1", "--horizon", "12",
            ]
        )
        assert status == 0
        rows = [json.loads(line) for line in output.splitlines()]
        by_q = {r["params"]["q"]: r for r in rows}
        assert by_q[0]["first_fraction_value"] == "307/3"
        assert by_q[0]["first_fraction_paper_index"] == 9
        assert by_q[1]["first_fraction_value"] == "159/2"
        assert by_q[2]["clean"] is True
        assert by_q[3]["first_fraction_value"] == "6539/2"

    def test_csv(self):
        status, output = run_cli(
            [
                "scan", "--family", "fordy-marsh-s4", "--p", "1", "--q", "0..3",
                "--deform", "m1:1", "--horizon", "12", "--format", "csv",
            ]
        )
        assert status == 0
        assert output.splitlines() == [
            "params,clean,degenerate,first_fraction_index,first_fraction_paper_index,first_fraction_value",
            "p=1;q=0,false,false,9,9,307/3",
            "p=1;q=1,false,false,8,8,159/2",
            "p=1;q=2,true,false,,,",
            "p=1;q=3,false,false,8,8,6539/2",
        ]

    GR_GRID = ["scan", "--family", "gale-robinson", "--N", "6", "--r", "1..3", "--s", "2..3"]

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            (
                "text",
                [
                    "N=6 r=1 s=2: integral to horizon 10",
                    "N=6 r=1 s=3: integral to horizon 10",
                    "N=6 r=2 s=2: invalid: need 1 <= r < s <= N/2, got N=6 r=2 s=2",
                    "N=6 r=2 s=3: integral to horizon 10",
                    "N=6 r=3 s=2: invalid: need 1 <= r < s <= N/2, got N=6 r=3 s=2",
                    "N=6 r=3 s=3: invalid: need 1 <= r < s <= N/2, got N=6 r=3 s=3",
                ],
            ),
            (
                "csv",
                [
                    "params,clean,degenerate,first_fraction_index,first_fraction_paper_index,first_fraction_value",
                    "N=6;r=1;s=2,true,false,,,",
                    "N=6;r=1;s=3,true,false,,,",
                    "N=6;r=2;s=2,invalid,,,,",
                    "N=6;r=2;s=3,true,false,,,",
                    "N=6;r=3;s=2,invalid,,,,",
                    "N=6;r=3;s=3,invalid,,,,",
                ],
            ),
        ],
    )
    def test_invalid_cells_are_reported_and_the_scan_goes_on(self, fmt, expected):
        status, output = run_cli(self.GR_GRID + ["--horizon", "10", "--format", fmt])
        assert status == 0
        assert output.splitlines() == expected

    def test_invalid_cell_json_row(self):
        status, output = run_cli(self.GR_GRID + ["--horizon", "10"])
        assert status == 0
        rows = [json.loads(line) for line in output.splitlines()]
        assert [r.get("invalid") is None for r in rows] == [True, True, False, True, False, False]
        assert rows[2] == {
            "params": {"N": 6, "r": 2, "s": 2},
            "invalid": "need 1 <= r < s <= N/2, got N=6 r=2 s=2",
        }
        assert rows[3]["clean"] is True

    def test_all_cells_invalid_is_domain_error(self, capsys):
        status, output = run_cli(["scan", "--family", "somos4", "--p", "1"])
        assert (status, output) == (1, "")
        assert capsys.readouterr().err == (
            "error: BadParamsError: somos4 takes no parameters; got p\n"
        )

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["scan", "--family", "fordy-marsh-s4", "--p", "1..x", "--q", "0"], "1..x"),
            (["seq", "--family", "gale_robinson", "--N", "six", "--r", "1", "--s", "2"], "six"),
        ],
    )
    def test_bad_range_is_usage_error(self, argv, bad, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert repr(bad) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, empty",
        [
            (["scan", "--family", "fordy-marsh-s4", "--p", "1", "--q", "2..0"], "2..0"),
            (["seq", "--family", "fordy-marsh-s4", "--p", "2..1", "--q", "0"], "2..1"),
            (["decompose", "--family", "gale-robinson", "--N", "6", "--r", "1", "--s", "3..2"], "3..2"),
        ],
    )
    def test_empty_range_is_usage_error(self, argv, empty, capsys):
        # An empty range used to print nothing and exit 0 (scan) or fail
        # later as a domain error (seq, decompose).
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"empty range {empty!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, huge",
        [
            (["scan", "--family", "fordy-marsh-s4", "--p", "1", "--q", f"1..{10**30}"], f"1..{10**30}"),
            (["seq", "--family", "fordy-marsh-s4", f"--p={-10**30}..2", "--q", "0"], f"{-10**30}..2"),
        ],
    )
    def test_oversized_range_is_usage_error(self, argv, huge, capsys):
        # Such a range used to die with a raw MemoryError while its list was
        # built; no machine can hold 10^30 values, so the cap must come first.
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"range {huge!r} has more than {MAX_RANGE_VALUES} values" in capsys.readouterr().err


class TestLaurent:
    def test_somos4_check(self, somos4a_weighted_path):
        status, output = run_cli(
            ["laurent", "--quiver", somos4a_weighted_path, "--steps", "4", "--check"]
        )
        assert status == 0
        assert output.count("laurent") == 4
        assert "NOT" not in output

    def test_solves_weights_when_missing(self, somos4a_path):
        status, output = run_cli(
            ["laurent", "--quiver", somos4a_path, "--steps", "2", "--format", "json"]
        )
        assert status == 0
        rows = [json.loads(line) for line in output.splitlines()]
        assert all(r["laurent"] for r in rows)

    def test_sexpr_emission(self, somos4a_weighted_path):
        status, output = run_cli(
            [
                "laurent", "--quiver", somos4a_weighted_path, "--steps", "1",
                "--emit", "sexpr", "--format", "json",
            ]
        )
        record = json.loads(output.splitlines()[0])
        assert record["sexpr"].startswith("(dual (body (+ ")

    @pytest.mark.parametrize("budget", ["0", "-1", "many"])
    def test_non_positive_budget_is_usage_error(self, somos4a_weighted_path, budget, capsys):
        argv = ["laurent", "--quiver", somos4a_weighted_path, "--steps", "1", "--budget", budget]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert repr(budget) in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["-3", "0", "two"])
    def test_non_positive_steps_is_usage_error(self, somos4a_weighted_path, steps, capsys):
        with pytest.raises(SystemExit) as err:
            main(["laurent", "--quiver", somos4a_weighted_path, "--steps", steps])
        assert err.value.code == 2
        assert repr(steps) in capsys.readouterr().err


class TestPeriod:
    def test_p31_all_ones(self, p31_path):
        status, output = run_cli(
            ["period", "--quiver", p31_path, "--weights", "1,1,1", "--max", "10"]
        )
        assert status == 0
        assert "period: 6" in output

    def test_json(self, somos4a_weighted_path):
        status, output = run_cli(
            ["period", "--quiver", somos4a_weighted_path, "--format", "json"]
        )
        assert json.loads(output) == {"max_cycles": 64, "period": 1}

    @pytest.mark.parametrize("cycles", ["0", "-1"])
    def test_non_positive_max_is_usage_error(self, p31_path, cycles, capsys):
        with pytest.raises(SystemExit) as err:
            main(["period", "--quiver", p31_path, "--weights", "1,1,1", "--max", cycles])
        assert err.value.code == 2
        assert repr(cycles) in capsys.readouterr().err


class TestMalformedQuiver:
    @pytest.fixture
    def growing_path(self, tmp_path):
        path = tmp_path / "growing.json"
        path.write_text('{"b": [[0, 2], [-2, 0]]}')
        return str(path)

    @pytest.mark.parametrize("command", ["seq", "decompose"])
    def test_weights_without_period_is_domain_error(self, growing_path, command, capsys):
        status, output = run_cli([command, "--quiver", growing_path, "--weights=1,1"])
        assert (status, output) == (1, "")
        err = capsys.readouterr().err
        assert err == "error: NoWeightPeriodError: weights did not return within 64 cycles\n"

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"b": [[0]], "note": "\xe9"}')
        status, _ = run_cli(["weight", "--quiver", str(path)])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: QuiverSeqError: cannot read ") and str(path) in err

    def test_row_that_is_not_a_list(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text('{"b": [1, 2]}')
        status, _ = run_cli(["mutate", "--quiver", str(path), "--at", "1"])
        assert status == 1
        assert capsys.readouterr().err.startswith("error: QuiverFormatError: row 1 = 1 ")

    @pytest.mark.parametrize("command", ["mutate", "weight", "period"])
    @pytest.mark.parametrize(
        "template",
        ['{"b": [[0, %s], [-%s, 0]]}', '{"b": [[0, 1], [-1, 0]], "w": [%s, 0]}'],
        ids=["b", "w"],
    )
    def test_integer_past_the_digit_limit(self, tmp_path, command, template, capsys):
        # json.loads raises a bare ValueError for an int longer than 4300 digits
        big = "9" * 4301
        path = tmp_path / "huge.json"
        path.write_text(template.replace("%s", big))
        extra = ["--at", "1"] if command == "mutate" else []
        status, output = run_cli([command, "--quiver", str(path), *extra])
        assert (status, output) == (1, "")
        assert capsys.readouterr().err.startswith("error: QuiverFormatError: invalid JSON: ")

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("mutate", ["--at", "1"]),
            ("weight", []),
            ("period", []),
            ("laurent", ["--steps", "2"]),
            ("seq", []),
            ("decompose", []),
        ],
    )
    def test_quiver_without_vertices(self, tmp_path, command, extra, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"b": [], "w": []}')
        status, output = run_cli([command, "--quiver", str(path), *extra])
        assert (status, output) == (1, "")
        assert capsys.readouterr().err == "error: VertexIndexError: vertex 1 outside 1..0\n"


class TestFamilyOnlyOptions:
    @pytest.mark.parametrize("command", ["seq", "decompose"])
    def test_weights_without_quiver_is_domain_error(self, command, capsys):
        status, output = run_cli([command, "--family", "somos4", "--weights", "9,9", "--terms", "6"])
        assert (status, output) == (1, "")
        assert capsys.readouterr().err == "error: QuiverSeqError: --weights applies only with --quiver\n"


_NINES = int("9" * 4300)  # the largest integer that a quiver file may hold


def _scaled_p31(c):
    """The quiver file data of c·P(3,1), which is period-1 for every c."""
    return {"b": [[c * e for e in row] for row in primitive(3, 1).b]}


_TWO_VERTEX = {"b": [[0, 10**2200], [-(10**2200), 0]], "w": [10**2200] * 2}


class TestDigitLimit:
    """Values past Python's 4300-digit int/str limit end in one error line."""

    ERROR = "error: DigitLimitError: a value of more than 4300 digits cannot be printed\n"

    @pytest.mark.parametrize("fmt, rows", [("json", 5), ("csv", 6), ("text", 5)])
    def test_seq_prints_the_rows_before_the_long_term(self, fmt, rows, capsys):
        # the term after 1, 1, 1, 10^3000 - 1, 2 has about 6000 digits
        init = "1,1,1," + "9" * 3000
        status, output = run_cli(["seq", "--family", "somos4", f"--init-a={init}", "--terms", "7", "--format", fmt])
        assert status == 1
        assert len(output.splitlines()) == rows
        assert capsys.readouterr().err == self.ERROR

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_decompose(self, fmt, capsys):
        argv = ["decompose", "--family", "fordy-marsh-s4", "--p", "2", "--q", "3", "--terms", "18"]
        status, _ = run_cli([*argv, "--format", fmt])
        assert status == 1
        assert capsys.readouterr().err == self.ERROR

    @pytest.mark.parametrize("command", ["seq", "decompose"])
    def test_a_run_past_the_limit_stops_at_its_first_unprintable_term(self, command, monkeypatch, capsys):
        # Term 313 is the first past 4300 digits, in seq and in the first
        # basis row, and terms 4..313 take 310 divisions; a run that went
        # on to 400 terms would make 396, or 4 · 396 for decompose.
        divisions = []
        truediv = DualScalar.__truediv__

        def counting(self, other):
            divisions.append(1)
            return truediv(self, other)

        monkeypatch.setattr(DualScalar, "__truediv__", counting)
        assert run_cli([command, "--family", "somos4", "--terms", "400"])[0] == 1
        assert capsys.readouterr().err == self.ERROR
        assert len(divisions) == 310

    @pytest.mark.parametrize("option", ["--init-a", "--init-b"])
    def test_long_initial_value_names_the_limit(self, option, capsys):
        status, output = run_cli(["seq", "--family", "somos4", f"{option}=1,1,1,{'9' * 4400}"])
        assert (status, output) == (1, "")
        err = capsys.readouterr().err
        assert err == "error: DigitLimitError: an integer of 4400 digits is past the 4300-digit limit\n"

    @pytest.mark.parametrize(
        "data, argv, fmt, rows",
        [
            # a·P(3,1) mutated at 2 has entries a^2 of 4401 digits
            pytest.param(_scaled_p31(10**2200), ["mutate", "--at", "2"], "json", 0, id="mutate-p31-json"),
            pytest.param(_scaled_p31(10**2200), ["mutate", "--at", "2"], "text", 0, id="mutate-p31-text"),
            # the matrix prints; the new weight a + a·a has 4401 digits
            pytest.param(_TWO_VERTEX, ["mutate", "--at", "1"], "json", 0, id="mutate-weights-json"),
            pytest.param(_TWO_VERTEX, ["mutate", "--at", "1"], "text", 2, id="mutate-weights-text"),
            # -c·P(3,1) is period-1, and its closing residual 2 - 2c has 4301 digits
            pytest.param(_scaled_p31(-_NINES), ["weight"], "json", 0, id="weight-json"),
            pytest.param(_scaled_p31(-_NINES), ["weight"], "text", 1, id="weight-text"),
        ],
    )
    def test_quiver_command_past_the_limit(self, data, argv, fmt, rows, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        status, output = run_cli([*argv, "--quiver", str(path), "--format", fmt])
        assert (status, len(output.splitlines())) == (1, rows)
        assert capsys.readouterr().err == self.ERROR

    def test_long_garbage_is_not_called_an_integer(self, capsys):
        status, _ = run_cli(["seq", "--family", "somos4", f"--init-a=1,1,1,{'x' * 4400}"])
        assert status == 1
        assert capsys.readouterr().err.startswith("error: QuiverSeqError: expected comma-separated integers")


class TestEmptyOptionValue:
    """An option given with an empty value is refused like "1,,1", not
    dropped for the default."""

    @pytest.mark.parametrize(
        "argv, got",
        [
            (["laurent", "--quiver", "@unweighted", "--weights=", "--steps", "2"], "expected comma-separated"),
            (["laurent", "--quiver", "@weighted", "--weights=", "--steps", "2"], "expected comma-separated"),
            (["period", "--quiver", "@unweighted", "--weights="], "expected comma-separated"),
            (["seq", "--quiver", "@unweighted", "--weights="], "expected comma-separated"),
            (["decompose", "--quiver", "@weighted", "--weights="], "expected comma-separated"),
            (["seq", "--family", "somos4", "--init-a="], "expected comma-separated"),
            (["seq", "--family", "somos4", "--init-b="], "expected comma-separated"),
            (["seq", "--family", "somos4", "--deform="], "deform must look like"),
            (["decompose", "--family", "somos4", "--deform="], "deform must look like"),
            (["scan", "--family", "fordy-marsh-s4", "--p", "1", "--q", "1", "--deform="], "deform must look like"),
            (["seq", "--quiver="], "cannot read"),
            (["decompose", "--quiver="], "cannot read"),
        ],
    )
    def test_is_a_domain_error(self, somos4a_path, somos4a_weighted_path, argv, got, capsys):
        paths = {"@unweighted": somos4a_path, "@weighted": somos4a_weighted_path}
        status, output = run_cli([paths.get(arg, arg) for arg in argv])
        assert (status, output) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: QuiverSeqError: {got}") and err.count("\n") == 1


@st.composite
def laurent_argvs(draw):
    """(rows, steps, flags) for ``laurent``: a skew-symmetric B with n = 2..4 and
    entries in −2..2, weights in −2..2 held or evolved, json or text,
    optional ``--emit sexpr`` and ``--check``, 1 to 6 steps, and a budget
    of 50 to 400 terms or none."""
    n = draw(st.integers(min_value=2, max_value=4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(min_value=-2, max_value=2))
            rows[j][i] = -rows[i][j]
    weights = ",".join(str(draw(st.integers(min_value=-2, max_value=2))) for _ in range(n))
    steps = draw(st.integers(min_value=1, max_value=6))
    flags = [f"--weights={weights}", "--steps", str(steps)]
    flags += ["--format", draw(st.sampled_from(["json", "text"]))]
    for flag in ("--hold-weights", "--check"):
        if draw(st.booleans()):
            flags.append(flag)
    if draw(st.booleans()):
        flags += ["--emit", "sexpr"]
    budget = draw(st.sampled_from([None, 50, 80, 150, 400]))
    if budget is not None:
        flags += ["--budget", str(budget)]
    return rows, steps, flags


class TestLaurentContract:
    @given(laurent_argvs())
    @settings(max_examples=40, deadline=None)
    def test_exits_0_or_1_with_at_most_one_error_line(self, case):
        rows, steps, flags = case
        # An exchange of degree over 6 makes a run slow; cap it as the
        # symbolic engine's own run properties do.
        q = Quiver(rows)
        for _ in range(steps):
            assume(sum(map(abs, q.b[0])) <= 6)
            q = q.mutate(1).rotate()
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "quiver.json"
            path.write_text(json.dumps({"b": rows}))
            with contextlib.redirect_stderr(err):
                status, _ = run_cli(["laurent", "--quiver", str(path), *flags])
        assert status in (0, 1)
        assert err.getvalue() == "" or re.fullmatch(r"error: [A-Za-z]+: [^\n]*\n", err.getvalue())
        # Every body is a cluster variable, so the division never refuses one.
        assert not err.getvalue().startswith("error: NotLaurentError")

    @pytest.mark.parametrize("a", [pytest.param(2**1100, id="2^1100"), pytest.param(_NINES, id="4300-digits")])
    def test_one_step_on_huge_entries(self, a, tmp_path):
        # X_2^a takes one squaring per bit of a, about 14 000 for 4300
        # digits, far past Python's recursion limit.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"b": [[0, a, -a], [-a, 0, a], [a, -a, 0]], "w": [1, 0, -1]}))
        status, output = run_cli(["laurent", "--quiver", str(path), "--steps", "1", "--format", "json"])
        assert status == 0
        assert output == '{"body_terms": 2, "denominator": "x1^2", "laurent": true, "slope_terms": 5, "step": 1}\n'

    def test_two_term_power_past_the_budget_is_refused(self, tmp_path, capsys):
        # Step 2 raises a two-term body to the 10^6-th power, which has
        # 10^6 + 1 terms; the run stops before the first square.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"b": [[0, 10**6], [-(10**6), 0]]}))
        status, output = run_cli(["laurent", "--quiver", str(path), "--weights", "0,0", "--steps", "2"])
        assert (status, output) == (1, "")
        assert capsys.readouterr().err == (
            "error: BudgetExceededError: step 2: 1000001 terms of the exchange product exceed budget 1000000\n"
        )

    def test_sexpr_past_the_digit_limit_is_one_error_line(self, somos4a_path, capsys):
        # w_1·c passes 4300 digits in the slope of step 3.
        nines = "9" * 4300
        argv = ["laurent", "--quiver", somos4a_path, f"--weights={nines},0,0,-{nines}", "--steps", "6"]
        status, output = run_cli([*argv, "--format", "json", "--emit", "sexpr"])
        assert (status, len(output.splitlines())) == (1, 2)
        assert capsys.readouterr().err == "error: DigitLimitError: a value of more than 4300 digits cannot be printed\n"


ORDERS = {
    "somos4": 4, "somos5": 5, "gale-robinson": None, "fordy-marsh-s4": 4, "cassini-minus": 2,
    "limping-fibonacci": 2, "order3": 3, "order3_alt": 3, "nope": None,
}
OWN_PARAMS = {"gale-robinson": ("N", "r", "s"), "fordy-marsh-s4": ("p", "q")}
PARAM_VALUES = {"N": (3, 8), "r": (0, 3), "s": (1, 4), "p": (0, 3), "q": (-1, 3)}
VALID_VALUES = {"N": (6, 8), "r": (1, 1), "s": (2, 3), "p": (1, 3), "q": (0, 3)}
DEFORMS = [None, "none", "m1:1", "m2:1,-1", "m2:0", "m3:1", "m1:", "m1:1,,1", "x"]


@st.composite
def numeric_argvs(draw):
    """argv for ``seq``, ``decompose`` or ``scan``.

    Half the cases are drawn to be well formed: a known family with its
    own parameters in range, a deformation the command takes, enough
    terms and initial vectors of the family's order.  The rest mix in an
    unknown family, missing, extra or out-of-range parameters, empty
    ranges, a malformed ``--deform``, too few terms and initial vectors
    of any length.  Zero initial bodies and every format come in both.
    Grids have at most 4 cells, runs at most 40 terms and a horizon of at
    most 12: fractional runs grow exponentially."""
    valid = draw(st.booleans())
    command = draw(st.sampled_from(["seq", "decompose", "scan"]))
    families = [f for f in ORDERS if f in OWN_PARAMS or command != "scan"] if valid else sorted(ORDERS)
    family = draw(st.sampled_from(families))
    argv = [command, "--family", family]
    if valid or draw(st.booleans()):
        keys = OWN_PARAMS.get(family, ())
    else:
        keys = [key for key in PARAM_VALUES if draw(st.booleans())]
    cells, order = 1, ORDERS[family]
    for key in keys:
        lo = draw(st.integers(*(VALID_VALUES if valid else PARAM_VALUES)[key]))
        if key == "N":
            order = lo
        shapes = ["single", "range", "list"] + ["empty"] * (not valid) if command == "scan" else ["single"]
        shape = draw(st.sampled_from(shapes))
        if shape == "range":
            width = draw(st.integers(min_value=1, max_value=3))
            value, cells = f"{lo}..{lo + width}", cells * (width + 1)
        elif shape == "list":
            value, cells = f"{lo},{lo + 1}", cells * 2
        elif shape == "empty":
            value = f"{lo}..{lo - 1}"
        else:
            value = str(lo)
        argv.append(f"--{key}={value}")
    assume(cells <= 4)
    deforms = ([None, "none"] if command == "decompose" else DEFORMS[:4]) if valid else DEFORMS
    deform = draw(st.sampled_from(deforms))
    if deform is not None:
        argv.append(f"--deform={deform}")
    least = 8 if valid else -1
    if command == "scan":
        argv.append(f"--horizon={draw(st.integers(min_value=least, max_value=12))}")
    else:
        argv.append(f"--terms={draw(st.integers(min_value=least, max_value=40))}")
    if command == "seq":
        for option in ("--init-a", "--init-b"):
            if draw(st.booleans()):
                size = order if order and (valid or draw(st.booleans())) else draw(st.integers(1, 7))
                values = draw(st.lists(st.integers(-1, 3), min_size=size, max_size=size))
                argv.append(f"{option}={','.join(map(str, values))}")
    argv += ["--format", draw(st.sampled_from(["json", "csv", "text"]))]
    return argv


class TestNumericContract:
    @given(numeric_argvs())
    @settings(max_examples=60, deadline=None)
    def test_exits_0_1_or_2_with_one_error_line_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                status = main(argv, out=out)
            except SystemExit as exc:
                status = exc.code
        assert status in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if status == 1:
            assert re.fullmatch(r"error: [A-Za-z]+: [^\n]*\n", err.getvalue())
        if status == 0:
            assert err.getvalue() == ""
            if "json" in argv:
                for line in out.getvalue().splitlines():
                    json.loads(line)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in README.md."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n"):]
    start = after.index(f"```{language}\n") + len(language) + 4
    return after[start:after.index("```", start)]


class TestReadme:
    def test_every_cli_example_exits_0(self, tmp_path, monkeypatch):
        weighted = json.loads(_readme_block("### Quiver JSON", "json"))
        files = {
            "q.json": {key: value for key, value in weighted.items() if key != "w"},
            "wq.json": weighted,
            "p31.json": primitive(3, 1).to_dict(),
        }
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        monkeypatch.chdir(tmp_path)
        lines = _readme_block("## CLI", "sh").splitlines()
        assert lines
        for line in lines:
            command, *argv = shlex.split(line, comments=True)
            assert command == "quiverseq"
            status, output = run_cli(argv)
            assert status == 0, line
            assert output


# A JSON value that no quiver field accepts; "HUGE" stands for an integer
# past the int/str digit limit, which json.dumps cannot write.
HOSTILE = st.one_of(
    st.booleans(), st.floats(), st.just(10**40), st.just(-(10**40)), st.just("HUGE"),
    st.text(max_size=3), st.none(), st.lists(st.integers(-1, 1), max_size=2), st.just({}),
)
HUGE_TEXT = "9" * 5000


QUIVER_DAMAGE = ["entry", "skew", "ragged", "b", "no b", "n", "w length", "w entry", "w", "not an object"]


@st.composite
def quiver_files(draw):
    """(file text, vertex count) of a quiver file, broken in at most one way.

    The matrix is skew-symmetric with |b| <= 3, so that the runs stay
    small; ``"n"`` and ``"w"`` are each present or not.  Then one thing
    may be damaged: an entry replaced by a bool, a float, a huge int, a
    string or null; a skew or diagonal violation; a ragged or empty
    matrix; ``"b"`` replaced or missing; a wrong or non-integer ``"n"``;
    a ``"w"`` of the wrong length, with a bad entry or not a list; or a
    file that is not a JSON object."""
    n = draw(st.integers(min_value=0, max_value=4))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = draw(st.integers(min_value=-3, max_value=3))
            b[j][i] = -b[i][j]
    data = {"b": b}
    if draw(st.booleans()):
        data["n"] = n
    if draw(st.booleans()):
        data["w"] = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    damage = draw(st.sampled_from([None] * 6 + QUIVER_DAMAGE))
    w = data.setdefault("w", []) if damage in ("w length", "w entry") else None
    if damage == "entry" and n:
        b[draw(vertex)][draw(vertex)] = draw(HOSTILE)
    elif damage == "skew" and n:
        b[draw(vertex)][draw(vertex)] += draw(st.integers(min_value=1, max_value=3))
    elif damage == "ragged" and n:
        row = b[draw(vertex)]
        row.append(0) if draw(st.booleans()) else row.pop()
    elif damage == "b":
        data["b"] = draw(HOSTILE)
    elif damage == "no b":
        del data["b"]
    elif damage == "n":
        data["n"] = draw(st.one_of(HOSTILE, st.sampled_from([n - 1, n + 1])))
    elif damage == "w length":
        w.append(0) if draw(st.booleans()) or not w else w.pop()
    elif damage == "w entry" and w:
        w[draw(st.integers(min_value=0, max_value=len(w) - 1))] = draw(HOSTILE)
    elif damage == "w":
        data["w"] = draw(HOSTILE)
    elif damage == "not an object":
        data = [data]
    return json.dumps(data).replace('"HUGE"', HUGE_TEXT), n


@st.composite
def scaled_quiver_files(draw):
    """(file text, vertex count) of a valid quiver file whose entries are
    scaled by an integer c of up to 4300 digits: c·P(3,1), -c·P(3,1) or
    [[0, c], [-c, 0]], with or without small weights ``"w"``."""
    c = draw(st.integers(min_value=1, max_value=_NINES))
    data = draw(st.sampled_from([_scaled_p31(c), _scaled_p31(-c), {"b": [[0, c], [-c, 0]]}]))
    n = len(data["b"])
    if draw(st.booleans()):
        data["w"] = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return json.dumps(data), n


def quiver_commands(n):
    """A quiver subcommand and its flags, for a file of ``n`` vertices;
    ``--weights`` is of length n, of length n + 1 or malformed."""
    weights = st.sampled_from([",".join(["1"] + ["0"] * (n - 1)), ",".join(["1"] * (n + 1)), "1,,1", "x"])
    return st.one_of(
        st.integers(0, n + 1).map(lambda k: ["mutate", "--at", str(k)]),
        st.just(["weight"]),
        st.just(["period", "--max", "8"]),
        weights.map(lambda w: ["period", "--max", "8", f"--weights={w}"]),
        st.just(["laurent", "--steps", "3"]),
        weights.map(lambda w: ["laurent", "--steps", "3", "--hold-weights", f"--weights={w}"]),
        st.sampled_from([["seq", "--terms", "8"], ["decompose", "--terms", "8"]]),
    )


def _check_quiver_command(text, command, flags):
    """Run one quiver command on a file with this text: it exits 0, 1 or 2,
    with no traceback and, on exit 1, one error line."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "quiver.json"
        path.write_text(text)
        with contextlib.redirect_stderr(err):
            try:
                status = main([command, "--quiver", str(path), *flags], out=io.StringIO())
            except SystemExit as exc:
                status = exc.code
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 1:
        assert re.fullmatch(r"error: [A-Za-z]+: [^\n]*\n", err.getvalue())


class TestQuiverContract:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_exits_0_1_or_2_with_one_error_line_and_no_traceback(self, data):
        text, n = data.draw(quiver_files(), label="file")
        command, *flags = data.draw(quiver_commands(n), label="command")
        _check_quiver_command(text, command, flags)

    @pytest.mark.parametrize("command", ["mutate", "weight", "period", "laurent"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_valid_files_with_huge_entries(self, command, data):
        text, n = data.draw(scaled_quiver_files(), label="file")
        flags = {
            "mutate": ["--at", str(data.draw(st.integers(1, n), label="vertex"))],
            "weight": [],
            "period": ["--max", "8"],
            "laurent": ["--steps", "1"],
        }[command]
        _check_quiver_command(text, command, [*flags, "--format", data.draw(st.sampled_from(["json", "text"]))])


class TestCatalog:
    def test_lists_families(self):
        status, output = run_cli(["catalog"])
        assert status == 0
        for name in ("somos4", "somos5", "gale_robinson", "limping_fibonacci"):
            assert name in output
        assert "A[n+4]*A[n] = A[n+1]*A[n+3] + A[n+2]^2" in output


class TestDeterminism:
    def test_byte_identical_output(self, somos4a_weighted_path):
        args = ["laurent", "--quiver", somos4a_weighted_path, "--steps", "3", "--format", "json"]
        _, first = run_cli(args)
        _, second = run_cli(args)
        assert first == second

    def test_seq_deterministic(self):
        args = ["seq", "--family", "somos5", "--terms", "12"]
        assert run_cli(args) == run_cli(args)


def _in_process(argv, capsys):
    """(status, stdout, stderr) of one ``main`` call in this process."""
    out = io.StringIO()
    try:
        status = main(argv, out=out)
    except SystemExit as exc:
        status = exc.code
    return status, out.getvalue(), capsys.readouterr().err


def _alone(argv):
    """(status, stdout, stderr) of ``argv`` run in a fresh interpreter."""
    src = str(Path(quiverseq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, "-m", "quiverseq.cli", *argv],
        capture_output=True, env=env, timeout=120, check=False,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


class TestParserReuse:
    """``main`` keeps one parser per process; no call may see an earlier one's flags."""

    def test_calls_in_sequence_match_lone_runs(self, somos4a_weighted_path, monkeypatch, capsys):
        laurent = ["laurent", "--quiver", somos4a_weighted_path, "--steps", "3", "--format", "json"]
        sequence = [
            [*laurent, "--emit", "sexpr"],
            laurent,
            ["seq", "--family", "somos4", "--terms", "12", "--init-b=1,-2,0,3"],
            ["seq", "--family", "somos4", "--terms", "12"],
            ["seq", "--family"],
            ["seq", "--family", "somos5", "--terms", "12"],
        ]
        alone = [_alone(argv) for argv in sequence]
        build_parser, builds = cli.build_parser, []

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        in_sequence = [_in_process(argv, capsys) for argv in sequence]
        assert in_sequence == alone
        assert [status for status, _, _ in alone] == [0, 0, 0, 0, 2, 0]
        assert "sexpr" in alone[0][1] and "sexpr" not in alone[1][1]
        assert alone[2][1] != alone[3][1]
        assert len(builds) <= 1


_PINNED = [
    (
        ["seq", "--family", "somos4", "--deform", "m2:1", "--init-b=1,-2,3,0", "--terms", "30"],
        ("2dbdf81d2e7edb6a", "bd37411b86e4292c", "10e5c657957c01e8"),
    ),
    (
        ["seq", "--family", "fordy-marsh-s4", "--p", "2", "--q", "3", "--deform", "m1:1", "--terms", "14"],
        ("583c0c7d710db099", "356fa268474c5c51", "340bb90b5831337d"),
    ),
    (
        ["seq", "--family", "cassini-minus", "--init-a=1,3", "--init-b=2,5", "--terms", "25"],
        ("c8dc6568ce49be32", "38c360aba0035387", "d59ae7dcae68e931"),
    ),
    (
        ["seq", "--family", "limping-fibonacci", "--terms", "30"],
        ("db42579450261257", "9f84778d6677337e", "f3cef401936ec9aa"),
    ),
    (
        ["seq", "--family", "order3-alt", "--terms", "30"],
        ("90b62b137e4c50dd", "78e650fb45471e57", "e0eb42883a879eda"),
    ),
    (
        ["decompose", "--family", "somos4", "--terms", "30"],
        ("c4b5af2fbfaa0637", "612db4dd0217f2fc", "1a2e9654a76b9b48"),
    ),
    (
        ["decompose", "--family", "somos5", "--terms", "30"],
        ("4aaff9c08e51808d", "381abc2db45fae3a", "e76ab48045ea5ef4"),
    ),
    (
        ["decompose", "--family", "gale-robinson", "--N", "6", "--r", "1", "--s", "2", "--terms", "30"],
        ("200c38b686722bea", "6f4edfc8d027b227", "1961a2ca41258bd3"),
    ),
    (
        ["decompose", "--family", "fordy-marsh-s4", "--p", "2", "--q", "3", "--terms", "14"],
        ("61675b07ba3ed9c0", "c5d7f781da7ac92c", "71a04a080893e823"),
    ),
    (
        ["decompose", "--family", "cassini-minus", "--terms", "20"],
        ("8c29d0ce8bf2b2bf", "a64c6f26effc80d7", "b4a01385ffd5c0da"),
    ),
    (
        ["scan", "--family", "fordy-marsh-s4", "--p", "1..2", "--q", "0..3", "--deform", "m1:1", "--horizon", "16"],
        ("10574e7dff0b8922", "aea7d9c701624c94", "1e67e74b197e2d10"),
    ),
    (
        # the window A[n+2]..A[n+5] skips the fraction 10/3 at n = 7, so
        # the term at n = 8 (body 6) divides to an integer after it
        [
            "seq", "--family", "gale-robinson", "--N", "7", "--r", "2", "--s", "3",
            "--init-a=3,1,1,3,3,1,1", "--init-b=1,0,-1,2,0,0,1", "--terms", "14",
        ],
        ("f9c91d204b9c0f07", "0f2cb6f5a7e8583a", "fd39d782fbb0d4a1"),
    ),
]


class TestNumericPins:
    """SHA-256 prefixes of ``seq``, ``decompose`` and ``scan`` output.

    The cases cover deformed runs with non-zero initial slopes, runs and
    basis rows that go fractional (``fordy-marsh-s4`` with ``m1:1``, and
    ``cassini-minus``, whose bodies start at 1, 3), a Gale-Robinson run
    whose window skips a fraction, ``m1`` schedules, and a deformed scan
    grid.
    """

    @pytest.mark.parametrize(
        "argv, fmt, digest",
        [
            (argv, fmt, digest)
            for argv, digests in _PINNED
            for fmt, digest in zip(("json", "csv", "text"), digests)
        ],
    )
    def test_output_digest(self, argv, fmt, digest):
        status, output = run_cli([*argv, "--format", fmt])
        assert status == 0
        assert hashlib.sha256(output.encode()).hexdigest()[:16] == digest


_QUIVER_PINNED = [
    (["mutate", "--quiver", "somos4a_weighted_path", "--at", "1"], ("23d54838f92c2923", "589073dcb7d6d643")),
    (["mutate", "--quiver", "somos4a_weighted_path", "--at", "2"], ("e80d726c08c7891e", "efaf6a64d1a37ac2")),
    (["mutate", "--quiver", "p31_path", "--at", "1"], ("dbc7448090b027af", "793b4ce50400630e")),
    (["mutate", "--quiver", "p31_path", "--at", "2"], ("53923f930239f7a5", "9d32a49b9569ff1a")),
    (["weight", "--quiver", "somos4a_path"], ("adb6b753aaeddfdb", "24061040b995b408")),
    (["weight", "--quiver", "p31_path"], ("c81e504aaaa590a2", "7723da545b2ca0e9")),
    (
        ["period", "--quiver", "p31_path", "--weights", "1,1,1", "--max", "10"],
        ("63905398124b8c92", "a09f9ad9f203c3bf"),
    ),
    (
        ["period", "--quiver", "p31_path", "--weights", "1,1,1", "--max", "5"],
        ("d6a848670c7a6fb0", "921ee6060ccdfdc9"),
    ),
    (["catalog"], ("890593cdc4d9658c", "28a469c4ccde598d")),
]


class TestQuiverPins:
    """SHA-256 prefixes of ``mutate``, ``weight``, ``period`` and ``catalog`` output.

    A ``--quiver`` value names the fixture that writes the file: the
    weighted Somos-4 quiver, its unweighted form, or P(3,1).  The period
    cases are P(3,1) with weights 1,1,1, whose period 6 is found within
    10 cycles and not within 5.
    """

    @pytest.mark.parametrize(
        "argv, fmt, digest",
        [
            (argv, fmt, digest)
            for argv, digests in _QUIVER_PINNED
            for fmt, digest in zip(("json", "text"), digests)
        ],
    )
    def test_output_digest(self, argv, fmt, digest, request):
        argv = [request.getfixturevalue(a) if a.endswith("_path") else a for a in argv]
        status, output = run_cli([*argv, "--format", fmt])
        assert status == 0
        assert hashlib.sha256(output.encode()).hexdigest()[:16] == digest

    @pytest.fixture
    def period_one_calls(self, monkeypatch):
        calls = []
        is_period_one = Quiver.is_period_one

        def counting(self):
            calls.append(1)
            return is_period_one(self)

        monkeypatch.setattr(Quiver, "is_period_one", counting)
        return calls

    def test_weight_checks_period_one_twice(self, somos4a_path, period_one_calls):
        assert run_cli(["weight", "--quiver", somos4a_path])[0] == 0
        assert len(period_one_calls) == 2

    @pytest.mark.parametrize(
        "command, path, checks",
        [("seq", "somos4a_weighted_path", 1), ("decompose", "somos4a_path", 2)],
    )
    def test_compiling_a_quiver_checks_period_one_once(self, command, path, checks, period_one_calls, request):
        # weight_trace makes the one check of compilation; solving the
        # weights of an unweighted file makes the other
        path = request.getfixturevalue(path)
        period_one_calls.clear()  # the weighted fixture solves its weights
        assert run_cli([command, "--quiver", path, "--deform", "none"])[0] == 0
        assert len(period_one_calls) == checks

    @pytest.mark.parametrize("command", ["seq", "decompose"])
    def test_weighted_quiver_not_period_one(self, tmp_path, command, capsys):
        path = tmp_path / "not_p1.json"
        path.write_text(json.dumps(WeightedQuiver(Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), (1, 0, 0)).to_dict()))
        assert run_cli([command, "--quiver", str(path)]) == (1, "")
        assert capsys.readouterr().err == "error: NotPeriodOneError: weight trace requires a period-1 quiver\n"


_LIMIT = TestDigitLimit.ERROR

_STOPPED = [
    (["seq", "--family", "somos4", "--terms", "320"], 1, ("6d3be81e8cb0405b", "1ce4ad78d876786c", "15fb43c9c32e0e08"), _LIMIT),
    (["decompose", "--family", "somos4", "--terms", "320"], 1, ("e3b0c44298fc1c14", "1468f1126c2f88cd", "e3b0c44298fc1c14"), _LIMIT),
    (
        ["decompose", "--family", "fordy-marsh-s4", "--p", "2", "--q", "3", "--terms", "18"],
        1,
        ("e3b0c44298fc1c14", "3d148c0e83dc4549", "e3b0c44298fc1c14"),
        _LIMIT,
    ),
    (
        ["seq", "--family", "somos4", "--terms", "2"],
        1,
        ("e3b0c44298fc1c14",) * 3,
        "error: BadParamsError: count 2 smaller than order 4\n",
    ),
    (
        ["decompose", "--family", "somos4", "--deform", "m2:1", "--terms", "20"],
        1,
        ("e3b0c44298fc1c14",) * 3,
        "error: BadParamsError: basis decomposition applies to undeformed recurrences\n",
    ),
    (
        ["seq", "--family", "somos4", "--init-a=1,1,1,0", "--terms", "10"],
        0,
        ("961ec997d6f2bbd8", "391c3ab39a4fc1e1", "4d803b84898032b1"),
        "",
    ),
]


class TestStoppedRunPins:
    """Exit status, SHA-256 prefix of stdout and exact stderr of runs that fail or stop.

    ``e3b0c44298fc1c14`` is empty output.  A run past the 4300-digit
    limit prints the rows before its first unprintable term: 313 for
    Somos-4 ``seq``, and for ``decompose`` the values of the first basis
    row in csv, but no line for that row in json or text.  Input that
    the run rejects prints no CSV header.  A degenerate run's text
    trailer follows its rows.
    """

    @pytest.mark.parametrize(
        "argv, status, fmt, digest, err",
        [
            pytest.param(argv, status, fmt, digest, err, id=f"case{n}-{fmt}")
            for n, (argv, status, digests, err) in enumerate(_STOPPED)
            for fmt, digest in zip(("json", "csv", "text"), digests)
        ],
    )
    def test_output(self, argv, status, fmt, digest, err, capsys):
        got, output = run_cli([*argv, "--format", fmt])
        assert got == status
        assert hashlib.sha256(output.encode()).hexdigest()[:16] == digest
        assert capsys.readouterr().err == err
