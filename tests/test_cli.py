import json

import pytest

from tbntools import simplex
from tbntools.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    CliError,
    env_budget,
    gen_gridgate,
    main,
    parse_configuration,
)
from tbntools.core import INF, parse_tbn, render_tbn
from tbntools.lpformat import write_lp, write_solution
from tbntools.ipmodel import build, default_bound
from tbntools.solver import brute_force_stable, solve_min

from conftest import GRID_TBN_TEXT, INTRO_TBN_TEXT, TRANSLATOR_TBN_TEXT


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.tbn"
    path.write_text(INTRO_TBN_TEXT + "\n")
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.tbn"
    path.write_text(GRID_TBN_TEXT + "\n")
    return str(path)


@pytest.fixture
def translator_file(tmp_path):
    path = tmp_path / "translator.tbn"
    path.write_text(TRANSLATOR_TBN_TEXT)
    return str(path)


# an infinite count, and an empty first slot level
EXCESS_TEXT = "b* b*, 1\nb, inf\na*, 1\na b, 2\n"


@pytest.fixture
def excess_file(tmp_path):
    path = tmp_path / "excess.tbn"
    path.write_text(EXCESS_TEXT)
    return str(path)


class TestStableCommand:
    def test_text_output(self, intro_file, capsys):
        assert main(["stable", intro_file, "--all"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "optimum merge count: 1" in out
        assert out.count("configuration") == 1
        assert "m1 + m2" in out

    def test_json_report_roundtrips(self, intro_file, capsys):
        assert main(["stable", intro_file, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "tbn-report/1"
        assert report["results"]["optimum"] == 1
        assert report["timings"]["route"] == "direct"
        assert json.loads(json.dumps(report)) == report

    def test_json_report_names_the_basis_route(
        self, translator_file, capsys
    ):
        code = main(["stable", translator_file, "--all", "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "tbn-report/1"
        assert report["results"]["optimum"] == 6
        assert len(report["results"]["configurations"]) == 2
        assert report["timings"]["route"] == "basis"

    def test_infinite_count_takes_the_basis_route(
        self, excess_file, capsys
    ):
        code = main(["stable", excess_file, "--all", "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        want = brute_force_stable(parse_tbn(EXCESS_TEXT))
        assert report["results"]["optimum"] == want.optimum == 3
        assert len(report["results"]["configurations"]) == 4
        assert report["timings"]["route"] == "basis"

    def test_infinite_count_report(self, excess_file, capsys):
        # polymer counts and implied singletons with an infinite supply
        code = main(["stable", excess_file, "--all", "--format", "json"])
        assert code == EXIT_OK
        configs = json.loads(capsys.readouterr().out)["results"][
            "configurations"
        ]
        assert [
            (c["full_polymer_count"], c["singletons"]) for c in configs
        ] == [
            ("1 + inf", ["inf x {b}"]),
            ("2 + inf", ["1 x {a b}", "inf x {b}"]),
            ("2 + inf", ["inf x {b}"]),
            ("3 + inf", ["1 x {a b}", "inf x {b}"]),
        ]

    def test_nonexistent_file(self, tmp_path, capsys):
        code = main(["stable", str(tmp_path / "nope.tbn")])
        assert code == EXIT_INPUT

    def test_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tbn"
        bad.write_text("m1: a b, nonsense\n")
        assert main(["stable", str(bad)]) == EXIT_INPUT

    def test_simplex_failure_is_an_internal_exit(
        self, intro_file, monkeypatch, capsys
    ):
        def failing(self, banned):
            raise simplex.SimplexError("iteration cap exceeded")

        monkeypatch.setattr(simplex._Simplex, "_pivot_loop", failing)
        assert main(["stable", intro_file]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: iteration cap exceeded\n"

    def test_timeout_partial_report(self, tmp_path, capsys):
        from conftest import TRANSLATOR_TBN_TEXT

        path = tmp_path / "translator.tbn"
        path.write_text(TRANSLATOR_TBN_TEXT + "\n")
        code = main(["stable", str(path), "--timeout", "0.0000001"])
        assert code == EXIT_BUDGET
        assert "budget exhausted" in capsys.readouterr().out

    def test_solution_import(self, intro_file, tmp_path, capsys):
        t = parse_tbn(INTRO_TBN_TEXT)
        model = build(t, 1)
        assignment = solve_min(model.program).assignment
        sol = tmp_path / "intro.sol"
        sol.write_text(write_solution(assignment))
        code = main(["stable", intro_file, "--solution", str(sol)])
        assert code == EXIT_OK
        assert "objective 1" in capsys.readouterr().out

    def test_bad_solution_rejected(self, intro_file, tmp_path, capsys):
        sol = tmp_path / "zero.sol"
        sol.write_text("")  # all-zero assignment drops monomer m1
        code = main(["stable", intro_file, "--solution", str(sol)])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("value", ["inf", "0.5"])
    def test_non_integral_solution_value_is_an_input_error(
        self, intro_file, tmp_path, capsys, value
    ):
        sol = tmp_path / "bad.sol"
        sol.write_text(f"E_p1 = {value}\n")
        code = main(["stable", intro_file, "--solution", str(sol)])
        assert code == EXIT_INPUT
        assert "line 1" in capsys.readouterr().err


    def test_repeated_solution_variable_is_an_input_error(
        self, intro_file, tmp_path, capsys
    ):
        sol = tmp_path / "twice.sol"
        sol.write_text("E_p1 = 1\nE_p1 = 0\n")
        code = main(["stable", intro_file, "--solution", str(sol)])
        assert code == EXIT_INPUT
        assert "line 2: E_p1 already set on line 1" in capsys.readouterr().err


class TestBasisCommand:
    def test_grid(self, grid_file, capsys):
        assert main(["basis", grid_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("6 basis elements")

    def test_single_monomer(self, tmp_path, capsys):
        path = tmp_path / "one.tbn"
        path.write_text("m: a\n")
        assert main(["basis", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("1 basis element")

    def test_cap_exhausted_is_a_budget_exit(self, translator_file, capsys):
        assert main(["basis", translator_file, "--cap", "3"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_environment_node_budget(
        self, translator_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("TBN_MAX_NODES", "3")
        assert main(["basis", translator_file]) == EXIT_BUDGET


class TestVerifyCommand:
    def run_verify(self, intro_file, tmp_path, capsys, config_text):
        cfg = tmp_path / "config.txt"
        cfg.write_text(config_text)
        assert main(["verify", intro_file, str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        return {
            line.split(":")[0]: line.split()[-1]
            for line in out.splitlines()
            if ":" in line
        }

    def test_stable_configuration(self, intro_file, tmp_path, capsys):
        verdicts = self.run_verify(
            intro_file, tmp_path, capsys, "m1 + m2\n...\n"
        )
        assert verdicts == {
            "valid": "true",
            "saturated": "true",
            "locally_stable": "true",
            "stable": "true",
        }

    def test_infinite_count_configuration(self, excess_file, tmp_path, capsys):
        # {b* b*} with two {b}, and {a*} with one {a b}
        verdicts = self.run_verify(
            excess_file, tmp_path, capsys, "1 + 4 + 4\n2 + 3\n...\n"
        )
        assert verdicts == {
            "valid": "true",
            "saturated": "true",
            "locally_stable": "true",
            "stable": "true",
        }

    def test_exhausted_budget_leaves_stable_undecided(
        self, intro_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("TBN_MAX_NODES", "0")
        verdicts = self.run_verify(
            intro_file, tmp_path, capsys, "m1 + m2\n...\n"
        )
        assert verdicts["saturated"] == "true"
        assert verdicts["stable"] == "-"

    def test_exhausted_budget_leaves_local_stability_undecided(
        self, intro_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("TBN_MAX_SECONDS", "0")
        verdicts = self.run_verify(
            intro_file, tmp_path, capsys, "m1 + m2\n...\n"
        )
        assert verdicts["saturated"] == "true"
        assert verdicts["locally_stable"] == "-"
        assert verdicts["stable"] == "-"

    def test_one_clock_covers_both_verdicts(
        self, intro_file, tmp_path, capsys, monkeypatch
    ):
        # the split search of m1 + m2 fixes m1 = 0 and then m2 = 0, two
        # nodes, so the stable search starts on a spent clock
        monkeypatch.setenv("TBN_MAX_NODES", "2")
        verdicts = self.run_verify(
            intro_file, tmp_path, capsys, "m1 + m2\n...\n"
        )
        assert verdicts["locally_stable"] == "true"
        assert verdicts["stable"] == "-"

    def test_local_stability_without_the_basis(
        self, tmp_path, capsys, monkeypatch
    ):
        # grid-gate n=4's polymer basis needs far more than 1000 nodes;
        # the split search of the polymer below takes 5
        tbn = tmp_path / "gridgate4.tbn"
        tbn.write_text(render_tbn(gen_gridgate(4, 2)))
        monkeypatch.setenv("TBN_MAX_NODES", "1000")
        verdicts = self.run_verify(
            str(tbn), tmp_path, capsys, "G + V1 + V2 + V3 + V4\n...\n"
        )
        assert verdicts["locally_stable"] == "true"

    def test_saturated_but_not_stable(self, intro_file, tmp_path, capsys):
        # two merges where one suffices
        verdicts = self.run_verify(
            intro_file, tmp_path, capsys, "m1 + m2 + m3\n...\n"
        )
        assert verdicts["valid"] == "true"
        assert verdicts["saturated"] == "true"
        assert verdicts["stable"] == "false"

    def test_all_singletons_not_saturated(
        self, intro_file, tmp_path, capsys
    ):
        verdicts = self.run_verify(
            intro_file, tmp_path, capsys, "m1\nm2\nm3\nm4\n"
        )
        assert verdicts["valid"] == "true"
        assert verdicts["saturated"] == "false"

    def test_overuse_invalid(self, intro_file, tmp_path, capsys):
        verdicts = self.run_verify(
            intro_file, tmp_path, capsys, "m1 + m2\nm1 + m2\n"
        )
        assert verdicts["valid"] == "false"

    def test_overuse_detail(self, excess_file, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("2 + 2 + 2\n")
        argv = ["verify", excess_file, str(cfg), "--format", "json"]
        assert main(argv) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["detail"] == "monomer a* used 3 times, supply is 1"
        assert results["verdicts"] == {
            "valid": False,
            "saturated": None,
            "locally_stable": None,
            "stable": None,
        }

    def test_indices_accepted(self, intro_file, tmp_path, capsys):
        t = parse_tbn(INTRO_TBN_TEXT)
        i1 = t.monomer_by_label("m1") + 1
        i2 = t.monomer_by_label("m2") + 1
        verdicts = self.run_verify(
            intro_file, tmp_path, capsys, f"{i1} + {i2}\n...\n"
        )
        assert verdicts["stable"] == "true"

    def test_every_label_of_merged_duplicates(self, tmp_path, capsys):
        # r and r2 are one type with count 2; both labels resolve to it
        tbn = tmp_path / "dup.tbn"
        tbn.write_text("r: b\nr2: b\nq: b*\n")
        verdicts = self.run_verify(str(tbn), tmp_path, capsys, "q + r + r2\n")
        assert verdicts["valid"] == "true"
        assert verdicts["saturated"] == "true"


class TestPathwayCommand:
    def test_swap(self, tmp_path, capsys):
        tbn = tmp_path / "swap.tbn"
        tbn.write_text("x: a*\ny: a\nz: a b\n")
        src = tmp_path / "from.cfg"
        src.write_text("x + y\nz\n")
        dst = tmp_path / "to.cfg"
        dst.write_text("x + z\ny\n")
        code = main([
            "pathway", str(tbn), "--from", str(src), "--to", str(dst),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "barrier 1" in out

    def test_barrier_zero_blocks(self, tmp_path, capsys):
        tbn = tmp_path / "swap.tbn"
        tbn.write_text("x: a*\ny: a\nz: a b\n")
        src = tmp_path / "from.cfg"
        src.write_text("x + y\nz\n")
        dst = tmp_path / "to.cfg"
        dst.write_text("x + z\ny\n")
        code = main([
            "pathway", str(tbn), "--from", str(src), "--to", str(dst),
            "--max-barrier", "0",
        ])
        assert code == EXIT_OK
        assert "no pathway" in capsys.readouterr().out

    def test_exposed_leftover_singleton_is_named(
        self, intro_file, tmp_path, capsys
    ):
        # m1 is not listed, so it is an implied singleton exposing a* b*
        src = tmp_path / "from.cfg"
        src.write_text("m2 + m3\n...\n")
        dst = tmp_path / "to.cfg"
        dst.write_text("m1 + m2\n...\n")
        code = main([
            "pathway", intro_file, "--from", str(src), "--to", str(dst),
        ])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: limiting monomer m1: a* b* is left over as an implied "
            "singleton that exposes a starred site\n"
        )
        assert main(["verify", intro_file, str(src)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "valid: true\nsaturated: false\nlocally_stable: false\n"
            "stable: false\n"
        )

    def test_environment_node_budget(self, tmp_path, monkeypatch, capsys):
        tbn = tmp_path / "swap.tbn"
        tbn.write_text("x: a*\ny: a\nz: a b\n")
        src = tmp_path / "from.cfg"
        src.write_text("x + y\nz\n")
        dst = tmp_path / "to.cfg"
        dst.write_text("x + z\ny\n")
        monkeypatch.setenv("TBN_MAX_NODES", "1")
        code = main([
            "pathway", str(tbn), "--from", str(src), "--to", str(dst),
        ])
        assert code == EXIT_BUDGET


class TestGridgateGenerator:
    def test_shape_invariants(self):
        for n in (1, 2, 3):
            for literal in (False, True):
                t = gen_gridgate(n, 2, caption_literal=literal)
                if n == 1 and not literal:
                    # H1 and V1 coincide at n=1; the types merge
                    assert t.n_types == 2
                else:
                    assert t.n_types == 2 * n + 1
                starred = sum(
                    mon.starred_site_count * count
                    for mon, count in zip(t.monomer_types, t.counts)
                )
                assert starred == n * n

    def test_n2_fuel2(self):
        t = gen_gridgate(2, 2)
        gate = t.monomer_types[0]
        assert gate.starred_site_count == 4
        assert sum(1 for c in t.counts if c == 2) == 4

    def test_smallest_instance(self):
        t = gen_gridgate(1, 1)
        # H1 = V1 = {x1_1}, merged into a single fuel type of count 2
        assert t.n_types == 2
        assert t.counts == (1, 2)
        literal = gen_gridgate(1, 1, caption_literal=True)
        assert literal.n_types == 3

    def test_infinite_fuel(self):
        t = gen_gridgate(3, INF)
        assert sum(1 for c in t.counts if c is INF) == 6

    def test_caption_literal_duplicates_sites(self):
        plain = gen_gridgate(2, 2)
        literal = gen_gridgate(2, 2, caption_literal=True)
        v_sites_plain = sorted(
            len(m.sites) for m in plain.monomer_types
            if m.label and m.label.startswith("V")
        )
        v_sites_literal = sorted(
            len(m.sites) for m in literal.monomer_types
            if m.label and m.label.startswith("V")
        )
        assert v_sites_plain == [2, 2]
        assert v_sites_literal == [3, 4]  # extra copies from the diagonal

    def test_rejects_n_zero(self):
        with pytest.raises(CliError):
            gen_gridgate(0, 1)


class TestBenchCommand:
    def test_csv_columns(self, capsys):
        code = main(["bench", "--n-range", "1:1", "--fuel-range", "2"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "family,n,fuel,status,optimum,nodes,millis"
        assert lines[1].startswith("gridgate,1,2,ok,1,")

    def test_infinite_fuel_row(self, capsys):
        code = main(["bench", "--n-range", "1:1", "--fuel-range", "inf"])
        assert code == EXIT_OK
        assert "gridgate,1,inf,ok" in capsys.readouterr().out

    def test_timeout_rows(self, capsys):
        code = main([
            "bench", "--n-range", "2:2", "--fuel-range", "2",
            "--timeout", "0.0000001",
        ])
        assert code == EXIT_BUDGET
        assert ",timeout," in capsys.readouterr().out

    def test_environment_time_budget(self, monkeypatch, capsys):
        monkeypatch.setenv("TBN_MAX_SECONDS", "0")
        code = main(["bench", "--n-range", "1:1", "--fuel-range", "2"])
        assert code == EXIT_BUDGET

    @pytest.mark.parametrize("flag, value", [
        ("--n-range", "x"), ("--n-range", "1:x"), ("--fuel-range", "x"),
    ])
    def test_malformed_range_is_an_input_error(self, capsys, flag, value):
        assert main(["bench", flag, value]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} must be a number, got {value.split(':')[-1]!r}\n"
        )

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--n-range", "1:1", "--fuel-range", "2",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_text().startswith("family,n,fuel")


class TestExportLp:
    def test_stdout(self, intro_file, capsys):
        assert main(["export-lp", intro_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("Minimize")
        assert "C_m0_p1" in out

    def test_to_file(self, intro_file, tmp_path):
        target = tmp_path / "model.lp"
        code = main(["export-lp", intro_file, "-o", str(target)])
        assert code == EXIT_OK
        assert target.read_text().rstrip().endswith("End")

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_fixed_objective_is_the_frozen_library_model(
        self, translator_file, capsys, symmetry
    ):
        argv = ["export-lp", translator_file, "--fixed-objective", "6"]
        assert main(argv + ["--symmetry"] * symmetry) == EXIT_OK
        out = capsys.readouterr().out
        t = parse_tbn(TRANSLATOR_TBN_TEXT)
        model = build(t, default_bound(t), symmetry_breaking=symmetry)
        assert out == write_lp(model.program.fixed(6))
        assert " fixed_objective: " in out
        for j in range(1, default_bound(t) + 1):
            assert f"converse_p{j}:" in out

    @pytest.mark.parametrize("command", ["stable", "export-lp"])
    def test_no_bound_flag(self, intro_file, capsys, command):
        assert main([command, intro_file, "--bound", "1"]) == EXIT_INPUT


class TestConfigurationParsing:
    def test_labels_and_remainder(self):
        # the "..." line is accepted and changes nothing: unlisted
        # monomers are implied singletons either way
        t = parse_tbn(INTRO_TBN_TEXT)
        polymers = parse_configuration("m1 + m2\n...\n", t)
        assert parse_configuration("m1 + m2\n", t) == polymers
        assert len(polymers) == 1
        assert polymers[0].size == 2

    def test_unknown_label(self):
        t = parse_tbn(INTRO_TBN_TEXT)
        with pytest.raises(Exception):
            parse_configuration("m1 + nope\n", t)

    def test_label_naming_two_types_is_an_input_error(self, tmp_path, capsys):
        tbn = tmp_path / "ambiguous.tbn"
        tbn.write_text("x: a\nx: b\nq: a* b*\n")
        cfg = tmp_path / "config.txt"
        cfg.write_text("q + x + x\n")
        assert main(["verify", str(tbn), str(cfg)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "label 'x'" in captured.err


class TestEnvironmentBudget:
    def test_overrides(self, monkeypatch):
        monkeypatch.setenv("TBN_MAX_NODES", "123")
        monkeypatch.setenv("TBN_MAX_SECONDS", "4.5")
        budget = env_budget()
        assert budget.max_nodes == 123
        assert budget.max_time == 4.5

    def test_timeout_argument_wins(self, monkeypatch):
        monkeypatch.setenv("TBN_MAX_SECONDS", "4.5")
        assert env_budget(timeout=9.0).max_time == 9.0

    @pytest.mark.parametrize("name, value", [
        ("TBN_MAX_NODES", "abc"), ("TBN_MAX_NODES", "1.5"),
        ("TBN_MAX_SECONDS", "abc"), ("TBN_MAX_SECONDS", "nan"),
    ])
    def test_malformed_value_is_an_input_error(
        self, intro_file, monkeypatch, capsys, name, value
    ):
        # nan would never run out: elapsed time >= nan is never true
        monkeypatch.setenv(name, value)
        assert main(["stable", intro_file]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {name} must be a number, got {value!r}\n"
        )

    @pytest.mark.parametrize("value", ["nan", "abc"])
    @pytest.mark.parametrize("command", ["stable", "bench"])
    def test_malformed_timeout_is_an_input_error(
        self, intro_file, capsys, command, value
    ):
        argv = [command, intro_file] if command == "stable" else [command]
        assert main(argv + ["--timeout", value]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"argument --timeout: value must be a number, got {value!r}\n"
        )

    def test_env_limits_whole_run(self, intro_file, monkeypatch, capsys):
        monkeypatch.setenv("TBN_MAX_SECONDS", "0.0000001")
        assert main(["stable", intro_file]) == EXIT_BUDGET
