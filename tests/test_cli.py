from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from coxauto.cli import main


def test_automaton_stats_matches_table(capsys):
    assert main(["automaton", "--group", "affine:C2", "--kind", "canonical",
                 "--stats"]) == 0
    out = capsys.readouterr().out
    assert "states: 25" in out


def test_count_with_oracle_column(capsys):
    assert main(["count", "--group", "I2(inf)", "--kind", "shadow:smallest",
                 "--max-len", "4", "--oracle"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "length,count,oracle"
    assert out[1:] == ["0,1,1", "1,2,2", "2,2,2", "3,2,2", "4,2,2"]


def test_check_conjecture_two_json(capsys):
    assert main(["check", "--group", "affine:G2", "--conjecture", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "holds"
    assert payload["numbers"]["minimal"] is False
    assert payload["numbers"]["sigma_eq_sph"] is False


def test_table_csv(capsys):
    assert main(["table", "--groups", "~A2,~C2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "group,a0,a_shadow,a_min,sigma,sigma_sph,cap_stable"
    assert lines[1] == "~A2,16,16,16,6,6,True"
    assert lines[2] == "~C2,25,24,24,8,7,True"


def test_table_row_of_d4(capsys):
    # a0 = (h+1)^r = 7^4; the other values were confirmed by minimizing both
    # automata to isomorphic 2400-state automata and verifying the closure
    assert main(["table", "--groups", "~D4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "~D4,2401,2400,2400,24,23,True"


@pytest.mark.slow
def test_table_row_of_d5(capsys):
    # the rank-5 row: a0 = 9^5, and a shadow automaton as small as a_min
    assert main(["table", "--groups", "~D5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "~D5,59049,58965,58965,40,37,True"


@pytest.mark.slow
def test_conjecture_one_on_d5(capsys):
    assert main(["check", "--group", "~D5", "--conjecture", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "holds"
    assert payload["numbers"] == {"a_min": 58965, "a_shadow": 58965,
                                  "shadow_size": 58965}


def test_roots_dump(capsys):
    assert main(["roots", "--group", "I2(inf)"]) == 0
    out = capsys.readouterr().out
    assert "2 0-small roots" in out
    assert "spherical=True" in out


def test_shadow_and_verify(capsys):
    assert main(["shadow", "--group", "I2(inf)"]) == 0
    out = capsys.readouterr().out
    assert "3 elements" in out
    assert main(["shadow", "--group", "I2(inf)", "--verify", "e,1,2,12,21"]) == 0
    out = capsys.readouterr().out
    assert "verdict: shadow" in out
    assert main(["shadow", "--group", "I2(inf)", "--verify", "e,1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: not-shadow" in out


def test_low_listing(capsys):
    assert main(["low", "--group", "~A2"]) == 0
    assert "16" in capsys.readouterr().out


def test_render_and_dot_outputs(tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    assert main(["render", "--group", "triangle(3,3,3)", "--n", "0",
                 "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    dot = tmp_path / "auto.dot"
    assert main(["automaton", "--group", "A2", "--kind", "shadow:smallest",
                 "--dot", str(dot), "--stats"]) == 0
    assert dot.read_text().startswith("digraph")
    assert "states: 6" in capsys.readouterr().out


def test_automaton_out_file_holds_the_stats(tmp_path, capsys):
    out = tmp_path / "stats.txt"
    assert main(["automaton", "--group", "~A2", "--out", str(out)]) == 0
    assert out.read_text() == "states: 16\n"
    assert main(["automaton", "--group", "~A2", "--stats",
                 "--out", str(out)]) == 0
    assert out.read_text() == "states: 16\ntransitions: 30\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, flag", [
    (["roots", "--group", "~A2"], "--out"),
    (["automaton", "--group", "~A2"], "--dot"),
    (["render", "--group", "triangle(3,3,3)"], "--svg"),
])
@pytest.mark.parametrize("target, reason", [
    ("missing/out.txt", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_output_exits_one(tmp_path, capsys, argv, flag, target,
                                     reason):
    path = str(tmp_path / target)
    assert main(argv + [flag, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: {reason}\n"


def test_matrix_file_input(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("rank 2\nm 1 2 inf\n")
    assert main(["automaton", "--group", str(path), "--kind", "shadow:smallest",
                 "--stats"]) == 0
    assert "states: 3" in capsys.readouterr().out


def test_minimize_flag(capsys):
    assert main(["automaton", "--group", "affine:G2", "--kind", "canonical",
                 "--minimize", "--stats"]) == 0
    assert "states: 41" in capsys.readouterr().out


def test_join_cap_env_var(monkeypatch, capsys):
    # no join has a cap, so the variable is not read, even when malformed
    monkeypatch.setenv("COXAUTO_JOIN_CAP", "abc")
    assert main(["shadow", "--group", "I2(inf)"]) == 0
    assert "3 elements" in capsys.readouterr().out
    assert main(["shadow", "--group", "I2(inf)", "--verify", "e,1,2"]) == 0
    assert capsys.readouterr().out == "verdict: shadow\n"


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["automaton", "--group", "A2", "--kind", "bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["low", "roots", "shadow", "automaton",
                                     "count", "check", "table"])
def test_cap_without_joins_is_a_usage_error(capsys, command):
    required = {"count": ["--max-len", "3"], "check": ["--conjecture", "1"],
                "table": ["--groups", "~A2"]}
    group = [] if command == "table" else ["--group", "~A2"]
    with pytest.raises(SystemExit) as exc:
        main([command, *group, *required.get(command, []), "--cap", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --cap 3" in capsys.readouterr().err


def test_shadow_takes_no_level(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shadow", "--group", "~A2", "--n", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --n 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["roots", "--group", "~A2"],
    ["low", "--group", "~A2"],
    ["automaton", "--group", "~A2"],
    ["count", "--group", "~A2", "--max-len", "3"],
    ["check", "--group", "~A2", "--conjecture", "dyho1"],
    ["render", "--group", "~A2", "--svg", "out.svg"],
])
def test_negative_level_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "-3"])
    assert exc.value.code == 1
    assert ("argument --n: must be a non-negative integer, got '-3'"
            in capsys.readouterr().err)


def test_negative_max_len_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--group", "~A2", "--max-len", "-1"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --max-len: must be a non-negative integer, got '-1'"
            in captured.err)


@pytest.mark.parametrize("argv, where", [
    (["check", "--conjecture", "1"], "--conjecture 1"),
    (["check", "--conjecture", "2"], "--conjecture 2"),
    (["check", "--conjecture", "conj2"], "--conjecture conj2"),
    (["automaton", "--kind", "shadow:smallest"], "--kind shadow:smallest"),
    (["count", "--kind", "shadow:smallest", "--max-len", "3"],
     "--kind shadow:smallest"),
])
def test_level_that_would_be_ignored_exits_one(capsys, argv, where):
    assert main(argv + ["--group", "~A2", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --n 1 does not apply to {where}")


def test_unknown_group_exits_one(capsys):
    assert main(["roots", "--group", "Zork"]) == 1
    assert "error" in capsys.readouterr().err


def test_internal_invariant_exits_three(monkeypatch, capsys):
    import coxauto.cli as cli
    from coxauto.errors import InternalInvariant

    def boom(*args, **kwargs):
        raise InternalInvariant("oracle mismatch")

    monkeypatch.setattr(cli, "build_small_roots", boom)
    assert main(["roots", "--group", "A2"]) == 3
    assert "invariant" in capsys.readouterr().err


def test_bad_matrix_label_exits_one(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("rank 2\nm 1 2 x\n")
    assert main(["roots", "--group", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err


def test_bad_verify_letter_exits_one(capsys):
    assert main(["shadow", "--group", "I2(inf)", "--verify", "e,1x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err


def test_field_degree_over_budget_exits_one(capsys):
    from coxauto.scalars import MAX_FIELD_DEGREE
    assert main(["roots", "--group", "I2(3000)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree 800" in err
    assert f"budget of {MAX_FIELD_DEGREE}" in err


@pytest.mark.parametrize("group, n", [
    ("I2(10000000000000061)", 10000000000000061),
    ("triangle(1000003,1000033,1000037)", 1000003 * 1000033 * 1000037),
])
def test_huge_field_label_is_refused_at_once(capsys, group, n):
    # refused by size, before 2N is factored
    from coxauto.scalars import MAX_FIELD_DEGREE
    start = time.perf_counter()
    assert main(["roots", "--group", group]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: the field Q(2cos(pi/{n})) has degree ")
    assert f"budget of {MAX_FIELD_DEGREE}" in err


@pytest.mark.parametrize("argv", [
    ["automaton", "--group", "~E6", "--kind", "canonical"],
    ["low", "--group", "~E6"],
])
def test_predicted_state_count_over_budget_exits_one(capsys, argv):
    # 13^6 Shi regions, refused before the enumeration starts
    from coxauto.garside import STATE_BUDGET
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ~E6 ") and "4,826,809" in err
    assert f"state budget of {STATE_BUDGET:,}" in err


@pytest.mark.parametrize("command", ["roots", "low"])
def test_huge_level_exits_one_at_the_dominance_budget(capsys, command):
    # at this level no ~A2 root leaves the table, which would grow forever
    from coxauto.smallroots import DOMINANCE_BUDGET
    start = time.perf_counter()
    assert main([command, "--group", "~A2", "--n", "99999999999999"]) == 1
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 99999999999999-small roots outgrew the dominance budget "
        f"of {DOMINANCE_BUDGET:,} pairs\n")


@pytest.fixture(scope="module")
def seeded_g2_closure():
    """The 84 elements of the closure of ~G2 seeded with 123121012, as words.

    The seed is 1-low but not 0-low, so verifying them decides joins in L_1.
    """
    from coxauto import parse_coxeter_system
    from coxauto.elements import from_word
    from coxauto.garside import garside_closure
    sys = parse_coxeter_system("~G2")
    seed = from_word(sys, (0, 1, 2, 1, 2, 1, 0, 1, 2))
    closure = garside_closure(sys, seeds=[seed])
    assert len(closure) == 84
    return ",".join(closure.words())


@pytest.mark.parametrize("flags, env, cap", [
    ([], None, 52),
    (["--cap", "12"], None, 12),
    ([], "12", 12),
    (["--cap", "12"], "40", 12),
])
def test_indeterminate_verify_reports_cap_in_force(monkeypatch, capsys,
                                                   seeded_g2_closure, flags,
                                                   env, cap):
    """Each way a join cap was once put in force no longer sets one.

    `cap` is the cap each case used to report. With no --cap the closure
    verifies as shadow whatever COXAUTO_JOIN_CAP holds; --cap is refused.
    """
    if env is None:
        monkeypatch.delenv("COXAUTO_JOIN_CAP", raising=False)
    else:
        monkeypatch.setenv("COXAUTO_JOIN_CAP", env)
    argv = ["shadow", "--group", "~G2", "--verify", seeded_g2_closure, *flags]
    if flags:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --cap {cap}" in err
        return
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "verdict: shadow\n"
    assert captured.err == ""


def test_low_universe_over_budget_exits_one(monkeypatch, capsys,
                                            seeded_g2_closure):
    # |L_0| = 49 fits, |L_1| = 169 does not
    from coxauto import garside
    monkeypatch.setattr(garside, "STATE_BUDGET", 100)
    assert main(["shadow", "--group", "~G2", "--verify",
                 seeded_g2_closure]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 1-low elements outgrew the state budget "
                            "of 100\n")


def test_low_universe_not_suffix_closed_exits_one(
        capsys, seeded_g2_closure, low_elements_without_a_suffix):
    assert main(["shadow", "--group", "~G2", "--verify",
                 seeded_g2_closure]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: 1-low elements are not a Garside shadow (not closed under "
        "suffixes: ")


@pytest.mark.parametrize("argv", [
    ["automaton", "--stats"],
    ["count", "--max-len", "4"],
])
def test_shadow_low_not_suffix_closed_exits_one(
        capsys, argv, low_elements_without_a_suffix):
    # shadow:low is built over L_n only after its suffix check
    assert main([*argv, "--group", "~G2", "--kind", "shadow:low",
                 "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: 1-low elements are not a Garside shadow (not closed under "
        "suffixes: ")


def test_unreadable_group_file_exits_one(tmp_path, monkeypatch, capsys):
    path = tmp_path / "group.txt"
    path.write_bytes(bytes(range(128, 256)))  # not UTF-8
    assert main(["roots", "--group", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec "
                                   "can't decode byte 0x80")
    assert captured.err.count("\n") == 1

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    assert main(["roots", "--group", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {path}: Permission denied\n"
