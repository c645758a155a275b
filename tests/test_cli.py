from __future__ import annotations

import json

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
    monkeypatch.setenv("COXAUTO_JOIN_CAP", "16")
    assert main(["shadow", "--group", "I2(inf)"]) == 0
    assert "3 elements" in capsys.readouterr().out


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["automaton", "--group", "A2", "--kind", "bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["low", "roots"])
def test_cap_without_joins_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "~A2", "--cap", "3"])
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


def test_indeterminate_exits_two(monkeypatch, capsys):
    import coxauto.cli as cli
    from coxauto.errors import CapIndeterminate

    def boom(*args, **kwargs):
        raise CapIndeterminate("join search exhausted", 24)

    monkeypatch.setattr(cli, "garside_closure", boom)
    assert main(["shadow", "--group", "I2(inf)"]) == 2
    assert "cap 24" in capsys.readouterr().err


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


def test_bad_join_cap_env_exits_one(monkeypatch, capsys):
    monkeypatch.setenv("COXAUTO_JOIN_CAP", "abc")
    assert main(["shadow", "--group", "I2(inf)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'abc'" in err


def test_field_degree_over_budget_exits_one(capsys):
    from coxauto.scalars import MAX_FIELD_DEGREE
    assert main(["roots", "--group", "I2(3000)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree 800" in err
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


@pytest.mark.parametrize("argv, env, cap", [
    (["shadow", "--group", "I2(inf)"], None, 10),
    (["automaton", "--group", "I2(inf)", "--kind", "shadow:smallest"], None, 10),
    (["shadow", "--group", "I2(inf)", "--cap", "7"], None, 7),
    (["automaton", "--group", "I2(inf)", "--kind", "shadow:smallest"], "12", 12),
])
def test_unstable_closure_reports_cap_in_force(monkeypatch, capsys, argv, env, cap):
    import coxauto.cli as cli
    from coxauto.garside import garside_closure

    def unstable(system, **kwargs):
        shadow = garside_closure(system, **kwargs)
        shadow.cap_stable = False
        return shadow

    monkeypatch.setattr(cli, "garside_closure", unstable)
    if env is None:
        monkeypatch.delenv("COXAUTO_JOIN_CAP", raising=False)
    else:
        monkeypatch.setenv("COXAUTO_JOIN_CAP", env)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"indeterminate at cap {cap}:")
