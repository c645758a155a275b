from __future__ import annotations

import json

import pytest

from conftest import AFFINE_H_R, low_without, reference_merged_state_witness
from coxauto import parse_coxeter_system
from coxauto.automata import (build_canonical_automaton,
                              build_shadow_automaton, minimize)
from coxauto import automata, conjectures
from coxauto.conjectures import (StatsRow, Verdict, check_conjecture,
                                 stats_csv, stats_row)
from coxauto.elements import generator, mult_left
from coxauto.garside import (Shadow, VerdictStatus, garside_closure,
                             low_elements, verify_shadow)
from coxauto.errors import InvalidGroupSpec
from coxauto.smallroots import SmallRootTable, build_small_roots


def test_stats_row_aff_a2(aff_a2):
    row = stats_row(aff_a2, group_name="~A2")
    assert (row.canonical_states, row.shadow_states, row.minimal_states,
            row.small_roots, row.spherical_small_roots) == (16, 16, 16, 6, 6)
    assert row.cap_stable


def test_stats_row_builds_each_table_once(monkeypatch):
    built = []
    real_init = SmallRootTable.__init__

    def counting_init(self, *args):
        built.append(self)
        real_init(self, *args)

    monkeypatch.setattr(SmallRootTable, "__init__", counting_init)
    sys = parse_coxeter_system("~C2")
    stats_row(sys, group_name="~C2")
    assert len(built) == 1
    assert build_small_roots(sys, 0) is build_small_roots(sys, 0) is built[0]
    assert len(built) == 1
    with pytest.raises(InvalidGroupSpec, match="natural number"):
        build_small_roots(sys, -1)


@pytest.mark.parametrize("name", ["~A2", "~C2", "~G2", "~A3", "~C3", "~B3",
                                  "~D4", "H3", "B4", "I2(inf)",
                                  "triangle(2,3,7)", "triangle(4,4,4)"])
def test_stats_row_counts_the_shadow_automaton(name):
    sys = parse_coxeter_system(name)
    assert stats_row(sys).shadow_states == build_shadow_automaton(
        garside_closure(sys)).num_states


def test_stats_row_aff_g2(aff_g2):
    row = stats_row(aff_g2, group_name="~G2")
    assert (row.canonical_states, row.shadow_states, row.minimal_states,
            row.small_roots, row.spherical_small_roots) == (49, 41, 41, 12, 8)


def test_stats_row_invariant_ordering(aff_c2):
    row = stats_row(aff_c2)
    assert row.minimal_states <= row.shadow_states <= row.canonical_states
    assert row.spherical_small_roots <= row.small_roots


def test_stats_csv_header_and_rows(aff_a2):
    row = stats_row(aff_a2, group_name="~A2")
    text = stats_csv([row])
    lines = text.strip().split("\n")
    assert lines[0] == "group,a0,a_shadow,a_min,sigma,sigma_sph,cap_stable"
    assert lines[1] == "~A2,16,16,16,6,6,True"


def test_csv_fields_line_up_with_the_header(aff_g2):
    row = stats_row(aff_g2, group_name="~G2")
    fields = dict(zip(StatsRow.CSV_HEADER, row.csv_fields()))
    assert len(row.csv_fields()) == len(StatsRow.CSV_HEADER)
    assert fields == {"group": "~G2", "a0": 49, "a_shadow": 41, "a_min": 41,
                      "sigma": 12, "sigma_sph": 8, "cap_stable": True}


def test_conjecture_one_on_aff_c2(aff_c2):
    report = check_conjecture(aff_c2, "conj1")
    assert report.verdict is Verdict.HOLDS
    assert report.numbers["a_shadow"] == report.numbers["a_min"] == 24


def test_conjecture_two_on_rank3_witness(tri36):
    report = check_conjecture(tri36, "conj2")
    assert report.verdict is Verdict.HOLDS
    assert report.numbers["minimal"] is False
    assert report.numbers["sigma_eq_sph"] is False
    # the witness follows the construction: states read by su and tsu merge
    assert report.witnesses, "non-minimality must carry a witness"
    words = report.witnesses[0]
    assert words == ("13", "213")


def test_conjecture_two_positive_case(aff_a2):
    report = check_conjecture(aff_a2, "conj2")
    assert report.verdict is Verdict.HOLDS
    assert report.numbers["minimal"] is True
    assert report.numbers["sigma_eq_sph"] is True


@pytest.mark.parametrize("name", ["~C2", "~G2", "~C4", "~B4", "~F4"])
def test_conjecture_two_witness_matches_reference(name):
    # rank 3 takes the non-minimality recipe; rank 4 reads the words of the
    # first merged pair off a BFS
    sys = parse_coxeter_system(name)
    auto, _ = build_canonical_automaton(sys, 0)
    report = check_conjecture(sys, "conj2")
    assert report.witnesses
    assert report.witnesses == reference_merged_state_witness(
        auto, minimize(auto), sys)


def test_class_counts_build_no_quotient(monkeypatch, aff_c2):
    # conj1, conj2 and stats_row count a_min and find merged states off the
    # Nerode classes of A_0; conj1 builds A_B only when it fails
    def refuse(auto):
        raise AssertionError("a quotient or a shadow automaton was built")

    monkeypatch.setattr(automata, "minimize", refuse)
    monkeypatch.setattr(conjectures, "build_shadow_automaton", refuse)
    report = check_conjecture(aff_c2, "conj2")
    assert report.numbers["a_min"] == 24
    assert report.witnesses == (("13", "213"),)
    assert stats_row(aff_c2).minimal_states == 24
    report = check_conjecture(aff_c2, "conj1")
    assert report.verdict is Verdict.HOLDS
    assert report.numbers == {"a_min": 24, "a_shadow": 24, "shadow_size": 24}


@pytest.mark.parametrize("name", ["~C2", "~G2", "~C4"])
def test_conjecture_one_failure_matches_quotient(monkeypatch, name):
    # with L_0, which is larger than Gar(S) here, in place of the closure:
    # A_B is A_0 with more states than classes, and the witness is that of
    # the quotient of A_B
    sys = parse_coxeter_system(name)
    low = low_elements(sys, 0)
    monkeypatch.setattr(conjectures, "garside_closure", lambda sys: low)
    report = check_conjecture(sys, "conj1")
    auto = build_shadow_automaton(low)
    minimal = minimize(auto)
    assert report.verdict is Verdict.FAILS
    assert report.numbers == {"a_min": minimal.num_states,
                              "a_shadow": auto.num_states,
                              "shadow_size": len(low)}
    assert minimal.num_states < len(low)
    assert report.witnesses == reference_merged_state_witness(auto, minimal,
                                                              sys)


def test_spherical_hypothesis_forces_minimality():
    # the proven implication: sigma = spherical part => canonical is minimal
    for name in ("A3", "B3", "~A2", "~A3", "triangle(inf,2,inf)"):
        report = check_conjecture(parse_coxeter_system(name), "conj2")
        if report.numbers["sigma_eq_sph"]:
            assert report.numbers["minimal"] is True
            assert report.verdict is Verdict.HOLDS


def test_dyho_conjectures_on_aff_a2(aff_a2):
    report = check_conjecture(aff_a2, "dyho1", level=0)
    assert report.verdict is Verdict.HOLDS
    report = check_conjecture(aff_a2, "dyho2", level=0)
    assert report.verdict is Verdict.HOLDS
    assert report.numbers["low_size"] == report.numbers["lambda"] == 16


def test_dyho_conjectures_level_one(i2inf, aff_c2):
    for sys in (i2inf, aff_c2):
        assert check_conjecture(sys, "dyho1", level=1).verdict is Verdict.HOLDS
        assert check_conjecture(sys, "dyho2", level=1).verdict is Verdict.HOLDS


def test_report_json_is_sorted_and_parseable(aff_g2):
    report = check_conjecture(aff_g2, "conj2")
    payload = json.loads(report.to_json())
    assert list(payload) == sorted(payload)
    assert payload["verdict"] == "holds"
    assert payload["numbers"]["minimal"] is False


def test_affine_count_formulas(aff_a2, aff_c2):
    for sys, name in ((aff_a2, "~A2"), (aff_c2, "~C2")):
        h, r = AFFINE_H_R[name]
        row = stats_row(sys)
        assert row.canonical_states == (h + 1) ** r
        assert row.small_roots == r * h


def test_affine_low_element_count_convention(aff_a2, aff_c2):
    # |L_0| = (h+1)^r under the level-0 indexing used throughout
    from coxauto.garside import low_universe
    for sys, name in ((aff_a2, "~A2"), (aff_c2, "~C2")):
        h, r = AFFINE_H_R[name]
        assert len(low_universe(sys)) == (h + 1) ** r


def _one_step_suffixes(shadow):
    return [mult_left(s, el) for el in shadow for s in el.descents_left]


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("drop", ["generator", "suffix"])
def test_dyho1_reports_the_failure_of_verify_shadow(monkeypatch, aff_c2, drop,
                                                    level):
    # L_n with one element taken out: a generator, or a suffix of another
    low = low_elements(aff_c2, level)
    if drop == "generator":
        victim, reason = generator(aff_c2, 1), "missing generator 2"
    else:
        victim = next(el for el in _one_step_suffixes(low) if el.length >= 2)
        reason = "not closed under suffixes"
    broken = low_without(low, victim)
    assert len(broken) == len(low) - 1
    monkeypatch.setattr(conjectures, "low_elements",
                        lambda *args, **kwargs: broken)
    report = check_conjecture(aff_c2, "dyho1", level=level)
    # an explicit copy has no recorded suffixes, so it is checked against
    # those of the L_n it is read into
    expected = verify_shadow(Shadow(aff_c2, [el.word for el in broken]))
    assert expected.status is VerdictStatus.NOT_SHADOW
    assert expected.reason == reason
    assert report.verdict is Verdict.FAILS
    assert (report.reason, report.witnesses) == (expected.reason,
                                                 (expected.witness,))
    assert report.numbers == {"n": level, "low_size": len(broken)}
    if drop == "suffix":
        assert expected.witness[1] == str(victim)
