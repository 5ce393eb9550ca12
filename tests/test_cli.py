"""Command-line front end: output formats, exit codes, determinism."""

import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import superharm
from superharm import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# -- single-shot computations -------------------------------------------------


def test_dims_single_value(capsys):
    code, out = run(["dims", "--m", "3", "--n", "1", "--k", "2"], capsys)
    assert code == 0
    assert json.loads(out) == {"dim": 12}


def test_dims_sweep_csv(capsys):
    code, out = run(["dims", "--m", "3", "--n", "1", "--kmax", "3", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,harmonics,polynomials"
    assert lines[1] == "0,1,1"
    assert lines[2] == "1,5,5"
    assert lines[3] == "2,12,13"


def test_dims_csv_needs_sweep(capsys):
    code, out = run(["dims", "--m", "3", "--n", "1", "--k", "2", "--format", "csv"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "invalid-config"


def test_pizzetti_constant(capsys):
    # total sphere area at M = 1 is exactly 2
    code, out = run(["pizzetti", "--m", "3", "--n", "1", "--poly", "1"], capsys)
    assert code == 0
    assert json.loads(out) == {"value": "2"}


def test_pizzetti_degenerate_area_is_zero(capsys):
    code, out = run(["pizzetti", "--m", "2", "--n", "1", "--poly", "1"], capsys)
    assert code == 0
    assert json.loads(out) == {"value": "0"}


def test_pizzetti_bad_polynomial(capsys):
    # x4 on R^{3|2} used to be read as f1 and integrate to 0
    for m, poly in (("2", "x9^2"), ("3", "x4"), ("3", "f3"), ("3", "x1 f0")):
        code, out = run(["pizzetti", "--m", m, "--n", "1", "--poly", poly], capsys)
        assert code == 2, poly
        assert "error" in json.loads(out)


def test_pizzetti_difference(capsys):
    # "x1^2 - x2^2" used to exit 2 with "unknown factor '-'"
    code, out = run(["pizzetti", "--m", "3", "--n", "1", "--poly", "x1^2 - x2^2"], capsys)
    assert code == 0
    assert json.loads(out) == {"value": "0"}


def test_pizzetti_leading_minus(capsys):
    # a lone leading '-' used to exit 2 with "unknown factor '-'"
    for poly, value in (("- x1^2", "-2"), ("- (1/2) x1^2", "-1")):
        code, out = run(["pizzetti", "--m", "3", "--n", "1", "--poly", poly], capsys)
        assert code == 0, poly
        assert json.loads(out) == {"value": value}, poly


def test_pizzetti_empty_or_unclosed_coefficient(capsys):
    # each used to parse as 0: pizzetti printed "0" (the integral of "(1" is
    # 2) and fischer of blank text printed no blocks
    for cmd, poly in (("pizzetti", "(1"), ("pizzetti", "( ) x1^2"), ("pizzetti", ""),
                      ("fischer", "")):
        code, out = run([cmd, "--m", "3", "--n", "1", "--poly", poly], capsys)
        assert code == 2, (cmd, poly)
        assert json.loads(out)["error"]["type"] == "invalid-config", (cmd, poly)


def test_fischer_classical_blocks(capsys):
    code, out = run(["fischer", "--m", "2", "--n", "0", "--poly", "x1^2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["round_trip"] is True
    assert [b["j"] for b in payload["blocks"]] == [0, 1]


def test_fischer_rejects_inhomogeneous(capsys):
    code, out = run(["fischer", "--m", "2", "--n", "0", "--poly", "x1^2 + x2"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "invalid-config"


def test_fischer_rejects_degenerate_superdimension(capsys):
    code, out = run(["fischer", "--m", "2", "--n", "1", "--poly", "x1^2"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "unsupported-signature"


def test_funk_hecke_classical_value(capsys):
    code, out = run(["funk-hecke", "--m", "3", "--n", "0", "--l", "0", "--k", "2"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "4/3*pi"


def test_funk_hecke_parity_zero(capsys):
    code, out = run(["funk-hecke", "--m", "3", "--n", "0", "--l", "0", "--k", "1"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_funk_hecke_profile_rows(capsys):
    code, out = run(
        ["funk-hecke", "--m", "3", "--n", "1", "--l", "1", "--profile", "0,1,0,1/2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert [v["k"] for v in payload["values"]] == [1, 3]


def test_funk_hecke_needs_kernel(capsys):
    code, out = run(["funk-hecke", "--m", "3", "--n", "1", "--l", "0"], capsys)
    assert code == 2


def test_bochner_gaussian_self_reciprocal(capsys):
    # k = 0 is nu = -1/2 on R^{3|2}, which used to exit 2 with "order must exceed -1/2"
    for k in ("1", "0"):
        code, out = run(
            ["bochner", "--m", "3", "--n", "1", "--k", k, "--profile", "exp(1/2)"], capsys
        )
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert row["value"] == pytest.approx(math.exp(-row["u"] ** 2 / 2), rel=1e-12)


def test_bochner_laguerre_profile_converges(capsys):
    # the quadrature route refused this convergent transform ("error estimate 6")
    code, out = run(
        ["bochner", "--m", "3", "--n", "0", "--k", "0", "--profile", "lagexp(6,4,1/4)"], capsys
    )
    assert code == 0
    rows = {row["u"]: row["value"] for row in json.loads(out)["rows"]}
    assert abs(rows[2.0] - 5.571856382789) < 1e-9


def test_bochner_rejects_growth(capsys):
    # exp(a) with a <= 0 used to count as decaying: a wrong value, or an OverflowError
    for n, k, profile in (("0", "0", "poly([0,1])"), ("1", "1", "exp(0)"), ("1", "1", "exp(-1)")):
        code, out = run(
            ["bochner", "--m", "3", "--n", n, "--k", k, "--profile", profile], capsys
        )
        assert code == 2, profile
        assert json.loads(out)["error"]["type"] == "non-integrable"


def test_reduce_integral_gaussian_branches(capsys):
    code, out = run(["reduce-integral", "--m", "2", "--n", "1", "--profile", "exp(1)"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "1"
    code, out = run(["reduce-integral", "--m", "3", "--n", "1", "--profile", "exp(1)"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "pi^(1/2)"
    # divergent integrals on the quadrature branches used to print 5.4e171,
    # 1.4e102 and (scaled below the absolute error floor) 1.76e-7, and e^u to
    # raise OverflowError
    for m, n, profile in (("3", "0", "pow(1)"), ("1", "1", "pow(-1)"), ("3", "0", "exp(-1)"),
                          ("1", "0", "1/1000000000*pow(-1/2)")):
        code, out = run(["reduce-integral", "--m", m, "--n", n, "--profile", profile], capsys)
        assert code == 2, profile
        assert json.loads(out)["error"]["type"] == "non-integrable"


def test_reduce_integral_refuses_non_decaying_profiles_at_even_negative_superdim(capsys):
    # on R^{2|4} (M = -2) the value is -h'(0)/pi, which used to be printed for
    # profiles whose derivative does not decay: -1*pi^-1 for u, e^u and 1 + u,
    # 0 for u^3 and u^2 log u (the true integrals are 0, 0, and divergent)
    sig = ["--m", "2", "--n", "2"]
    for profile in ("pow(1)", "exp(-1)", "poly([1,1])", "pow(3)", "powlog(2)"):
        code, out = run(["reduce-integral"] + sig + ["--profile", profile], capsys)
        assert code == 2, profile
        assert json.loads(out)["error"]["type"] == "non-integrable", profile
    for profile, value in (("exp(0)", "0"), ("exp(1)", "pi^-1"), ("lagexp(2,1,1/2)", "9/2*pi^-1")):
        code, out = run(["reduce-integral"] + sig + ["--profile", profile], capsys)
        assert code == 0, profile
        assert json.loads(out)["value"] == value, profile


def test_lagexp_degree_outside_range_refused(capsys):
    # lagexp(-1,0,1) used to be the zero profile and integrate to 0; a large
    # degree used to take minutes to parse (37 s at 3000)
    for profile in ("lagexp(-1,0,1)", "lagexp(3000,0,1)", "2*lagexp(20000,0,1)", "lagexp(13,0,1)"):
        code, out = run(["reduce-integral", "--m", "3", "--n", "1", "--profile", profile], capsys)
        assert code == 2, profile
        assert json.loads(out)["error"]["type"] == "invalid-config", profile
    for cmd in (["bochner", "--k", "1", "--profile"], ["spectrum", "--jmax", "1", "--kmax", "0", "--V"]):
        code, out = run(cmd + ["lagexp(3000,0,1)", "--m", "3", "--n", "0"], capsys)
        assert code == 2, cmd
        assert json.loads(out)["error"]["message"] == "lagexp degree 3000 above cap 12", cmd
    code, out = run(["reduce-integral", "--m", "3", "--n", "1", "--profile", "lagexp(12,0,1)"], capsys)
    assert code == 0


@pytest.mark.parametrize("profile, wants", [
    ("lagexp(1,2)", "lagexp wants (j, q, a) with integer j >= 0"),
    ("lagexp(1.5,0,1)", "lagexp wants (j, q, a) with integer j >= 0"),
    ("lagexp(a,0,1)", "lagexp wants (j, q, a) with integer j >= 0"),
    ("exp()", "exp wants (a)"),
])
def test_profile_grammar_error_names_the_tag(capsys, profile, wants):
    # these used to say "not enough values to unpack", "invalid literal for int()"
    # or "Invalid literal for Fraction: ''"
    code, out = run(["reduce-integral", "--m", "3", "--n", "1", "--profile", profile], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"type": "invalid-config", "message": f"{wants}: {profile!r}"}


def test_arithmetic_overflow_is_structured_error(capsys):
    # the exponent 1e400 parses exactly but overflows a float: this used to end in a traceback
    argv = ["spectrum", "--m", "3", "--n", "0", "--V", "pow(1e400)", "--jmax", "1", "--kmax", "0"]
    code, out = run(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "invalid-config"


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "dims", boom)
    code, out = run(["dims", "--m", "3", "--n", "1", "--k", "2"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"type": "internal-error", "message": "boom"}


def test_fundsol_normalization(capsys):
    code, out = run(["fundsol", "--m", "3", "--n", "1", "--l", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["annihilated"] is True
    assert payload["normalization"]["computed"] == "-2"
    assert payload["normalization"]["passed"] is True


# -- kernel expansion check ---------------------------------------------------


def test_mehler_seeded_pass(capsys):
    code, out = run(["mehler", "--m", "3", "--n", "1", "--seed", "11"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["residual"] < 1e-8


def test_mehler_degenerate_rejected(capsys):
    code, out = run(["mehler", "--m", "2", "--n", "1", "--seed", "11"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "unsupported-signature"


def test_tolerance_drives_check_failure(capsys, monkeypatch):
    # an unreachable tolerance turns the same run into a reported failure
    argv = ["mehler", "--m", "3", "--n", "1", "--seed", "11"]
    code, out = run(argv + ["--tol", "1e-30"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["tolerance"] == 1e-30
    # --tol is the only source: the retired environment variable changes nothing
    monkeypatch.setenv("SUPERHARM_TOL", "1e-30")
    code, out = run(argv, capsys)
    assert code == 0 and json.loads(out)["tolerance"] == 1e-10


def test_non_finite_tolerance_refused(capsys):
    # inf used to pass a 0.018 residual and print the non-JSON token Infinity
    for tol in ("inf", "1e400", "nan", "0", "-1"):
        code, out = run(["mehler", "--m", "3", "--n", "1", "--tol", tol], capsys)
        assert code == 2, tol
        assert json.loads(out)["error"] == {"type": "invalid-config",
                                            "message": "tolerance must be positive and finite"}


@pytest.mark.parametrize("argv", [
    # dims used to refuse --tol nan with a JSON error over a flag it never reads
    ["dims", "--m", "3", "--n", "1", "--k", "2"],
    # every profile the command line builds is summed in closed form or refused
    # before the quadrature, the only reader of a tolerance
    ["reduce-integral", "--m", "3", "--n", "1", "--profile", "exp(1)"],
])
def test_tolerance_on_a_command_that_reads_none_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--tol", "nan"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol nan" in captured.err


def test_subcommand_options_are_pinned():
    # --tol is declared only where a handler reads it, so a flag that nothing
    # reads cannot come back unnoticed
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions for o in a.option_strings)
           for name, p in sub.choices.items()}
    sig = ["--m", "--n"]
    expected = {
        "dims": sig + ["--k", "--kmax", "--format"],
        "pizzetti": sig + ["--poly"],
        "fischer": sig + ["--poly"],
        "funk-hecke": sig + ["--l", "--k", "--profile"],
        "bochner": sig + ["--k", "--profile"],
        "mehler": sig + ["--kmax", "--seed", "--tol"],
        "fundsol": sig + ["--l"],
        "spectrum": sig + ["--V", "--jmax", "--kmax", "--rmax", "--nodes", "--box", "--window",
                           "--format"],
        "reduce-integral": sig + ["--profile"],
        "verify-all": ["--seed", "--suite"],
    }
    assert got == {name: sorted(opts + ["--out", "-h", "--help"]) for name, opts in expected.items()}
    assert [name for name, opts in got.items() if "--tol" in opts] == ["mehler"]


# -- spectra ------------------------------------------------------------------


def test_spectrum_oscillator_rows(capsys):
    code, out = run(
        ["spectrum", "--m", "3", "--n", "1", "--V", "osc", "--jmax", "2", "--kmax", "2"], capsys
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["E"] for r in rows[:4]] == [0.5, 1.5, 2.5, 2.5]
    assert rows[0]["degeneracy"] == 1
    assert rows[1]["degeneracy"] == 5
    by_jk = {(r["j"], r["k"]): r for r in rows}
    assert by_jk[(0, 2)]["degeneracy"] == 12


def test_spectrum_csv_flat(capsys):
    code, out = run(
        ["spectrum", "--m", "1", "--n", "0", "--V", "osc", "--jmax", "1", "--kmax", "0",
         "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,k,E,degeneracy,err"
    assert len(lines) == 3


def test_spectrum_empty_window_csv_is_an_empty_table(capsys):
    argv = ["spectrum", "--m", "3", "--n", "0", "--V", "osc", "--jmax", "1", "--kmax", "0",
            "--window", "100", "200"]
    code, out = run(argv, capsys)
    assert (code, json.loads(out)["rows"]) == (0, [])
    code, out = run(argv + ["--format", "csv"], capsys)
    assert (code, out) == (0, "")


def test_spectrum_numeric_oscillator(capsys):
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "0",
         "--kmax", "0", "--rmax", "10", "--nodes", "800"], capsys
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["E"] - 1.5) < 1e-5
    assert row["err"] < 1e-4


def test_spectrum_numeric_needs_confinement(capsys):
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V=-1*pow(-1/2)", "--jmax", "0",
         "--kmax", "0"], capsys
    )
    assert code == 2
    assert "box" in json.loads(out)["error"]["message"]


def test_spectrum_refuses_one_dimensional_hydrogen(capsys):
    # D = M + 2k = 1 at k = 0: V(r^2) = -1/r is not integrable against r^0
    code, out = run(
        ["spectrum", "--m", "3", "--n", "1", "--V=-1*pow(-1/2)", "--box", "--rmax", "60",
         "--window", "-1", "0", "--jmax", "2", "--kmax", "1"], capsys
    )
    assert code == 2
    assert "too singular" in json.loads(out)["error"]["message"]


def test_spectrum_refuses_more_levels_than_nodes(capsys):
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "5",
         "--kmax", "0", "--nodes", "2"], capsys
    )
    assert code == 2
    assert "6 levels requested from a 2-node grid" in json.loads(out)["error"]["message"]


def test_spectrum_refuses_non_finite_matrix(capsys):
    # 1e300 u^4 overflows to inf at the outer nodes
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,0,0,0,1e300])", "--jmax", "1",
         "--kmax", "0"], capsys
    )
    assert code == 2
    assert "infinite or NaN" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("window", [["5", "1"], ["nan", "1"]])
def test_spectrum_rejects_impossible_window(window, capsys):
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "1",
         "--kmax", "0", "--window"] + window, capsys
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "invalid-config"
    assert "window" in error["message"]


@pytest.mark.parametrize("V", ["poly([0,1/2])", "osc"])
def test_spectrum_window_keeps_radial_quantum_numbers(V, capsys):
    # the numeric route used to number the levels left in the window (j = 0,
    # 1 for E = 3.5, 5.5), and the exact route ignored the window
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V", V, "--jmax", "2", "--kmax", "0",
         "--window", "3", "10"], capsys
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["j"] for r in rows] == [1, 2]
    assert [round(r["E"], 6) for r in rows] == [3.5, 5.5]


def test_spectrum_refuses_coarse_grid(capsys):
    # 2 nodes used to print E = 0.147 as j = 1 before 0.277 as j = 0
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "1",
         "--kmax", "0", "--nodes", "2"], capsys
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "invalid-config"
    assert "--nodes" in error["message"]


def test_spectrum_refuses_coarse_grid_for_one_level_sectors(capsys):
    # one level per sector used to pass unchecked: E = 16.07 for k = 12 (true 13.5)
    argv = ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "0",
            "--kmax", "12", "--format", "csv", "--nodes"]
    code, out = run(argv + ["2"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "invalid-config"
    assert "--nodes" in error["message"]
    code, out = run(argv + ["9"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[1]) for r in rows] == list(range(13))


@pytest.mark.parametrize("lo", ["-inf", "-1e3", "-Infinity"])
def test_spectrum_window_takes_infinite_and_exponent_bounds(lo, capsys):
    # argparse used to read these as option names ("expected 2 arguments");
    # the window must reach the solver and keep only E = 3/2 of 3/2, 7/2
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "1",
         "--kmax", "0", "--window", lo, "2"], capsys
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["j"] for r in rows] == [0] and abs(rows[0]["E"] - 1.5) < 1e-8


@pytest.mark.parametrize("argv, code, expect", [
    (["reduce-integral", "--m", "3", "--n", "0", "--profile", "-1*exp(2)"], 0, {"superdim": 3}),
    (["bochner", "--m", "3", "--n", "0", "--k", "0", "--profile", "-1*exp(2)"], 0, {"nu": 0.5}),
    (["funk-hecke", "--m", "3", "--n", "0", "--l", "0", "--profile", "-1,0,2"], 0,
     {"values": [{"k": 0, "alpha": "-4*pi"}, {"k": 2, "alpha": "8/3*pi"}]}),
    (["pizzetti", "--m", "3", "--n", "1", "--poly", "-1/2"], 0, {"value": "-1"}),
    (["pizzetti", "--m", "3", "--n", "1", "--poly", "-x1^2"], 0, {"value": "-2"}),
    (["spectrum", "--m", "3", "--n", "0", "--jmax", "0", "--kmax", "0", "--V", "-pow(-1/2)"], 2,
     {"error": {"type": "invalid-config", "message": "potential does not grow toward r_max; "
                "pass GridSpec(box=True) to accept the Dirichlet truncation"}}),
])
def test_single_dash_values_read_as_values(argv, code, expect, capsys):
    # argparse used to read each value as an option name and end in its
    # "expected one argument" usage message, with no JSON; the "=" form worked
    got = run(argv, capsys)
    assert got == run(argv[:-2] + [f"{argv[-2]}={argv[-1]}"], capsys)
    assert got[0] == code
    payload = json.loads(got[1])
    assert {k: payload[k] for k in expect} == expect


def test_help_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce-integral", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: superharm reduce-integral")


def test_spectrum_nodes_cap(capsys):
    # any node count used to be accepted; 1e8 nodes would need tens of GB
    argv = ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "0",
            "--kmax", "0", "--nodes"]
    code, out = run(argv + [str(cli.NODES_MAX + 1)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "invalid-config",
        "message": f"--nodes {cli.NODES_MAX + 1} above cap {cli.NODES_MAX}",
    }


@pytest.mark.parametrize("argv", [
    ["pizzetti", "--poly", "1/0 x1"],               # was "unknown factor '1/0'"
    ["reduce-integral", "--profile", "1/0*exp(1)"],  # was "Fraction(1, 0)"
    ["funk-hecke", "--l", "0", "--profile", "1/0,1"],  # was "Fraction(1, 0)"
])
def test_zero_denominator_names_the_literal(argv, capsys):
    code, out = run(argv + ["--m", "3", "--n", "1"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "invalid-config", "message": "zero denominator in '1/0'",
    }


# --rmax 1e200 used to exit with "(34, 'Numerical result out of range')" from r_max^2
@pytest.mark.parametrize("grid", [["--rmax", "-5"], ["--rmax", "0"], ["--rmax", "nan"],
                                  ["--rmax", "inf"], ["--nodes", "1"], ["--rmax", "1e200"]])
def test_spectrum_rejects_bad_grid(grid, capsys):
    code, out = run(
        ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "1",
         "--kmax", "1", "--box"] + grid, capsys
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "invalid-config"
    assert "grid" in error["message"]


# -- configuration limits and output files ------------------------------------


def test_signature_caps(capsys):
    code, out = run(["dims", "--m", "7", "--n", "0", "--k", "1"], capsys)
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dims.json"
    code, out = run(["dims", "--m", "3", "--n", "1", "--k", "2", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"dim": 12}


def test_unwritable_out_reports_on_stdout(tmp_path, capsys):
    # the payload used to be written after the handlers: a FileNotFoundError traceback
    missing = tmp_path / "no-such-dir" / "x.json"
    code, out = run(["dims", "--m", "3", "--n", "1", "--k", "2", "--out", str(missing)], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "invalid-config"
    assert "no-such-dir" in error["message"]


@pytest.mark.parametrize("argv", [["dims", "--m", "3", "--n", "1", "--k", "2"],
                                  ["dims", "--m", "3", "--n", "1", "--k", "99"]])
def test_closed_stdout_exits_2_without_traceback(argv):
    """``superharm dims ... | head -c 0``: the payload, or the error payload
    of a refused command, meets a pipe whose read end is closed.  It used to
    write the error payload to the same pipe and end in a traceback, exit 1."""
    src = str(Path(superharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "superharm.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify-all", "--suite", "no-such-suite"])
    capsys.readouterr()


# -- seeded verification ------------------------------------------------------


def test_verify_subset_passes(capsys):
    code, out = run(["verify-all", "--suite", "scalar-exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [s["suite"] for s in payload["suites"]] == ["scalar-exact"]


def test_verify_subset_deterministic(capsys):
    args = ["verify-all", "--seed", "7", "--suite", "scalar-exact", "--suite",
            "grassmann-algebra"]
    _, first = run(args, capsys)
    _, second = run(args, capsys)
    assert first == second
    names = [s["suite"] for s in json.loads(first)["suites"]]
    assert names == sorted(names)


# -- import boundary ----------------------------------------------------------

_PROBE = """
import contextlib, io, json, sys
import superharm, superharm.cli
watched = json.loads(sys.argv[2])
report = {"import": {"exit": 0, "loaded": [m for m in watched if m in sys.modules]}}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = superharm.cli.main(argv)
    report[" ".join(argv)] = {"exit": code, "loaded": [m for m in watched if m in sys.modules]}
print(json.dumps(report))
"""
_NUMERIC_STACK = ("numpy", "scipy", "mpmath")


def test_exact_commands_load_no_numeric_stack():
    sig = ["--m", "3", "--n", "1"]
    commands = [
        ["dims"] + sig + ["--k", "2"],
        ["pizzetti"] + sig + ["--poly", "x1^2 f1 f2 + 1"],
        ["fischer"] + sig + ["--poly", "x1^2"],
        ["funk-hecke"] + sig + ["--k", "2", "--l", "0"],
        ["fundsol"] + sig + ["--l", "1"],
        ["spectrum"] + sig + ["--V", "osc", "--jmax", "2", "--kmax", "2"],
    ]
    report = _probe_imports(commands)
    assert len(report) == len(commands) + 1
    assert all(step == {"exit": 0, "loaded": []} for step in report.values()), report


def test_half_line_commands_load_no_numeric_stack():
    # CLI profiles have closed-form Hankel transforms and Gamma moments
    commands = [
        ["bochner", "--m", "3", "--n", "1", "--k", "1", "--profile", "exp(1/2)"],
        ["bochner", "--m", "4", "--n", "1", "--k", "0", "--profile", "exp(1)"],
        ["reduce-integral", "--m", "3", "--n", "1", "--profile", "exp(1)"],
        ["reduce-integral", "--m", "1", "--n", "1", "--profile", "exp(1)"],
        ["reduce-integral", "--m", "2", "--n", "2", "--profile", "exp(1)"],
        ["reduce-integral", "--m", "3", "--n", "0", "--profile", "pow(1)"],
        ["reduce-integral", "--m", "2", "--n", "2", "--profile", "pow(1)"],
    ]
    report = _probe_imports(commands)
    assert [step["exit"] for step in report.values()] == [0, 0, 0, 0, 0, 0, 2, 2], report
    assert all(step["loaded"] == [] for step in report.values()), report


def test_numeric_spectrum_loads_no_numpy_or_scipy():
    commands = [
        ["spectrum", "--m", "3", "--n", "0", "--V", "poly([0,1/2])", "--jmax", "1", "--kmax", "1"],
        ["spectrum", "--m", "3", "--n", "1", "--V", "poly([0,1/2])", "--jmax", "1", "--kmax", "1",
         "--format", "csv"],
    ]
    report = _probe_imports(commands, ("numpy", "scipy"))
    assert all(step == {"exit": 0, "loaded": []} for step in report.values()), report


def test_verify_all_loads_no_numpy_or_scipy():
    # the sphere-transform quadrature builds its rule on the Chebyshev points,
    # and the Bessel profile is a float power series
    commands = [
        ["verify-all", "--seed", "7"],
        ["verify-all", "--suite", "zonal-transform"],
        ["mehler", "--m", "3", "--n", "1", "--kmax", "40", "--seed", "7"],
        ["mehler", "--m", "4", "--n", "1", "--kmax", "40", "--seed", "3"],
    ]
    report = _probe_imports(commands)
    assert all(step == {"exit": 0, "loaded": []} for step in report.values()), report


def test_package_source_imports_no_numeric_stack():
    """Static guard: no module of the package imports numpy, scipy or mpmath,
    also inside a function on a path the import probes do not reach."""
    found = []
    for path in sorted(Path(superharm.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] in _NUMERIC_STACK]
    assert found == []


def test_no_command_loads_dataclasses_or_inspect():
    sig = ["--m", "3", "--n", "1"]
    commands = [
        ["dims"] + sig + ["--k", "2"],
        ["pizzetti"] + sig + ["--poly", "x1^2 f1 f2 + 1"],
        ["fischer"] + sig + ["--poly", "x1^2"],
        ["funk-hecke"] + sig + ["--k", "2", "--l", "0"],
        ["bochner"] + sig + ["--k", "1", "--profile", "exp(1/2)"],
        ["mehler"] + sig + ["--kmax", "40"],
        ["fundsol"] + sig + ["--l", "1"],
        ["spectrum"] + sig + ["--V", "poly([0,1/2])", "--jmax", "1", "--kmax", "1"],
        ["reduce-integral"] + sig + ["--profile", "exp(1)"],
        ["verify-all", "--suite", "scalar-exact"],
    ]
    report = _probe_imports(commands, ("dataclasses", "inspect"))
    assert [step["exit"] for step in report.values()] == [0] * 11, report
    assert all(step["loaded"] == [] for step in report.values()), report


def test_exact_commands_load_only_their_modules():
    watched = ["superharm.radial", "superharm.zonal", "superharm.schrodinger", "superharm.verify"]
    sig = ["--m", "3", "--n", "1"]
    commands = [
        ["dims"] + sig + ["--k", "2"],
        ["pizzetti"] + sig + ["--poly", "x1^2 f1 f2 + 1"],
        ["fischer"] + sig + ["--poly", "x1^2"],
        ["dims", "--m", "9", "--n", "1", "--k", "2"],
    ]
    report = _probe_imports(commands, watched)
    assert [step["exit"] for step in report.values()] == [0, 0, 0, 0, 2], report
    assert all(step["loaded"] == [] for step in report.values()), report


def _probe_imports(commands, watched=_NUMERIC_STACK):
    """Run the commands in one fresh interpreter (this test process has every
    module loaded already) and report the watched modules loaded after each
    step."""
    src = str(Path(superharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands), json.dumps(list(watched))],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# -- the argv grammar, fuzzed -------------------------------------------------

_RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "3/2", "1/4", "2", "-3", "5/3"])
_TAGGED = st.one_of(
    st.builds("exp({})".format, _RATIONALS),
    st.builds("pow({})".format, _RATIONALS),
    st.builds("powlog({})".format, _RATIONALS),
    st.builds("lagexp({},{},{})".format, st.integers(-1, 9), _RATIONALS, _RATIONALS),
    st.builds(lambda cs: "poly([" + ",".join(cs) + "])", st.lists(_RATIONALS, max_size=4)),
)
_PROFILES = st.one_of(_TAGGED, st.builds("{}*{}".format, _RATIONALS, _TAGGED), st.text(max_size=10))
_POLYS = st.one_of(
    st.sampled_from(["1", "0", "x1^2", "x1^2 + -1/3 x1 f1 f2 + 1", "x1^2 x2 + 2 x3 f1 f2",
                     "x1^2 + x2", "x4", "f3", "x1 f0", "x1^13"]),
    st.text(max_size=10),
)
_DEGREES = st.integers(-2, 14).map(str)


def _frag(*parts):
    """The argv fragment of ``parts``: strings as they are, strategies drawn."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


def _opt(*parts):
    """Either nothing or the fragment of ``parts``."""
    return st.one_of(st.just([]), _frag(*parts))


_SIGNATURES = _frag("--m", st.integers(-1, 8).map(str), "--n", st.integers(-1, 4).map(str))
_TOL = _opt("--tol", st.sampled_from(["1e-8", "0", "-1", "nan", "inf", "1e400", "junk"]))
_COMMANDS = st.one_of(
    st.tuples(_frag("dims"), _SIGNATURES, st.one_of(_opt("--k", _DEGREES), _frag("--kmax", _DEGREES)),
              _opt("--format", st.sampled_from(["json", "csv", "xml"]))),
    st.tuples(_frag(st.sampled_from(["pizzetti", "fischer"]), "--poly", _POLYS), _SIGNATURES),
    st.tuples(_frag("funk-hecke", "--l", _DEGREES), _SIGNATURES,
              st.one_of(_opt("--k", _DEGREES),
                        _frag("--profile", st.sampled_from(["1,0,2", "0,1,0,1/2", "", "a,b"])))),
    st.tuples(_frag("bochner", "--k", _DEGREES, "--profile", _PROFILES), _SIGNATURES),
    st.tuples(_frag("mehler"), _SIGNATURES, _opt("--kmax", st.integers(-1, 90).map(str)),
              _opt("--seed", st.integers(0, 20).map(str)), _TOL),
    st.tuples(_frag("fundsol", "--l", st.integers(-1, 8).map(str)), _SIGNATURES),
    st.tuples(_frag("spectrum", "--V", st.one_of(st.just("osc"), _PROFILES),
                    "--jmax", st.integers(-1, 2).map(str), "--kmax", st.integers(-1, 2).map(str),
                    "--nodes", st.integers(0, 60).map(str)), _SIGNATURES,
              _opt("--rmax", st.sampled_from(["8", "-5", "nan", "1e400"])), _opt("--box"),
              _opt("--format", st.sampled_from(["json", "csv"]))),
    st.tuples(_frag("reduce-integral", "--profile", _PROFILES), _SIGNATURES),
    # every suite (no --suite) would take seconds
    st.tuples(_frag("verify-all", "--suite", st.sampled_from(["scalar-exact", "no-such-suite"]))),
    st.tuples(st.lists(st.text(max_size=6), max_size=3)),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=250, deadline=None, derandomize=True)
@given(argv=_COMMANDS, out=st.sampled_from([None, "file", "missing"]))
def test_argv_grammar_fuzz(argv, out):
    with tempfile.TemporaryDirectory() as tmp:
        target = {None: None, "file": os.path.join(tmp, "out.txt"),
                  "missing": os.path.join(tmp, "no-such-dir", "out.txt")}[out]
        argv = argv + (["--out", target] if target else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
                parsed = True
            except SystemExit as exc:  # argparse refusal
                code, parsed = exc.code, False
        assert code in (0, 1, 2), argv
        assert "Traceback" not in stderr.getvalue(), argv
        text = stdout.getvalue()
        if not parsed:
            assert text == "", argv
            return
        if out == "file" and text == "":
            with open(target) as fh:
                text = fh.read()
        _assert_json_or_csv(text, argv)


def _assert_json_or_csv(text, argv):
    """A strict JSON document (no NaN or Infinity tokens) or a CSV table; an
    error is never an unexpected exception (which a handler missing one of its
    imports would raise)."""
    try:
        payload = json.loads(text, parse_constant=_reject_non_finite)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) >= 2 and len({len(r) for r in rows}) == 1, (argv, text[:200])
        return
    error = payload.get("error") if isinstance(payload, dict) else None
    assert error is None or error["type"] != "internal-error", (argv, error)


def _reject_non_finite(token):
    raise AssertionError(f"non-finite number {token} in the JSON output")
