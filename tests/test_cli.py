"""Command-line front-end tests.

Byte-level determinism is the load-bearing property here: the same request
(including the seed) must print the same JSON, and the exit code must
separate passing runs, usage errors, admissibility rejections, and genuine
check failures.

``tests/golden/*.json`` pins the reports of the README invocations and a
few more; regenerate them, only when a change alters a report on purpose,
with ``PYTHONPATH=src python3 tests/test_cli.py``.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from fockindex import cli
from fockindex.cli import Report, RunRequest, UsageError, main, run

GOLDEN = Path(__file__).with_name("golden")
X0 = json.dumps({"signature": 1, "euler": 2, "stein": True})
X1 = json.dumps({"signature": 1, "euler": -2, "h02": 1})
SPINC = json.dumps({"c1_squared": 9, "c2": -1, "signature": 1, "euler": 5})
SPINC_OFF = json.dumps({"c1_squared": 9, "c2": 0, "signature": 1, "euler": 5})

# (golden file stem, argv, exit code)
GOLDEN_RUNS = [
    ("readme-verify-algebra",
     ["verify-algebra", "--n", "2", "--cutoff", "16", "--seed", "7"], 0),
    ("readme-verify-symbols",
     ["verify-symbols", "--n", "2", "--samples", "100", "--seed", "3"], 0),
    ("readme-model-invert",
     ["model-invert", "--chirality", "both", "--n", "2", "--theta", "0.3",
      "--seed", "5"], 0),
    ("readme-relindex",
     ["relindex", "--dim", "24", "--trials", "20", "--seed", "9"], 0),
    ("readme-toeplitz", ["toeplitz", "--window", "64", "--k", "3"], 0),
    ("readme-topo", ["topo", "--x0", X0, "--x1", X1], 0),
    ("verify-symbols-n3", ["verify-symbols", "--n", "3"], 0),
    ("relindex-ranks", ["relindex", "--rank-p", "5", "--rank-r", "9"], 0),
    ("model-invert-n3", ["model-invert", "--chirality", "both", "--n", "3"], 0),
    ("topo-spinc", ["topo", "--x0", X0, "--spinc", SPINC], 0),
    ("topo-spinc-rejected", ["topo", "--x0", X0, "--spinc", SPINC_OFF], 2),
    ("verify-symbols-n6",
     ["verify-symbols", "--n", "6", "--samples", "20", "--quadrature-samples", "3",
      "--seed", "11"], 0),
    ("model-invert-n4",
     ["model-invert", "--n", "4", "--cutoff", "7", "--theta", "0.45", "--seed", "2"], 0),
    ("model-invert-n5",
     ["model-invert", "--n", "5", "--cutoff", "4", "--seed", "7"], 0),
    ("model-invert-n6-deformed",
     ["model-invert", "--n", "6", "--cutoff", "4", "--theta", "0.3", "--seed", "0"], 0),
    ("model-invert-n3-cutoff16",
     ["model-invert", "--chirality", "both", "--n", "3", "--cutoff", "16", "--theta",
      "0.3", "--seed", "1"], 0),
    ("verify-symbols-n7",
     ["verify-symbols", "--n", "7", "--samples", "20", "--quadrature-samples", "12",
      "--seed", "5"], 0),
]


def _strict_json(text):
    """The payload of a report, refusing NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _invoke(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_algebra_passes(capsys):
    code, out, _ = _invoke(
        ["verify-algebra", "--n", "3", "--cutoff", "16", "--seed", "7"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = [check["name"] for check in payload["checks"]]
    assert names == [
        "ladder-commutators",
        "ladder-adjointness",
        "oscillator-factorization",
        "square-diagonal",
        "vacuum-annihilation",
    ]
    exact = {c["name"]: c["max_error"] for c in payload["checks"]}
    assert exact["ladder-adjointness"] == 0.0
    assert exact["vacuum-annihilation"] == 0.0
    assert payload["request"]["params"] == {"cutoff": 16, "n": 3}


def test_verify_symbols_passes(capsys):
    code, out, _ = _invoke(
        ["verify-symbols", "--n", "2", "--samples", "25", "--seed", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} == {
        "gradient-factorization",
        "boundary-projector-algebra",
        "comparison-degeneration",
        "quadrature-closed-forms",
    }


def test_model_invert_both_chiralities(capsys):
    code, out, _ = _invoke(
        ["model-invert", "--n", "2", "--theta", "0.3", "--seed", "5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    names = [check["name"] for check in payload["checks"]]
    assert names == ["inverse-certificate-even", "inverse-certificate-odd"]
    for check in payload["checks"]:
        assert check["status"] == "pass"
        assert check["max_error"] <= 1e-9
        ranks = check["details"]["deformation_block_ranks"]
        assert ranks[1][1] == 0


def test_relindex_and_toeplitz(capsys):
    code, out, _ = _invoke(
        ["relindex", "--dim", "18", "--trials", "8", "--seed", "11"], capsys
    )
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = _invoke(["toeplitz", "--window", "64", "--k", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["details"]["value"] == 3


def test_topo_identical_fillings_give_zero(capsys):
    descriptor = '{"signature": 1, "euler": 4, "h01": 2}'
    code, out, _ = _invoke(
        ["topo", "--x0", descriptor, "--x1", descriptor], capsys
    )
    assert code == 0
    values = {
        c["name"]: c["details"].get("value") for c in json.loads(out)["checks"]
    }
    assert values["relative-index-3d"] == 0
    assert values["glued-double-index"] == 0
    assert values["moduli-dimension"] == -4


def test_topo_gate_rejection_exits_two(capsys):
    code, out, _ = _invoke(
        ["topo", "--x0", '{"signature":1,"euler":2}', "--x1",
         '{"signature":0,"euler":0}'], capsys
    )
    assert code == 2
    payload = json.loads(out)
    rejected = {c["name"] for c in payload["checks"] if c["status"] == "rejected"}
    assert "glued-double-index" in rejected
    assert payload["passed"] is False


def test_usage_errors_exit_one(capsys):
    assert _invoke(["no-such-command"], capsys)[0] == 1
    assert _invoke(["topo"], capsys)[0] == 1  # x0 missing
    assert _invoke(["topo", "--x0", "not json"], capsys)[0] == 1
    code, _, err = _invoke(
        ["topo", "--x0", '{"signature":1,"euler":2,"bogus":3}'], capsys
    )
    assert code == 1 and "bogus" in err


def test_model_invert_without_rhs_is_a_usage_error(capsys):
    code, out, err = _invoke(["model-invert", "--n", "2", "--num-rhs", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "num_rhs" in err


@pytest.mark.parametrize(
    "args, name",
    [
        (["relindex", "--trials", "0"], "trials"),
        (["relindex", "--dim", "0"], "dim"),
        (["relindex", "--dim", "-3"], "dim"),
        (["verify-symbols", "--samples", "0"], "samples"),
        (["verify-symbols", "--quadrature-samples", "0"], "quadrature_samples"),
    ],
)
def test_empty_sample_counts_are_usage_errors(args, name, capsys):
    code, out, err = _invoke(args, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {name} must be at least 1")


@pytest.mark.parametrize(
    "flag, spellings",
    [("--theta", ("-1e-3", "-1E-3", "-0.001")), ("--beta", ("-2e0", "-2.0", "-2"))],
)
def test_negative_floats_are_values_in_every_spelling(flag, spellings, capsys):
    # argparse alone reads "-1e-3" after a flag as another flag
    base = ["model-invert", "--n", "2", "--cutoff", "6"]
    reports = set()
    for value in spellings:
        for argv in (base + [flag, value], base + [f"{flag}={value}"]):
            code, out, err = _invoke(argv, capsys)
            assert (code, err) == (0, ""), argv
            reports.add(out)
    assert len(reports) == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify-symbols", "--n", "1"], "n must be at least 2"),
        (["verify-algebra", "--n", "0"], "n must be at least 1"),
        (["verify-algebra", "--cutoff", "3"], "cutoff must be at least 4"),
        (["model-invert", "--n", "1"], "n must be at least 2"),
        (["model-invert", "--cutoff", "3"], "cutoff must be at least 4"),
        (["relindex", "--rank-p", "-1"], "rank_p must be at least 0"),
        (["toeplitz", "--window", "0"], "window must be at least 1"),
        (["model-invert", "--theta", "nan"], "theta must be finite, got nan"),
        (["model-invert", "--alpha", "inf"], "alpha must be finite, got inf"),
        (["model-invert", "--beta=-inf"], "beta must be finite, got -inf"),
        (["model-invert", "--beta", "-inf"], "beta must be finite, got -inf"),
        (["relindex", "--dim", "4", "--rank-r", "5"], "rank_r must be at most dim = 4"),
        (["relindex", "--rank-p", "25"], "rank_p must be at most dim = 24"),
    ],
)
def test_out_of_range_values_are_usage_errors(args, message, capsys):
    code, out, err = _invoke(args, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_non_finite_input_values_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text('{"theta": NaN}')
    code, out, err = _invoke(["model-invert", "--input", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: theta must be finite, got nan\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify-symbols", "--n", "40"], "n must be at most 7, got 40"),
        (["relindex", "--dim", "5000"], "dim must be at most 1024, got 5000"),
        (["toeplitz", "--window", "4096"], "window must be at most 1024, got 4096"),
        (["verify-algebra", "--n", "4", "--cutoff", "40"],
         "n = 4 with cutoff 40 spans 2172016 graded states, more than 500000"),
        (["model-invert", "--n", "8", "--cutoff", "8"],
         "n = 8 with cutoff 8 spans 823680 graded states, more than 500000"),
    ],
)
def test_oversized_requests_are_rejected_with_a_hint(args, message, capsys):
    code, out, err = _invoke(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"rejected: {message}") and "0.5 GB" in err
    assert err.count("\n") == 1


def test_linear_algebra_failure_exits_two_without_numpy_text(capsys, monkeypatch):
    import numpy as np

    def diverging(params, seeds, checks):
        raise np.linalg.LinAlgError("SVD did not converge")
        yield

    monkeypatch.setitem(cli._RUNNERS, "relindex", diverging)
    code, out, err = _invoke(["relindex"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("rejected: a linear-algebra routine did not converge")
    assert "SVD" not in err


def test_memory_exhaustion_exits_two_with_one_line(capsys, monkeypatch):
    def exhausting(params, seeds, checks):
        raise MemoryError
        yield

    monkeypatch.setitem(cli._RUNNERS, "toeplitz", exhausting)
    code, out, err = _invoke(["toeplitz"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("rejected: ") and "lower the sizes" in err


def test_non_boolean_stein_is_rejected(capsys):
    code, out, _ = _invoke(
        ["topo", "--x0", '{"signature": 1, "euler": 2, "stein": "no"}'], capsys
    )
    assert code == 2
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "filling-x0" and check["status"] == "rejected"
    assert check["details"]["error"] == "stein must be true or false, got 'no'"


def test_admissibility_exits_two(capsys):
    code, out, _ = _invoke(["toeplitz", "--window", "10", "--k", "6"], capsys)
    assert code == 2
    assert json.loads(out)["checks"][0]["status"] == "rejected"

    code, _, _ = _invoke(
        ["model-invert", "--n", "2", "--theta", "1.5707", "--seed", "1"], capsys
    )
    assert code == 2


def test_check_failure_exits_three(capsys, monkeypatch):
    # the runner reports an error above the tolerance of its table row
    monkeypatch.setitem(
        cli._RUNNERS,
        "toeplitz",
        lambda params, seeds, checks: [(checks[0], 1.0, {"forced": True})],
    )
    code, out, _ = _invoke(["toeplitz"], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [c["status"] for c in payload["checks"]] == ["fail"]


@pytest.mark.parametrize(
    "subcommand, supplied, message",
    [
        ("verify-algebra", {"n": "2"}, 'n must be an integer, got "2"'),
        ("relindex", {"dim": 2.5}, "dim must be an integer, got 2.5"),
        ("relindex", {"trials": True}, "trials must be an integer, got true"),
        ("model-invert", {"theta": "x"}, 'theta must be a number, got "x"'),
        ("model-invert", {"chirality": "left"},
         'chirality must be one of even, odd, both, got "left"'),
        ("verify-symbols", {"samples": None}, "samples must be an integer, got null"),
        ("topo", {"x0": [1, 2]}, "x0 must be a JSON object, got [1, 2]"),
    ],
)
def test_input_values_are_type_checked(subcommand, supplied, message, tmp_path,
                                       capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(supplied))
    code, out, err = _invoke([subcommand, "--input", str(path)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--x0", "5"], "--x0"),
        (["--x0", "[1,2]"], "--x0"),
        (["--x0", X0, "--x1", '"text"'], "--x1"),
        (["--x0", X0, "--spinc", "7"], "--spinc"),
    ],
)
def test_topo_json_flags_must_be_objects(args, flag, capsys):
    code, out, err = _invoke(["topo", *args], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {flag} must be a JSON object, got ")


def test_check_and_param_tables_cover_the_golden_reports(capsys):
    emitted = set()
    for stem, _, _ in GOLDEN_RUNS:
        payload = json.loads((GOLDEN / f"{stem}.json").read_text())
        subcommand = payload["request"]["subcommand"]
        emitted |= {(subcommand, c["name"]) for c in payload["checks"]}
    rows = [(check.subcommand, check.name) for check in cli._CHECKS]
    assert len(rows) == len({name for _, name in rows})
    assert set(rows) == emitted
    for subcommand, params in cli._PARAMS.items():
        code, out, _ = _invoke([subcommand, "--help"], capsys)
        assert code == 0
        for param in params:
            assert f"--{param.name.replace('_', '-')} " in out, (subcommand, param)


def test_input_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(
        json.dumps(
            {
                "x0": {"signature": 1, "euler": 4, "h01": 2},
                "x1": {"signature": -1, "euler": 2, "h01": 3},
                "spinc": {"c1_squared": 9, "c2": -1, "signature": 1, "euler": 5},
            }
        )
    )
    code, out, _ = _invoke(["topo", "--input", str(config)], capsys)
    assert code == 0
    values = {
        c["name"]: c["details"].get("value") for c in json.loads(out)["checks"]
    }
    assert values["relative-index-3d"] == 0
    assert values["index-from-canonical-class"] == 1
    assert values["index-from-second-chern"] == 1

    # an explicit flag overrides the file
    code, out, _ = _invoke(
        ["topo", "--input", str(config), "--ind-glued", "5"], capsys
    )
    assert code == 0
    values = {
        c["name"]: c["details"].get("value") for c in json.loads(out)["checks"]
    }
    assert values["relative-index-glued"] == 5 - (-2) + (-3)

    bad = tmp_path / "bad.json"
    bad.write_text('{"unknown_param": 1}')
    assert _invoke(["topo", "--input", str(bad)], capsys)[0] == 1


def test_text_format_carries_wall_time(capsys):
    code, out, _ = _invoke(
        ["verify-algebra", "--n", "1", "--cutoff", "8", "--format", "text"],
        capsys,
    )
    assert code == 0
    assert "overall: PASS" in out and " s)" in out
    assert "ladder-commutators" in out


def test_json_reports_are_byte_identical(capsys):
    requests = [
        ["verify-algebra", "--n", "2", "--cutoff", "10", "--seed", "7"],
        ["verify-symbols", "--n", "2", "--samples", "10", "--seed", "3"],
        ["model-invert", "--n", "2", "--theta", "0.3", "--seed", "5"],
        ["relindex", "--dim", "16", "--trials", "5", "--seed", "9"],
        ["toeplitz", "--window", "32", "--k", "-2"],
        ["topo", "--x0", '{"signature": 1, "euler": 2, "stein": true}'],
    ]
    for args in requests:
        first = _invoke(args, capsys)
        second = _invoke(args, capsys)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
        assert first[1].encode() == second[1].encode()


def test_subprocess_entry_point_is_deterministic():
    args = [
        sys.executable,
        "-m",
        "fockindex.cli",
        "relindex",
        "--dim",
        "12",
        "--trials",
        "4",
        "--seed",
        "21",
    ]
    first = subprocess.run(args, capture_output=True, check=True)
    second = subprocess.run(args, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["passed"] is True


def test_module_entry_point_keeps_stderr_empty():
    args = [
        sys.executable,
        "-m",
        "fockindex.cli",
        "topo",
        "--x0",
        '{"signature": 1, "euler": 2, "stein": true}',
    ]
    result = subprocess.run(args, capture_output=True, check=True)
    assert result.stderr == b""
    assert json.loads(result.stdout)["passed"] is True


@pytest.mark.parametrize(
    "params",
    [["--alpha", "1e200"], ["--alpha", "1e-320"], ["--alpha", "10", "--beta", "1e308"],
     ["--n", "2", "--beta", "1e300"], ["--n", "2", "--beta=-1e200"]],
    ids=lambda params: " ".join(params),
)
def test_extreme_model_parameters_are_rejected_without_warnings(params):
    # an overflow or a NaN inside the certificate, in numpy or in BLAS,
    # rejects both checks, and no numpy warning reaches stderr
    args = [sys.executable, "-m", "fockindex.cli", "model-invert", *params]
    result = subprocess.run(args, capture_output=True, check=False)
    assert result.returncode == 2
    assert result.stderr == b""
    checks = _strict_json(result.stdout)["checks"]
    assert [check["status"] for check in checks] == ["rejected", "rejected"]
    assert all("overflow or NaN" in check["details"]["error"] for check in checks)


def test_run_request_validation():
    with pytest.raises(UsageError):
        RunRequest("no-such", {}, 0, "json")
    with pytest.raises(UsageError):
        RunRequest("toeplitz", {}, 0, "yaml")
    with pytest.raises(UsageError, match="dim must be at least 1"):
        RunRequest("relindex", {"dim": 0, "trials": 3})
    # a rank the dimension cannot hold is refused before anything is built
    with pytest.raises(UsageError, match="^rank_p must be at most dim = 4, got 9$"):
        RunRequest("relindex", {"dim": 4, "rank_p": 9})
    full = RunRequest("relindex", {"dim": 4, "rank_p": 4, "rank_r": 0})
    assert full.params["rank_p"] == 4
    # left-out params take their table defaults, in process as on the CLI
    defaults = {param.name: param.default for param in cli._PARAMS["relindex"]}
    assert RunRequest("relindex", {}).params == defaults
    assert RunRequest("toeplitz", {"window": 8}).params == {"window": 8, "k": 3}
    assert run(RunRequest("toeplitz", {"window": 8})).passed
    with pytest.raises(UsageError, match="x0"):
        RunRequest("topo", {})
    with pytest.raises(UsageError, match="unknown relindex params: \\['rank'\\]"):
        RunRequest("relindex", {"rank": 3})
    report = run(RunRequest("toeplitz", {"window": 16, "k": 2}, seed=0))
    assert isinstance(report, Report)
    assert report.passed and not report.rejected
    assert report.wall_time >= 0.0
    assert "wall" not in report.to_json()


@pytest.mark.parametrize("subcommand", list(cli._PARAMS))
def test_a_negative_seed_is_a_usage_error_for_every_subcommand(subcommand, capsys):
    extra = ["--x0", X0] if subcommand == "topo" else []
    code, out, err = _invoke([subcommand, *extra, "--seed", "-1"], capsys)
    assert (code, out, err) == (1, "", "error: seed must be at least 0, got -1\n")


@pytest.mark.parametrize("seed, shown", [(2.5, "2.5"), (True, "true")])
def test_in_process_seeds_are_type_checked(seed, shown):
    with pytest.raises(UsageError, match=f"^seed must be an integer, got {shown}$"):
        RunRequest("toeplitz", {}, seed=seed)


def test_cutoff_minimums_are_the_library_guard_band_rule():
    # the CLI restates fock's rule because importing fock loads numpy, which
    # importing the CLI must not (tests/test_imports.py)
    from fockindex import fock

    for subcommand in ("verify-algebra", "model-invert"):
        (row,) = [p for p in cli._PARAMS[subcommand] if p.name == "cutoff"]
        assert row.minimum == fock.GUARD + 2


def test_verify_algebra_builds_the_coupled_operator_once(capsys, monkeypatch):
    from fockindex import spinors

    built = []
    dirac_plus = spinors.dirac_plus

    def counting(config, *args):
        built.append(config)
        return dirac_plus(config, *args)

    monkeypatch.setattr(spinors, "dirac_plus", counting)
    code, _, _ = _invoke(["verify-algebra", "--n", "2", "--cutoff", "6"], capsys)
    assert code == 0
    assert len(built) == 1


def test_verify_algebra_builds_each_ladder_map_once(capsys, monkeypatch):
    from fockindex import fock

    built = []
    for name in ("creation", "annihilation"):
        def counting(config, j, _original=getattr(fock, name), _name=name):
            built.append((_name, j))
            return _original(config, j)

        monkeypatch.setattr(fock, name, counting)
    code, _, _ = _invoke(["verify-algebra", "--n", "3", "--cutoff", "8"], capsys)
    assert code == 0
    expected = [(name, j) for name in ("creation", "annihilation") for j in (1, 2, 3)]
    assert sorted(built) == sorted(expected)


def test_verify_symbols_evaluates_stacks_not_samples(monkeypatch):
    from fockindex import symbols

    calls = {}
    for name in ("d1", "calderon_symbol0", "comparison_symbol0", "contour_integral"):
        def counting(*args, _original=getattr(symbols, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(symbols, name, counting)
    counts = []
    for samples, instances in ((1, 1), (300, 5)):
        calls.clear()
        params = {"n": 2, "samples": samples, "quadrature_samples": instances}
        assert run(RunRequest("verify-symbols", params)).passed
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    # two Hessian-trace contours per chirality and side, one order -1 contour
    # and one contact-line contour per chirality: one stack of instances
    assert counts[0]["contour_integral"] == 7


def test_verify_symbols_counts_the_contour_nodes_of_a_stack(monkeypatch):
    from fockindex import symbols

    rows = []

    def recording(integrand, side, xi_prime, _original=symbols.contour_integral, **kwargs):
        rows.append(len(xi_prime))
        return _original(integrand, side, xi_prime, **kwargs)

    monkeypatch.setattr(symbols, "contour_integral", recording)
    # at n = 2 a matrix has 4 entries but an instance 32 nodes of 4 weights:
    # 512 entries hold 4 instances, so 9 instances take 3 stacks
    monkeypatch.setattr(cli, "_STACK_ENTRIES", 512)
    params = {"n": 2, "samples": 10, "quadrature_samples": 9}
    assert run(RunRequest("verify-symbols", params)).passed
    assert rows == [4] * 7 + [4] * 7 + [1] * 7


@pytest.mark.parametrize("n", [2, 3])
def test_verify_symbols_report_does_not_depend_on_the_stack_size(n, monkeypatch):
    request = RunRequest(
        "verify-symbols", {"n": n, "samples": 100, "quadrature_samples": 9}, seed=4)
    whole = run(request).to_json()
    # 100 samples and 9 quadrature instances, each in one stack; then the
    # samples in one stack at n = 2 and in stacks of 32 at n = 3, and the
    # instances in stacks of 4 and of 2; then all in stacks of one
    for entries in (512, 1):
        monkeypatch.setattr(cli, "_STACK_ENTRIES", entries)
        assert run(request).to_json() == whole


@pytest.mark.parametrize("entries", [1, 800])
def test_model_invert_report_does_not_depend_on_the_stack_size(entries, monkeypatch):
    from fockindex import models

    request = RunRequest("model-invert",
                         {"chirality": "both", "n": 3, "cutoff": 10, "theta": 0.3}, seed=4)
    whole = run(request).to_json()
    # 264 states: 16 right-hand sides one at a time, or in stacks of 3
    monkeypatch.setattr(models, "_STACK_ENTRIES", entries)
    assert run(request).to_json() == whole


def _assert_matches(actual, expected, where="report"):
    """Equal payloads: same keys in the same order, floats to 1e-12."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-12), where
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{where}[{index}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.mark.parametrize(
    "stem, argv, exit_code", GOLDEN_RUNS, ids=[run[0] for run in GOLDEN_RUNS]
)
def test_reports_match_the_golden_files(stem, argv, exit_code, capsys):
    code, out, err = _invoke(argv, capsys)
    assert (code, err) == (exit_code, "")
    expected = _strict_json((GOLDEN / f"{stem}.json").read_text())
    _assert_matches(_strict_json(out), expected)


def _write_golden():
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, _ in GOLDEN_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv)
        (GOLDEN / f"{stem}.json").write_text(out.getvalue())


if __name__ == "__main__":
    _write_golden()
