"""Command-line front-end tests.

Byte-level determinism is the load-bearing property here: the same request
(including the seed) must print the same JSON, and the exit code must
separate passing runs, usage errors, admissibility rejections, and genuine
check failures.
"""

import json
import subprocess
import sys

import pytest

from fockindex.cli import Report, RunRequest, UsageError, main, run


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


def test_admissibility_exits_two(capsys):
    code, out, _ = _invoke(["toeplitz", "--window", "10", "--k", "6"], capsys)
    assert code == 2
    assert json.loads(out)["checks"][0]["status"] == "rejected"

    code, _, _ = _invoke(
        ["model-invert", "--n", "2", "--theta", "1.5707", "--seed", "1"], capsys
    )
    assert code == 2


def test_check_failure_exits_three(capsys, monkeypatch):
    from fockindex import cli as cli_module

    monkeypatch.setitem(
        cli_module._RUNNERS,
        "toeplitz",
        lambda params, seed: [
            cli_module._record("forced", "synthetic failing check", 1.0, 0.0)
        ],
    )
    code, out, _ = _invoke(["toeplitz"], capsys)
    assert code == 3
    assert json.loads(out)["passed"] is False


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


def test_run_request_validation():
    with pytest.raises(UsageError):
        RunRequest("no-such", {}, 0, "json")
    with pytest.raises(UsageError):
        RunRequest("toeplitz", {}, 0, "yaml")
    report = run(RunRequest("toeplitz", {"window": 16, "k": 2}, seed=0))
    assert isinstance(report, Report)
    assert report.passed and not report.rejected
    assert report.wall_time >= 0.0
    assert "wall" not in report.to_json()
