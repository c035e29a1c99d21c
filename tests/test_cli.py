import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import blaschke
from blaschke import RootSet, boundary_accumulating_roots
from blaschke.cli import build_parser, main

# child processes import the package this test run imported, not
# whichever copy happens to be installed
SRC_DIR = str(pathlib.Path(blaschke.__file__).resolve().parents[1])
CHILD_ENV = {
    **os.environ,
    # the in-process rule of pyproject.toml's filterwarnings, for children
    "PYTHONWARNINGS": "error::RuntimeWarning",
    "PYTHONPATH": os.pathsep.join(
        p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p
    ),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blaschke", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )


def write_series(path, coeffs):
    data = {"coeffs": [[complex(c).real, complex(c).imag] for c in coeffs]}
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def quadratic(tmp_path):
    # (z - 1/2)(z - 1/3)
    return write_series(tmp_path / "f.json", [1 / 6, -5 / 6, 1.0])


def test_norms_text_output(quadratic):
    res = run_cli("norms", "--input", quadratic, "--weight", "dirichlet")
    assert res.returncode == 0
    lines = dict(ln.split(" ", 1) for ln in res.stdout.strip().splitlines())
    assert float(lines["x_norm_sq"]) == pytest.approx(97 / 36)
    assert float(lines["h2_norm_sq"]) == pytest.approx(62 / 36)
    assert float(lines["y_seminorm_sq"]) == pytest.approx(62 / 36)


def test_norms_json_output(quadratic, tmp_path):
    out = tmp_path / "norms.json"
    res = run_cli(
        "norms", "--input", quadratic, "--weight", "constant_step:2",
        "--output", str(out),
    )
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["y_seminorm_sq"] == pytest.approx(2 * 62 / 36)


def test_norms_accepts_signal_csv(tmp_path):
    theta = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    csv = tmp_path / "sig.csv"
    np.savetxt(csv, np.cos(theta), fmt="%.17g")
    res = run_cli("norms", "--input", str(csv), "--weight", "dirichlet")
    assert res.returncode == 0
    values = dict(ln.split(" ", 1) for ln in res.stdout.strip().splitlines())
    assert float(values["h2_norm_sq"]) == pytest.approx(1.0, abs=1e-12)


def test_roots_json(quadratic):
    res = run_cli("roots", "--input", quadratic)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert set(data) == {"roots", "origin_multiplicity", "near_boundary"}
    mags = sorted(abs(complex(re, im)) for re, im in data["roots"])
    assert mags == pytest.approx([1 / 3, 1 / 2], abs=1e-10)
    assert data["origin_multiplicity"] == 0


def test_decompose_output_feeds_norms(quadratic, tmp_path):
    out = tmp_path / "chain.json"
    res = run_cli("decompose", "--input", quadratic, "--output", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert "coeffs" in data  # the zero-free factor doubles as series JSON
    res2 = run_cli("norms", "--input", str(out), "--weight", "dirichlet")
    assert res2.returncode == 0
    values = dict(ln.split(" ", 1) for ln in res2.stdout.strip().splitlines())
    assert float(values["x_norm_sq"]) == pytest.approx(27 / 36)
    assert float(values["h2_norm_sq"]) == pytest.approx(62 / 36)


def test_unwind_json_and_csv(tmp_path, quadratic):
    csv = tmp_path / "resid.csv"
    res = run_cli(
        "unwind", "--input", quadratic, "--depth", "4", "--csv", str(csv)
    )
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["terminated"] is True
    assert data["input_h2"] == pytest.approx(62 / 36)
    assert "decay_ratios" in data
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "depth,residual_h2"
    assert len(rows) == len(data["residual_h2"]) + 1


def test_signal_csv_to_series(tmp_path):
    theta = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    csv = tmp_path / "sig.csv"
    np.savetxt(csv, np.cos(theta), fmt="%.17g")
    res = run_cli("signal", "--input", str(csv), "--cap", "4")
    assert res.returncode == 0
    coeffs = [complex(re, im) for re, im in json.loads(res.stdout)["coeffs"]]
    assert coeffs == pytest.approx([0, 1, 0, 0, 0], abs=1e-13)


def test_signal_series_to_csv(tmp_path):
    f = write_series(tmp_path / "z.json", [0.0, 1.0])
    out = tmp_path / "sig.csv"
    res = run_cli("signal", "--input", f, "--samples", "8", "--output", str(out))
    assert res.returncode == 0
    values = np.loadtxt(out)
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    assert np.allclose(values, np.cos(theta), atol=1e-12)


def test_verify_corollary1_passes(quadratic):
    res = run_cli(
        "verify", "--claim", "corollary1", "--input", quadratic,
        "--weight", "dirichlet",
    )
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["passed"] is True
    assert report["lhs"] == pytest.approx(0.75)
    assert report["rhs"] == pytest.approx(0.75)


def test_verify_exit_one_on_failure(quadratic, monkeypatch, capsys):
    # at tolerance 0 the identity's rounding slack fails it
    monkeypatch.setitem(blaschke.verify.DEFAULT_TOLS, "corollary1", 0.0)
    code = main([
        "verify", "--claim", "corollary1", "--input", quadratic,
        "--weight", "dirichlet",
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.parametrize(
    "claim,flags",
    [
        ("corollary2", ["--weight", "dirichlet"]),
        ("qian_tail_identity", ["--weight", "dirichlet"]),
        ("qian_tail_inequality", ["--weight", "dirichlet"]),
        ("theorem1", ["--weight", "dirichlet", "--k", "5"]),
        ("theorem3_truncated", ["--weight", "concave_power_sum:3", "--k", "1"]),
        ("prop_reflect", ["--weight", "dirichlet", "--roots", "r.json"]),
        ("qian_tail_identity", ["--roots", "r.json"]),
        ("theorem1", ["--weight", "dirichlet", "--caps", "3"]),
        ("theorem3_truncated", ["--margin", "0.01"]),
    ],
    ids=lambda v: v if isinstance(v, str) else v[-2],
)
def test_verify_refuses_flags_its_claim_ignores(quadratic, capsys, claim, flags):
    code = main(["verify", "--claim", claim, "--input", quadratic, *flags])
    assert code == 2
    assert f"error: {flags[-2]} does not apply to claim {claim}" in capsys.readouterr().err


def test_verify_margin_reaches_the_chain_claims(tmp_path, capsys):
    # one root at modulus 0.995: interior at the default margin,
    # quarantined by a margin of 0.01, where theorem1 needs every root inside
    f = write_series(tmp_path / "f.json", np.convolve([-0.995 * np.exp(0.4j), 1.0], [-0.3, 1.0]))
    argv = ["verify", "--claim", "theorem1", "--input", f, "--weight", "dirichlet"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--margin", "0.01"]) == 2
    assert "boundary margin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,suffix,flags",
    [
        ("norms", ".json", ["--weight", "dirichlet", "--cap", "1"]),
        ("signal", ".json", ["--samples", "0"]),
        ("signal", ".json", ["--samples", "12"]),
        ("signal", ".csv", ["--samples", "64"]),
    ],
)
def test_ignored_cap_and_samples_exit_two(tmp_path, capsys, command, suffix, flags):
    # --cap truncates only a CSV input, and --samples sets only the grid
    # of a JSON input; 0 and 12 are no grid for a quadratic
    path = tmp_path / f"f{suffix}"
    if suffix == ".csv":
        np.savetxt(path, np.cos(np.linspace(0.0, 2 * np.pi, 16, endpoint=False)))
    else:
        write_series(path, [1 / 6, -5 / 6, 1.0])
    code = main([command, "--input", str(path), *flags])
    assert code == 2
    assert flags[-2] in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--input", "F", "--tol", "1e-3"],
        ["decompose", "--input", "F", "--tol", "1e-3"],
        ["unwind", "--input", "F", "--depth", "2", "--tol", "1e-3"],
        ["verify", "--claim", "corollary1", "--input", "F", "--weight", "dirichlet",
         "--tol", "1e-3"],
        ["verify", "--claim", "corollary1", "--input", "F", "--weight", "dirichlet",
         "--claim-tol", "0"],
        ["sweep", "--count", "1", "--claim-tol", "0"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_tolerance_flags_are_unrecognized(quadratic, capsys, argv):
    # tolerances are fixed by the program, not set from the command line
    with pytest.raises(SystemExit) as exc:
        main([quadratic if arg == "F" else arg for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_qian(quadratic):
    res = run_cli(
        "verify", "--claim", "qian_tail_inequality", "--input", quadratic,
        "--k", "2",
    )
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["lhs"] == pytest.approx(1 / 36)
    assert report["rhs"] == pytest.approx(1.0)


def test_verify_theorem3(tmp_path):
    roots = boundary_accumulating_roots(8)
    roots_file = tmp_path / "roots.json"
    roots_file.write_text(json.dumps(roots.to_json_dict()))
    g = write_series(tmp_path / "g.json", [1.0])
    res = run_cli(
        "verify", "--claim", "theorem3_truncated", "--input", g,
        "--roots", str(roots_file), "--weight", "concave_power_sum:3",
        "--caps", "2,4",
    )
    assert res.returncode == 0
    reports = [json.loads(ln) for ln in res.stdout.strip().splitlines()]
    assert [r["context"]["cap"] for r in reports] == [2, 4]
    assert all(r["passed"] for r in reports)


def test_verify_theorem3_ignores_a_phase_key(tmp_path):
    # roots files of earlier versions carry "phase": pi * (count mod 2)
    data = boundary_accumulating_roots(9).to_json_dict()
    g = write_series(tmp_path / "g.json", [1.0, 0.5])
    outputs = []
    for name, extra in [("plain", {}), ("phased", {"phase": np.pi})]:
        roots_file = tmp_path / f"{name}.json"
        roots_file.write_text(json.dumps({**data, **extra}))
        res = run_cli(
            "verify", "--claim", "theorem3_truncated", "--input", g,
            "--roots", str(roots_file), "--weight", "concave_power_sum:3",
            "--caps", "3,9",
        )
        assert res.returncode == 0
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]
    assert RootSet.from_json_dict({**data, "phase": np.pi}) == RootSet.from_json_dict(data)


def test_verify_theorem3_needs_roots(tmp_path):
    g = write_series(tmp_path / "g.json", [1.0])
    res = run_cli(
        "verify", "--claim", "theorem3_truncated", "--input", g,
        "--weight", "concave_power_sum:3",
    )
    assert res.returncode == 2


@pytest.mark.parametrize(
    "roots_json,message",
    [
        ({"roots": 5}, "malformed root JSON"),
        ([1, 2], "malformed root JSON"),
        ({"roots": [["a", 0]]}, "malformed root JSON"),
        ({"roots": [[0.5, 0], [0.7, 0.1]], "origin_multiplicity": -2}, "origin_multiplicity"),
        ({"coeffs": [[0.5, 0.0], [1.0, 0.0]]}, "'roots'"),
        ({"roots": [[0.5, 0.0], [float("nan"), 0.0]]}, "'roots'"),
        ({"roots": [[0.5, 0.0]], "near_boundary": [[float("nan"), 0.0]]}, "'near_boundary'"),
    ],
    ids=[
        "roots-not-a-list", "not-an-object", "non-numeric-root", "negative-origin",
        "coefficient-json", "nan-root", "nan-near-boundary",
    ],
)
def test_verify_theorem3_malformed_roots_exit_two(tmp_path, roots_json, message):
    roots_file = tmp_path / "roots.json"
    roots_file.write_text(json.dumps(roots_json))
    g = write_series(tmp_path / "g.json", [1.0])
    res = run_cli(
        "verify", "--claim", "theorem3_truncated", "--input", g,
        "--roots", str(roots_file), "--weight", "concave_power_sum:3",
        "--caps", "1,2",
    )
    assert res.returncode == 2
    assert "error:" in res.stderr and message in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--margin", "-0.5"),
        ("--margin", "1"),
        ("--margin", "nan"),
        ("--tol", "-1"),
        ("--tol", "0"),
        ("--tol", "nan"),
        ("--tol", "inf"),
    ],
)
def test_out_of_range_root_options_exit_two(tmp_path, flag, value):
    # roots -0.5 and 1.2: a negative margin would list 1.2 as interior,
    # a negative or nan tolerance would silently accept nothing
    f = write_series(tmp_path / "f.json", [-0.6, -0.7, 1.0])
    res = run_cli("roots", "--input", f, flag, value)
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


_REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"refused import of {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())

import blaschke.cli
from blaschke import (
    WeightSequence, as_series, boundary_accumulating_roots, verify_theorem3_truncated,
)

assert blaschke.cli.main(["sweep", "--count", "7", "--output", sys.argv[1]]) == 0
(report,) = verify_theorem3_truncated(
    boundary_accumulating_roots(8), as_series([1.0]),
    WeightSequence.concave_power_sum(3.0), [4],
)
assert report.passed
"""


def test_runs_without_scipy(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", _REFUSE_SCIPY, str(tmp_path / "sweep.jsonl")],
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )
    assert res.returncode == 0, res.stderr


def test_sweep_stdout_and_summary():
    res = run_cli("sweep", "--claim", "corollary1", "--count", "5")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 5
    assert all(json.loads(ln)["claim"] == "corollary1" for ln in lines)
    assert "sweep: 5 reports, 0 failed" in res.stderr


def test_sweep_deterministic():
    args = ("sweep", "--claim", "theorem2", "--count", "6", "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_sweep_output_file(tmp_path):
    out = tmp_path / "reports.jsonl"
    res = run_cli(
        "sweep", "--claim", "prop_reflect", "--count", "4",
        "--output", str(out),
    )
    assert res.returncode == 0
    assert res.stdout == ""
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4


def test_main_calls_share_one_parser_but_no_parsed_state(quadratic, capsys):
    assert build_parser() is build_parser()
    # a later call must not see the options or the subcommand of an earlier one
    for argv in (
        ["sweep", "--count", "2", "--seed", "4"],
        ["roots", "--input", quadratic],
        ["sweep"],
    ):
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_missing_input_exits_two(tmp_path):
    res = run_cli("norms", "--input", str(tmp_path / "nope.json"), "--weight", "dirichlet")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("roots", "--input", str(bad))
    assert res.returncode == 2


@pytest.mark.parametrize("flag,value", [("--tol", "1e-3"), ("--margin", "0.01")])
def test_norms_refuses_root_options(quadratic, flag, value):
    # norms finds no roots, so a root option would be parsed and ignored
    res = run_cli("norms", "--input", quadratic, "--weight", "dirichlet", flag, value)
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr


def test_unknown_weight_exits_two(quadratic):
    res = run_cli("norms", "--input", quadratic, "--weight", "fibonacci")
    assert res.returncode == 2


def test_unknown_claim_exits_two(quadratic):
    res = run_cli("verify", "--claim", "bogus", "--input", quadratic)
    assert res.returncode == 2


def test_sweep_rejects_theorem3():
    res = run_cli("sweep", "--claim", "theorem3_truncated", "--count", "2")
    assert res.returncode == 2


def test_unknown_subcommand_exits_two():
    res = run_cli("frobnicate")
    assert res.returncode == 2
