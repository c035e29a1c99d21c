import json
import subprocess
import sys

import numpy as np
import pytest

from blaschke import boundary_accumulating_roots


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blaschke", *args],
        capture_output=True,
        text=True,
        timeout=120,
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
    assert set(data) == {"roots", "origin_multiplicity", "phase", "near_boundary"}
    mags = sorted(abs(complex(re, im)) for re, im in data["roots"])
    assert mags == pytest.approx([1 / 3, 1 / 2], abs=1e-10)
    assert data["origin_multiplicity"] == 0
    assert data["phase"] == pytest.approx(0.0)  # two factors cancel signs


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


def test_verify_exit_one_on_failure(quadratic):
    res = run_cli(
        "verify", "--claim", "corollary1", "--input", quadratic,
        "--weight", "dirichlet", "--claim-tol", "0",
    )
    assert res.returncode == 1
    assert json.loads(res.stdout)["passed"] is False


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


def test_verify_theorem3_needs_roots(tmp_path):
    g = write_series(tmp_path / "g.json", [1.0])
    res = run_cli(
        "verify", "--claim", "theorem3_truncated", "--input", g,
        "--weight", "concave_power_sum:3",
    )
    assert res.returncode == 2


@pytest.mark.parametrize(
    "roots_json",
    [
        {"roots": 5},
        [1, 2],
        {"roots": [["a", 0]]},
        {"roots": [[0.5, 0], [0.7, 0.1]], "origin_multiplicity": -2},
    ],
    ids=["roots-not-a-list", "not-an-object", "non-numeric-root", "negative-origin"],
)
def test_verify_theorem3_malformed_roots_exit_two(tmp_path, roots_json):
    roots_file = tmp_path / "roots.json"
    roots_file.write_text(json.dumps(roots_json))
    g = write_series(tmp_path / "g.json", [1.0])
    res = run_cli(
        "verify", "--claim", "theorem3_truncated", "--input", g,
        "--roots", str(roots_file), "--weight", "concave_power_sum:3",
        "--caps", "1,2",
    )
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


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


def test_missing_input_exits_two(tmp_path):
    res = run_cli("norms", "--input", str(tmp_path / "nope.json"), "--weight", "dirichlet")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("roots", "--input", str(bad))
    assert res.returncode == 2


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
