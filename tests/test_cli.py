"""Command-line interface: JSON shapes, CSV round trips, exit codes."""
import json
import math
import subprocess
import sys

import pytest

from sphrect import cli, solve_family1
from sphrect.errors import BelyiViolationError


def run_cli(*argv):
    """In-process invocation; returns (exit_code, parsed stdout or text)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_constants_json():
    code, out, _ = run_cli("constants")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"kappa_prime_crit", "kappa_crit", "k_crit",
                         "modulus_crit", "lambda", "b1"}
    assert data["kappa_prime_crit"] == pytest.approx(0.9089085575, abs=1e-9)
    assert data["lambda"] == pytest.approx(0.1076539192, abs=1e-9)
    # constants are printed with 12 significant digits
    assert "0.908908557549" in out


def test_solve_first_family():
    code, out, _ = run_cli("solve", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "first"
    assert data["c"] == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-10)
    assert data["alpha"] == pytest.approx(0.5, abs=1e-6)
    assert data["modulus"] == pytest.approx(0.63963, abs=1e-5)
    assert data["inverse_modulus"] == pytest.approx(1.0 / data["modulus"], rel=1e-12)
    assert data["d"] == pytest.approx(-2.0 / data["c"], rel=1e-12)
    assert abs(data["residual"]) <= 1e-9


def test_solve_second_family():
    code, out, _ = run_cli("solve", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "second"
    assert 1.0 < data["c"] < 3.0


def test_solve_usage_errors():
    code, _, err = run_cli("solve", "--k", "1")
    assert code == 2
    assert "error" in err
    # the near-critical forbidden zone names the excluded modulus interval
    code, _, err = run_cli("solve", "--k", "2.4305051616")
    assert code == 2
    assert "forbidden" in err


def test_solve_nonconvergence_exit():
    # inside the collar where the root collides with the branch point:
    # honest failure, not a silent wrong answer
    code, _, err = run_cli("solve", "--k", "2.43050515")
    assert code == 3
    assert "converge" in err


def test_solve_next_to_collar():
    # k_crit - 1.16e-6: solved, with 1 - c close to 0.617 |k - k_crit|
    code, out, _ = run_cli("solve", "--k", "2.430504")
    assert code == 0
    data = json.loads(out)
    assert 1.0 - data["c"] == pytest.approx(7.17e-7, rel=1e-2)
    assert abs(data["residual"]) <= 1e-9


def test_modulus_both_directions():
    code, out, _ = run_cli("modulus", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["modulus"] == pytest.approx(0.6396307855855032, abs=1e-12)
    assert data["inverse_modulus"] == pytest.approx(1.0 / 0.6396307855855032,
                                                    rel=1e-12)
    code, out, _ = run_cli("modulus", "--K", "0.6396307855855032")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == pytest.approx(2.0, abs=1e-6)


def test_modulus_flag_exclusivity():
    with pytest.raises(SystemExit) as exc_info:
        run_cli("modulus", "--k", "2", "--K", "0.5")
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        run_cli("modulus")
    assert exc_info.value.code == 2


def test_sweep_csv_round_trip(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli("sweep", "--k-min", "1.2", "--k-max", "2.2",
                           "--steps", "6", "--out", str(out_path))
    assert code == 0
    assert "wrote 6 rows" in err
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "k,c,alpha,modulus,residual,family"
    assert len(lines) == 7
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[5] == "first"
        k, c, alpha, modulus, residual = map(float, fields[:5])
        # 17 significant digits parse back to the exact double
        assert "%.17g" % k == fields[0]
        sol = solve_family1(k)
        assert c == sol.c
        assert alpha == sol.alpha
        assert modulus == sol.modulus
        assert residual == sol.residual


def test_sweep_spans_both_families(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli("sweep", "--k-min", "2.4", "--k-max", "2.46",
                         "--steps", "4", "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    families = [line.split(",")[5] for line in rows]
    assert families == ["first", "first", "second", "second"]


def test_sweep_skips_critical_zone(tmp_path):
    out_path = tmp_path / "sweep.csv"
    kc = 2.430505161629824
    code, _, err = run_cli("sweep", "--k-min", str(kc - 1e-7),
                           "--k-max", str(kc + 0.01), "--steps", "3",
                           "--out", str(out_path))
    assert code == 0
    assert "skipping" in err
    rows = out_path.read_text().strip().splitlines()[1:]
    assert len(rows) == 2


def test_sweep_usage_errors(tmp_path):
    out_path = str(tmp_path / "x.csv")
    assert run_cli("sweep", "--k-min", "0.5", "--k-max", "2", "--steps", "3",
                   "--out", out_path)[0] == 2
    assert run_cli("sweep", "--k-min", "2", "--k-max", "1.5", "--steps", "3",
                   "--out", out_path)[0] == 2
    assert run_cli("sweep", "--k-min", "1.2", "--k-max", "2", "--steps", "1",
                   "--out", out_path)[0] == 2


def test_belyi_example1():
    code, out, _ = run_cli("belyi", "--example", "1", "--strict")
    assert code == 0
    data = json.loads(out)
    assert data["ramified_only_over_0_1_inf"] is True
    assert data["degree"] == 4
    points = data["portrait"]["points"]
    assert len(points) == 6
    assert {p["critical_value"] for p in points} == {"0", "1", "inf"}
    assert sum(p["local_degree"] for p in points
               if p["critical_value"] == "0") == 4


def test_belyi_example2_reports_variants():
    code, out, _ = run_cli("belyi", "--example", "2", "--strict")
    assert code == 0
    data = json.loads(out)
    assert data["ramified_only_over_0_1_inf"] is True
    assert data["conditions"]["h_at_0_minus_1"] <= 1e-12
    printed = data["printed_variant"]
    assert printed["ramified_only_over_0_1_inf"] is False
    assert "error" in printed
    assert printed["conditions"]["h_at_0_minus_1"] > 0.1
    # infinity sits in the portrait as a null point
    inf_points = [p for p in data["portrait"]["points"] if p["point"] is None]
    assert len(inf_points) == 1 and inf_points[0]["local_degree"] == 3


def test_belyi_strict_exit_code(monkeypatch):
    def boom(rmap, tol=1e-10):
        raise BelyiViolationError("forced failure")

    monkeypatch.setattr(cli, "verify_belyi", boom)
    code, out, err = run_cli("belyi", "--example", "1", "--strict")
    assert code == 4
    assert json.loads(out)["ramified_only_over_0_1_inf"] is False
    assert "ramification check failed" in err
    # without --strict the report is emitted and the exit stays 0
    assert run_cli("belyi", "--example", "1")[0] == 0


def test_boundary_report(tmp_path):
    svg_path = tmp_path / "image.svg"
    code, out, err = run_cli("boundary", "--k", "2", "--samples", "8",
                             "--svg", str(svg_path))
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "first"
    assert data["alpha"] == pytest.approx(0.5, abs=1e-6)
    assert len(data["sides"]) == 4
    for side in data["sides"]:
        assert side["max_dist_assigned"] <= 1e-6
    assert data["unit_pair_opposite"] is True
    assert data["unit_sides"] == ["(1,k)", "(-k,-1)"]
    assert len(data["two_circle_margins"]) == 3
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 4
    assert "wrote boundary image plot" in err


def test_boundary_validation():
    code, _, _ = run_cli("boundary", "--k", "2", "--samples", "0")
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sphrect", "constants"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_crit"] == pytest.approx(2.4305, abs=5e-5)


def test_unknown_command():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["frobnicate"])
    assert exc_info.value.code == 2
