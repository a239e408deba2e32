"""The command-line surface: subcommands, formats, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

from hurwitzdiv.cli import main


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, args):
    code, out, err = run_cli(capsys, args)
    return code, json.loads(out) if out else None, err


def test_classes_hodge_csv(capsys):
    code, out, _ = run_cli(capsys, ["classes", "hodge", "--g", "2", "--k", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,mu,m_mu,value"
    assert lines[1] == "2,[3],3,-1/42"


def test_classes_canonical_stack_json(capsys):
    code, envelope, _ = run_json(capsys, ["classes", "canonical-stack", "--g", "2", "--k", "3"])
    assert code == 0
    assert envelope["payload_type"] == "HurwitzClass"
    rows = envelope["payload"]["coefficients"]
    first = next(r for r in rows if r["i"] == 2 and r["mu"] == [3])
    assert first["value"] == "8/7"


def test_classes_weierstrass(capsys):
    code, envelope, _ = run_json(capsys, ["classes", "weierstrass", "--g", "2"])
    assert code == 0
    rows = envelope["payload"]["coefficients"]
    psi = next(r for r in rows if r["basis"] == "psi")
    assert psi["value"] == "3"


def test_classes_branch_pullback_requires_i(capsys):
    code, _, err = run_cli(capsys, ["classes", "branch-pullback", "--g", "2", "--k", "3"])
    assert code == 2
    assert "--i" in err


def test_classes_kappa1_csv(capsys):
    code, out, _ = run_cli(capsys, ["classes", "kappa1", "--b", "6", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["basis,value", "B_2,3/5", "B_3,4/5"]


def test_divisor_even(capsys):
    code, envelope, _ = run_json(capsys, ["divisor", "even", "--g", "8"])
    assert code == 0
    assert envelope["payload"]["slope"] == "31/4"
    assert envelope["payload"]["name"] == "Hilbert2Even"


def test_divisor_odd(capsys):
    code, envelope, _ = run_json(capsys, ["divisor", "odd", "--g", "15"])
    assert code == 0
    assert envelope["payload"]["slope"] == "62621/7830"


def test_divisor_odd_parity_error(capsys):
    code, _, err = run_cli(capsys, ["divisor", "odd", "--g", "8"])
    assert code == 2
    assert "odd" in err


def test_divisor_syzygy(capsys):
    code, envelope, _ = run_json(capsys, ["divisor", "syzygy-g7"])
    assert code == 0
    assert envelope["payload"]["slope"] == "54/7"


def test_verify_stack_certified_exit_zero(capsys):
    code, envelope, _ = run_json(capsys, ["verify", "stack", "--g", "8", "--k", "3"])
    assert code == 0
    assert envelope["payload"]["verdict"] == "Certified"
    assert envelope["payload"]["alpha"] == "1/32"


def test_verify_coarse_range_error(capsys):
    code, _, err = run_cli(capsys, ["verify", "coarse", "--g", "8", "--k", "6"])
    assert code == 2
    assert "(g + 2)/2" in err


def test_verify_no_divisor_exit_one(capsys):
    code, envelope, _ = run_json(capsys, ["verify", "stack", "--g", "13", "--k", "3"])
    assert code == 1
    assert envelope["payload"]["verdict"] == "NoDivisor"


def test_verify_user_supplied_slope(capsys):
    code, envelope, _ = run_json(
        capsys,
        ["verify", "stack", "--g", "6", "--k", "4", "--slope", "54/7", "--assume-avoidance"],
    )
    assert code == 0
    assert envelope["payload"]["verdict"] == "Certified"
    assert envelope["payload"]["slope"] == "54/7"


def test_verify_user_slope_needs_avoidance_flag(capsys):
    code, _, err = run_cli(capsys, ["verify", "stack", "--g", "6", "--k", "4", "--slope", "54/7"])
    assert code == 2
    assert "assume-avoidance" in err


def test_verify_assume_remark_fills_conditional_cells(capsys):
    code, envelope, _ = run_json(
        capsys, ["verify", "stack", "--g", "9", "--k", "3", "--assume-remark"]
    )
    assert code == 0
    assert envelope["payload"]["verdict"] == "Certified"
    assert any("UNPROVEN" in h for h in envelope["payload"]["hypotheses"])


def test_scan_csv_certified_set(capsys):
    code, out, err = run_cli(capsys, ["scan", "--k", "3", "3", "--g", "6", "20", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,k,recipe,slope,stack_verdict,coarse_verdict,min_margin"
    certified = {
        int(line.split(",")[0]) for line in lines[1:] if line.split(",")[4] == "Certified"
    }
    assert certified == {8, 10, 12, 14, 15, 16, 17, 18, 19, 20}
    assert "certified stack: 10" in err


def test_scan_writes_csv_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, ["scan", "--k", "4", "4", "--g", "7", "7", "--out", str(out_path)])
    assert code == 0
    assert "certified stack: 1" in out
    content = out_path.read_text(encoding="utf-8")
    assert "SyzygyG7" in content
    assert content.splitlines()[1].startswith("7,4,SyzygyG7,54/7,Certified,Certified")


def test_scan_io_error_exit_three(tmp_path, capsys):
    bad_path = tmp_path / "missing-dir" / "table.csv"
    code, _, err = run_cli(capsys, ["scan", "--k", "4", "4", "--g", "7", "7", "--out", str(bad_path)])
    assert code == 3
    assert "cannot write" in err


def test_scan_empty_range(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--k", "4", "3", "--g", "6", "20", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["g,k,recipe,slope,stack_verdict,coarse_verdict,min_margin"]


def test_oracle_examples(capsys):
    code, envelope, _ = run_json(capsys, ["oracle", "--k", "3", "--mu", "3", "--i", "2"])
    assert code == 0
    payload = envelope["payload"]
    assert payload["count"] == "3"
    assert payload["feasible"] is True
    assert payload["agree"] is True

    code, envelope, _ = run_json(capsys, ["oracle", "--k", "3", "--mu", "2,1", "--i", "2"])
    assert code == 0
    payload = envelope["payload"]
    assert payload["count"] == "0"
    assert payload["feasible"] is False
    assert payload["agree"] is True

    code, envelope, _ = run_json(capsys, ["oracle", "--k", "5", "--mu", "5", "--i", "4"])
    assert code == 0
    payload = envelope["payload"]
    assert int(payload["count"]) > 0
    assert payload["feasible"] is True


def test_oracle_weight_mismatch(capsys):
    code, _, err = run_cli(capsys, ["oracle", "--k", "4", "--mu", "3", "--i", "2"])
    assert code == 2
    assert "weight" in err


def test_oracle_rejects_an_empty_part(capsys):
    code, out, err = run_cli(capsys, ["oracle", "--k", "4", "--mu", "3,,1", "--i", "2"])
    assert code == 2
    assert out == ""
    assert "not a partition" in err


def test_max_k_environment_cap(capsys, monkeypatch):
    monkeypatch.setenv("HURWITZ_MAX_K", "3")
    code, _, err = run_cli(capsys, ["oracle", "--k", "5", "--mu", "5", "--i", "2"])
    assert code == 2
    assert "HURWITZ_MAX_K" in err
    monkeypatch.setenv("HURWITZ_MAX_K", "12")
    code, _, _ = run_cli(capsys, ["oracle", "--k", "5", "--mu", "5", "--i", "2"])
    assert code == 0


def test_usage_error_exit_two(capsys):
    assert main(["classes", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["verify", "stack"]) == 2  # missing --g/--k
    capsys.readouterr()


def test_text_format_has_decimal_hints(capsys):
    code, out, _ = run_cli(capsys, ["verify", "stack", "--g", "8", "--k", "3", "--format", "text"])
    assert code == 0
    assert "(~" in out
    assert "verdict: Certified" in out


def test_identical_invocations_are_byte_identical(capsys):
    args = ["verify", "coarse", "--g", "8", "--k", "3"]
    _, first, _ = run_cli(capsys, args)
    _, second, _ = run_cli(capsys, args)
    assert first == second


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitzdiv.cli", "oracle", "--k", "3", "--mu", "3", "--i", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"count": "3"' in proc.stdout
