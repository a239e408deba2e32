"""The command-line surface: subcommands, formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzdiv
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


@pytest.mark.parametrize(
    "args, missing",
    [(["hodge", "--g", "2"], "k"), (["kappa1"], "b"), (["weierstrass", "--k", "3"], "g")],
)
def test_classes_names_its_subject_and_the_missing_option(capsys, args, missing):
    assert run_cli(capsys, ["classes", *args]) == (
        2, "", f"error: `classes {args[0]}` requires --{missing}\n"
    )


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


@pytest.mark.parametrize("mode, g", [("stack", 3), ("coarse", 2)])
def test_verify_below_genus_four_is_no_divisor(capsys, mode, g):
    # as in a scan: no built-in divisor serves g = 2 or 3, which is no usage error
    code, envelope, err = run_json(capsys, ["verify", mode, "--g", str(g), "--k", "3"])
    assert (code, err) == (1, "")
    assert envelope["payload_type"] == "BignessCertificate"
    assert envelope["payload"]["verdict"] == "NoDivisor"
    assert envelope["payload"]["mode"] == mode.capitalize()


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


def test_scan_writes_csv_file(capsys):
    # the table goes to stdout, as `> table.csv` would write it; the summary to stderr
    code, out, err = run_cli(capsys, ["scan", "--k", "4", "4", "--g", "7", "7", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].startswith("7,4,SyzygyG7,54/7,Certified,Certified")
    assert err == "cells: 1; certified stack: 1; certified coarse: 1\n"


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


def test_oracle_reads_ascii_digits_only(capsys):
    # int() would read "1_0" as 10 and a fullwidth digit as 3
    for mu, k in (("1_0", "10"), ("\uff13", "3")):
        code, out, err = run_cli(capsys, ["oracle", "--k", k, "--mu", mu, "--i", "9"])
        assert (code, out) == (2, "")
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


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "--g", "6", "7"],
        ["verify", "stack", "--g", "x", "--k", "3"],
        ["verify", "stack", "--k", "3"],
        ["classes", "nope"],
        ["oracle", "--k", "3", "--mu", "3"],
        ["verify", "--bogus"],
        ["scan", "--k", "3", "3", "--g", "6", "6", "--out", "t.csv"],
        ["verify", "stack", "--g", "8", "--k", "3", "a\nb\r"],
    ],
    ids=" ".join,
)
def test_usage_error_is_one_error_line(capsys, monkeypatch, tmp_path, args):
    monkeypatch.chdir(tmp_path)  # a parser that took --out would write here
    code, out, err = run_cli(capsys, args)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


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


def _cli_env() -> dict[str, str]:
    src = str(Path(hurwitzdiv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize(
    "args, lines_read",
    [
        # the pipe closes while the chunks of a 0.8 MB document are written
        (["verify", "stack", "--g", "200", "--k", "10"], 1),
        # a small document meets the closed pipe only when stdout is flushed
        (["oracle", "--k", "3", "--mu", "3", "--i", "2"], 0),
    ],
)
def test_closed_stdout_exits_three_with_one_line(args, lines_read):
    # a reader that stops early, as `| head -1` does; stdout stays buffered
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [sys.executable, "-m", "hurwitzdiv.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 3
    assert len(err.splitlines()) == 1 and err.startswith("i/o error:"), err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_closed_stdout_exits_three_with_one_line_in_csv_and_text(fmt, unbuffered):
    # the pipe closes while the chunks of a 1.5 MB document are written; unbuffered,
    # one write of the whole document would lose its tail to a short write unreported
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    args = ["verify", "stack", "--g", "1000", "--k", "10", "--format", fmt]
    with subprocess.Popen(
        [sys.executable, "-m", "hurwitzdiv.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 3
    assert len(err.splitlines()) == 1 and err.startswith("i/o error:"), err
    assert "Traceback" not in err and "Exception ignored" not in err


_NO_FULL_DEVICE = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def _run_into_full_device(args, env):
    with open("/dev/full", "w") as full:
        return subprocess.run(
            [sys.executable, "-m", "hurwitzdiv.cli", *args],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )


@_NO_FULL_DEVICE
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["--version"],
        ["verify", "--help"],
        ["oracle", "--k", "3", "--mu", "3", "--i", "2"],
    ],
)
def test_full_stdout_exits_three_with_one_line(args, unbuffered):
    # argparse drops a failed write of --help or --version; main reports it
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = _run_into_full_device(args, env)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("i/o error:"), proc.stderr


@_NO_FULL_DEVICE
def test_usage_error_with_full_stdout_exits_two():
    env = dict(_cli_env(), PYTHONUNBUFFERED="1")
    proc = _run_into_full_device(["verify", "--bogus"], env)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: hurwitzdiv verify: the following arguments are required: mode, --g, --k\n"
    )


def test_help_and_version_print_to_stdout(capsys):
    assert run_cli(capsys, ["--version"])[:2] == (0, f"hurwitzdiv {hurwitzdiv.__version__}\n")
    code, out, err = run_cli(capsys, ["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: hurwitzdiv")


# The last certificate row carries a float, which has no canonical encoding,
# so the writer fails after it has written the earlier chunks.
_LATE_INVARIANT = """
import sys
import hurwitzdiv.cli as cli
from hurwitzdiv import serialize
from hurwitzdiv.bigness import BignessCertificate

to_obj, to_csv, to_text = serialize._RENDERERS[BignessCertificate]

def broken(cert):
    obj = to_obj(cert)
    obj["indices"] = list(obj["indices"])  # the rows that emit writes are a map
    obj["indices"][-1]["margin"] = 0.5
    return obj

serialize._RENDERERS[BignessCertificate] = (broken, to_csv, to_text)
sys.exit(cli.main(["verify", "stack", "--g", "200", "--k", "10"]))
"""


def test_invariant_error_after_partial_output_exits_four():
    proc = subprocess.run(
        [sys.executable, "-c", _LATE_INVARIANT], capture_output=True, text=True, env=_cli_env()
    )
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == ["invariant error: no JSON encoding for float 0.5"]
    assert proc.stdout.startswith('{\n  "command": "hurwitzdiv verify stack')
    assert len(proc.stdout) > 100_000 and not proc.stdout.endswith("}\n")


def test_invariant_error_exits_four(capsys, monkeypatch):
    canonical = hurwitzdiv.hurwitz.canonical_class_m0b
    monkeypatch.setattr(hurwitzdiv.hurwitz, "canonical_class_m0b", lambda b: canonical(b) * 2)
    code, out, err = run_cli(capsys, ["classes", "canonical-stack", "--g", "4", "--k", "4"])
    assert (code, out) == (4, "")
    assert err == "invariant error: canonical class disagrees with pullback + ramification\n"


def test_startup_loads_neither_dataclasses_nor_inspect():
    # a subprocess, since pytest itself has imported both
    script = ("import sys, hurwitzdiv.cli as cli; cli.build_parser(); "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
