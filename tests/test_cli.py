import io
import json
import os
import stat
import subprocess
import sys

import pytest

from affchar import cli
from affchar.cli import (CHECKS, VerificationReport, build_parser, emit_report,
                         main, identity_check_suite, run_all_checks,
                         run_verification)


def test_fks_pass_report():
    rep = run_verification("fks", {"type": "A", "rank": 1, "coset": [0],
                                   "depth": 4})
    assert rep.status == "PASS"
    assert rep.first_discrepancy is None
    obj = json.loads(rep.to_json())
    assert set(obj) >= {"check", "params", "status", "elapsed_ms",
                        "engine_version"}
    assert "first_discrepancy" not in obj


def test_fks_negative_control_c2():
    rep = run_verification("fks", {"type": "C", "rank": 2, "coset": [0, 0],
                                   "depth": 4})
    assert rep.status == "FAIL"
    fd = rep.first_discrepancy
    assert fd is not None
    assert fd["lhs"] > fd["rhs"]
    obj = json.loads(rep.to_json())
    assert obj["first_discrepancy"]["lhs"] == fd["lhs"]
    assert "weight" in obj["first_discrepancy"]
    assert "q" in obj["first_discrepancy"]


def test_tensor_pass_with_dims():
    rep = run_verification("tensor", {"type": "A", "rank": 1, "lam": [2],
                                      "mu": [2]})
    assert rep.status == "PASS"


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_verification("nonsense", {"type": "A", "rank": 1})


def test_skipped_on_tiny_cap():
    rep = run_verification("fks", {"type": "D", "rank": 4, "coset": [0, 0, 0, 0],
                                   "depth": 6, "cap_orbit": 10})
    assert rep.status == "SKIPPED"
    assert rep.skip_reason


def test_report_bytes_stable_modulo_elapsed():
    params = {"type": "A", "rank": 2, "coset": [0, 0], "depth": 3}
    a = json.loads(run_verification("fks", params).to_json())
    b = json.loads(run_verification("fks", params).to_json())
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_emit_report_writes_file(tmp_path):
    rep = run_verification("coroots", {"type": "A", "rank": 2})
    path = tmp_path / "report.json"
    payload = emit_report(rep, "json", path)
    assert path.read_text(encoding="utf-8") == payload
    with pytest.raises(ValueError):
        emit_report(rep, "yaml")


def test_written_files_follow_the_umask(tmp_path):
    # like a plain open(): mode 0666 less the umask, not mkstemp's 0600
    rep = run_verification("coroots", {"type": "A", "rank": 2})
    old = os.umask(0o022)
    try:
        emit_report(rep, "json", tmp_path / "r.json")
        main(["fks", "--type", "A", "--rank", "1", "--coset", "0", "--depth", "2",
              "--dump", str(tmp_path / "d")])
    finally:
        os.umask(old)
    assert sorted(stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()) == [
        0o644] * 3


def test_report_writes_leave_a_foreign_tmp_file_alone(tmp_path, monkeypatch):
    # another writer's <path>.tmp must survive byte-for-byte, and no
    # temporary file of our own may be left behind
    rep = run_verification("coroots", {"type": "A", "rank": 2})
    monkeypatch.setattr(cli, "identity_check_suite", lambda depth, heavy: [
        ("coroots", {"type": "A", "rank": 2}, "PASS")])
    for name, write in [
            ("report.json", lambda p: emit_report(rep, "json", p)),
            ("battery.json", lambda p: run_all_checks(out=p, stream=io.StringIO()))]:
        path = tmp_path / name
        foreign = tmp_path / (name + ".tmp")
        foreign.write_bytes(b"another writer\x00\n")
        write(path)
        assert foreign.read_bytes() == b"another writer\x00\n"
        assert json.loads(path.read_text(encoding="utf-8"))["check"] == "coroots"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "battery.json", "battery.json.tmp", "report.json", "report.json.tmp"]


def test_main_exit_codes(tmp_path):
    assert main(["fks", "--type", "A", "--rank", "1", "--coset", "0",
                 "--depth", "3"]) == 0
    assert main(["fks", "--type", "C", "--rank", "2", "--coset", "0,0",
                 "--depth", "3"]) == 1
    assert main([]) == 2
    assert main(["fks"]) == 2


def test_main_json_output(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["minuscule", "--type", "A", "--rank", "2", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["status"] == "PASS"
    assert obj["params"]["type"] == "A"


@pytest.mark.parametrize("flag", ["--out", "--dump"])
def test_unwritable_path_exits_2(flag, tmp_path, capsys):
    bad = str(tmp_path / "missing" / "x")
    assert main(["fks", "--type", "A", "--rank", "1", "--coset", "1",
                 "--depth", "2", flag, bad]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    # the message names the path given, not a temporary file
    assert bad in captured.err and ".tmp" not in captured.err


def test_all_checks_unwritable_out_exits_2(tmp_path, monkeypatch, capsys):
    # the missing directory is reported before the first check runs
    ran = []
    monkeypatch.setattr(cli, "identity_check_suite", lambda depth, heavy: [
        ("coroots", {"type": "A", "rank": 2}, "PASS")])
    monkeypatch.setattr(cli, "run_verification",
                        lambda *args: ran.append(args))
    bad = str(tmp_path / "missing" / "x.json")
    assert main(["--all-checks", "--out", bad]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert bad in captured.err and ".tmp" not in captured.err


def test_all_checks_rejects_json_format(capsys):
    assert main(["--all-checks", "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--out FILE" in err


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "affchar.cli", "coroots", "--type", "C",
         "--rank", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "status=PASS" in proc.stdout


def test_all_checks_quick():
    # shallow-depth pass over the whole battery: positive identities still hold
    # and the negative controls still fail (first discrepancy is at depth 1)
    stream = io.StringIO()
    code = run_all_checks(depth=2, stream=stream)
    text = stream.getvalue()
    assert code == 0
    assert "identity-battery: PASS" in text
    assert "negative control" in text


def test_suite_has_expected_negative_controls():
    suite = identity_check_suite(depth=8)
    negatives = [(c, p) for c, p, e in suite if e == "FAIL"]
    assert {(p["type"], p["rank"]) for _, p in negatives} == {("C", 2), ("G", 2)}
    assert all(c == "fks" for c, _ in negatives)


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("AFFCHAR_CAP_ORBIT", "10")
    rep = run_verification("fks", {"type": "D", "rank": 4,
                                   "coset": [0, 0, 0, 0], "depth": 6})
    assert rep.status == "SKIPPED"
    monkeypatch.delenv("AFFCHAR_CAP_ORBIT")


def test_fks_dump_golden_files(tmp_path):
    from affchar.charring import QCharacter, chars_agree
    from affchar.rootsys import build_root_system
    base = tmp_path / "a1c0"
    rep = run_verification("fks", {"type": "A", "rank": 1, "coset": [0],
                                   "depth": 3, "dump": str(base)})
    assert rep.status == "PASS"
    rs = build_root_system("A", 1)
    lhs = QCharacter.from_text(rs, 1, (tmp_path / "a1c0.lhs.txt").read_text(),
                               depth=3, truncated=True)
    rhs = QCharacter.from_text(rs, 1, (tmp_path / "a1c0.rhs.txt").read_text(),
                               depth=3, truncated=True)
    assert chars_agree(lhs, rhs)
    # both files go through the atomic writer, which leaves no temporary file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a1c0.lhs.txt",
                                                          "a1c0.rhs.txt"]


def test_parser_round_trip():
    p = build_parser()
    args = p.parse_args(["fks", "--type", "D", "--rank", "4", "--coset",
                         "1,0,0,1", "--depth", "8"])
    assert args.check == "fks"
    assert args.rank == 4
    assert [str(c) for c in args.coset] == ["1", "0", "0", "1"]


@pytest.mark.parametrize("argv,flag", [
    (["fks", "--coset", "0", "--level", "2"], "--level"),
    (["fks", "--coset", "0", "--level", "0"], "--level"),
    (["fks"], "--coset"),
    (["fks", "--coset", "0,0"], "--coset"),
    (["tensor", "--lambda", "2"], "--mu"),
    (["domination", "--mu", "0"], "--lambda"),
    (["smooth-locus"], "--lambda"),
    (["coroots", "--cap-orbit", "0"], "--cap-orbit"),
    (["fks", "--coset", "0", "--cap-orbit", "-3"], "--cap-orbit"),
    (["smooth-locus", "--lambda", "2", "--level", "2"], "--level"),
    (["fixed-support", "--lambda", "2", "--level", "2"], "--level"),
    (["minuscule", "--level", "0"], "--level"),
    (["tensor", "--lambda", "2", "--mu", "2", "--level", "-1"], "--level"),
    (["curves", "--lambda", "1/2"], "--lambda"),
    (["tensor", "--lambda", "2", "--mu", "3/2"], "--mu"),
    (["fks", "--coset", "1/2"], "--coset"),
])
def test_bad_input_exits_2_naming_the_flag(argv, flag, capsys):
    assert main(argv + ["--type", "A", "--rank", "1", "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("name", ["AFFCHAR_CAP_ORBIT"])
@pytest.mark.parametrize("value", ["0", "-4", "many"])
def test_bad_env_cap_exits_2(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    assert main(["fks", "--type", "A", "--rank", "1", "--coset", "0",
                 "--depth", "2"]) == 2
    assert name in capsys.readouterr().err


def test_fixed_support_honours_cap_orbit(capsys):
    # the fixed-point support walks Weyl orbits under the one cap
    assert main(["fixed-support", "--type", "A", "--rank", "2", "--lambda", "2,2",
                 "--cap-orbit", "2"]) == 1
    assert "status=SKIPPED" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["smooth-locus", "--lambda", "2,2"],
    ["tensor", "--lambda", "2,2", "--mu", "1,1"],
    ["domination", "--lambda", "2,2", "--mu", "1,1"],
])
def test_demazure_checks_honour_cap_orbit(argv, capsys):
    # the one cap also bounds the weight raising and the Demazure terms
    assert main(argv + ["--type", "A", "--rank", "2", "--cap-orbit", "1"]) == 1
    out = capsys.readouterr().out
    assert "status=SKIPPED" in out and "exceeds cap of 1" in out


@pytest.mark.parametrize("name", ["cap_elements", "lamda"])
def test_unknown_parameter_rejected(name):
    params = {"type": "A", "rank": 1, "lam": [2], name: 10}
    with pytest.raises(ValueError, match=name):
        run_verification("curves", params)


def test_check_table_is_consistent(capsys):
    # every battery check and parser choice has a record, every required
    # coweight has a flag, and every level-one check rejects --level 2
    parser = build_parser()
    flags = {s for a in parser._actions for s in a.option_strings}
    choices = next(a.choices for a in parser._actions if a.dest == "check")
    suite = identity_check_suite(depth=2, heavy=True)
    assert {c for c, _, _ in suite} | set(choices) <= set(CHECKS)
    for name, check in CHECKS.items():
        assert all(cli._COWEIGHT_FLAGS[key] in flags for key in check.coweights)
        if check.level_one is None:
            continue
        argv = [name, "--type", "A", "--rank", "1", "--level", "2"]
        for key in check.coweights:
            argv += [cli._COWEIGHT_FLAGS[key], "1"]
        assert main(argv) == 2
        assert "--level" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fks", "--type", "A", "--rank", "1", "--coset", "0",
              "--cap-elements", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("params,message", [
    ({"coset": [0]}, "--coset needs 99999 comma-separated coefficients"),
    ({"coset": [0] * 99999, "cap_orbit": 0}, "--cap-orbit must be a positive"),
], ids=["coset", "cap-orbit"])
def test_parameters_are_validated_before_the_root_system_is_built(
        params, message, monkeypatch):
    # a wrong-length --coset for a huge rank must not build that rank first
    def refuse(*args):
        raise AssertionError("build_root_system called before validation")

    monkeypatch.setattr(cli, "build_root_system", refuse)
    with pytest.raises(ValueError, match=message):
        run_verification("fks", dict(params, type="A", rank=99999, depth=0))
