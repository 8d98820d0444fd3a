"""End-to-end CLI behavior: parsing, exit codes, files, determinism."""

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from varseq.cli import _SETTINGS, _build_parser, _resolve, main
from varseq.lattice import ZInterval
from varseq.reports import render_json


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


@pytest.fixture
def seq_file(tmp_path):
    return write_json(tmp_path / "a.json", {"offset": 0, "values": [3.0, 4.0]})


@pytest.fixture
def exp_file(tmp_path):
    return write_json(
        tmp_path / "p.json", {"window_lo": -4, "values": [2.0] * 9, "p_inf": 2.0}
    )


def run_cli(*args):
    return main(list(args))


def test_norm_constant_oracle(seq_file, exp_file, tmp_path, capsys):
    out = tmp_path / "norm.json"
    code = run_cli("norm", "--input", seq_file, "--exponent", exp_file, "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["norm"] == pytest.approx(5.0, rel=1e-10)
    assert data["achieved_modular"] == pytest.approx(1.0, abs=1e-9)


def test_norm_stdout_when_no_out(seq_file, exp_file, capsys):
    assert run_cli("norm", "--input", seq_file, "--exponent", exp_file) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "norm"


def test_norm_missing_args_exit_2(seq_file, capsys):
    assert run_cli("norm", "--input", seq_file) == 2
    assert "exponent" in capsys.readouterr().err


def test_text_sequence_format(tmp_path, exp_file, capsys):
    path = tmp_path / "a.txt"
    path.write_text("# sparse pairs\n1 3.0\n\n2 -4.0\n")
    assert run_cli("norm", "--input", str(path), "--exponent", exp_file) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["norm"] == pytest.approx(5.0, rel=1e-10)


def test_bad_sequence_files_exit_2(tmp_path, exp_file, capsys):
    bad1 = write_json(tmp_path / "b1.json", {"offset": 0})
    bad2 = write_json(tmp_path / "b2.json", {"offset": 0, "values": [1], "extra": 2})
    bad3 = tmp_path / "b3.txt"
    bad3.write_text("1 2 3\n")
    bad4 = write_json(tmp_path / "b4.json", {"offset": 0, "values": [10**400]})
    for bad in (bad1, bad2, str(bad3), str(tmp_path / "missing.json"), bad4):
        assert run_cli("norm", "--input", bad, "--exponent", exp_file) == 2


@pytest.mark.parametrize("window", ["--window=-2:4", "--window=0:2"])
def test_overflowing_total_exit_2(tmp_path, window, capsys):
    seq = write_json(tmp_path / "big.json", {"offset": 0, "values": [1e308] * 3})
    assert run_cli("maximal", "--input", seq, window) == 2
    assert "sum of |values| must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "0", "1e-300"])
def test_norm_bad_rel_tol_exit_2(seq_file, exp_file, rel_tol, capsys):
    assert run_cli("norm", "--input", seq_file, "--exponent", exp_file, "--rel-tol", rel_tol) == 2
    assert "rel_tol must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, data",
    [
        ("--input", {"offset": 1.5, "values": [1.0, 2.0]}),
        ("--input", {"offset": True, "values": [1.0, 2.0]}),
        ("--exponent", {"window_lo": 0.7, "values": [2.0], "p_inf": 2.0}),
    ],
)
def test_json_offsets_must_be_integers(tmp_path, seq_file, exp_file, capsys, flag, data):
    """A non-integral or boolean offset exits 2, as in the text format,
    instead of being truncated to an integer."""
    files = {"--input": seq_file, "--exponent": exp_file}
    files[flag] = write_json(tmp_path / "bad.json", data)
    assert run_cli("norm", *[x for pair in files.items() for x in pair]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, data, message",
    [
        ("maximal", "--input", {"offset": 0, "values": [True, "2"]}, "values must be numbers, got true"),
        ("maximal", "--input", {"offset": 0, "values": [1.0, "2"]}, 'values must be numbers, got "2"'),
        ("maximal", "--input", {"offset": 0, "values": 5}, "values must be numbers, got 5"),
        (
            "norm",
            "--exponent",
            {"window_lo": 0, "values": [2.0, True], "p_inf": 2.0},
            "values must be numbers, got true",
        ),
        (
            "norm",
            "--exponent",
            {"window_lo": 0, "values": [2.0], "p_inf": True},
            "p_inf must be a number, got true",
        ),
    ],
)
def test_json_values_must_be_numbers(
    tmp_path, seq_file, exp_file, capsys, command, flag, data, message
):
    """JSON booleans and strings are not read as numbers: true is not 1 and
    "2" is not 2, so the run exits 2 instead of computing on them."""
    files = {"--input": seq_file, "--exponent": exp_file}
    files[flag] = path = write_json(tmp_path / "bad.json", data)
    if command == "maximal":
        del files["--exponent"]
    assert run_cli(command, *[x for pair in files.items() for x in pair]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


def test_czd_worked_example(tmp_path, capsys):
    seq = write_json(tmp_path / "c.json", {"offset": 1, "values": [4.0, 0.0, 0.0, 0.0]})
    assert run_cli("czd", "--input", seq, "--alpha", "0", "--t", "1") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["intervals"] == [[1, 2]]
    assert data["averages"] == [2.0]
    assert data["n_t"] == 2


def test_czd_requires_t(seq_file):
    assert run_cli("czd", "--input", seq_file, "--alpha", "0") == 2


def test_infinite_threshold_exit_2(seq_file, capsys):
    """t = inf is an input error on one line that names t, not a report that
    fails to render (czd) or vacuous checks that pass (verify)."""
    for argv in (
        ["czd", "--input", seq_file, "--t", "inf"],
        ["verify", "--t", "inf", "--checks", "cz_structure,covering", "--count", "2"],
    ):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "error: threshold t must be finite\n"


def test_alpha_range_rejected(seq_file):
    assert run_cli("czd", "--input", seq_file, "--alpha", "1.0", "--t", "1") == 2
    assert run_cli("maximal", "--input", seq_file, "--alpha", "-0.1") == 2


def test_maximal_csv_and_window(seq_file, tmp_path):
    out = tmp_path / "m.csv"
    code = run_cli(
        "maximal", "--input", seq_file, "--alpha", "0", "--window=-2:3",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "-2"
    # M_0 at -2 reaches [-2, 1]: (3+4)/4
    assert float(first[1]) == pytest.approx(7.0 / 4.0)


def test_maximal_zero_sequence_needs_window(tmp_path):
    z = write_json(tmp_path / "z.json", {"offset": 0, "values": [0.0, 0.0]})
    assert run_cli("maximal", "--input", z, "--alpha", "0") == 2
    assert run_cli("maximal", "--input", z, "--alpha", "0", "--window=-1:1") == 0


def test_config_file_and_flag_override(tmp_path, seq_file, exp_file, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"command": "norm", "input": seq_file, "exponent": exp_file},
    )
    assert run_cli("norm", "--config", cfg) == 0
    capsys.readouterr()
    # flag wins over config
    other = write_json(tmp_path / "one.json", {"offset": 0, "values": [1.0]})
    assert run_cli("norm", "--config", cfg, "--input", other) == 0
    assert json.loads(capsys.readouterr().out)["norm"] == 1.0


def test_config_unknown_key_exit_2(tmp_path, seq_file, exp_file, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"command": "norm", "input": seq_file, "exponent": exp_file, "alpha_": 0.5},
    )
    assert run_cli("norm", "--config", cfg) == 2
    assert "alpha_" in capsys.readouterr().err


def test_config_command_mismatch_exit_2(tmp_path, seq_file):
    cfg = write_json(tmp_path / "cfg.json", {"command": "czd", "t": 1.0})
    assert run_cli("norm", "--config", cfg, "--input", seq_file) == 2


def test_config_invalid_json_exit_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run_cli("norm", "--config", str(cfg)) == 2


def test_verify_exit_codes(tmp_path):
    ok = run_cli(
        "verify", "--seed", "5", "--count", "4", "--width", "20",
        "--checks", "norm_modular,scaling",
    )
    assert ok == 0
    fault = run_cli(
        "verify", "--seed", "5", "--count", "4", "--width", "20",
        "--checks", "norm_modular", "--inject-fault",
    )
    assert fault == 1
    assert run_cli("verify", "--checks", "nope") == 2


def test_verify_byte_identical_reruns(tmp_path):
    args = (
        "verify", "--seed", "88", "--count", "5", "--width", "22",
        "--checks", "lh_equivalences,cz_structure,weak_type",
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_csv_format(tmp_path):
    out = tmp_path / "v.csv"
    code = run_cli(
        "verify", "--seed", "5", "--count", "4", "--width", "20",
        "--checks", "scaling", "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check_name,cases,failures,empirical_constant"
    assert lines[1].startswith("scaling,12,0,")


@pytest.mark.parametrize(
    "command, args",
    [
        ("norm", ["--input", "missing.json", "--exponent", "missing.json"]),
        ("czd", ["--input", "missing.json", "--t", "0.1"]),
        ("corpus", ["--count", "-1"]),
    ],
)
def test_json_only_commands_reject_csv_first(capsys, command, args):
    """norm, czd and corpus have no CSV form: --format csv exits 2 before
    any input is read or any corpus spec is checked."""
    assert run_cli(command, *args, "--format", "csv") == 2
    assert capsys.readouterr().err == f"error: {command} supports only json output\n"


NEAR_ONE = {"alpha_list": [0.995], "p_lo": 1.0, "p_hi": 1.002, "count": 2, "window_width": 12}


@pytest.mark.parametrize(
    "check, code, message",
    [
        ("strong_type", 0, ""),
        ("domination", 2, "error: threshold too small for the dyadic level search\n"),
        ("weak_type", 2, "error: superlevel radius exceeds 2**52\n"),
    ],
)
def test_verify_alpha_near_one(tmp_path, capsys, check, code, message):
    """A valid config at alpha = 0.995 ends with a report or a one-line
    error, never a traceback or a numpy warning."""
    cfg = write_json(tmp_path / "cfg.json", {"checks": [check], "corpus": NEAR_ONE})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("verify", "--config", cfg, "--out", str(tmp_path / "r.json")) == code
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "alphas, message",
    [
        ("1.5", "error: alpha must lie in [0, 1)\n"),
        ("0,-0.1", "error: alpha must lie in [0, 1)\n"),
        ("0.99", "error: max(alpha_list) = 0.99 leaves the default p_hi ="
                 " 0.95/max(alpha_list) = 0.959596 below p_lo = 1.05\n"),
        # the alpha given, not one rounded to 1, outside [0, 1)
        ("0.9999999", "error: max(alpha_list) = 0.9999999 leaves the default p_hi ="
                      " 0.95/max(alpha_list) = 0.95 below p_lo = 1.05\n"),
    ],
)
def test_verify_bad_alphas_exit_2(capsys, alphas, message):
    """An alpha outside [0, 1) is named as such, and an alpha whose default
    p_hi falls below p_lo is named as the cause, before any corpus is drawn."""
    assert run_cli("verify", "--alphas", alphas, "--count", "1", "--checks", "lh_equivalences") == 2
    assert capsys.readouterr().err == message


def test_verify_long_level_ladder_exit_2(capsys):
    """t within 1e-6 of 1/9 asks domination for millions of level-set rungs:
    an input error on one line, raised before any rung is cut."""
    assert run_cli("verify", "--checks", "domination", "--count", "3", "--t", "0.111111") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: level ladder has ") and err.count("\n") == 1
    assert err.endswith(" rungs, more than 100000: t is too close to 1/9\n")


def test_verify_without_alphas_reports_empty_checks(tmp_path):
    """With no alphas, strong_type and weak_type report no cases, an empty
    worst case and no constant."""
    out = tmp_path / "r.json"
    argv = ["verify", "--alphas", "", "--checks", "strong_type,weak_type", "--count", "2"]
    assert run_cli(*argv, "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["failures_total"] == 0
    assert [r["check_name"] for r in data["reports"]] == ["strong_type", "weak_type"]
    for r in data["reports"]:
        assert r["cases"] == 0 and r["failures"] == 0
        assert r["worst_case"] == {} and r["empirical_constant"] is None


def test_verify_negative_count_exit_2(capsys):
    assert run_cli("verify", "--count", "-1", "--checks", "covering") == 2
    assert "count must be >= 0" in capsys.readouterr().err
    # no alphas: strong_type reports nothing, yet the spec is still checked
    assert run_cli("verify", "--count", "-1", "--alphas", "", "--checks", "strong_type") == 2
    assert "count must be >= 0" in capsys.readouterr().err
    assert run_cli("verify", "--count", "0", "--checks", "covering") == 0


def test_verify_has_no_threads_setting(tmp_path, monkeypatch, capsys):
    """verify runs serially: no --threads flag, no threads config key, and
    VARSEQ_THREADS is not read."""
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--threads" not in capsys.readouterr().out
    assert run_cli("verify", "--threads", "2", "--checks", "covering", "--count", "2") == 2
    assert "--threads" in capsys.readouterr().err
    cfg = write_json(tmp_path / "cfg.json", {"threads": 2})
    assert run_cli("verify", "--config", cfg, "--checks", "covering", "--count", "2") == 2
    assert "unknown config keys for verify: threads" in capsys.readouterr().err
    argv = ["verify", "--seed", "6", "--count", "4", "--width", "20", "--checks", "covering"]
    assert run_cli(*argv, "--out", str(tmp_path / "plain.json")) == 0
    monkeypatch.setenv("VARSEQ_THREADS", "abc")
    assert run_cli(*argv, "--out", str(tmp_path / "env.json")) == 0
    assert (tmp_path / "env.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_verify_bad_config_value_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"command": "verify", "t": "x"})
    assert run_cli("verify", "--config", cfg, "--checks", "covering", "--count", "2") == 2
    assert "invalid t 'x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, bad",
    [
        ("maximal", "window", [0, 3]),
        ("maximal", "input", 5),
        ("czd", "out", 5),
        ("verify", "checks", 5),
        ("verify", "checks", [1]),
        ("verify", "inject_fault", "false"),
        ("maximal", "format", "xml"),
        ("corpus", "count", 2.7),
        ("czd", "t", True),
    ],
)
def test_config_value_of_wrong_kind_exit_2(tmp_path, seq_file, capsys, command, key, bad):
    """A config value is taken only if it has the setting's JSON type or is
    text its flag accepts; anything else names the setting and exits 2."""
    config = {"corpus": {key: bad}} if _SETTINGS[key].section else {key: bad}
    argv = [command, "--config", write_json(tmp_path / "cfg.json", config)]
    if command in ("maximal", "czd") and key != "input":
        argv += ["--input", seq_file]
    if command == "czd" and key != "t":
        argv += ["--t", "1"]
    if command == "verify" and key != "checks":
        argv += ["--checks", "covering", "--count", "2"]
    assert run_cli(*argv) == 2
    assert f"invalid {key} {bad!r}" in capsys.readouterr().err


# setting -> (flag text, the same value in a config, a different config value)
SAMPLES = {
    "out": ("r.json", "r.json", "other.json"),
    "format": ("csv", "csv", "json"),
    "input": ("a.json", "a.json", "b.json"),
    "exponent": ("p.json", "p.json", "q.json"),
    "rel_tol": ("1e-9", 1e-9, 1e-6),
    "alpha": ("0.25", 0.25, 0),
    "window": ("-2:3", "-2:3", "0:1"),
    "t": ("0.3", 0.3, 2),
    "checks": ("covering, holder", ["covering", "holder"], "fatou"),
    "inject_fault": (None, True, False),
    "seed": ("7", 7, 8),
    "count": ("5", 5, "6"),
    "window_width": ("20", 20, 30),
    "value_law": ("spike", "spike", "uniform01"),
    "exponent_law": ("bump", "bump", "constant"),
    "alpha_list": ("0,0.5", [0, 0.5], [0.25]),
    "p_lo": ("1.2", 1.2, 1.1),
    "p_hi": ("1.8", 1.8, 1.9),
}
# settings a command cannot resolve without
BASE = {"norm": {"input": "a.json", "exponent": "p.json"}, "maximal": {"input": "a.json"},
        "czd": {"input": "a.json", "t": 1.0}}
FLAGGED = [(c, n) for n, s in _SETTINGS.items() for c in (s.flag_commands or s.commands)]


def resolve(tmp_path, argv, config):
    argv = [*argv, "--config", write_json(tmp_path / "cfg.json", config)]
    return _resolve(_build_parser().parse_args(argv))


def test_samples_cover_every_setting():
    assert set(SAMPLES) == set(_SETTINGS)


@pytest.mark.parametrize("command, name", FLAGGED)
def test_flag_and_config_value_resolve_alike(tmp_path, command, name):
    s = _SETTINGS[name]
    text, value, other = SAMPLES[name]
    flag = [s.flag] if text is None else [f"{s.flag}={text}"]

    def config(v):
        base = dict(BASE.get(command, {}))
        return {**base, "corpus": {name: v}} if s.section else {**base, name: v}

    by_flag = resolve(tmp_path, [command, *flag], BASE.get(command, {}))
    by_config = resolve(tmp_path, [command], config(value))
    assert repr(by_flag) == repr(by_config)
    assert by_flag == by_config
    # the flag wins over a config value
    both = resolve(tmp_path, [command, *flag], config(other))
    assert repr(both) == repr(by_flag)
    assert resolve(tmp_path, [command], config(other)) != by_flag


def test_flags_and_config_keys_per_command():
    flags = {c: sorted(s.flag for s in _SETTINGS.values() if c in (s.flag_commands or s.commands))
             for c in ("norm", "maximal", "czd", "verify", "corpus")}
    assert flags == {
        "norm": ["--exponent", "--format", "--input", "--out", "--rel-tol"],
        "maximal": ["--alpha", "--format", "--input", "--out", "--window"],
        "czd": ["--alpha", "--format", "--input", "--out", "--t"],
        "verify": ["--alphas", "--checks", "--count", "--exponent-law", "--format", "--inject-fault",
                   "--out", "--seed", "--t", "--value-law", "--width"],
        "corpus": ["--alphas", "--count", "--exponent-law", "--format", "--out", "--p-hi", "--p-lo",
                   "--seed", "--value-law", "--width"],
    }
    corpus_keys = ["alpha_list", "count", "exponent_law", "p_hi", "p_lo", "seed", "value_law", "window_width"]
    for command in ("verify", "corpus"):
        assert sorted(n for n, s in _SETTINGS.items() if s.section == "corpus" and command in s.commands) == corpus_keys


def test_p_bounds_config_only_on_verify(tmp_path, capsys):
    assert run_cli("verify", "--p-lo", "1.2") == 2
    cfg = resolve(tmp_path, ["verify"], {"corpus": {"p_lo": 1.2, "p_hi": 1.8}})
    assert (cfg.corpus.p_lo, cfg.corpus.p_hi) == (1.2, 1.8)


def test_corpus_roundtrip(tmp_path):
    out = tmp_path / "corpus.json"
    assert run_cli(
        "corpus", "--seed", "7", "--count", "3", "--width", "16", "--out", str(out)
    ) == 0
    data = json.loads(out.read_text())
    assert len(data["items"]) == 3
    assert data["spec"]["seed"] == 7
    for item in data["items"]:
        assert set(item["sequence"]) == {"offset", "values"}
        assert set(item["exponent"]) == {"window_lo", "values", "p_inf"}
        assert all(math.isfinite(v) for v in item["sequence"]["values"])


def test_atomic_write_leaves_no_temp_files(tmp_path, seq_file, exp_file):
    out = tmp_path / "sub" / "x.json"
    os.makedirs(out.parent)
    assert run_cli(
        "norm", "--input", seq_file, "--exponent", exp_file, "--out", str(out)
    ) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["x.json"]


# SHA-256 of each command's output on the README's example inputs, written
# to stdout and to --out alike.
GOLDEN_SHA256 = {
    "norm": "81489123e189ecdf962592d832586b746f6db02937cb42bc45a8191a38a53940",
    "maximal-json": "5db023673b26313068d67c0adec5de4a9f0b8f01ee24ed868977d4d6c4f27f10",
    "maximal-csv": "09c2906a23e25f51b1d9ce918771835b52d31158cadffe154c875ea29020ece5",
    "czd": "2433efdc7e52a8783dd8f0e0bebb3a2ef35f404906af8fba9be573a32edb722f",
    "corpus": "358212f328e7eb86b05fac33d1ce41f975bb88e1ae48f0fe9c9e559d3f06a205",
    "verify-csv": "b2b83438196b27e8170cc611db44b0406245a707f2104941cbaafc41f489a3dc",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_command_output_digests_pinned(tmp_path, capsys, case):
    seq = write_json(tmp_path / "seq.json", {"offset": -2, "values": [0.5, 0.0, 1.25]})
    exp = write_json(tmp_path / "exp.json", {"window_lo": -2, "values": [1.5, 2.0, 3.0], "p_inf": 2.5})
    argv = {
        "norm": ["norm", "--input", seq, "--exponent", exp],
        "maximal-json": ["maximal", "--input", seq, "--alpha", "0.5", "--window=-4:4"],
        "maximal-csv": ["maximal", "--input", seq, "--alpha", "0.5", "--window=-4:4", "--format", "csv"],
        "czd": ["czd", "--input", seq, "--alpha", "0.25", "--t", "0.3"],
        "corpus": ["corpus", "--seed", "7", "--count", "2", "--width", "8"],
        "verify-csv": ["verify", "--seed", "7", "--count", "2", "--width", "12", "--format", "csv"],
    }[case]
    out = tmp_path / "out"
    assert run_cli(*argv) == 0
    assert run_cli(*argv, "--out", str(out)) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == GOLDEN_SHA256[case]
    assert out.read_bytes() == printed


@pytest.mark.parametrize(
    "args",
    [
        ["maximal"],
        ["verify", "--format", "csv", "--count", "1", "--checks", "lh_equivalences"],
    ],
)
@pytest.mark.parametrize("target, reason", [("missing/r.out", "No such file or directory"), ("taken", "Is a directory")])
def test_unwritable_out_exit_2(tmp_path, seq_file, capsys, args, target, reason):
    """An --out in a missing directory, or naming a directory, exits 2 with
    one line and leaves no temporary file behind."""
    (tmp_path / "taken").mkdir()
    if args[0] == "maximal":
        args = [*args, "--input", seq_file]
    out = str(tmp_path / target)
    assert run_cli(*args, "--out", out) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert list(tmp_path.rglob(".varseq-*")) == []


def test_far_offset_exit_2(tmp_path, capsys):
    """A sequence past the coordinate limit is an input error on one line."""
    seq = write_json(tmp_path / "far.json", {"offset": 9223372036854775807000, "values": [1.0, 2.0]})
    assert run_cli("czd", "--input", seq, "--t", "0.5") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load sequence {seq}: sequence window [") and err.count("\n") == 1
    assert err.endswith("reaches past the coordinate limit +-2**61\n")


@pytest.mark.parametrize("command", ["norm", "czd"])
def test_wide_pairs_span_exit_2(tmp_path, capsys, command):
    """Two text pairs 2**40 apart are an input error on one line, raised
    before the dense values are allocated."""
    far = tmp_path / "far.txt"
    far.write_text("0 1.0\n1099511627776 2.0\n")
    exp = write_json(tmp_path / "p.json", {"window_lo": 0, "values": [], "p_inf": 2.0})
    args = ["--exponent", exp] if command == "norm" else ["--t", "0.1"]
    assert run_cli(command, "--input", str(far), *args) == 2
    assert capsys.readouterr().err == (
        f"error: cannot load sequence {far}: index pairs span 1099511627777 points, more than 2**24\n"
    )


def test_maximal_window_past_limit_exit_2(tmp_path, capsys):
    """A maximal window of more than 2**20 points is an input error on one
    line, raised before the profile is allocated."""
    one = tmp_path / "one.txt"
    one.write_text("0 1.0\n")
    assert run_cli("maximal", "--input", str(one), "--window", "0:1099511627776") == 2
    assert capsys.readouterr().err == "error: maximal window has 1099511627777 points, more than 2**20\n"


def test_report_float_formatting_is_17g(tmp_path):
    text = render_json({"x": 0.1, "y": 1.0})
    assert "0.10000000000000001" in text
    # round-trip preserves the exact float
    assert json.loads(text)["x"] == 0.1


@dataclass(frozen=True)
class _Record:
    span: ZInterval
    values: np.ndarray
    count: np.int64
    pair: tuple
    _hidden: float = 1.0


def test_render_json_walks_records_directly():
    """An interval renders as [lo, hi], a record as its public fields, numpy
    arrays and scalars as plain values, a tuple as a list; keys must be
    strings."""
    rec = _Record(ZInterval(-2, 3), np.array([0.5, 2.0]), np.int64(7), (np.float64(0.1), None))
    assert render_json({"r": rec, "e": ()}) == (
        '{\n  "e": [],\n  "r": {\n    "count": 7,\n    "pair": [\n      0.10000000000000001,\n'
        '      null\n    ],\n    "span": [\n      -2,\n      3\n    ],\n    "values": [\n'
        '      0.5,\n      2\n    ]\n  }\n}\n'
    )
    for key in (1, (1, 2), np.int64(3)):
        with pytest.raises(TypeError, match="report keys must be strings"):
            render_json({key: 0.0})
