import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import copolymer.cli as cli
from copolymer.cli import main, resolve_config, build_parser
from copolymer.errors import NumericsError
from copolymer.oracle import log_srw_mass


def _run(tmp_path, *args):
    out = tmp_path / "runs"
    rc = main(["--version"] if args == ("--version",) else
              [args[0], "--out", str(out), *args[1:]])
    return rc, out


def _only_run_dir(out):
    dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(dirs) >= 1
    return sorted(dirs, key=lambda p: p.stat().st_mtime)[-1]


def test_free_energy_zero_disorder_value(tmp_path):
    rc, out = _run(tmp_path, "free-energy", "--zero-disorder",
                   "--lam", "0", "--lam-tilde", "0", "--h-tilde", "0",
                   "--n", "128", "--replicas", "2", "--seed", "9")
    assert rc == 0
    run = _only_run_dir(out)
    lines = (run / "free_energy.csv").read_text().splitlines()
    assert lines[0] == "N,replicas,f_hat,stderr,f_extrapolated"
    fields = lines[1].split(",")
    assert int(fields[0]) == 128
    assert float(fields[2]) == pytest.approx(log_srw_mass(128) / 128,
                                             abs=1e-13)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "free-energy"
    assert "free_energy.csv" in manifest["outputs"]
    assert manifest["run_id"] == run.name


def test_byte_identical_reruns_and_threads(tmp_path):
    args = ["mu", "--n-ladder", "24,48", "--replicas", "12", "--seed", "4",
            "--lam", "0.3", "--h", "0.1"]
    outs = []
    for sub, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / sub
        rc = main(args + ["--out", str(out), "--threads", threads])
        assert rc == 0
        outs.append((_only_run_dir(out) / "mu.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = {"lambda": 0.2, "h": 0.1, "lambda_tilde": 0.9, "h_tilde": 0.3,
           "n": 32, "replicas": 5, "seed": 11, "law_omega": "rademacher"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "runs"
    rc = main(["free-energy", "--config", str(path), "--out", str(out),
               "--replicas", "7"])
    assert rc == 0
    manifest = json.loads((_only_run_dir(out) / "manifest.json").read_text())
    assert manifest["config"]["replicas"] == 7      # flag wins
    assert manifest["config"]["lam"] == 0.2         # file wins over default
    assert manifest["config"]["law_omega"] == "rademacher"


def test_run_id_changes_with_config(tmp_path):
    out = tmp_path / "runs"
    rc1 = main(["free-energy", "--out", str(out), "--n", "16",
                "--replicas", "3", "--seed", "1"])
    rc2 = main(["free-energy", "--out", str(out), "--n", "16",
                "--replicas", "3", "--seed", "2"])
    assert rc1 == rc2 == 0
    assert len([p for p in out.iterdir() if p.is_dir()]) == 2


def test_invalid_config_exits_one(tmp_path):
    out = tmp_path / "runs"
    assert main(["free-energy", "--out", str(out), "--lam", "-1"]) == 1
    assert main(["free-energy", "--out", str(out), "--replicas", "x"]) == 1
    assert main(["unknown-command"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    assert main(["free-energy", "--out", str(out), "--config", str(bad)]) == 1
    assert not out.exists() or all(
        (p / "manifest.json").exists() for p in out.iterdir())


@pytest.mark.parametrize("command,cfg", [
    ("free-energy", {"seed": "5"}),
    ("free-energy", {"seed": 1.5}),
    ("free-energy", {"threads": "2"}),
    ("free-energy", {"replicas": 3.7}),
    ("free-energy", {"kernel": "bogus"}),
    ("free-energy", {"alpha": "x"}),
    ("excursions", {"site": "x"}),
    ("excursions", {"s_min": "4"}),
    ("excursions", {"s_max": 6.5}),
    # only a JSON boolean switches disorder off; "no" would read as true
    ("free-energy", {"zero_disorder": "no"}),
    ("free-energy", {"zero_disorder": 0}),
    # integer lists take no fractions, as the scalar fields
    ("free-energy", {"n_ladder": [16.5, 32]}),
    ("boundary", {"k_list": [8, 12.5]}),
    ("meet", {"windows": [4, 8.5]}),
    ("correlations", {"distances": [4, 5.5]}),
])
def test_config_file_values_are_validated(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 16, "replicas": 2, **cfg}))
    out = tmp_path / "runs"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_config_booleans_and_integral_floats(tmp_path):
    # a JSON true is the flag; integral floats in an int list are ints
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"zero_disorder": True,
                                "n_ladder": [16.0, 32]}))
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["free-energy", "--replicas", "2"]
    assert main([*args, "--config", str(path), "--out", str(a)]) == 0
    assert main([*args, "--zero-disorder", "--n-ladder", "16,32",
                 "--out", str(b)]) == 0
    assert ((_only_run_dir(a) / "free_energy.csv").read_bytes()
            == (_only_run_dir(b) / "free_energy.csv").read_bytes())


def test_guard_violation_exits_two(tmp_path):
    out = tmp_path / "runs"
    rc = main(["correlations", "--out", str(out), "--n", "64",
               "--distances", "60:63", "--replicas", "4"])
    assert rc == 2
    # no artifacts left behind on failure
    assert not out.exists() or not any(out.iterdir())


def test_numerics_error_exits_three(tmp_path, monkeypatch):
    def boom(cfg):
        raise NumericsError("pmf does not sum to one")

    monkeypatch.setitem(cli._COMMANDS, "profile",
                        cli._COMMANDS["profile"]._replace(run=boom))
    assert main(["profile", "--out", str(tmp_path / "runs"), "--n", "8"]) == 3


def _snapshot(out):
    return {p.relative_to(out): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


def test_failed_rerun_keeps_the_earlier_run(tmp_path, monkeypatch):
    # a rerun of the same argv has the same run id: when its command raises,
    # the first run's files must stay as they were
    out = tmp_path / "runs"
    argv = ["profile", "--out", str(out), "--n", "8"]
    assert main(argv) == 0
    before = _snapshot(out)
    assert {p.name for p in before} == {"profile.csv", "manifest.json"}

    def boom(*_):
        raise NumericsError("pmf does not sum to one")

    monkeypatch.setitem(cli._COMMANDS, "profile",
                        cli._COMMANDS["profile"]._replace(run=boom))
    assert main(argv) == 3
    assert _snapshot(out) == before


def test_nan_in_unlisted_column_exits_three(tmp_path, monkeypatch, capsys):
    def nan_profile(*_):
        return {"profile.csv": (["site", "p_contact", "p_neg"],
                                [(1, 0.5, float("nan"))])}

    monkeypatch.setitem(cli._COMMANDS, "profile",
                        cli._COMMANDS["profile"]._replace(run=nan_profile))
    out = tmp_path / "runs"
    assert main(["profile", "--out", str(out), "--n", "8"]) == 3
    assert "profile.csv: p_neg reads nan" in capsys.readouterr().err
    assert not out.exists()


def test_excursion_pmf_underflow_exits_two(tmp_path, capsys):
    # the pmf underflows to 0 inside s_min..s_max: no log may be taken
    out = tmp_path / "runs"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["excursions", "--out", str(out), "--n", "48",
                   "--replicas", "3", "--lam-tilde", "800", "--h-tilde", "5",
                   "--threads", "1"])
    assert rc == 2
    assert "guard violation:" in capsys.readouterr().err
    assert not out.exists()


def test_excursion_law_sum_check_scales_with_log_z(tmp_path, capsys):
    # |log Z| ~ 4e4 here: the law's sum rounds past an absolute 1e-9 but
    # within 1e-9 |log Z|, so the run reaches the pmf guard
    out = tmp_path / "runs"
    rc = main(["excursions", "--out", str(out), "--n", "32",
               "--replicas", "3", "--lam-tilde", "800", "--h-tilde", "50",
               "--threads", "1"])
    assert rc == 2
    assert "excursion pmf underflows" in capsys.readouterr().err
    assert not out.exists()


def test_maxexc_rejects_n_below_two(tmp_path, capsys):
    # Delta_N / log N is undefined at N = 1
    out = tmp_path / "runs"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["maxexc", "--out", str(out), "--n", "1", "--replicas",
                   "2", "--threads", "1"])
    assert rc == 1
    assert "N >= 2" in capsys.readouterr().err
    assert not out.exists()


# couplings whose in-block scale exponents pass the limit of the linear
# solve, so the forward passes take the log-domain fallback
@pytest.mark.parametrize("argv", [
    ("--n", "64", "--lam-tilde", "800", "--h-tilde", "5"),
    ("--n", "64", "--lam", "400", "--h", "400"),
    ("--n", "300", "--lam-tilde", "800", "--h-tilde", "-5"),
    ("--n", "300", "--lam-tilde", "3", "--h-tilde", "-2"),
])
def test_overflow_probes_write_finite_profiles(tmp_path, argv):
    rc, out = _run(tmp_path, "profile", *argv)
    assert rc == 0
    run = _only_run_dir(out)
    assert [p.name for p in run.glob("*.csv")] == ["profile.csv"]
    assert _non_finite_cells(run) == set()


def test_cli_import_loads_no_scipy():
    # scipy is imported on first use only; an eager import costs set-up
    # time and resident memory in every run
    code = ("import sys, copolymer.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_lam_zero_clt_loads_no_scipy_linalg(tmp_path):
    # the lam = 0 triangular solve calls numpy's own OpenBLAS: importing
    # scipy.linalg for it would add several MiB of resident memory
    code = ("import sys, copolymer.cli, copolymer.partition as p; "
            "assert copolymer.cli.main(['clt', '--n-ladder', '256', "
            "'--replicas', '8', '--lam', '0', '--h', '0', '--threads', '1', "
            f"'--out', {str(tmp_path)!r}]) == 0; "
            "print(p._dtrsv.cache_info().currsize, "
            "'scipy.linalg' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.splitlines()[-1].split() == ["1", "False"]


def test_unknown_law_exits_one_at_zero_disorder(tmp_path):
    # the homogeneous model draws no charges, but a bad law is still a
    # config error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"law_omega": "foo", "zero_disorder": True}))
    out = tmp_path / "runs"
    assert main(["free-energy", "--config", str(path), "--out", str(out),
                 "--n", "8", "--replicas", "2"]) == 1
    assert not out.exists()


def test_selftest_passes(tmp_path):
    out = tmp_path / "runs"
    rc = main(["selftest", "--out", str(out), "--seed", "3"])
    assert rc == 0
    run = _only_run_dir(out)
    lines = (run / "selftest.csv").read_text().splitlines()
    assert lines[0] == "check,max_violation,status"
    assert all(line.endswith("PASS") for line in lines[1:])
    assert len(lines) == 5


def test_selftest_negative_seed(tmp_path):
    out = tmp_path / "runs"
    assert main(["selftest", "--out", str(out), "--seed", "-1"]) == 0
    lines = (_only_run_dir(out) / "selftest.csv").read_text().splitlines()
    assert all(line.endswith("PASS") for line in lines[1:])


def test_manifest_records_platform(tmp_path):
    import numpy as np

    out = tmp_path / "runs"
    assert main(["profile", "--out", str(out), "--n", "8"]) == 0
    manifest = json.loads((_only_run_dir(out) / "manifest.json").read_text())
    platform = manifest["platform"]
    assert platform["numpy"] == np.__version__
    assert set(platform["blas"]) == {"name", "version",
                                     "openblas configuration"}
    assert isinstance(platform["simd"]["found"], list)


def test_profile_and_sample_outputs(tmp_path):
    out = tmp_path / "runs"
    rc = main(["profile", "--out", str(out), "--n", "16", "--seed", "2"])
    assert rc == 0
    lines = (_only_run_dir(out) / "profile.csv").read_text().splitlines()
    assert lines[0] == "site,p_contact,p_neg"
    assert len(lines) == 17
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0, abs=1e-12)

    out2 = tmp_path / "runs2"
    rc = main(["sample", "--out", str(out2), "--n", "16", "--replicas", "2",
               "--paths", "3", "--seed", "2"])
    assert rc == 0
    lines = (_only_run_dir(out2) / "sample.csv").read_text().splitlines()
    assert lines[0] == "replica,path_index,return_site,sign"
    # every path ends pinned at n = 16
    ends = [l for l in lines[1:] if l.split(",")[2] == "16"]
    assert len(ends) == 6


def test_phase_scan_schema(tmp_path):
    out = tmp_path / "runs"
    rc = main(["phase-scan", "--out", str(out), "--n", "32", "--replicas",
               "4", "--values1", "0.5,1.0", "--values2", "0.5",
               "--seed", "5"])
    assert rc == 0
    lines = (_only_run_dir(out) / "phase.csv").read_text().splitlines()
    assert lines[0] == "axis1,axis2,f_hat,stderr,localized"
    assert len(lines) == 3
    assert lines[1].split(",")[4] in ("0", "1")


def _csv_bytes(run):
    return {f.name: f.read_bytes() for f in sorted(run.glob("*.csv"))}


def test_shared_parser_keeps_calls_apart(tmp_path, capsys):
    # the parser is built once per process: no call may see another's flags
    argvs = [
        ["free-energy", "--n-ladder", "16,32", "--replicas", "3",
         "--seed", "2", "--lam", "0.5", "--h", "0.1"],
        ["free-energy", "--replicas", "3"],
        ["phase-scan", "--axis1", "lam", "--axis2", "h_tilde", "--values1",
         "0,0.5", "--values2", "-0.5,0.5", "--n", "24", "--replicas", "3",
         "--threads", "2"],
        ["mu", "--n", "24", "--replicas", "4", "--seed", "7"],
        ["phase-scan", "--n", "16", "--replicas", "2"],
    ]
    alone = []
    for i, argv in enumerate(argvs):
        build_parser.cache_clear()
        out = tmp_path / f"alone{i}"
        assert main(argv + ["--out", str(out)]) == 0
        alone.append(_csv_bytes(_only_run_dir(out)))
    for i, argv in enumerate(argvs):
        out = tmp_path / f"after{i}"
        assert main(argv + ["--out", str(out)]) == 0
        assert _csv_bytes(_only_run_dir(out)) == alone[i]
        assert main(["mu", "--no-such-flag"]) == 1
        assert main(["--version"]) == 0
        assert main(["free-energy", "--help"]) == 0
    capsys.readouterr()


def test_resolve_config_unknown_key():
    parser = build_parser()
    args = parser.parse_args(["free-energy"])
    cfg = resolve_config(args)
    assert cfg["command"] == "free-energy"
    assert cfg["seed"] == 1


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("COPOLYMER_OUT", str(tmp_path / "envruns"))
    rc = main(["profile", "--n", "8", "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "envruns").exists()
    assert any((tmp_path / "envruns").iterdir())


def test_phase_scan_negative_list_after_space(tmp_path):
    # the README form: argparse would read "-0.5,0,0.5" as a flag
    out = tmp_path / "runs"
    rc = main(["phase-scan", "--out", str(out), "--n", "16", "--replicas",
               "3", "--values1", "0.5", "--values2", "-0.5,0,0.5",
               "--threads", "1"])
    assert rc == 0
    lines = (_only_run_dir(out) / "phase.csv").read_text().splitlines()
    assert [float(l.split(",")[1]) for l in lines[1:]] == [-0.5, 0.0, 0.5]


@pytest.mark.parametrize("argv", [
    ["profile", "--n", "16", "--lam", "nan"],
    ["free-energy", "--n", "16", "--replicas", "3", "--lam", "nan"],
    ["profile", "--n", "16", "--h-tilde", "inf"],
    ["free-energy", "--n", "16", "--replicas", "3", "--h-tilde", "inf"],
])
def test_non_finite_couplings_exit_one(tmp_path, argv):
    out = tmp_path / "runs"
    assert main([*argv, "--out", str(out)]) == 1
    # no NaN CSV left behind
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv,code", [
    # zero is a value, not "unset": each must reach its validator
    (["excursions", "--n", "16", "--site", "0", "--replicas", "2"], 2),
    (["excursions", "--n", "16", "--s-max", "0", "--replicas", "2"], 2),
    (["free-energy", "--n", "16", "--n-max", "0", "--replicas", "2"], 1),
    (["boundary", "--n", "16", "--k-list", "", "--replicas", "2"], 2),
    (["mu", "--n", "16", "--n-ladder", "", "--replicas", "2"], 1),
])
def test_zero_valued_options_are_not_unset(tmp_path, argv, code):
    out = tmp_path / "runs"
    assert main([*argv, "--out", str(out)]) == code
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("args,key,listed,text,csv", [
    (["meet", "--n", "24", "--paths", "2"], "windows", [4, 8], "4,8",
     "meet.csv"),
    (["correlations", "--n", "24"], "distances", [4, 5, 6], "4:6",
     "decay.csv"),
])
def test_list_options_from_config_lists(tmp_path, args, key, listed, text,
                                        csv):
    # a JSON list in the config file and the flag's string give one run
    args = [*args, "--replicas", "2"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: listed}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--config", str(path), "--out", str(a)]) == 0
    assert main([*args, "--" + key, text, "--out", str(b)]) == 0
    assert ((_only_run_dir(a) / csv).read_bytes()
            == (_only_run_dir(b) / csv).read_bytes())
    path.write_text(json.dumps({key: [4, "x"]}))
    assert main([*args, "--config", str(path), "--out", str(a)]) == 1


def _help_flags(capsys, command):
    assert main([command, "--help"]) == 0
    return set(re.findall(r"^\s+(?:-h, )?(--[a-z0-9-]+)",
                          capsys.readouterr().out, re.MULTILINE))


def test_help_and_version_return_zero(tmp_path, capsys):
    assert main(["--help"]) == 0
    assert "{" + ",".join(cli._COMMANDS) + "}" in capsys.readouterr().out
    rc, out = _run(tmp_path, "--version")
    assert rc == 0
    assert capsys.readouterr().out.strip() == cli.__version__
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_lists_exactly_the_command_keys(capsys, command):
    flags = {"--" + key.replace("_", "-")
             for key in cli._COMMANDS[command].keys}
    assert _help_flags(capsys, command) == {"--help", "--config", *flags}


# per subcommand, valid flags it reads, then flags it does not read: a run
# that ignored the latter would succeed, so only rejecting them exits 1
_UNREAD = {
    "free-energy": ["--n", "8", "--replicas", "2", "--paths", "3"],
    "mu": ["--n", "8", "--replicas", "2", "--site", "4"],
    "profile": ["--n", "8", "--replicas", "-5"],
    "correlations": ["--n", "16", "--replicas", "2", "--distances", "4:6",
                     "--n-ladder", "16,32"],
    "boundary": ["--n", "16", "--replicas", "2", "--windows", "4"],
    "excursions": ["--n", "16", "--replicas", "2", "--k-list", "4,8"],
    "maxexc": ["--n", "16", "--replicas", "2", "--distances", "4:6"],
    "sample": ["--n", "8", "--replicas", "1", "--n-ladder", "8,16"],
    "clt": ["--n", "16", "--replicas", "8", "--paths", "-3", "--windows",
            "x"],
    "finite-size": ["--n-ladder", "4,8,16,32,64", "--replicas", "2",
                    "--s-min", "2"],
    # the bound is built on Gaussian charges: no homogeneous model
    "entropy-bound": ["--n", "16", "--replicas", "2", "--zero-disorder"],
    "meet": ["--n", "16", "--replicas", "2", "--windows", "4,8",
             "--epsilons", "0.1"],
    "phase-scan": ["--n", "16", "--replicas", "2", "--site", "3"],
    "selftest": ["--n", "99999999", "--paths", "0"],
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_unread_flag_exits_one(tmp_path, capsys, command):
    out = tmp_path / "runs"
    assert main([command, *_UNREAD[command], "--out", str(out)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,key,value", [
    ("profile", "replicas", 2),
    ("selftest", "lam", 0.5),
    ("selftest", "n", 99999999),
    ("entropy-bound", "zero_disorder", True),
    ("clt", "windows", "x"),
    ("free-energy", "axis1", "lam"),
])
def test_unread_config_key_exits_one(tmp_path, capsys, command, key, value):
    path = tmp_path / "cfg.json"
    sizes = {} if command == "selftest" else {"n": 16}
    path.write_text(json.dumps({**sizes, key: value}))
    out = tmp_path / "runs"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert f"reads no config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_nan_table_matches_nan_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (\w+\.csv) \| (.+?) \| .+ \|$", readme,
                      re.MULTILINE)
    documented = {name: tuple(re.findall(r"`(\w+)`", cell))
                  for name, cell in rows}
    assert len(documented) == len(rows)
    assert documented == cli._NAN_COLUMNS


def test_every_key_is_read_by_some_command():
    used = {key for command in cli._COMMANDS.values() for key in command.keys}
    assert used == set(cli._KEYS)


def test_readme_flag_table_matches_commands(capsys):
    # the README's per-subcommand table names each flag group once, then
    # one row per subcommand of groups and flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (.+?) \| (.+?) \|$", readme, re.MULTILINE)
    groups = {name: set(re.findall(r"--[a-z0-9-]+", flags))
              for name, flags in rows if name in ("run", "model")}
    documented = {}
    for name, cell in rows:
        if name.startswith("`"):
            flags = set(re.findall(r"--[a-z0-9-]+", cell))
            for word in re.findall(r"\b(run|model),", cell + ","):
                flags |= groups[word]
            documented[name.strip("`")] = flags
    assert set(documented) == set(cli._COMMANDS)
    for command, flags in documented.items():
        assert flags | {"--help"} == _help_flags(capsys, command), command


def _csv_list(elements, min_size=0):
    return st.lists(elements, min_size=min_size, max_size=4).map(
        lambda xs: ",".join(str(x) for x in xs))


# sampled values, typical first: hypothesis draws bounds and first entries
# so often that with integers() most runs would stop at a size check
_SIZE = st.sampled_from([32, 16, 8, 24, 12, 4, 2, 1, 0])
_COUPLING = st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 50.0, 800.0]))
_AXES = st.sampled_from(["lam", "h", "lam_tilde", "h_tilde", "alpha"])

# a strategy per key of cli._KEYS, None for a key left at its default; N <= 32
# and few replicas keep each run to milliseconds
_VALUES = {
    "seed": st.integers(-3, 3),
    "threads": None,   # always 1
    "out": None,       # a fresh directory per example
    "lam": _COUPLING, "h": _COUPLING, "lam_tilde": _COUPLING,
    "h_tilde": st.one_of(st.floats(-1.0, 3.0), st.sampled_from([50.0, 800.0])),
    "kernel": st.sampled_from(["srw", "powerlaw"]),
    "alpha": st.floats(0.5, 3.0),
    "n_max": _SIZE,
    "law_omega": st.sampled_from(sorted(cli._LAW_ALIASES)),
    "law_tilde": st.sampled_from(sorted(cli._LAW_ALIASES)),
    "zero_disorder": st.booleans(),
    "n": st.sampled_from([16, 32, 8, 24, 12, 4, 1]),
    # finite-size takes only a ladder of four doublings
    "n_ladder": st.one_of(st.just("2,4,8,16,32"), _csv_list(_SIZE)),
    "replicas": st.sampled_from([3, 8, 2, 1]),
    "paths": st.sampled_from([2, 1, 3, 0]),
    "distances": st.tuples(_SIZE, _SIZE).map(lambda t: f"{t[0]}:{t[1]}"),
    "k_list": _csv_list(_SIZE),
    "site": _SIZE,
    "s_min": st.sampled_from([4, 2, 8, 1, 0]),
    "s_max": _SIZE,
    "epsilons": _csv_list(st.floats(0.0, 1.0), 1),
    "windows": _csv_list(_SIZE, 1),
    "axis1": _AXES,
    "axis2": _AXES,
    "values1": _csv_list(st.floats(-1.0, 2.0), 1),
    "values2": _csv_list(st.floats(-1.0, 2.0), 1),
}


def test_property_strategies_cover_every_key():
    assert set(_VALUES) == set(cli._KEYS)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command, "--threads", "1"]
    for key in cli._COMMANDS[command].keys:
        # N and the replicas always, so that no default of 256 or 100 runs
        if _VALUES[key] is None or (key not in ("n", "replicas")
                                    and not draw(st.booleans())):
            continue
        flag = "--" + key.replace("_", "-")
        value = draw(_VALUES[key])
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv.append(f"{flag}={value}")
    return argv


def _non_finite_cells(run):
    found = set()
    for path in run.glob("*.csv"):
        header, *rows = (line.split(",")
                         for line in path.read_text().splitlines())
        for row in rows:
            for column, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:   # verdicts and statuses are words
                    continue
                if not math.isfinite(value):
                    found.add((path.name, column))
    return found


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
def test_cli_contract_property(argv):
    # every argv exits with a documented code; a success writes NaN only
    # where _NAN_COLUMNS allows it, and a failure leaves no run directory
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs"
        rc = main([*argv, "--out", str(out)])
        assert rc in (0, 1, 2, 3)
        if rc == 0:
            [run] = out.iterdir()
            listed = {(name, column)
                      for name, columns in cli._NAN_COLUMNS.items()
                      for column in columns}
            assert _non_finite_cells(run) <= listed
        else:
            assert not out.exists()
