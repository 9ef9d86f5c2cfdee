import json

import pytest

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
])
def test_config_file_values_are_validated(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 16, "replicas": 2, **cfg}))
    out = tmp_path / "runs"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_guard_violation_exits_two(tmp_path):
    out = tmp_path / "runs"
    rc = main(["correlations", "--out", str(out), "--n", "64",
               "--distances", "60:63", "--replicas", "4"])
    assert rc == 2
    # no artifacts left behind on failure
    assert not out.exists() or not any(out.iterdir())


def test_numerics_error_exits_three(tmp_path, monkeypatch):
    import copolymer.cli as cli

    def boom(cfg, outdir):
        raise NumericsError("pmf does not sum to one")

    monkeypatch.setitem(cli._DISPATCH, "profile", boom)
    assert main(["profile", "--out", str(tmp_path / "runs"), "--n", "8"]) == 3


def test_selftest_passes(tmp_path):
    out = tmp_path / "runs"
    rc = main(["selftest", "--out", str(out), "--seed", "3"])
    assert rc == 0
    run = _only_run_dir(out)
    lines = (run / "selftest.csv").read_text().splitlines()
    assert lines[0] == "check,max_violation,status"
    assert all(line.endswith("PASS") for line in lines[1:])
    assert len(lines) == 5


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
