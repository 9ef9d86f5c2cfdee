"""Golden CSV digests: the reproducibility contract pinned to stored bytes.

Each case runs one CLI subcommand at small N and compares the sha256 of
every CSV it writes with a digest recorded before the forward DP was
batched over replicas. A refactor that shifts every number consistently
still passes a rerun-against-rerun comparison; it fails here.

The digests hold for one numpy build and one set of CPU SIMD features
(vectorised exp and log may round differently elsewhere). They were
recorded with numpy 2.4.6 on an x86-64 host with AVX-512.
"""

import hashlib

import pytest

from copolymer.cli import main

POINTS = {
    "lam0": ("--lam", "0", "--h", "0", "--lam-tilde", "1", "--h-tilde", "0.5"),
    "lam05": ("--lam", "0.5", "--h", "0.1", "--lam-tilde", "1",
              "--h-tilde", "0.5"),
}

# case name -> argv; "free-energy-2048" holds more replicas than one batch
# of N = 2048 curves, so it also pins the split into several batches
CASES = {
    "free-energy": ("free-energy", "--n-ladder", "16,32,64", "--replicas", "7"),
    "free-energy-2048": ("free-energy", "--n", "2048", "--replicas", "33"),
    "mu": ("mu", "--n-ladder", "16,32,64", "--replicas", "7"),
    "clt": ("clt", "--n-ladder", "32,64", "--replicas", "11"),
    "phase-scan": ("phase-scan", "--axis1", "lam_tilde", "--axis2", "h_tilde",
                   "--values1", "0.5,1", "--values2=-0.5,0.5", "--n", "48",
                   "--replicas", "5"),
    "profile": ("profile", "--n", "32"),
    "maxexc": ("maxexc", "--n", "64", "--replicas", "3", "--paths", "3"),
}

GOLDEN = {
    ("clt", "lam0"): {
        "clt.csv":
            "88d59bf34d3fea48e6a332c34812787bae6e703ee497c0e54988d4f46e398774",
    },
    ("clt", "lam05"): {
        "clt.csv":
            "d082457b45c5aa7876c6918ab1dae550fc456ced58e24dde9d2cf4ec18403c64",
    },
    ("free-energy", "lam0"): {
        "free_energy.csv":
            "b4b25c4bab4b4dd375259367e6b9a2ba29459a1f266589e48acf96f68be4fa49",
    },
    ("free-energy", "lam05"): {
        "free_energy.csv":
            "1fb73053face7b0739f818dd33a3b424b9b8456cc848465c49db2e16c801f5f2",
    },
    ("free-energy-2048", "lam0"): {
        "free_energy.csv":
            "b9245fa96517bcc1632e0e9f292aab6efbe91cc9cf4b60f4026dc0bbed9ae99e",
    },
    ("free-energy-2048", "lam05"): {
        "free_energy.csv":
            "0e8127751c2d3363ba9bad1fbf4f0b75cd3f7dda55bac9e17173e7b417f132cc",
    },
    ("maxexc", "lam0"): {
        "maxexc.csv":
            "f9c26288ce00979a15e724e63c2804430474be925fa786dafdccd2264d2f933c",
        "maxexc_summary.csv":
            "032b473244e30ebb002ce959a611d31647aba3cb762175b4c4313f24ed5855e8",
    },
    ("maxexc", "lam05"): {
        "maxexc.csv":
            "935ff561dddb2b1009f3c45de7d69150170d1b665ebe1597bfd5dc179efda6e8",
        "maxexc_summary.csv":
            "98ad28e138f2941b4a623facd7c08c1ababed123bae96d2370bc91c1a36aacd4",
    },
    ("mu", "lam0"): {
        "mu.csv":
            "a10b21c8bd1c3c003da539727263cf386a3ed5e79ba20f511977bc2781eb776b",
    },
    ("mu", "lam05"): {
        "mu.csv":
            "049faec5364110cfa164bfa5e1da010fbd98448dd276b98c6415cfc1e722fe20",
    },
    ("phase-scan", "lam0"): {
        "phase.csv":
            "99281be305d9a72f7940f75342e5dea25f9d510dc965c0ed63ca814c68e159b2",
    },
    ("phase-scan", "lam05"): {
        "phase.csv":
            "242442e837d68b28f3fdf84cf1af756c9f6ff7cbd113799f28d12b7d5caac762",
    },
    ("profile", "lam0"): {
        "profile.csv":
            "808d62cba576dc5525bb0d585b5db1900d07ece6ea5ff07a3e36ed49c993f2b6",
    },
    ("profile", "lam05"): {
        "profile.csv":
            "acc9e190fb39d6b44e7ce90ed41a1ab51ecd6db0dc6c9f83547558170369dfed",
    },
}


def run_digests(out, case, point, threads):
    """sha256 of every CSV one run writes, keyed by file name."""
    argv = [*CASES[case], *POINTS[point], "--seed", "3",
            "--threads", str(threads), "--out", str(out)]
    assert main(argv) == 0
    (run,) = [p for p in out.iterdir() if p.is_dir()]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(run.glob("*.csv"))}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_csv_digests(tmp_path, case, point, threads):
    got = run_digests(tmp_path / "runs", case, point, threads)
    assert got == GOLDEN[(case, point)]
