"""Golden CSV digests: the reproducibility contract pinned to stored bytes.

Each case runs one CLI subcommand at small N and compares the sha256 of
every CSV it writes with a stored digest. All 13 CSV-writing subcommands
are pinned (``selftest`` checks itself). The digests of ``free-energy``,
``mu``, ``clt``, ``phase-scan``, ``profile`` and ``maxexc`` were recorded
before the forward DP was batched over replicas; those of the other seven
before their replica workers were merged into one; those of ``maxexc-256``,
``meet-192`` and ``sample-deloc`` before the path sampler cached its rows;
those of ``profile-512`` and ``excursions-512`` before the backward table,
the profile scan and the excursion law moved to scratch buffers.
Those of ``free-energy-2048``, ``maxexc-256``, ``profile-512`` and
``excursions-512`` were re-recorded when the forward DP went to blocks of
128 sites (its spans of 128 sites or more round differently; no integer
column moved and no float by more than 2.5e-14 relative), and
``free-energy-2048`` then also took 130 replicas, so that it still spans
two batches at the raised cap. The other cases' spans stay below one
block and kept their digests.
Those of ``profile``, ``profile-512``, ``correlations``, ``boundary``,
``excursions`` and ``excursions-512`` were re-recorded when the backward
table became the blocked forward DP on the reversed sample (it sums in
another order at every N) and ``boundary`` read its prefix systems off
one bounded segment each. No integer column moved, threads 1 and 2 gave
the same bytes, and no float moved by more than 1.1e-11 relative, where
a covariance or a difference of contact probabilities cancels; the
backward tables moved by at most 4e-13 in log, within the bound at
``partition._BLOCK``. The cases that never read a backward table kept
their digests.
A refactor that shifts every number consistently still passes a
rerun-against-rerun comparison; it fails here.

The digests hold for one numpy build, its BLAS and one set of CPU SIMD
features (vectorised exp and log, and the BLAS products of the blocked
forward DP, may round differently elsewhere). They were recorded with
numpy 2.4.6 and OpenBLAS 0.3.31 on an x86-64 host with AVX-512.
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
# of N = 2048 curves (127 at 2^18 cells), so it also pins the split into
# several batches
CASES = {
    "free-energy": ("free-energy", "--n-ladder", "16,32,64", "--replicas", "7"),
    "free-energy-2048": ("free-energy", "--n", "2048", "--replicas", "130"),
    "mu": ("mu", "--n-ladder", "16,32,64", "--replicas", "7"),
    "clt": ("clt", "--n-ladder", "32,64", "--replicas", "11"),
    "phase-scan": ("phase-scan", "--axis1", "lam_tilde", "--axis2", "h_tilde",
                   "--values1", "0.5,1", "--values2=-0.5,0.5", "--n", "48",
                   "--replicas", "5"),
    "profile": ("profile", "--n", "32"),
    "maxexc": ("maxexc", "--n", "64", "--replicas", "3", "--paths", "3"),
    "correlations": ("correlations", "--n", "48", "--replicas", "4",
                     "--distances", "4:12"),
    "boundary": ("boundary", "--n", "48", "--replicas", "4",
                 "--k-list", "8,16,24,48"),
    "excursions": ("excursions", "--n", "48", "--replicas", "4",
                   "--site", "24", "--s-max", "16"),
    "sample": ("sample", "--n", "24", "--replicas", "2", "--paths", "2"),
    "finite-size": ("finite-size", "--n-ladder", "4,8,16,32,64",
                    "--replicas", "4"),
    # 0 is not in the grid, so the base point is added and left out again
    "entropy-bound": ("entropy-bound", "--n", "32", "--replicas", "4",
                      "--epsilons", "0.2,0.4"),
    "meet": ("meet", "--n", "48", "--replicas", "3", "--paths", "3",
             "--windows", "4,8,16"),
    # N several times the 32 cdf entries the path sampler caches per site
    "maxexc-256": ("maxexc", "--n", "256", "--replicas", "2", "--paths", "4"),
    "meet-192": ("meet", "--n", "192", "--replicas", "2", "--paths", "3",
                 "--windows", "2,3,4,6"),
    "sample-deloc": ("sample", "--n", "256", "--replicas", "2",
                     "--paths", "3"),
    # N large enough that the profile scan and the excursion law run their
    # long rows through the scratch buffers
    "profile-512": ("profile", "--n", "512"),
    "excursions-512": ("excursions", "--n", "512", "--replicas", "3"),
}

# couplings a case sets on top of its point: no return reward, so long
# excursions are common and most draws fall in front of the cached tail
OVERRIDES = {
    "sample-deloc": ("--lam-tilde", "0", "--h-tilde", "-0.5"),
}

GOLDEN = {
    ('boundary', 'lam0'): {
        "boundary.csv":
            "068411779902170c3e15fb64a68d9de98fc16b08d248f3e33be5377149a7056a",
        "boundary_fit.csv":
            "55d839470deed2a07e26d678e32252a3cb3708fa11f435c77657ee022a7f8b00",
    },
    ('boundary', 'lam05'): {
        "boundary.csv":
            "d665f7d0a8387d4d671719dbef818de120b65139e9d1dc08c07d7f1775b55b2d",
        "boundary_fit.csv":
            "5ff190bba4941d60ea08699bbe7742d429a5a08c7c848acfa6c39b3a1fd22b11",
    },
    ('clt', 'lam0'): {
        "clt.csv":
            "88d59bf34d3fea48e6a332c34812787bae6e703ee497c0e54988d4f46e398774",
    },
    ('clt', 'lam05'): {
        "clt.csv":
            "d082457b45c5aa7876c6918ab1dae550fc456ced58e24dde9d2cf4ec18403c64",
    },
    ('correlations', 'lam0'): {
        "decay.csv":
            "30177d5fc442f829bb0bcdc0ae6a352d90b9412223d381b633d2790e57ea320b",
        "decay_fit.csv":
            "5e73e29669bad175cfd270ad4c43faa57989d9b87afe7ab595f58f2288ad5ccd",
    },
    ('correlations', 'lam05'): {
        "decay.csv":
            "7acc48fb2c38d9354109ad7c3966f23abc9d3d992b56feb7ba6130ddcb04a93b",
        "decay_fit.csv":
            "786d5b71a2cf31b8783b20303056bdfec4912a0d751e5f2efea9984a78c700aa",
    },
    ('entropy-bound', 'lam0'): {
        "entropy.csv":
            "9e08402db1e7f97dacabf971b87d6ee4e1c373ff8c654832fc2f1e922b64764f",
        "entropy_summary.csv":
            "941d9c12dd99297c5e61b0da771a40f65087f8e1afc7862fed56698f83afe601",
    },
    ('entropy-bound', 'lam05'): {
        "entropy.csv":
            "431874df4760d8e481725e66bb5cd8295d59dac2a5f8beea25e5287293c225cd",
        "entropy_summary.csv":
            "431f9f2056e67f06e80b43765b868fdbe51d5e867ec8d061ff4607090a843800",
    },
    ('excursions', 'lam0'): {
        "excursion_law.csv":
            "b836189626afd3ae416f5e40a3d249da3562405fb0d3f067bbef6dab356042b8",
        "excursion_rates.csv":
            "7a936deeb4fd1d2df6c2539bca993091deeaf0ae84ce95d99892568e1b6ca0d2",
        "excursion_summary.csv":
            "9973b157254300b48b220b7e4ea680371a31690ca0831d9869d4ae127b653c99",
    },
    ('excursions', 'lam05'): {
        "excursion_law.csv":
            "2c69c98736f237dc1067d1bd230e78f4eadc8a39932bde5f4ec4315c5875886d",
        "excursion_rates.csv":
            "95a1226d411b2b5cb15e41328e9219332930d6a406de7cb95768f9181bbab605",
        "excursion_summary.csv":
            "32b0251bb1b3508ec08ab9824ac1860d2882dce9f40c8ebac7b50f5c3f7ad746",
    },
    ('finite-size', 'lam0'): {
        "finite_size.csv":
            "3b46513a51f0831db6b7aca96b6c5b205f0e3015d535f4a3065b5e5dbadd8575",
        "finite_size_verdict.csv":
            "e3ce68634307cf3fa54302157af621eec5f16fbd990ac198bed9242017556821",
    },
    ('finite-size', 'lam05'): {
        "finite_size.csv":
            "f6713883e312d22133110a685b4a293f3358e11b978ea53e4dd7ed5e8aee43c4",
        "finite_size_verdict.csv":
            "e3ce68634307cf3fa54302157af621eec5f16fbd990ac198bed9242017556821",
    },
    ('free-energy', 'lam0'): {
        "free_energy.csv":
            "b4b25c4bab4b4dd375259367e6b9a2ba29459a1f266589e48acf96f68be4fa49",
    },
    ('free-energy', 'lam05'): {
        "free_energy.csv":
            "1fb73053face7b0739f818dd33a3b424b9b8456cc848465c49db2e16c801f5f2",
    },
    ('free-energy-2048', 'lam0'): {
        "free_energy.csv":
            "487283d33dde2b8fa72ed7510ce5c6586daceb8e097f165c17780ec63782950c",
    },
    ('free-energy-2048', 'lam05'): {
        "free_energy.csv":
            "84c21c1e3c585c95d214afeb119b74e09e110b01d6ca7c8eadf1029ca6e62aa9",
    },
    ('excursions-512', 'lam0'): {
        "excursion_law.csv":
            "21ca6ea9008e8d5cc1090adafb0f11458af88a23d242c35b9b8a5f46e408372b",
        "excursion_rates.csv":
            "9f2a7a6285e64508b55b0b7d05129446dae2da0046bc7a40c65e6dc4c02fcf8e",
        "excursion_summary.csv":
            "3d002690c671ba8d9a24e97b390e66bd885deb0bf3f25d0b510f8acdb0328bfb",
    },
    ('excursions-512', 'lam05'): {
        "excursion_law.csv":
            "a5d11f2f76c5a5ae9afe6b419ed43dfa4322d3f95b6cadfb0bac71639abeb51c",
        "excursion_rates.csv":
            "c0dfc2ad0a5492979861c2cc64a63c3c5104430d99558b0c19e81e233a5b16f1",
        "excursion_summary.csv":
            "446bed63d965980d55ce7bf8346ed2d8574f2ab0041e94f0164bb03fd07e84f7",
    },
    ('maxexc', 'lam0'): {
        "maxexc.csv":
            "f9c26288ce00979a15e724e63c2804430474be925fa786dafdccd2264d2f933c",
        "maxexc_summary.csv":
            "032b473244e30ebb002ce959a611d31647aba3cb762175b4c4313f24ed5855e8",
    },
    ('maxexc', 'lam05'): {
        "maxexc.csv":
            "935ff561dddb2b1009f3c45de7d69150170d1b665ebe1597bfd5dc179efda6e8",
        "maxexc_summary.csv":
            "98ad28e138f2941b4a623facd7c08c1ababed123bae96d2370bc91c1a36aacd4",
    },
    ('maxexc-256', 'lam0'): {
        "maxexc.csv":
            "8c039358d513829f542922ba37ad20c5d0f4c99439338ce4faaf53c4d71cf54a",
        "maxexc_summary.csv":
            "dd734fa9692124cad436471a3c0a4a3649c6f94e285c67793a3d9e2f81fe9d33",
    },
    ('maxexc-256', 'lam05'): {
        "maxexc.csv":
            "4e70beca702b8b57ceeb71477426c27db48a1107ba71388b96418ac88def4e18",
        "maxexc_summary.csv":
            "0960c3129eaf5bf080f531fdecb7c406f4d6c2a67a9b5732027b776e6b478337",
    },
    ('meet', 'lam0'): {
        "meet.csv":
            "65efb615470961ce5368b8d2d8f0d3e4ae8465186322aa3c8a9f54aacc27cbb3",
        "meet_fit.csv":
            "1829a4a54624799d78f20624cbc80d3fc99bdab59da7cb3b2f6402e2a9f63f6b",
    },
    ('meet', 'lam05'): {
        "meet.csv":
            "9bffd891e947500c828e7c74f2b28a90910530e57660abe2e4bfac21148fdf59",
        "meet_fit.csv":
            "6dd6bba8da8db0d84d1f536f10cadf2bc92960ce920d7ff8b5be7fb900b80a0a",
    },
    ('meet-192', 'lam0'): {
        "meet.csv":
            "f8634ae58ffaa808531a8649733de41b0da5475c800be3e55e15fdf3ef900616",
        "meet_fit.csv":
            "fba0e0f27431183c6d78cd2e67c3432ca1d09aa4ec3992eff82283730bd5b165",
    },
    ('meet-192', 'lam05'): {
        "meet.csv":
            "f272065cda2242ae6ddcd9f6437b80490af6fb154b162fdb39249e0b0428b7a7",
        "meet_fit.csv":
            "5f485aa112b55c01e940f4991cd36f004be35d40094f0c1c184302616884a43e",
    },
    ('mu', 'lam0'): {
        "mu.csv":
            "a10b21c8bd1c3c003da539727263cf386a3ed5e79ba20f511977bc2781eb776b",
    },
    ('mu', 'lam05'): {
        "mu.csv":
            "049faec5364110cfa164bfa5e1da010fbd98448dd276b98c6415cfc1e722fe20",
    },
    ('phase-scan', 'lam0'): {
        "phase.csv":
            "99281be305d9a72f7940f75342e5dea25f9d510dc965c0ed63ca814c68e159b2",
    },
    ('phase-scan', 'lam05'): {
        "phase.csv":
            "242442e837d68b28f3fdf84cf1af756c9f6ff7cbd113799f28d12b7d5caac762",
    },
    ('profile', 'lam0'): {
        "profile.csv":
            "fcef867b88faf70249715ffa91fb90bdaf2183d004d4005f675d8b720b37055e",
    },
    ('profile', 'lam05'): {
        "profile.csv":
            "d09444410bd9ab7bc7ed44ebabd8098541ddc80e6e1f0fadf0080e78088f192d",
    },
    ('profile-512', 'lam0'): {
        "profile.csv":
            "38757dac3a5b826c8ee30890f3b2a648933dc0b27044ae3ba742eed6e8358b99",
    },
    ('profile-512', 'lam05'): {
        "profile.csv":
            "95496441afd49ed9962ffe0d663ff5cb9731bd773ad0a2c210c51d85993723dc",
    },
    ('sample', 'lam0'): {
        "sample.csv":
            "e6c88cd044e6335454a070a116cd3c47d98ad0e5b903007a90d003ead0870af9",
    },
    ('sample', 'lam05'): {
        "sample.csv":
            "31e436c9618373d8ca03e04dfcd73a3375b85b067f11ff0ec02b543966dd7d4f",
    },
    ('sample-deloc', 'lam0'): {
        "sample.csv":
            "e72375b0505e05af607b879631edeb1d32621c2cb95c5f60499f4a97b0dbc5c6",
    },
    ('sample-deloc', 'lam05'): {
        "sample.csv":
            "e030b8091ac449c8918be99521d843eb8d3835d3a905b2642d399c8b284cde6b",
    },
}


def run_digests(out, case, point, threads):
    """sha256 of every CSV one run writes, keyed by file name."""
    argv = [*CASES[case], *POINTS[point], *OVERRIDES.get(case, ()),
            "--seed", "3", "--threads", str(threads), "--out", str(out)]
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
