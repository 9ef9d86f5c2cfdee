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
All but those of ``meet``, ``meet-192``, ``sample`` and ``sample-deloc``
were re-recorded when each block of the forward DP became one linear
solve (it sums in another order at every span, below 128 sites too). No
integer column or sampled path moved, threads 1 and 2 gave the same
bytes, and no float moved by more than 2.1e-13 relative, or 3.1e-11 in a
covariance or a difference of contact probabilities, where values cancel.
Those of ``free-energy-2048``, ``profile-512`` and ``excursions-512`` were
re-recorded when the sums over earlier blocks went to linear domain,
nearest block first, each row stopping once the rest weighs below 2^-60
of its sums (spans of three blocks or more round differently). No integer
column moved, threads 1 and 2 gave the same bytes, and no float moved by
more than 4.0e-14 relative. The other cases kept their digests.
Those of ``profile``, ``profile-512``, ``excursions`` and
``excursions-512`` were re-recorded when the profile scan and the
excursion law went to linear domain, as blocked Toeplitz correlations
(their sums run in another order). The ``p_contact`` column and every
integer column kept their bytes, threads 1 and 2 gave the same bytes, and
no float moved by more than 2.2e-14 absolute in ``p_neg`` or 1.0e-14
relative elsewhere. The other cases kept their digests.
All ``lam0`` entries but those of ``meet``, ``meet-192``, ``sample`` and
``sample-deloc`` were re-recorded when a lam = 0 block of 17 sites or
more became one BLAS triangular solve per row (it sums in another order).
No integer or text column or sampled path moved, threads 1, 2 and 3 gave
the same bytes, and no float moved by more than 5.7e-14 relative, or
2.2e-12 in the ``boundary`` and ``correlations`` tables and fits, where
differences of contact probabilities cancel. The ``lam05`` entries kept
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
            "fa44512bb416cbad7a7c6c6871b0e4c9c4e9f7361378dc7b837180d6197609e0",
        "boundary_fit.csv":
            "ce28c954a9dab7da74bd1696f51d31f7bd62ac01c6d4c6eb669f5aaefbf252c0",
    },
    ('boundary', 'lam05'): {
        "boundary.csv":
            "81edf312ee44d68081a89fce07cb5b14f82e52cc563016c39c49574968d73269",
        "boundary_fit.csv":
            "ff2db850f11d81ed2b0f84f15d4fe3fcfd4cfd0273425ac70ea68eacf08c45d5",
    },
    ('clt', 'lam0'): {
        "clt.csv":
            "8ec7ce853ec619f6cc3e556715d84767fa775539fd8bd21260ad386fa39f2989",
    },
    ('clt', 'lam05'): {
        "clt.csv":
            "067b6e8594866da88465fd8c19e94ab48f5a230bb3182f9f357f1c28e2495a14",
    },
    ('correlations', 'lam0'): {
        "decay.csv":
            "5731e1f1d84afab4c9339d84a307103d9385f92568dfed16f9747381d76b2aeb",
        "decay_fit.csv":
            "f0a05b0f7cb02a938790773e765f9300a56b136bb4e92cff0ddb88af49df6423",
    },
    ('correlations', 'lam05'): {
        "decay.csv":
            "5e65e1097d4d376a9c3be666bf16380e2e06e298302b05b249c1523fc2a8a68a",
        "decay_fit.csv":
            "a9f579e920a13eb769e9a48f01dd284ac9f6968f0e9fe0612df91baca11a3e3e",
    },
    ('entropy-bound', 'lam0'): {
        "entropy.csv":
            "bf7cef353c1138733130151c85b8b2a89a05514d5d585c1c254f7854c19dbe36",
        "entropy_summary.csv":
            "ff8398776a94ac6c0c463c1c6974f5dc0bd771b4a9fdce2d0d2c6c345a524db1",
    },
    ('entropy-bound', 'lam05'): {
        "entropy.csv":
            "19cfeab51f246f7059b980576bbfcdd52297b67e674fcf61f326fba3037e4076",
        "entropy_summary.csv":
            "382aab7c8aa097570094aeaf174e9c7e1c02449a5ac617fc66f92a21dd96ae20",
    },
    ('excursions', 'lam0'): {
        "excursion_law.csv":
            "d6b741968f0e90707ae7dccf6eb33e82cc0833a5868cce68a09d5b85c94a9605",
        "excursion_rates.csv":
            "252f74ea5f8d1b3eb97d714860e2c7fcefda939ff8236d229614be9ae2591e3a",
        "excursion_summary.csv":
            "cb65b5b77b8eed51d0b5a439dceada602292cbef9b6029930b3c9f23993630a3",
    },
    ('excursions', 'lam05'): {
        "excursion_law.csv":
            "9904f616be251cb9c52a0bf5d25d91d381d7cc6d42a2ddf819466bddba1a798b",
        "excursion_rates.csv":
            "37f0899c32730e7875899fbc63974ebad3ddca193b09e44264b081571d3bae7f",
        "excursion_summary.csv":
            "d35e95cd79a6c6b2c810062448cba67b3ed9104efeb3d5fbe3cd14168a588e59",
    },
    ('finite-size', 'lam0'): {
        "finite_size.csv":
            "51e481e48cc08b2ddf929aa854d8697f0bdacddbd3b7e0c928717b50e88303b2",
        "finite_size_verdict.csv":
            "e3ce68634307cf3fa54302157af621eec5f16fbd990ac198bed9242017556821",
    },
    ('finite-size', 'lam05'): {
        "finite_size.csv":
            "8b8c9425769604cc829368406423b8de3c911eb14bfa2e86d631dc5e60b44575",
        "finite_size_verdict.csv":
            "e3ce68634307cf3fa54302157af621eec5f16fbd990ac198bed9242017556821",
    },
    ('free-energy', 'lam0'): {
        "free_energy.csv":
            "0d1e6403c8bac20b8e742a3ebc3bb9684b0cde9b4b220f410264113a5164a3ab",
    },
    ('free-energy', 'lam05'): {
        "free_energy.csv":
            "bd2ce053651dbb76dae43577156970c74580e7841898ddfdbcd53a34527c8c24",
    },
    ('free-energy-2048', 'lam0'): {
        "free_energy.csv":
            "751548fd308f7c5a62c99045f5aef7aa2f7958b27160779c4e2304c7964ceec4",
    },
    ('free-energy-2048', 'lam05'): {
        "free_energy.csv":
            "8b1b9fcf76a92dbab1539f757fd28ce673a4692824af2b65e551f8def10edc7b",
    },
    ('excursions-512', 'lam0'): {
        "excursion_law.csv":
            "1cc8dcd5e6b1db580a01b606000a62d660be02c6db763b9988c7ea1c6edbb5a4",
        "excursion_rates.csv":
            "64067b542c5aee36c0c2d65ed09371abfdd0f24cb79a838414b05bd7d58e51b4",
        "excursion_summary.csv":
            "3dc4e93d64464713f633c5e01be54a5dd819d4eb7defa5a512733f0cc1727cd4",
    },
    ('excursions-512', 'lam05'): {
        "excursion_law.csv":
            "024e3b269ea71e671371f242103c8a7bed2533be8e7f443b5781152acfbc2417",
        "excursion_rates.csv":
            "1177246a60e1b91a09ecae9710bf582d7bdd8e95337143a557ef7c375252184a",
        "excursion_summary.csv":
            "6833a91549c5f4358f10fe10896199fe795a3e630186ed2af8425a54dcdc60c0",
    },
    ('maxexc', 'lam0'): {
        "maxexc.csv":
            "f9c26288ce00979a15e724e63c2804430474be925fa786dafdccd2264d2f933c",
        "maxexc_summary.csv":
            "6667fafc87beaaf68004ef2ad7034deb53041f6d8bbcc08a825ab384ba77c4f5",
    },
    ('maxexc', 'lam05'): {
        "maxexc.csv":
            "935ff561dddb2b1009f3c45de7d69150170d1b665ebe1597bfd5dc179efda6e8",
        "maxexc_summary.csv":
            "757cfd3b3700952fc4e310b40c040bb0e55b933680d6ff2294a08e4a4846ee71",
    },
    ('maxexc-256', 'lam0'): {
        "maxexc.csv":
            "8c039358d513829f542922ba37ad20c5d0f4c99439338ce4faaf53c4d71cf54a",
        "maxexc_summary.csv":
            "1f60118eb3c477216e6ab5e7fbf7845fa51a8784eff894628eab11e0b62f43b5",
    },
    ('maxexc-256', 'lam05'): {
        "maxexc.csv":
            "4e70beca702b8b57ceeb71477426c27db48a1107ba71388b96418ac88def4e18",
        "maxexc_summary.csv":
            "2a8e67e6f113cea8c51d3448df7f4b8e771ec90d63be9b7b30bc0b9c934e6527",
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
            "af9c650088d331200b4ee06a8a47e9df5cd63cc29a5a27cdcb173358ccff0af9",
    },
    ('mu', 'lam05'): {
        "mu.csv":
            "e6f0bcb95a139e6187f9c3b3fb47e3694731287c9b92fe3519b3bf7d193905fb",
    },
    ('phase-scan', 'lam0'): {
        "phase.csv":
            "bd242857b75b918650e5172e5c1d2711eb262e3aa7a4fc0af1e89fda875d4e7a",
    },
    ('phase-scan', 'lam05'): {
        "phase.csv":
            "262a27ec4859e3f24021eb155572734ecc4f0cde09b44c257be1c17cb71fe009",
    },
    ('profile', 'lam0'): {
        "profile.csv":
            "ea066981c69eccd6b238ac722156007f120eb0fc790cfca7db567da0a5288a58",
    },
    ('profile', 'lam05'): {
        "profile.csv":
            "65aab771afd5bdbcc3205fa50f5e18fe1b091fd8a0cddd3a3381b7adef950828",
    },
    ('profile-512', 'lam0'): {
        "profile.csv":
            "109564ce40cb0d4424e2497de193cb715285f064a34fc5634975685fbca643ec",
    },
    ('profile-512', 'lam05'): {
        "profile.csv":
            "96f7afab9c31ffbf3b0e36d2a5a375c3f2ad8e385652dcac6041a6fe895ce6d9",
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


# the cases whose model points share one batched pass per replica chunk,
# and ``sample``, whose replicas run through the same fan-out: three
# workers cut the replicas into yet other chunks, with the same bytes
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("case", ["entropy-bound", "phase-scan", "sample"])
def test_shared_pass_digests_at_three_threads(tmp_path, case, point):
    got = run_digests(tmp_path / "runs", case, point, 3)
    assert got == GOLDEN[(case, point)]
