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
All ``lam05`` entries but those of ``clt``, ``free-energy-2048``,
``maxexc``, ``maxexc-256``, ``meet``, ``meet-192``, ``sample`` and
``sample-deloc``, and the ``lam0`` entries of ``excursions-512`` and
``finite-size``, were re-recorded when every block of 17 sites or more
became one BLAS triangular solve per row at every lam, every narrower
block a column substitution, and the excursion law one convolution per
scale band of returns (each sums in another order). No integer or text
column or sampled path moved, threads 1, 2 and 3 gave the same bytes, and
no float moved by more than 2.8e-14 relative, 1.7e-14 absolute in
``p_neg``, or 1.4e-12 in the ``correlations`` covariances, where values
cancel.
Those of ``profile`` and ``profile-512`` were re-recorded when the
profile scan took scale bands of rows and read its column sums as the
row sums of the reversed factors (it sums in another order). Only the
``p_neg`` column moved, threads 1 and 2 gave the same bytes, and no float
moved by more than 3.8e-12 relative above 1e-300, or 9.7e-14 relative to
max(1, |x|). The other cases kept their digests.
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
            "62fa1a66ff9fe5aa3743a809980c176658ef9be96a17885247508a7645043e06",
        "boundary_fit.csv":
            "f8763c3410d002ae0dba2dcbe459192766793ae4f74f7b43818e85646ccc9a02",
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
            "af3111e8c9019d872202e725152ff371fa2eefeac73a637cdd1e63ce2e5a2b73",
        "decay_fit.csv":
            "4c65e92cbca8cd7525e41ea4b4a44ce52d8052b0a18f8dc4a4591b40bfc52020",
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
            "790e778afbfc74bc48013155bbb340992eb8028ed53fdda317d3625ef69a75d0",
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
            "8dea6fdc6323f85090a1c9513ab1ce94f685d6cb25957c438279a57c6b0905fd",
        "excursion_rates.csv":
            "b04373e6dad0411cf9e6fc685e9b7b279cbce3ca8f0bd0be41ef76db94300a2b",
        "excursion_summary.csv":
            "3b1c4e5f5cac025d7edaff0417e33258081c0d210d7c9adbb059ccf6f34945fb",
    },
    ('finite-size', 'lam0'): {
        "finite_size.csv":
            "4167b836c6743e3d8b32f6babd7b3db3696f54a7ee042c9728589936381603ba",
        "finite_size_verdict.csv":
            "e3ce68634307cf3fa54302157af621eec5f16fbd990ac198bed9242017556821",
    },
    ('finite-size', 'lam05'): {
        "finite_size.csv":
            "4d3bf914cd5a4a0768aa011afcb464302e89251d81307ffc50554436652ea417",
        "finite_size_verdict.csv":
            "e3ce68634307cf3fa54302157af621eec5f16fbd990ac198bed9242017556821",
    },
    ('free-energy', 'lam0'): {
        "free_energy.csv":
            "0d1e6403c8bac20b8e742a3ebc3bb9684b0cde9b4b220f410264113a5164a3ab",
    },
    ('free-energy', 'lam05'): {
        "free_energy.csv":
            "2a447b38b52d5409af0c7701bf5eb28f43001a940a4962cbc37add49faf87513",
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
            "172db9b0f9b071145b1398c978ec57db23234aa7e41a757b9b4778d2338b0c19",
        "excursion_rates.csv":
            "58c9f763fb989746d466ae628a72f990f4f2f58f4e1406b726c7a6e931ad23e4",
        "excursion_summary.csv":
            "edbedde5c13b5dde991a2dddb5e608d639260f39cf1cd14cfe9d0555d6a49084",
    },
    ('excursions-512', 'lam05'): {
        "excursion_law.csv":
            "82add7ce718edad0578e087c4b5689baea871702ac504f31977edb811cae91fc",
        "excursion_rates.csv":
            "ffe6cc096c4fe527a829eb27ac6665370a588cc1926c542993f13b921ec42b5f",
        "excursion_summary.csv":
            "a6d6ebe5671fae7742371a59b86d7a0ca40b71d7ec74eae63b8dc903d330e468",
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
            "e1826c1cc6d7b16dc38024e006c599c3f65d4c3264f7011ef788e5dd3c4c4db6",
    },
    ('phase-scan', 'lam0'): {
        "phase.csv":
            "bd242857b75b918650e5172e5c1d2711eb262e3aa7a4fc0af1e89fda875d4e7a",
    },
    ('phase-scan', 'lam05'): {
        "phase.csv":
            "75ed14ce0c77631d302fae846e40b6b8fc6becf09b49238f10d5ff327b123f17",
    },
    ('profile', 'lam0'): {
        "profile.csv":
            "d32da833195bd201a0c770ab7e3a0d0f3fa6c154787259d100a6e7156d61fc25",
    },
    ('profile', 'lam05'): {
        "profile.csv":
            "2fef606c4eda6e842745d79c8c2e5a633fcf07bcd1801102cdacfcd95a1e50fb",
    },
    ('profile-512', 'lam0'): {
        "profile.csv":
            "5f3efc181caaa02b6e987f1f1b9c15f031251ad97090d09113929e014143456e",
    },
    ('profile-512', 'lam05'): {
        "profile.csv":
            "936c6ae17b1b982ac1a6f693c257a40524a0367b2d74f0d92566083d397dc7ad",
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
