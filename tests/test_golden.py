"""Golden reports: every experiment, in both modes, reproduces pinned bytes.

Each case runs one CLI invocation with ``--csv`` and hashes the report
printed on stdout together with the CSV rows, so any change to the
report bytes, the CSV rows or the order of random draws shows up here.
The digests were captured with numpy 2.4 on x86-64; a numpy or BLAS
build that rounds differently in the last bit needs them recaptured.
"""
from __future__ import annotations

import hashlib

import pytest

from qracbox.cli import main

STATES = ["--psi", "bloch:0.7,1.1", "--phi", "bloch:2.2,-0.4"]
OMEGA = ["--omega", "amp:0.6,0,0,0.8"]
AMP_STATES = ["--psi", "amp:0.6,0,0,0.8", "--phi", "amp:0,0.6,-0.8,0"]
SEED = "11"

# experiment -> argv without --mode, --seed and --csv
ARGV = {
    "qrac": ["run", "--experiment", "qrac", "--trials", "7", *STATES, *OMEGA],
    "qrac-qubit-only": ["run", "--experiment", "qrac-qubit-only", "--trials", "7", *STATES, *OMEGA],
    "racbox": ["racbox", "--trials", "1000"],
    "tomography": ["tomography", "--trials", "200"],
    "mixture": ["mixture", "--alpha-sq", "0.3", *STATES],
    # sampled non-signaling at its floor of 1e4 trials
    "nonsignaling": ["verify-nonsignaling", "--trials", "10000", *STATES],
    "dilation": ["dilation", "--trials", "10", *STATES],
    # a basis choice: the choice measurement prunes half the branches
    "mixture-alpha-sq-0": ["mixture", "--alpha-sq", "0", *STATES],
    "mixture-alpha-sq-1": ["mixture", "--alpha-sq", "1", *STATES],
    "nonsignaling-amp": ["verify-nonsignaling", "--trials", "10000", *AMP_STATES],
}

# (experiment, mode) -> (exit code, sha256 of stdout + b"\0" + CSV bytes);
# tomography at 200 sampled trials is below its sufficiency floor and exits 2
GOLDEN = {
    ("qrac", "branch-exact"): (0, "c42a99cbe07c618b4875cd50a95579a405598fb6b458b9d1a0706988e5b87756"),
    ("qrac", "sampled"): (0, "0810c97eae8e846fbd4e3a3c403bb30d15abc6dbcc39e79dd5a10ddb95fb3131"),
    ("qrac-qubit-only", "branch-exact"): (0, "308489a407a1cbe57e10bf694c405bc365b8f9231d90f04563a5c02ed3107ace"),
    ("qrac-qubit-only", "sampled"): (0, "ee698508cf9098de3dda36e193bc4adeae912934b32c160fcc45b277e34b39d7"),
    ("racbox", "branch-exact"): (0, "af663ba6a0d9620adf18109caf29d4bdbce6c5c6e6fbbcb1c07db5e2cb4c030b"),
    ("racbox", "sampled"): (0, "449975e1f94018f15ac91987034b55409d01d26973dedae076690ecfdef359a6"),
    ("tomography", "branch-exact"): (0, "7b3bb157bafbe41078ea119b5564394d45f6fdeff35f4ab6be76f93cf09bd078"),
    ("tomography", "sampled"): (2, "2db7b25eb28125251bf49301a2300adb1c08bcefe22bb3655e823e8074b3bb5d"),
    ("mixture", "branch-exact"): (0, "6b026176dda19ee430e1728a8fdf5d9c7d7e0ecd0992cd94bc53939b8538466d"),
    ("mixture", "sampled"): (0, "3d09e336c12074222bb537d2ee30e6daf3e19e535a0e5f8fd5f334e692192631"),
    ("nonsignaling", "branch-exact"): (0, "5d9fca9011a4da3f95b1794e5fac22c03f8d3d18381f4bba619fc0f62a788b8a"),
    ("nonsignaling", "sampled"): (0, "5ada19b92d3babfb8a478c46737c192d7c1da26a618d3ec11ab25347706042ae"),
    ("dilation", "branch-exact"): (0, "6132009d04996c0c7fd7fafd449eaf630b5cc04ebe41164089620ecb3d233119"),
    ("dilation", "sampled"): (0, "ff24ebd6bb02da093391af8f1d0750bd2d58fc19f6173698450af98da8f1b469"),
    ("mixture-alpha-sq-0", "branch-exact"): (0, "7ce49c5bce4a5b5fe4f0cbabf84fe581dceeded1ead0432ea31a542275e374e4"),
    ("mixture-alpha-sq-1", "branch-exact"): (0, "732f62ce2f317233851fe45d364221c111ed4ac43de31d9225c894d69e1ea450"),
    ("nonsignaling-amp", "branch-exact"): (0, "92fda0bcfd55dedf47b4b73d016224d77a595e8cc1f838e230842951b0b65852"),
}


@pytest.mark.parametrize("experiment,mode", sorted(GOLDEN))
def test_report_and_rows_match_golden_digest(experiment, mode, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    argv = [*ARGV[experiment], "--mode", mode, "--seed", SEED, "--csv", str(csv_path)]
    code = main(argv)
    rows = csv_path.read_bytes() if csv_path.exists() else b""
    digest = hashlib.sha256(capsys.readouterr().out.encode() + b"\0" + rows).hexdigest()
    assert (code, digest) == GOLDEN[(experiment, mode)]
