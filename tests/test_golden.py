"""Golden reports: every experiment, in both modes, reproduces pinned bytes.

Each case runs one CLI invocation with ``--csv`` and hashes the report
printed on stdout together with the CSV rows, so any change to the
report bytes, the CSV rows or the order of random draws shows up here.
The sweep cases pin twelve such runs per experiment and mode at once:
default, ``bloch:`` and ``amp:`` inputs, each at four seeds.
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


# the sweep: input sets x seeds, each experiment at or above its trial floor
SWEEP_INPUTS = [
    [],
    ["--psi", "bloch:0.7,1.1", "--phi", "bloch:2.2,-0.4", "--omega", "bloch:1.3,0.5"],
    [*AMP_STATES, *OMEGA],
]
SWEEP_SEEDS = ["0", "11", "42", str(2**64 - 1)]
SWEEP_ARGV = {
    "qrac": ["run", "--experiment", "qrac", "--trials", "10000"],
    "qrac-qubit-only": ["run", "--experiment", "qrac-qubit-only", "--trials", "10000"],
    "racbox": ["racbox", "--trials", "1000"],
    "tomography": ["tomography", "--trials", "1000"],
    "mixture": ["mixture", "--trials", "1000"],
    "nonsignaling": ["verify-nonsignaling", "--trials", "10000"],
    "dilation": ["dilation", "--trials", "50"],
}

# (experiment, mode) -> sha256 of the sweep's "<exit code> <run digest>" lines, in order
SWEEP = {
    ("qrac", "branch-exact"): "64ce2afd6d66e902b359ddaafae25d79bb0e855ca4ddf0b24840618dae57b66a",
    ("qrac", "sampled"): "fc47d72081cef1e5cd0b109d39afdded0f6ee182433afa96e937983fa1dfdd57",
    ("qrac-qubit-only", "branch-exact"): "52d0dbe883e7e096730b76a4ff1789854bdc0a111d92eba9da444a5e9ba39ab3",
    ("qrac-qubit-only", "sampled"): "d76f17e33fcc0f8440ec369b8ab16ac231b36fa66a1f6f10e041947e6b3468f7",
    ("racbox", "branch-exact"): "74605a25d8cfa7122f261bfc53050611d15f4184bf78ea485acfc3469df37632",
    ("racbox", "sampled"): "61d3c49a488536f73287c3f27af7184900a67d62cfd24ee76ccdaed2ca48c0f3",
    ("tomography", "branch-exact"): "daed220dc3a151659ca21d0299e8bd478f6122d68555890171cb48c430d97880",
    ("tomography", "sampled"): "485eafd114dec70db1fb6bf16a6eaacfa261b5138a9ba05f222aca114b4de148",
    ("mixture", "branch-exact"): "6616898434d2c57859f12522386a0d7b53d05e3de87dc32e161a03496ddb59c5",
    ("mixture", "sampled"): "9caf51f250d1ebb1ba6a942eac07794e01e994c4c490d414199923069250f753",
    ("nonsignaling", "branch-exact"): "4c9c0995210d54363b9eb15c6131681049c334dab31c4d6188d0974c7fc2c0b8",
    ("nonsignaling", "sampled"): "01d90acfa6d5c18a2dce21cc1f4b7a9981ca19832bbcd5ad2ded9ac334c209d1",
    ("dilation", "branch-exact"): "1411b749f19848ae5ac751a4fc15cb32bdba185571dd9cae7678cca03675675f",
    ("dilation", "sampled"): "9534dd8894495063904a732c2d9b0c45bc1db0f24f38785f944d951a7331b371",
}


def _run(argv: list[str], csv_path, capsys) -> tuple[int, str]:
    """Exit code and sha256 of stdout + b"\\0" + CSV bytes of one CLI run with ``--csv``."""
    csv_path.unlink(missing_ok=True)
    code = main([*argv, "--csv", str(csv_path)])
    rows = csv_path.read_bytes() if csv_path.exists() else b""
    return code, hashlib.sha256(capsys.readouterr().out.encode() + b"\0" + rows).hexdigest()


@pytest.mark.parametrize("experiment,mode", sorted(GOLDEN))
def test_report_and_rows_match_golden_digest(experiment, mode, tmp_path, capsys):
    argv = [*ARGV[experiment], "--mode", mode, "--seed", SEED]
    assert _run(argv, tmp_path / "rows.csv", capsys) == GOLDEN[(experiment, mode)]


@pytest.mark.parametrize("experiment,mode", sorted(SWEEP))
def test_sweep_matches_pinned_digest(experiment, mode, tmp_path, capsys):
    sweep = hashlib.sha256()
    for inputs in SWEEP_INPUTS:
        for seed in SWEEP_SEEDS:
            argv = [*SWEEP_ARGV[experiment], *inputs, "--mode", mode, "--seed", seed]
            code, digest = _run(argv, tmp_path / "rows.csv", capsys)
            sweep.update(f"{code} {digest}\n".encode())
    assert sweep.hexdigest() == SWEEP[(experiment, mode)]
