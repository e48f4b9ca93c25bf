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
    ("qrac", "branch-exact"): (0, "f1a0eedc98a22359de9058e0b1168cb3c1378f31300bba56b979874dac579fd5"),
    ("qrac", "sampled"): (0, "3536de614ab4c79df5e92866eb3cec6fbd504c5976f8069cc34369751d15181d"),
    ("qrac-qubit-only", "branch-exact"): (0, "941b9df67da77272dd61112b220e1f76a1ca686c816deb4be39f7288cba67a73"),
    ("qrac-qubit-only", "sampled"): (0, "a1a74bdeb575991565a2df82b57d4a3db917482d2d70976907456d617c04be19"),
    ("racbox", "branch-exact"): (0, "19dc589f71512464b8c42a83d359ad9e8f0b5238e23cb42615f050e09075c1ef"),
    ("racbox", "sampled"): (0, "71bbebb8e8853e27a4ade809b43ce20db1f0d12ce35916ae342172227cd3391e"),
    ("tomography", "branch-exact"): (0, "a37f1febe3b8b6dccd2c7a02a8d6acedc0ef6401b7fec6931f77a7b7accb3a62"),
    ("tomography", "sampled"): (2, "8f8ac9dee2c2d41af262d9cc789608001c7ff1eae21fb79fb01feabd20282dd1"),
    ("mixture", "branch-exact"): (0, "1dfe8a029a37eafdfdf255a3fd85f1e127cc699d4e50a01abbf104746f5d2eb8"),
    ("mixture", "sampled"): (0, "9f015bba386f98b3bd0c8648405a06137d90442b89a674f6a7372fc97ff92fbc"),
    ("nonsignaling", "branch-exact"): (0, "c4947043d225caa6774838cb66c79fd31b36bec699c312167779e2e6018cf039"),
    ("nonsignaling", "sampled"): (0, "1dd2c2a1ec95c41e34fa0153605a5fe41cdb1df47005d43fba82ee521d34bcf9"),
    ("dilation", "branch-exact"): (0, "a341f9db06b4f7c67c727ee31a337c621934b3dc0d1040990d1da512aaf449ab"),
    ("dilation", "sampled"): (0, "41480c0df613b29398404cd4b7242aab399da318f524d8e6f8fb64335d001332"),
    ("mixture-alpha-sq-0", "branch-exact"): (0, "e382b235d4ddcd9965276c324eff93f00cd98fc4f5a4b772100ab782e940b3a3"),
    ("mixture-alpha-sq-1", "branch-exact"): (0, "cd8e5bba4a0f25b75253f47f81086b989f608fd2f4e0e0a81982aa75952be7de"),
    ("nonsignaling-amp", "branch-exact"): (0, "4620d835594caef5c9bb90247c4012a7dfedca9eeaf7cacad1de1eae82c0bdac"),
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
    ("qrac", "branch-exact"): "ea19f07e9c84892bbe79a7519e439d10fd35a5d37c8e62ce5ac882d6f8f5f012",
    ("qrac", "sampled"): "b0d545985fa5ce91679018736558b72d308a1cf293c18b38005e5b023214962d",
    ("qrac-qubit-only", "branch-exact"): "186d2fd32924878eb4ccce9e1649cf7da1a393e6fbc914fbf413da553f790f35",
    ("qrac-qubit-only", "sampled"): "c8b2110347b36c75acd05e6a8bf756800301c4af905d87e238d13bafa7cf9255",
    ("racbox", "branch-exact"): "bdbe4e804f8f26b353fdaebfbe69b17fa3e93118d58e9bf8635f7566c600fd32",
    ("racbox", "sampled"): "8e9fd28c29cba7dadb5fcf20511a4963e4c86cb9175c91f97f8f228955030f99",
    ("tomography", "branch-exact"): "34f959a38d8df99a0c514a99c22f7c94dcc1d778ebe19a5f754d6594ba52cbef",
    ("tomography", "sampled"): "3927b6f366a789c430b6930fb5135f0bded8e29b291185e8ba9d8c233b498f89",
    ("mixture", "branch-exact"): "cdba1203fb3a5ce24998d2b63487f1de38169a7ff1e01fee7192542792eb83c6",
    ("mixture", "sampled"): "26df23b847ee42fa653c1e8fa0b3ae71c237d17c417f8dc61ea100854ca26d76",
    ("nonsignaling", "branch-exact"): "960bd3d20650a5e2781f4a374c8c6f0d04ad6e22b95b45c33a767274c7867f78",
    ("nonsignaling", "sampled"): "f9dad5b3251b3baeebfadbe0d09dc2851724381fc0d8ab37ff4b54bb8f734f40",
    ("dilation", "branch-exact"): "2673a62a938568b45a5e34dd2e283e7df71f536eae342ab19a4a67e76733803b",
    ("dilation", "sampled"): "0f7e6ad484f607361f61ca86c30b04809dbec875a8c260fd850179eb7f078439",
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
