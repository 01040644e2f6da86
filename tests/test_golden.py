"""Golden fixtures: the sha256 of every file the CLI writes, and of its
stdout, for eight runs.

The determinism contract (documented draw order plus the `(seed, ...)`
entropy tuples) makes every artifact a pure function of (config, seed),
so these digests catch any refactor that drifts the output by one bit.
The `config.rng = ` line of report.txt names the numpy version and is
left out of its digest, and of stdout's, which echoes the report; in
stdout the `--out` directory reads `<out>`.  The digests hold for the
numpy release named in GOLDEN and the run is skipped on any other.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from abmix.cli import main

RNG_LINE = b"config.rng = "

GOLDEN = {
    "numpy": "2.4.6",
    "runs": {
        "phase": {
            "argv": ["phase"],
            "digests": {},
            "stdout": "7e1de7c05102dee2d575ea0434f8336876efbe75cad8ee9b0f30cdf4a6719d6c",
        },
        "classical": {
            "argv": ["classical"],
            "digests": {},
            "stdout": "ca6191293aec5c93d4eaf061a3f73774c493846ccab82684e82ecd0e09c5afcd",
        },
        "mixture": {
            "argv": ["mixture"],
            "digests": {},
            "stdout": "b7d04bcd7b7eb5b417dda949e8643079076256d87a983245ca90276a97d00f8d",
        },
        "current_plane": {
            "argv": ["current"],
            "config": {"wavepackets": {"kind": "plane"}},
            "digests": {
                "current_plane.csv": "7f4c0bc5dc904ebcfec1d7273a6f0cf5d2b6451811e176ddf40b66ecc4600a58",
            },
            "stdout": "c6020fa99b8aadbad3dcde59927a51b01cc51d925f150dd69a4f13f861ae492a",
        },
        "experiment": {
            "argv": ["experiment"],
            "digests": {
                "histogram_branch1.csv": "07cf7dfb95f588ec036fa655cd7edb7fda1a08cb6059506d4c3ef23f53585126",
                "histogram_branch2.csv": "bd68e6bde99caa5514b61997306fd19ca3782b43dde9f58400cdbcd96e08ae4d",
                "histogram_pooled.csv": "edc8341e44658d8c00ed5e61e276cb3b9fb7d309cd3bbaab508fff7786eb9cf3",
                "report.txt": "b888e9d39f9c10cc03d2b97f217a466f2072d2671571a59f27caf28b1130921c",
            },
            "stdout": "08c6b5059a29c3a754b16f281d29865398bfd2ace335b850e6aeebf0fdafc8bc",
        },
        "experiment_seed_4242": {
            "argv": ["experiment", "--seed", "4242"],
            "digests": {
                "histogram_branch1.csv": "ce67a0b936494e8a0c098a687663ce81435501d755a16e64e3538845328cc567",
                "histogram_branch2.csv": "0f41a0463ec7f45aa63f66aef800c6ad8390b47286c782f6057faf2e07b2498d",
                "histogram_pooled.csv": "419fc81d6c9476c0f9b819d57fe7434f3f670c8641aaa140eb596e5e400ddbc0",
                "report.txt": "9706c9fa623ebd9d89e1213f0a2377ccd69099816e2465a79df33e79a6b3307b",
            },
            "stdout": "a9e05ba4a99eac7e390bbf7692891c912e3e3f08af463edc6964c20a3813bbec",
        },
        "mixture_csv": {
            "argv": ["mixture", "--csv"],
            "digests": {
                "mixture_summary.csv": "65e432a52b6def0b73fb82c2f64e0051714e62ef245a795f93cf858d0fa4fd71",
                "pattern_branch1.csv": "bcd7e4dd7fff17ba53cc6148898ad6cf4662309f2f0299da14d0e24ed9125e91",
                "pattern_branch2.csv": "b8d19daa6d38de6eff3587aedefd464e47ee42a3b2e6f97c8473c3e87b670bc2",
                "pattern_mixture.csv": "d44af86b5608bb0addb28b878b3e68aaf0d353e625523ba833a3edbbe9c8917c",
            },
            "stdout": "2dc0592cb923c006b3ac02ebc322c0788c1c99c4539b15cbda746ec8cb12c610",
        },
        "current": {
            "argv": ["current"],
            "digests": {
                "current_ensemble.csv": "f7bf8c7e49cd423a8beea12a2bd5ef6934030e682525ce2444a6829637d3faa3",
                "current_mixture.csv": "2b8e66ff1ab35738d7cccfc8d1d9ba6a4b40cec5805fa820407c8534958faf82",
                "current_total.csv": "413d526579dbbab353bb4864d064bd5b21352cd928a00eb20b16ecc0ca812f65",
                "wavefunction_branch1.csv": "2a78f5ba906eda9bba1abafae6ca658b2b072ded728420aaf276672fd1ea3a55",
                "wavefunction_branch2.csv": "e01965f064f1370115048cbe12928353e16af055998aa9550fc0b68eeaadfd49",
            },
            "stdout": "3e7871b9f186f501cc89bd128b67b1820ea353f2136c214b58bc98ef2a5c396e",
        },
    },
}


def digest(name, data):
    if name in ("report.txt", "stdout"):
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(RNG_LINE))
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", sorted(GOLDEN["runs"]))
def test_cli_outputs_match_golden_digests(run, tmp_path):
    if np.__version__ != GOLDEN["numpy"]:
        pytest.skip(f"digests were taken with numpy {GOLDEN['numpy']}, this is numpy {np.__version__}")
    spec = GOLDEN["runs"][run]
    out_dir = tmp_path / "out"
    argv = spec["argv"] + ["--out", str(out_dir)]
    if "config" in spec:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(spec["config"]), encoding="utf-8")
        argv += ["--config", str(config)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    written = {path.name: digest(path.name, path.read_bytes()) for path in sorted(out_dir.iterdir())
               } if out_dir.exists() else {}
    assert written == spec["digests"]
    assert digest("stdout", stdout.getvalue().replace(str(out_dir), "<out>").encode()) == spec["stdout"]
