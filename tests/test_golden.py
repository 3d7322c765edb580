"""Golden outputs: every experiment's CSVs at a fixed small config.

Runs all six ``harness.run_*`` experiments at ``configs/quick.ini`` with
``steps_per_cycle = 10`` (a few seconds in all) and compares the SHA-256 of
each CSV they write against recorded constants.  A change that keeps the
numbers keeps these hashes; a change that moves any printed digit must
update the constants and say so in CHANGES.md.

The hashes hold for the platform they were recorded on (x86-64 Linux,
Python 3.11, numpy 2.4): another numpy or BLAS may round differently in
the 9th decimal and change a hash without any change to the program.
"""

import hashlib
import os
from pathlib import Path

import pytest

from granugait import harness
from granugait.config import RunConfig

QUICK_INI = Path(__file__).resolve().parent.parent / "configs" / "quick.ini"

EXPERIMENTS = ("run_calibrate", "run_sweep", "run_model_torque",
               "run_classifier_eval", "run_closedloop", "run_transition")

GOLDEN = {
    "calibration.csv":
        "01de406c3b3e44e7936e24b3bbbdbc0d0fe3b144d724ac5e54871880a8fda0d1",
    "sweep.csv":
        "76dfd13324697aebf89076dde3a4d5af435d6a71222f3b00266b8636b81d2d56",
    "sweep_argmax.csv":
        "92b4f22cfd0299c4888ecae7ae4e0763663f9c418b1b32ac0e80602eb97c6751",
    "sweep_summary.csv":
        "9431ed373e6acce818df9c1aefcaa0ab50b57534f1256ae71a05136f39a1d17e",
    "model_torque.csv":
        "a57dd646e0be3ceba2ce43aa72d828f756f85efcfe66ceb651fe26052fd2ddb2",
    "classify_summary.csv":
        "d06585cc34b6d0b7967b828ee43fc1548e8fcac080e676e418f378cb7a6b793d",
    "confusion_lower.csv":
        "555ab326aa35d4d5e6b94d8810ee9403e882261924095f61e556e97eb593df0a",
    "confusion_tail.csv":
        "61d622e1f7a64446373b84710365b77f13b17b1a8a5b0fa12c10f7ee5f20b7d8",
    "confusion_upper.csv":
        "b97b18d0d06dedeada80f2da2029631ac6b0052fcb6c128a825c131edd3fc535",
    "dataset.csv":
        "09c0e003f76b614f2980ab233a9f11457837f8929b2b2d65596d461953ec25a9",
    "closedloop.csv":
        "1eb175fca4b6c17353fa937999fd4dfc1a6054767ce461522823e747cf401c45",
    "closedloop_summary.csv":
        "504ab207546e67dd8052450f4e2742e155761e0dc3751d622e77fca06c8d4c45",
    "transition.csv":
        "de4679041efe66261df8fb96e3444d282b4b9b957f989d7247730b2a52a606cf",
    "transition_summary.csv":
        "f6679d119c635c8a375c3ea0ea9604836b50be460e22ee4fbbbb6417a2cb4774",
}


@pytest.fixture(scope="module")
def csv_hashes(tmp_path_factory):
    cfg = RunConfig.from_ini(QUICK_INI)
    cfg.steps_per_cycle = 10
    cfg.validate()
    hashes = {}
    for name in EXPERIMENTS:
        out = tmp_path_factory.mktemp(name)
        getattr(harness, name)(cfg, str(out))
        for fname in sorted(os.listdir(out)):
            if fname.endswith(".csv"):
                hashes[fname] = hashlib.sha256(
                    (out / fname).read_bytes()).hexdigest()
    return hashes


def test_every_experiment_writes_the_golden_csvs(csv_hashes):
    assert sorted(csv_hashes) == sorted(GOLDEN)


@pytest.mark.parametrize("fname", sorted(GOLDEN))
def test_csv_matches_golden_hash(csv_hashes, fname):
    assert csv_hashes[fname] == GOLDEN[fname]
