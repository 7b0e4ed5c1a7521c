"""tools/identity.py: a reduced case list tells an identical copy of src/
from one whose Adam constant moved."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(identity)

CASES = ["loss/yaware/n7/tau0.5", "train/yaware/b32"]


def test_every_case_name_is_unique_and_the_list_is_fixed():
    names = list(identity.cases())
    assert len(names) == len(set(names)) == 3 * 5 + 5 * 3 * 5 + 3 * 5 + 2 * 4 + 9 + 6 + 7 + 8 + 5 + 5
    assert set(CASES) <= set(names)


def test_a_copy_of_src_is_identical_and_a_changed_constant_is_named(tmp_path):
    copy = tmp_path / "same" / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    first, lines = identity.compare(ROOT / "src", copy, CASES)
    assert first is None, lines
    assert lines == [f"{name}: same" for name in CASES]

    encoder = copy / "dynlocrep" / "encoder.py"
    text = encoder.read_text()
    assert text.count("_BETA1, _BETA2, _EPS = 0.9,") == 1
    encoder.write_text(text.replace("_BETA1, _BETA2, _EPS = 0.9,", "_BETA1, _BETA2, _EPS = 0.8,"))
    first, lines = identity.compare(ROOT / "src", copy, CASES)
    assert first == "train/yaware/b32"
    assert lines == [
        "loss/yaware/n7/tau0.5: same",  # Adam takes no part in one loss call
        "train/yaware/b32: DIFFERS in params, mean_loss",
    ]
