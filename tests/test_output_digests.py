"""Every output byte of the CLI and of the simulators, against the digests
in tests/data/output_digests.txt (see tools/output_digests.py)."""

import importlib.util
from pathlib import Path

from hdts import model
from hdts.model import ProcessSpec

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "output_digests.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  ROOT / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _by_name(lines) -> dict:
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_library_threshold_ar_cases_split_into_full_and_partial_stacks():
    # the stacking the tool's comments promise, so that its simulate_many
    # digests cover a stack boundary
    for case, (keywords, n) in _tool().LIBRARY.items():
        spec = ProcessSpec(**keywords)
        if spec.family == "threshold-ar":
            size = max(1, model.STACK_BYTES // (8 * spec.p * (n + spec.burn_in)))
            assert size < 9 and 9 % size, case


def test_outputs_match_the_golden_digests():
    tool = _tool()
    golden = GOLDEN.read_text().splitlines()
    header = [line for line in golden if line.startswith("# ")]
    assert header == tool.versions(), (
        f"{GOLDEN.name} was made under {header}, this run has {tool.versions()}: "
        "its digests do not apply; regenerate it from a trusted version")
    want = _by_name(line for line in golden if not line.startswith("# "))
    got = _by_name(tool.all_digests())
    differ = sorted(name for name in want.keys() | got.keys()
                    if want.get(name) != got.get(name))
    assert not differ, f"{len(differ)} outputs differ from {GOLDEN.name}: {differ}"
