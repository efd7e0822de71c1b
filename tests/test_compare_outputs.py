"""scripts/compare_outputs.py pairs the numbers two reports share and
names every other difference."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"


def _load():
    """The script as a module; the sys.path entries it adds are undone."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("_compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


compare_outputs = _load()

PARENT = {"value": 2.0, "n": 1, "Q": 16384, "estimate": 1.5, "window": [3, 7], "conventions": {"a": "x"}}
CHANGE = {"n": 1, "Q": 4, "estimate": 1.25, "window": [3, 8], "conventions": {"a": "x", "b": True},
          "torus_Q": 1}


def test_json_pairs_keep_the_shared_numbers_and_name_each_change():
    pairs = list(compare_outputs._json_pairs(PARENT, CHANGE))
    assert [p for p in pairs if not isinstance(p, str)] == [(1.5, 1.25)]
    assert [p for p in pairs if isinstance(p, str)] == [
        "removed key value",
        "Q: 16384 -> 4",
        "window[1]: 7 -> 8",
        "added key conventions.b",
        "added key torus_Q",
    ]
    assert list(compare_outputs._json_pairs({"a": 1, "b": 2}, {"b": 2, "a": 1})) == [
        "key order of the top level differs"
    ]


def test_numeric_summary_reports_the_float_and_the_named_tokens(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(PARENT))
    b.write_text(json.dumps(CHANGE))
    assert compare_outputs.numeric_summary(a, b) == (
        "largest numeric difference 1.67e-01 of max |value| 1.5 (2.50e-01 absolute), "
        "other tokens DIFFER: removed key value; Q: 16384 -> 4; window[1]: 7 -> 8; "
        "added key conventions.b; added key torus_Q"
    )
    b.write_text(json.dumps(dict(PARENT, estimate=1.5 + 2**-52)))
    assert compare_outputs.numeric_summary(a, b).endswith("other tokens identical")


def test_csv_pairs_name_integer_cells_and_row_counts(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("N,s\n1,0.5\n2,0.25\n")
    b.write_text("N,s\n1,0.5\n3,0.125\n4,0.1\n")
    assert list(compare_outputs._csv_pairs(a, b)) == [
        (0.5, 0.5), "line 3 column 0: 2 -> 3", (0.25, 0.125), "row counts differ from line 4"
    ]
    # past SHOWN_CHANGES the rest are counted, not kept
    a.write_text("N\n" + "".join(f"{k}\n" for k in range(7)))
    b.write_text("N\n" + "".join(f"{k + 1}\n" for k in range(7)))
    assert compare_outputs.numeric_summary(a, b).endswith(
        "line 5 column 0: 3 -> 4; line 6 column 0: 4 -> 5; and 2 more"
    )
