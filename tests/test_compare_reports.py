"""The leaf diff of ``tools/compare_reports.py``: a key one report drops is named, not hidden."""

import importlib.util
from collections import Counter
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)


def test_leaf_paths_name_keys_and_list_items():
    report = {"results": {"rows": [{"policy": {"j_max": 16}, "warnings": []}], "value": {"re": 1.0, "im": 0.0}}}
    assert compare_reports.leaf_paths(report) == {
        "results.rows[0].policy.j_max", "results.rows[0].warnings", "results.value.re", "results.value.im"}


def test_one_sided_leaves_count_each_dropped_key_over_the_rows():
    rows = [{"lambda_re": lam, "policy": {"max_period": 6, "j_max": 16, "p_max": 60}} for lam in (4.0, 5.0)]
    parent = {"command": "zeta-eval", "results": {"rows": rows}}
    change = {"command": "zeta-eval", "results": {"rows": [{**row, "policy": {"max_period": 6}} for row in rows],
                                                  "source": "model"}}
    only_parent, only_change = compare_reports.one_sided_leaves(parent, change)
    assert only_parent == Counter({"results.rows[*].policy.j_max": 2, "results.rows[*].policy.p_max": 2})
    assert only_change == Counter({"results.source": 1})
    # equal values at different leaves are no numeric difference, so the numeric diff alone reports nothing
    assert compare_reports.relative_differences(parent, change) == {}
    assert compare_reports.one_sided_leaves(parent, parent) == (Counter(), Counter())


def test_source_lines_count_line_ends(tmp_path):
    (tmp_path / "friedzeta").mkdir()
    (tmp_path / "friedzeta" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "friedzeta" / "b.py").write_text("z = 3\n")
    (tmp_path / "friedzeta" / "notes.txt").write_text("not counted\n")
    assert compare_reports.source_lines(tmp_path) == 3
