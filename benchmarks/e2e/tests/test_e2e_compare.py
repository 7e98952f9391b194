import json

import pytest

from e2e import compare

PARENT = [10.0 + 0.1 * i for i in range(10)]  # spread ~5% of the median


def test_improved_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr():
    change = [p + 1.0 for p in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.1)["verdict"] == "improved"
    # Nine pairs are too few to claim a gain.
    assert compare.verdict(PARENT[:9], change[:9], "higher", 0.1)["verdict"] == "unchanged"
    # A gap inside the parent's interquartile distance is no gain.
    small = [p + 0.2 for p in PARENT]
    assert compare.verdict(PARENT, small, "higher", 0.1)["verdict"] == "unchanged"


def test_wins_count_direction_and_ignore_ties():
    change = list(PARENT)
    change[:9] = [p - 1.0 for p in PARENT[:9]]  # lower is better here
    v = compare.verdict(PARENT, change, "lower", 0.1)
    assert (v["wins"], v["pairs"], v["verdict"]) == (9, 10, "improved")


def test_regressed_beyond_the_bound():
    change = [p * 0.85 for p in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.1)["verdict"] == "regressed"
    assert compare.verdict(PARENT, change, "higher", 0.2)["verdict"] == "unchanged"


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    wide = [5.0, 15.0] * 5
    change = [w + 0.1 for w in wide]
    assert compare.verdict(wide, change, "higher", 0.1)["verdict"] == "unresolved"
    # ...unless every change run beats every parent run.
    better = [20.0] * 9
    assert compare.verdict(wide[:9], better, "higher", 0.1)["verdict"] == "unchanged"


def _result(ops, wall, layer_s):
    runs = [{"metrics": {"ops_per_s": v}} for v in ops]
    runs.append({"per_layer": {}, "traced_pass_wall_s": wall,
                 "layers_self_s_per_pass": layer_s})
    return {"smoke": False, "runs": {"batch_tiles": runs}}


def test_compare_rows_and_layer_accounting(tmp_path):
    bench = {"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
    ]}
    parent_dir, change_dir = tmp_path / "parent", tmp_path / "change"
    parent_dir.mkdir()
    change_dir.mkdir()
    (parent_dir / "a.json").write_text(json.dumps(
        _result(PARENT, 4.0, {"engine.journal": 0.5, "kernels.dist_calc": 2.0})))
    (change_dir / "a.json").write_text(json.dumps(
        _result([p + 1.0 for p in PARENT], 3.6, {"engine.journal": 0.1,
                                                  "kernels.dist_calc": 2.0})))
    rows = compare.compare(compare.load_runs(parent_dir), compare.load_runs(change_dir), bench)
    row = rows["batch_tiles"]
    assert row["verdict"] == "improved"
    layers = row["layers"]
    assert layers["pass_wall_delta_s"] == pytest.approx(-0.4)
    assert layers["accounted_share"] == pytest.approx(1.0)
    assert next(iter(layers["deltas_s"])) == "engine.journal"
