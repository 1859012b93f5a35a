import json

import pytest

from sspeq.auction import SUBSET_CAP
from sspeq.cli import main
from sspeq.valuations import VERIFY_CAP


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_additive_instance(path, with_bids=False):
    inst = {
        "family": "handmade",
        "m": 2,
        "n": 2,
        "seed": 0,
        "allocation": [[1], [0]],
        "valuations": [
            {"kind": "additive", "m": 2, "items": ["3/1", "1/1"]},
            {"kind": "additive", "m": 2, "items": ["2/1", "2/1"]},
        ],
    }
    if with_bids:
        inst["allocation"] = [[0], [1]]
        inst["bids"] = [["3/1", "0/1"], ["0/1", "2/1"]]
    path.write_text(json.dumps(inst))
    return path


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = main(
            ["gen", "--family", "table-submodular", "--m", "4", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    d = json.loads(a.read_text())
    assert d["family"] == "table-submodular"
    assert len(d["valuations"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "budget-additive", "--m", "4", "--n", "3"],
        ["gen", "--family", "coverage", "--m", "4"],
        ["gen", "--family", "setpair", "--m", "8", "--count", "2"],
        ["gen", "--family", "sensitive", "--m", "9", "--g", "1", "--h", "2", "--support", "2"],
        ["gen", "--family", "gray-exponential", "--m", "5"],
    ],
)
def test_gen_families_emit_valid_instances(argv, capsys):
    code, out = run_cli(capsys, argv)
    assert code == 0
    d = json.loads(out)
    assert {"family", "m", "n", "valuations"} <= set(d)
    if d["family"] == "gray-exponential":
        assert d["allocation"] is not None


@pytest.mark.parametrize(
    "m, code", [(VERIFY_CAP["submodular"], 0), (VERIFY_CAP["submodular"] + 1, 2)]
)
def test_gen_table_cap_boundary(m, code, capsys):
    # each generated table is checked submodular, so generation stops at that check's cap
    argv = ["gen", "--family", "table-submodular", "--m", str(m)]
    assert run_cli(capsys, argv)[0] == code


def test_gen_csv_format(capsys):
    code, out = run_cli(capsys, ["gen", "--family", "coverage", "--m", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "family" in lines[0]


def test_gen_sensitive_rejects_even_m(capsys):
    code, _ = run_cli(capsys, ["gen", "--family", "sensitive", "--m", "8", "--g", "1", "--h", "2"])
    assert code == 2


@pytest.mark.parametrize("support, code", [(10, 0), (11, 2)])
def test_gen_sensitive_support_boundary(support, code, capsys):
    # m = 5 has C(5, 3) = 10 bundles of size m'+1 to bump; 11 would never be drawn
    argv = ["gen", "--family", "sensitive", "--m", "5", "--g", "1", "--h", "2", "--support", str(support)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert len(json.loads(out)["valuations"][0]["k_map"]) == 10
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "family, n, m", [("budget-additive", 0, 2), ("table-submodular", 2, 0), ("coverage", 2, -1)]
)
def test_gen_rejects_no_bidders_or_no_items(family, n, m, capsys):
    assert main(["gen", "--family", family, "--n", str(n), "--m", str(m)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_steal_reports_frozen_run(tmp_path, capsys):
    inst = write_additive_instance(tmp_path / "inst.json")
    trace = tmp_path / "trace.ldj"
    code, out = run_cli(
        capsys,
        ["steal", "--instance", str(inst), "--init", "instance", "--trace-out", str(trace)],
    )
    assert code == 0
    d = json.loads(out)
    assert d["steals"] == 2
    assert d["welfare"] == "5/1"
    assert d["opt"] == "5/1"
    assert d["ratio"] == "1/1"
    assert d["equilibrium_verified"] is True
    # counted value queries only; internal _value_mask evaluations stay out,
    # and OPT, its ratio and the certification add none
    assert d["ledgers"] == [
        {"value": 14, "demand": 0, "xos": 0},
        {"value": 12, "demand": 0, "xos": 0},
    ]
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [(r["thief"], r["victim"], r["item"]) for r in rows] == [(0, 1, 0), (1, 0, 1)]


def test_steal_step_cap_means_violation(tmp_path, capsys):
    inst = write_additive_instance(tmp_path / "inst.json")
    code, out = run_cli(
        capsys, ["steal", "--instance", str(inst), "--init", "instance", "--step-cap", "1"]
    )
    assert code == 1
    assert json.loads(out)["truncated"] is True


def test_steal_budget_additive_reports_bound(capsys, tmp_path):
    gen_out = tmp_path / "ba.json"
    assert main(["gen", "--family", "budget-additive", "--m", "4", "--out", str(gen_out)]) == 0
    code, out = run_cli(capsys, ["steal", "--instance", str(gen_out), "--init", "pool"])
    assert code == 0
    d = json.loads(out)
    assert d["within_bound"] is True
    assert d["steals"] <= d["steal_bound"]


@pytest.mark.parametrize("m", [SUBSET_CAP, SUBSET_CAP + 1])
def test_steal_certify_cap_boundary(m, tmp_path, capsys):
    # the report certifies wherever the equilibrium check does: up to SUBSET_CAP
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "family": "handmade",
        "m": m,
        "n": 2,
        "seed": 0,
        "allocation": None,
        "valuations": [
            {"kind": "additive", "m": m, "items": [f"{j % 3 + 1}/1" for j in range(m)]},
            {"kind": "additive", "m": m, "items": [f"{j % 2 + 1}/1" for j in range(m)]},
        ],
    }))
    code, out = run_cli(capsys, ["steal", "--instance", str(inst), "--init", "pool"])
    assert code == 0
    verified = json.loads(out)["equilibrium_verified"]
    assert verified is (True if m <= SUBSET_CAP else None)


def test_steal_two_bidders_at_m16_reports_opt(tmp_path, capsys):
    # two bidders at m = 16 are within optimal_welfare's step bound, so opt
    # and ratio are read; they add no counted query to the ledgers
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "family": "handmade",
        "m": 16,
        "n": 2,
        "seed": 0,
        "allocation": None,
        "valuations": [
            {"kind": "additive", "m": 16, "items": [f"{j % 5 + 1}/1" for j in range(16)]},
            {"kind": "additive", "m": 16, "items": [f"{3 * j % 7 + 1}/2" for j in range(16)]},
        ],
    }))
    code, out = run_cli(capsys, ["steal", "--instance", str(inst), "--init", "pool"])
    assert code == 0
    d = json.loads(out)
    assert d["opt"] == "99/2"
    assert d["ratio"] == "1/1"
    assert d["steals"] == 5
    assert d["welfare"] == "99/2"
    assert d["ledgers"] == [
        {"value": 194, "demand": 0, "xos": 0},
        {"value": 132, "demand": 0, "xos": 0},
    ]


def test_steal_past_the_opt_cap_reports_no_opt(tmp_path, capsys):
    # three bidders at m = 16 exceed optimal_welfare's step bound, so opt and
    # ratio are null; the equilibrium check still reads m = 16
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "family": "handmade",
        "m": 16,
        "n": 3,
        "seed": 0,
        "allocation": None,
        "valuations": [
            {"kind": "additive", "m": 16, "items": [f"{j % 5 + 1}/1" for j in range(16)]},
            {"kind": "additive", "m": 16, "items": [f"{3 * j % 7 + 1}/2" for j in range(16)]},
            {"kind": "additive", "m": 16, "items": [f"{j % 3 + 2}/3" for j in range(16)]},
        ],
    }))
    code, out = run_cli(capsys, ["steal", "--instance", str(inst), "--init", "pool"])
    assert code == 0
    d = json.loads(out)
    assert (d["opt"], d["ratio"]) == (None, None)
    assert d["equilibrium_verified"] is True


def test_topsteal_runs_frozen_instance(tmp_path, capsys):
    inst = write_additive_instance(tmp_path / "inst.json")
    code, out = run_cli(
        capsys, ["topsteal", "--instance", str(inst), "--init", "instance", "--t", "2"]
    )
    assert code == 0
    d = json.loads(out)
    assert d["steals"] == 2
    assert d["within_bound"] is True
    assert d["equilibrium_verified"] is True
    assert sum(d["cases"].values()) >= 1
    assert d["ledgers"] == [
        {"value": 18, "demand": 0, "xos": 0},
        {"value": 13, "demand": 0, "xos": 0},
    ]


def test_topsteal_writes_its_recursion_tree(tmp_path, capsys):
    inst = write_additive_instance(tmp_path / "inst.json")
    trace = tmp_path / "trace.ldj"
    code, out = run_cli(capsys, [
        "topsteal", "--instance", str(inst), "--init", "instance", "--t", "2",
        "--trace-out", str(trace),
    ])
    assert code == 0
    d = json.loads(out)
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(rows) == sum(d["cases"].values())
    assert [r["id"] for r in rows] == list(range(len(rows)))
    assert rows[0]["parent"] is None
    assert all(0 <= r["parent"] < r["id"] for r in rows[1:])
    assert [(r["case"], r["m_active"], r["t"], r["steal"]) for r in rows] == [
        ("steal_then_recurse", 2, 2, [0, 1, 0]),
        ("pin_top_item", 2, 2, None),
        ("single_item", 1, 2, [1, 0, 1]),
    ]


def test_dynamic_gray_m5(tmp_path, capsys):
    gen_out = tmp_path / "gray.json"
    assert main(["gen", "--family", "gray-exponential", "--m", "5", "--out", str(gen_out)]) == 0
    code, out = run_cli(capsys, ["dynamic", "--instance", str(gen_out), "--init", "instance"])
    assert code == 0
    d = json.loads(out)
    assert d["exchanges"] == 19
    assert d["truncated"] is False
    assert d["sums_strictly_increase"] is True
    assert d["traditional"] is True
    assert d["equilibrium_verified"] is True
    assert (d["welfare"], d["opt"], d["ratio"]) == ("199/40", "199/40", "1/1")
    assert d["ledgers"] == [
        {"value": 1, "demand": 11, "xos": 13},
        {"value": 1, "demand": 11, "xos": 13},
    ]


def test_dynamic_default_step_cap_settles_the_gray_path(tmp_path, capsys):
    gen_out = tmp_path / "gray.json"
    assert main(["gen", "--family", "gray-exponential", "--m", "11", "--out", str(gen_out)]) == 0
    code, out = run_cli(capsys, ["dynamic", "--instance", str(gen_out), "--init", "instance"])
    assert code == 0
    d = json.loads(out)
    assert (d["exchanges"], d["responses"], d["truncated"]) == (923, 926, False)
    assert d["traditional"] is True
    assert d["equilibrium_verified"] is True
    assert d["ratio"] == "1/1"
    assert d["witness_kinds"] == []


def test_dynamic_step_cap_means_violation(tmp_path, capsys):
    gen_out = tmp_path / "gray.json"
    assert main(["gen", "--family", "gray-exponential", "--m", "5", "--out", str(gen_out)]) == 0
    code, out = run_cli(
        capsys, ["dynamic", "--instance", str(gen_out), "--init", "instance", "--step-cap", "2"]
    )
    assert code == 1
    d = json.loads(out)
    assert d["truncated"] is True
    # a truncated run is certified and priced too
    assert (d["equilibrium_verified"], d["witness_kinds"]) == (False, ["deviation"])
    assert (d["opt"], d["ratio"]) == ("199/40", "182/199")


def test_adversary_small_family(tmp_path, capsys):
    report = tmp_path / "adv.json"
    code = main(
        [
            "adversary",
            "--m", "9",
            "--g", "1",
            "--h", "2",
            "--algorithm", "hill",
            "--budget", "30",
            "--report", str(report),
        ]
    )
    capsys.readouterr()
    assert code == 0
    d = json.loads(report.read_text())
    assert d["audit_ok"] is True
    assert d["certified"] is False
    assert d["queries"] == 30
    assert (d["answers"], d["materialized"]) == (30, 2722)
    assert "query_lower_bound" not in d


def test_verify_equilibrium_and_violation(tmp_path, capsys):
    good = write_additive_instance(tmp_path / "good.json", with_bids=True)
    code, out = run_cli(capsys, ["verify", "--instance", str(good)])
    assert code == 0
    assert json.loads(out)["equilibrium"] is True

    bad_bids = tmp_path / "bad.json"
    bad_bids.write_text(json.dumps({"bids": [["0/1", "0/1"], ["1/2", "1/2"]]}))
    code, out = run_cli(capsys, ["verify", "--instance", str(good), "--bids", str(bad_bids)])
    assert code == 1
    d = json.loads(out)
    assert d["equilibrium"] is False
    kinds = {w["kind"] for w in d["witnesses"]}
    assert "allocation-mismatch" in kinds or "deviation" in kinds


@pytest.mark.parametrize("width", [1, 3])
def test_verify_rejects_bids_of_the_wrong_width(width, tmp_path, capsys):
    inst = write_additive_instance(tmp_path / "inst.json")
    bids = tmp_path / "bids.json"
    bids.write_text(json.dumps({"bids": [["1/1"] * width, ["0/1"] * width]}))
    code, _ = run_cli(capsys, ["verify", "--instance", str(inst), "--bids", str(bids)])
    assert code == 2


def test_verify_needs_bids(tmp_path, capsys):
    inst = write_additive_instance(tmp_path / "inst.json")
    code, _ = run_cli(capsys, ["verify", "--instance", str(inst)])
    assert code == 2


@pytest.mark.parametrize(
    "content", [{"rows": [["1/1", "0/1"], ["0/1", "1/1"]]}, {"bids": [["x", "0/1"], ["0/1", "1/1"]]}]
)
def test_verify_rejects_a_malformed_bids_file(content, tmp_path, capsys):
    # a missing "bids" key or a non-rational entry is bad input, not a violation
    inst = write_additive_instance(tmp_path / "inst.json")
    bids = tmp_path / "bids.json"
    bids.write_text(json.dumps(content))
    code, out = run_cli(capsys, ["verify", "--instance", str(inst), "--bids", str(bids)])
    assert code == 2
    assert out == ""


MALFORMED_FILES = {
    "no-valuations": ("steal", "--instance", {"n": 2, "m": 2}),
    "float-item-value": (
        "steal", "--instance", {"n": 1, "m": 1, "valuations": [{"kind": "additive", "m": 1, "items": [1.5]}]}
    ),
    "not-json": ("steal", "--instance", "{valuations"),
    "additive-without-items": (
        "steal", "--instance", {"n": 1, "m": 1, "valuations": [{"kind": "additive", "m": 1}]}
    ),
    "missing-file": ("verify", "--instance", None),
    "one-set-pair": ("setpair-check", "--system", {"m": 8, "pairs": [[[0, 1, 2]]]}),
    "graph-without-vertices": ("maxcut-reduce", "--graph", {"edges": [[0, 1, "1/1"]]}),
    "edge-without-weight": ("maxcut-reduce", "--graph", {"vertices": 2, "edges": [[0, 1]]}),
    "no-bidders": ("steal", "--instance", {"n": 0, "m": 2, "valuations": []}),
    "zero-denominator": (
        "steal", "--instance", {"n": 1, "m": 1, "valuations": [{"kind": "additive", "m": 1, "items": ["1/0"]}]}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_input_files_exit_2(case, tmp_path, capsys):
    # bad input is a usage error with a one-line message, not a violation
    command, flag, content = MALFORMED_FILES[case]
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    code = main([command, flag, str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot load {path}: ") and err.count("\n") == 1


def test_setpair_gen_then_check(tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    assert main(["setpair-gen", "--m", "8", "--count", "2", "--out", str(sysfile)]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, ["setpair-check", "--system", str(sysfile)])
    assert code == 0
    assert json.loads(out)["good"] is True

    broken = json.loads(sysfile.read_text())
    broken["pairs"][0][1] = broken["pairs"][0][0]
    badfile = tmp_path / "bad.json"
    badfile.write_text(json.dumps(broken))
    code, out = run_cli(capsys, ["setpair-check", "--system", str(badfile)])
    assert code == 1
    assert json.loads(out)["problems"]


def test_maxcut_reduce_star(tmp_path, capsys):
    graph = tmp_path / "star.json"
    graph.write_text(
        json.dumps({"vertices": 3, "edges": [[0, 1, "1/1"], [0, 2, "1/1"]]})
    )
    code, out = run_cli(capsys, ["maxcut-reduce", "--graph", str(graph), "--side", "2"])
    assert code == 0
    d = json.loads(out)
    assert d["local_max"] is False
    assert d["improving_move"] == [1, 0, 1]
    assert d["cut_weight"] == "1/1"
    code, out = run_cli(capsys, ["maxcut-reduce", "--graph", str(graph), "--side", "1,2"])
    assert code == 0
    d = json.loads(out)
    assert d["local_max"] is True
    assert d["cut_weight"] == "2/1"


def test_isoperimetric_exit_codes(capsys):
    code, out = run_cli(capsys, ["isoperimetric", "--n", "3"])
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, _ = run_cli(capsys, ["isoperimetric", "--n", "4"])
    assert code == 2
    code, out = run_cli(capsys, ["isoperimetric", "--n", "4", "--samples", "50"])
    assert code == 0
