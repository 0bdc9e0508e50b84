import gc
import json
import tracemalloc
import weakref

from orbitkit import LatticeSpec, analyze_orbit, build_root_system, parse_series
from orbitkit.cli import canonical_json
from orbitkit.quantize import ADJOINT, SIMPLY_CONNECTED

SC = LatticeSpec(SIMPLY_CONNECTED)


def test_full_report_a2_fundamental():
    report = analyze_orbit("A2", ["2/3", "-1/3", "-1/3"], SC)
    assert report.dim_orbit == 4
    assert not report.stabilizer.regular
    assert report.lagrangian
    assert report.verdict.integral
    payload = report.to_json_dict()
    assert payload["kks_blocks"] == [
        {"root": ["1", "-1", "0"], "value": "2"},
        {"root": ["1", "0", "-1"], "value": "2"},
    ]
    assert payload["verdict"]["borel_weil"] == "nonzero_irreducible"


def test_schema_keys_present():
    report = analyze_orbit("B2", ["2", "1"], SC)
    payload = report.to_json_dict()
    for key in (
        "lambda",
        "series",
        "singular_roots",
        "regular",
        "dim_orbit",
        "dim_stabilizer",
        "positive_system",
        "b_roots",
        "kks_blocks",
        "certificates",
        "verdict",
    ):
        assert key in payload


def test_projection_is_flagged():
    report = analyze_orbit("A1", ["1", "0"], SC)
    assert report.lam.projected
    assert report.lam.to_strings() == ["1/2", "-1/2"]
    assert report.to_json_dict()["lambda_projected"] is True


def test_report_serialization_round_trips():
    report = analyze_orbit("A1xT1", ["1/2", "-1/2", "3"], SC)
    text = canonical_json(report.to_json_dict())
    assert canonical_json(json.loads(text)) == text


def test_dominant_rep_uses_fixed_chamber():
    # the anti-dominant weight reports the dominant one from the default chamber
    report = analyze_orbit("A1", ["-1/2", "1/2"], SC)
    assert report.verdict.dominant_rep.to_strings() == ["1/2", "-1/2"]
    assert not report.verdict.is_dominant_input
    assert report.verdict.straightening_word != ()


def test_zero_orbit_report():
    report = analyze_orbit("A2", ["0", "0", "0"], LatticeSpec(ADJOINT))
    assert report.dim_orbit == 0
    assert report.kks.dim == 0
    assert report.verdict.integral
    assert len(report.extendability.vanishing_pairings) == 6


def test_root_system_argument_gives_the_series_report():
    rs = build_root_system(parse_series("B2xT1"))
    lam = ["2", "1", "1/3"]
    assert analyze_orbit(rs, lam, SC).to_json_dict() == analyze_orbit(
        "B2xT1", lam, SC
    ).to_json_dict()


def test_torus_report_memory_is_linear_in_the_ambient_dimension():
    # no ambient_dim x ambient_dim matrix may be built for a rootless factor
    tracemalloc.start()
    try:
        report = analyze_orbit("T1000", ["0"] * 1000, SC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.dim_orbit == 0
    assert peak < 4 * 2**20


def test_kks_form_is_stored_as_its_blocks():
    # 484 blocks on a regular B22 report; the dense 968 x 968 form alone
    # would take over 7 MiB
    rs = build_root_system(parse_series("B22"))
    tracemalloc.start()
    try:
        report = analyze_orbit(rs, [str(i) for i in range(22, 0, -1)], SC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.kks.blocks) == 484
    assert peak < 5 * 2**20


def test_report_root_system_is_freed_without_the_cycle_collector():
    rs = build_root_system(parse_series("A2"))
    report = analyze_orbit(rs, ["1", "0", "-1"], SC)
    freed = weakref.ref(rs)
    gc.disable()
    try:
        del rs, report
        assert freed() is None
    finally:
        gc.enable()


def test_each_root_is_formatted_once_and_no_payload_list_is_shared():
    rs = build_root_system(parse_series("A2"))
    report = analyze_orbit(rs, ["2/3", "-1/3", "-1/3"], SC)
    first, second = report.to_json_dict(), report.to_json_dict()
    assert first == second
    lists = []

    def collect(x):
        if isinstance(x, dict):
            x = list(x.values())
        else:
            lists.append(x)
        for y in x:
            if isinstance(y, (dict, list)):
                collect(y)

    collect(first)
    collect(second)
    assert len({id(x) for x in lists}) == len(lists)
    # the positive singular root sits in five lists of the payload, each a
    # copy of the strings cached on the root system's own Weight
    alpha = report.stabilizer.t1_equations[0]
    assert alpha is rs.roots[rs.index[alpha.coords]]
    assert alpha.__dict__["strings"] == ("0", "1", "-1")
    assert str(first).count("['0', '1', '-1']") == 5
