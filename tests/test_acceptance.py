"""Acceptance gate: one test per stated criterion, run off a single battery.

Every comparison in the battery is exact rational equality -- there are
no tolerances anywhere.  Each test prints one PASS line naming the
criterion, asserts the mapped checks passed with the required instance
counts, and asserts the wall-time caps.
"""

import hashlib
import json

import pytest

from functorcalc.verify import ORACLE_INSTANCES, RunConfig, run_battery

#: sha256 of the default report as ``functorcalc verify --json-out`` writes
#: it.  A change to this value must be a deliberate change of the report
#: (new checks, instances or record fields), never a side effect.
DEFAULT_REPORT_SHA256 = "52a1d4fd40afa4ccb7f80213c777bece6c02318a9f481d760f15402c6d6d6c1e"


@pytest.fixture(scope="module")
def battery():
    report, times = run_battery(RunConfig())
    by_name = {record["check"]: record for record in report["checks"]}
    return report, times, by_name


def _passed(by_name, times, names, cap, minimum=None):
    total = 0.0
    instances = 0
    for name in names:
        record = by_name[name]
        assert record["status"] == "pass", record["failures"][:1]
        instances += record["instances"]
        total += times[name]
    assert total < cap, f"{names} took {total:.1f}s, cap {cap}s"
    if minimum is not None:
        assert instances >= minimum, f"{instances} instances < {minimum}"
    return instances, total


def test_criterion_01_chain_rule_without_base(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["chain-rule-zero-base"], cap=60, minimum=100)
    print(f"criterion 1 chain rule, zero base: PASS ({n} pairs, {t:.1f}s < 60s)")


def test_criterion_02_chain_rule_general_base(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["chain-rule-general-base"], cap=60, minimum=25)
    print(f"criterion 2 chain rule, general base: PASS ({n} instances, {t:.1f}s < 60s)")


def test_criterion_03_composition_product_routes(battery):
    report, times, by_name = battery
    names = ["composition-path-agreement", "composition-unit-laws",
             "composition-associativity"]
    n, t = _passed(by_name, times, names, cap=60)
    assert by_name["composition-path-agreement"]["instances"] >= 50
    print(f"criterion 3 product routes, units, associativity: PASS ({n} instances, {t:.1f}s < 60s)")


def test_criterion_04_dimension_series(battery):
    report, times, by_name = battery
    names = ["faa-di-bruno-dimensions", "set-partition-counts"]
    n, t = _passed(by_name, times, names, cap=5)
    print(f"criterion 4 dimension series and set-partition counts: PASS ({n} instances, {t:.1f}s < 5s)")


def test_criterion_05_partition_summands(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["partition-summand-derivatives"], cap=60,
                   minimum=25)
    print(f"criterion 5 partition summands: PASS ({n} instances, {t:.1f}s < 60s)")


def test_criterion_06_layer_decomposition(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["layer-decomposition"], cap=30)
    print(f"criterion 6 layer decomposition: PASS ({n} instances, {t:.1f}s < 30s)")


def test_criterion_07_homogeneous_towers(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["homogeneous-tower-values"], cap=60)
    print(f"criterion 7 homogeneous tower values: PASS ({n} instances, {t:.1f}s < 60s)")


def test_criterion_08_tower_stage_squares(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["tower-stage-squares"], cap=30)
    print(f"criterion 8 tower stage diagrams: PASS ({n} instances, {t:.1f}s < 30s)")


def test_criterion_09_truncation_identities(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["truncation-identities"], cap=30, minimum=50)
    print(f"criterion 9 truncation identities: PASS ({n} instances, {t:.1f}s < 30s)")


def test_criterion_10_cross_effects(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["cross-effects"], cap=30)
    print(f"criterion 10 cross effects: PASS ({n} instances, {t:.1f}s < 30s)")


def test_criterion_11_excisive_oracle(battery):
    report, times, by_name = battery
    n, t = _passed(by_name, times, ["excisive-approximation-oracle"], cap=120,
                   minimum=10)
    # the instance set must include a functor homogeneous above the
    # excision degree, whose approximation therefore vanishes
    assert any(all(cell.n > deg for cell in cells)
               for _, cells, deg, _ in ORACLE_INSTANCES)
    print(f"criterion 11 excisive approximation oracle: PASS ({n} instances, {t:.1f}s < 120s)")


def test_criterion_12_schur_genuineness(battery):
    report, times, by_name = battery
    record = by_name["schur-genuineness"]
    assert record["status"] == "pass"
    assert record["instances"] >= 1000
    print(f"criterion 12 representation genuineness: PASS "
          f"({record['instances']} characters, amortized)")


def test_battery_overall_status(battery):
    report, _, _ = battery
    assert report["status"] == "pass"
    assert report["mutated"] is False


def test_default_report_bytes_are_pinned(battery):
    report, _, _ = battery
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_REPORT_SHA256
