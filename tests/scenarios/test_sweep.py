"""Cross-backend sweep: subset selection, bitwise identity, reports."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.scenarios.sweep import (
    SweepRow,
    render,
    report_dict,
    smoke_subset,
    sweep_scenarios,
    write_report,
)

from tests.scenarios.helpers import tiny_spec


class TestSmokeSubset:
    def test_picks_cheapest_deterministically(self):
        specs = [
            tiny_spec("small-a"),
            tiny_spec("small-b"),
            tiny_spec("small-c"),
        ]
        subset = smoke_subset(specs, count=2)
        assert [s.name for s in subset] == ["small-a", "small-b"]

    def test_library_subset_is_stable(self):
        from repro.scenarios.library import full_library

        specs = full_library()
        assert smoke_subset(specs) == smoke_subset(list(reversed(specs)))


class TestSweep:
    def test_serial_and_process_agree_bitwise(self, tmp_path):
        rows = sweep_scenarios([tiny_spec()], workers=2)
        assert len(rows) == 1
        row = rows[0]
        assert row.identical
        assert set(row.digests) == {"serial", "process"}
        assert row.k == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_scenarios([tiny_spec()], backends=("serial", "thread"))

    def test_report_artifacts(self, tmp_path):
        rows = sweep_scenarios([tiny_spec()], backends=("serial",), workers=1)
        path = write_report(rows, ("serial",), 1, tmp_path)
        assert (tmp_path / "sweep.txt").exists()
        report = json.loads(path.read_text())
        assert report["all_identical"] is True
        assert report["rows"][0]["name"] == "tiny-pair"
        # Welfare ships as float.hex so the artifact itself is bitwise.
        assert report["rows"][0]["welfare"] == float(rows[0].welfare).hex()

    def test_render_flags_mismatch(self):
        row = SweepRow(
            name="x",
            family="custom",
            k=2,
            digests={"serial": "a" * 64, "process": "b" * 64},
            welfare=1.0,
            equilibrium=(1, 1),
            iterations=3,
        )
        assert not row.identical
        table = render([row])
        assert "False" in table

    def test_report_dict_shape(self):
        rows = sweep_scenarios([tiny_spec()], backends=("serial",), workers=1)
        report = report_dict(rows, ("serial",), 1)
        assert report["backends"] == ["serial"]
        assert report["workers"] == 1
