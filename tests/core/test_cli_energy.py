"""CLI coverage for the energy subcommand and explain-request energy output."""

import json

from repro.cli import main


class TestEnergyCommand:
    def test_request_table_ranks_engines(self, capsys, tmp_path):
        out = tmp_path / "energy.json"
        code = main(["energy", "--json", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "j_per_token" in text
        assert "powerinfer" in text
        doc = json.loads(out.read_text())
        assert doc["powerinfer"]["j_per_token"] > 0.0
        assert doc["powerinfer"]["grams_co2"] > 0.0

    def test_carbon_intensity_scales_carbon_only(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        green = tmp_path / "green.json"
        assert main(["energy", "--json", str(base)]) == 0
        assert main(["energy", "--carbon-intensity", "40", "--json", str(green)]) == 0
        b = json.loads(base.read_text())["powerinfer"]
        g = json.loads(green.read_text())["powerinfer"]
        assert g["total_joules"] == b["total_joules"]
        assert g["grams_co2"] * 10 == b["grams_co2"] * 1.0

    def test_whatif_prints_perf_per_watt(self, capsys):
        assert main(["energy", "--whatif"]) == 0
        assert "perf_per_watt_gain" in capsys.readouterr().out

    def test_fleet_mode_reconciles_and_writes_artifacts(self, capsys, tmp_path):
        out = tmp_path / "fleet_energy.json"
        ts = tmp_path / "watts.jsonl"
        code = main(
            [
                "energy", "--fleet", "--requests", "8",
                "--json", str(out), "--timeseries", str(ts),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "reconciliation OK" in text
        assert "J/token" in text
        doc = json.loads(out.read_text())
        assert doc["reconciliation_ok"] is True
        assert doc["j_per_token"] > 0.0
        assert len(doc["replicas"]) == 3
        lanes = {json.loads(line)["series"] for line in ts.read_text().splitlines()}
        assert "fleet/watts" in lanes
        assert any(name.endswith("/gpu_watts") for name in lanes)


class TestExplainRequestEnergy:
    def test_text_timeline_carries_joules_column(self, capsys):
        assert main(["explain-request", "1", "--requests", "8"]) == 0
        text = capsys.readouterr().out
        assert "fleet energy in flight" in text
        assert " J]" in text

    def test_format_json_document(self, capsys, tmp_path):
        out = tmp_path / "explain.json"
        argv = ["explain-request", "1", "--requests", "8", "--format", "json"]
        assert main(argv + ["--json", str(out)]) == 0
        captured = capsys.readouterr()
        # The `wrote` notice goes to stderr, so stdout stays one document.
        doc = json.loads(captured.out)
        assert doc == json.loads(out.read_text())
        assert "wrote" in captured.err
        assert doc["summary"]["energy"]["fleet_total_joules"] > 0.0
        assert all("fleet_joules" in entry for entry in doc["timeline"])
        joules = [entry["fleet_joules"] for entry in doc["timeline"]]
        assert joules == sorted(joules)
