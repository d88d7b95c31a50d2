"""CLI behavior: commands, exit codes, report determinism."""

import json


from connexion_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_all_entries(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 7
    for name in ("kummer-half", "trivial", "e-inverse-z", "jordan2-regular",
                 "airy", "mixed-reg-irr", "rank2-stokes"):
        assert any(l.startswith(name) for l in lines), name


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) >= 7


def test_analyze_airy(capsys):
    code, out, _ = run(capsys, "analyze", "airy")
    assert code == 0
    doc = json.loads(out)
    assert doc["ramification"] == 2
    assert doc["polygon"]["irregularity"] == [1, 1]
    assert doc["metric"]["pseudo_max"] <= 1e-10
    assert doc["config"]["seed"] == 0


def test_analyze_kummer_half(capsys):
    code, out, _ = run(capsys, "analyze", "kummer-half")
    assert code == 0
    doc = json.loads(out)
    assert doc["ramification"] == 1
    assert doc["polygon"]["irregularity"] == [0, 1]
    assert (doc["index"]["h0_min"], doc["index"]["h1_min"]) == (0, 0)


def test_unknown_name_exits_2_with_suggestion(capsys):
    code, _, err = run(capsys, "analyze", "ariy")
    assert code == 2
    assert "unknown catalog entry" in err


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "analyze", str(bad))
    assert code == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"form": "matrix", "rank": 2, "matrix": []}))
    code, _, _ = run(capsys, "analyze", str(bad2))
    assert code == 2


def test_zero_denominator_in_series_term_exits_2(tmp_path, capsys):
    spec = {"form": "matrix", "rank": 1,
            "matrix": [[{"ram": 1, "trunc": 8, "terms": [[-1, 1, 0, 0, 1]]}]]}
    path = tmp_path / "zero-den.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_zero_denominator_in_alpha_exits_2(tmp_path, capsys):
    spec = {"form": "elementary", "ram": 1, "blocks": [
        {"phi": {"ram": 1, "trunc": 8, "terms": []},
         "regs": [{"alpha": [[1, 0], [0, 1]], "partition": [1]}]}]}
    path = tmp_path / "zero-alpha.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_spec_file_analysis(tmp_path, capsys):
    spec = {"form": "matrix", "rank": 1,
            "matrix": [[{"ram": 1, "trunc": 16, "terms": [[-1, -1, 1, 0, 1]]}]]}
    path = tmp_path / "einvz.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["polygon"]["irregularity"] == [1, 1]


def test_decomposition_error_exits_3(tmp_path, capsys):
    # residue with irrational eigenvalues ±√2
    c = lambda v: {"ram": 1, "trunc": 8, "terms": [[0, v, 1, 0, 1]] if v else []}
    spec = {"form": "matrix", "rank": 2,
            "matrix": [[c(0), c(2)], [c(1), c(0)]]}
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "IrrationalSpectrum" in err


def test_analyze_out_writes_report_and_csv(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "rank2-stokes", "--out",
                       str(out_path))
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["metric"]["glued"]
    csv_path = tmp_path / "report.metric.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("z_re,z_im,a,det_K")


def test_l2verify_passes_on_catalog_line(capsys):
    code, out, _ = run(capsys, "l2verify", "e-inverse-z", "--grid", "coarse",
                       "--trials", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["hardy"]["ok"] and doc["vanishing"]["ok"]
    assert not doc["excluded_case"]


def test_l2verify_excluded_case_exits_0(capsys):
    code, out, _ = run(capsys, "l2verify", "trivial", "--grid", "coarse",
                       "--trials", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["excluded_case"]
    assert all(r["verdict"] == "excluded" for r in doc["vanishing"]["rows"])


def test_l2verify_cos_zero_sector_exits_5(tmp_path, capsys):
    params = {"a_ell": 1.0, "ell": 1, "sector": [1.0, 2.0],
              "inner": [1.2, 1.8]}
    path = tmp_path / "straddle.json"
    path.write_text(json.dumps(params))
    code, _, err = run(capsys, "l2verify", str(path))
    assert code == 5
    assert "SectorContainsCosZero" in err


def test_l2verify_entry_without_data_exits_2(capsys):
    code, _, err = run(capsys, "l2verify", "airy")
    assert code == 2


def test_reports_are_byte_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", "airy", "--seed", "11")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "l2verify", "mixed-reg-irr", "--grid",
                           "coarse", "--trials", "2", "--seed", "4")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
