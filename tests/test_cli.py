import json

import pytest

from confgauss import cli
from confgauss.cli import main
from confgauss.zoo import SURFACES, make_surface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_surfaces_json(capsys):
    code, out, _ = run_cli(capsys, "list-surfaces")
    assert code == 0
    entries = json.loads(out)
    names = [e["name"] for e in entries]
    assert "cylinder" in names and "clifford_torus" in names


def test_analyze_cylinder(capsys):
    code, out, _ = run_cli(capsys, "analyze", "cylinder", "--rho", "1",
                           "--grid", "96")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "conformally CMC in ℝ³"
    assert payload["kappa"] == 0
    assert payload["hyperplane"]["type"] == "lightlike"


def test_analyze_clifford(capsys):
    code, out, _ = run_cli(capsys, "analyze", "clifford_torus", "--grid", "96")
    assert code == 0
    assert json.loads(out)["verdict"] == "conformally minimal in S³"


def test_analyze_umbilic_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "sphere", "--R", "1")
    assert code == 1
    assert "umbilic" in err


def test_unknown_surface_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "moebius_strip")
    assert code == 1
    assert "unknown surface" in err


def test_unknown_flag_exits_1(capsys):
    code, _, _ = run_cli(capsys, "analyze", "cylinder", "--bogus", "1")
    assert code == 1


def test_parameter_the_surface_lacks_exits_1(capsys):
    code, out, err = run_cli(capsys, "analyze", "cylinder", "--R", "3")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: surface cylinder has no parameter R; it takes rho"]


def test_json_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "catenoid", "--grid", "64")
    _, out2, _ = run_cli(capsys, "analyze", "catenoid", "--grid", "64")
    assert out1 == out2


def test_transform_empty_word_identity(capsys):
    code, out, _ = run_cli(capsys, "transform", "catenoid", "--word", "",
                           "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict_unchanged"] is True
    assert payload["gauss_map_equivariance"] <= 1e-12


def test_transform_word(capsys):
    code, out, _ = run_cli(capsys, "transform", "cylinder",
                           "--word", "dil:0.5 tra:1,0,0", "--grid", "96")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict_unchanged"] is True
    assert payload["transformed"]["kappa"] == 0
    assert payload["mu_transport"] <= 1e-5


def test_transform_inversion_preserves_minimality(capsys):
    code, out, _ = run_cli(capsys, "transform", "catenoid", "--word", "inv",
                           "--grid", "96")
    assert code == 0
    payload = json.loads(out)
    assert payload["transformed"]["verdict"] == "conformally minimal in ℝ³"


def test_transform_bad_word_exits_1(capsys):
    code, _, err = run_cli(capsys, "transform", "catenoid", "--word", "warp:1")
    assert code == 1
    assert "unknown generator" in err


def test_transform_non_finite_word_exits_1(capsys):
    for word in ("dil:nan", "tra:inf,0,0"):
        code, _, err = run_cli(capsys, "transform", "catenoid", "--grid", "33",
                               "--word", word)
        assert code == 1
        assert repr(word) in err and "finite" in err


def test_analyze_nan_holomorphy_tol_exits_1(capsys):
    code, out, err = run_cli(capsys, "analyze", "revolution_profile", "--grid", "65",
                             "--tol-holomorphy", "nan")
    assert code == 1
    assert out == ""
    assert "holomorphy tolerance" in err and "nan" in err


def test_holomorphy_tol_default_is_the_library_default():
    from confgauss.classify import HOLOMORPHY_TOL
    args = cli.build_parser().parse_args(["analyze", "cylinder"])
    assert args.tol_holomorphy == HOLOMORPHY_TOL


def test_analyze_csv_export(tmp_path, capsys):
    out_dir = tmp_path / "fields"
    code, _, _ = run_cli(capsys, "analyze", "cylinder", "--grid", "64",
                         "--out", str(out_dir))
    assert code == 0
    for fname in ("lam.csv", "H.csv", "Omega.csv", "n.csv", "Y.csv",
                  "W.csv", "Vtra_x.csv", "nu.csv", "nustar.csv"):
        path = out_dir / fname
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header.startswith("u,v,")
    assert (out_dir / "Y.csv").read_text().splitlines()[0] == "u,v,Y1,Y2,Y3,Y4,Y5"


def test_check_invariants_small_grid_exits_2(capsys):
    code, out, _ = run_cli(capsys, "check-invariants", "--grid", "16")
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False


def test_domain_override(capsys):
    code, out, _ = run_cli(capsys, "analyze", "cylinder", "--grid", "64",
                           "--domain=-0.3,0.3,-1.0,1.0")
    assert code == 0
    assert json.loads(out)["kappa"] == 0


def test_degenerate_domain_exits_1(capsys):
    code, out, err = run_cli(capsys, "analyze", "cylinder",
                             "--domain", "0,0,-1,1", "--grid", "33")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: chart axis u is not strictly increasing"]


def test_memory_error_exits_1(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. TiB for an array")

    monkeypatch.setattr(cli, "sample", out_of_memory)
    code, out, err = run_cli(capsys, "analyze", "cylinder", "--grid", "10000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "745. TiB" in err


@pytest.mark.parametrize("flags", [
    ["--zslope", "0", "--sin2", "0"],
    # the speed sqrt(0 + 1e-600) underflows to 0 on the constant radius
    ["--zslope", "1e-300", "--sin2", "0", "--cos1", "0"],
])
def test_degenerate_profile_speed_exits_1(capsys, flags):
    code, out, err = run_cli(capsys, "analyze", "revolution_profile", *flags,
                             "--grid", "33")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: profile speed vanishes")


def test_nearly_vanishing_profile_speed_exits_1(capsys):
    code, out, err = run_cli(capsys, "analyze", "revolution_profile",
                             "--zslope", "1e-8", "--sin2", "0", "--grid", "65")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: isothermal coordinate u = ")


def test_catalog_parameters_are_analyze_flags():
    parser = cli.build_parser()
    for name, kind in SURFACES.items():
        for key, default in kind.defaults.items():
            if isinstance(default, float):
                args = parser.parse_args(["analyze", name, f"--{key}", repr(default)])
                assert cli._collect_params(args) == {key: default}, (name, key)
        given, implied = make_surface(name, **kind.defaults), make_surface(name)
        assert given.params == implied.params, name
        assert given.domain == implied.domain, name
        assert given.expected == implied.expected, name
