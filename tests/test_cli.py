import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from confgauss import acceptance, classify, cli, jets, zoo
from confgauss.classify import ClassificationReport, classify_data, s3_fields
from confgauss.cli import main
from confgauss.congruence import conformal_gauss_map, transform_immersion
from confgauss.grid import ChartGrid, fundamental_data
from confgauss.lorentz import parse_word, word_matrix
from confgauss.willmore import equivariance_residuals, willmore_scalar
from confgauss.zoo import SURFACES, make_surface, sample

# one catalog chart per model: R^3, S^3, H^3
MODEL_CHARTS = ["torus_revolution", "clifford_torus", "hyperbolic_cylinder"]
WORD = "dil:0.3 tra:0.2,0,0 inv"


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


def test_transform_cancelling_dilations_is_the_identity(capsys):
    # the chart and the word matrix both compose the run to the identity
    code, out, _ = run_cli(capsys, "transform", "cylinder",
                           "--word", "dil:30 dil:-30", "--grid", "33")
    assert code == 0
    payload = json.loads(out)
    assert payload["gauss_map_equivariance"] <= 1e-14
    assert payload["mu_transport"] <= 1e-12


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


def test_tol_holomorphy_is_a_usage_error(capsys):
    # the holomorphy gate is classify.HOLOMORPHY_TOL, raised by the measured noise
    code, out, err = run_cli(capsys, "analyze", "cylinder", "--grid", "33",
                             "--tol-holomorphy", "1e-3")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --tol-holomorphy 1e-3" in err


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


def test_unwritable_out_is_one_error_and_no_report(tmp_path, capsys):
    # the directory is made before any work, and the report printed only
    # after the export is written: a verdict or a named error, not both
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "analyze", "cylinder", "--grid", "33",
                             "--out", str(blocker / "x"))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: [Errno 20] Not a directory")


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


@pytest.mark.parametrize("argv, message", [
    (["cylinder", "--domain", "a,1,0,1"], "domain needs u0,u1,v0,v1"),
    (["cylinder", "--domain", "0,1,0"], "domain needs u0,u1,v0,v1"),
    # R^2 - r^2 would overflow: refused before the chart is sampled
    (["torus_revolution", "--R", "1e160", "--r", "1"],
     "torus needs R <= 1e+150, got R = 1e+160"),
])
def test_out_of_range_input_exits_1(capsys, argv, message):
    code, out, err = run_cli(capsys, "analyze", *argv, "--grid", "33")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    # |x|^2 of the torus overflows in the push into S^3: the R^3 chart is
    # finite, its S^3 image is not
    (["analyze", "torus_revolution", "--R", "1e103", "--r", "1"],
     "jet has non-finite values in duu of the s3 chart"),
    # the translated R^3 chart is exact; its S^3 image shrinks below the
    # absolute immersion threshold
    (["transform", "cylinder", "--word", "tra:1e120,0,0"],
     "degenerate jet: immersion condition fails"),
    # a generator whose SO(4,1) matrix overflows is refused when parsed
    (["transform", "cylinder", "--word", "dil:800"],
     "bad generator 'dil:800': dil parameters (800.0,) overflow its SO(4,1) matrix"),
    (["transform", "cylinder", "--word", "dil:-800"],
     "bad generator 'dil:-800': dil parameters (-800.0,) overflow its SO(4,1) matrix"),
    (["transform", "cylinder", "--word", "tra:1e200,0,0"],
     "bad generator 'tra:1e200,0,0': tra parameters (1e+200, 0.0, 0.0) overflow"
     " its SO(4,1) matrix"),
    # the word is the inversion; its factors' e^40- and e^600-sized entries cancel
    (["transform", "cylinder", "--word", "dil:20 inv dil:20"],
     "the SO(4,1) matrix of the word is lost to cancellation: factors whose"
     " sizes multiply to 5.9e+16 give one of size 3.8e+00"),
    (["transform", "cylinder", "--word", "dil:300 inv dil:300"],
     "the SO(4,1) matrix of the word is lost to cancellation: factors whose"
     " sizes multiply to 9.4e+259 give one of size 6.8e+243"),
    # the stencils divide by h_u; the classifier's first band overflows
    (["analyze", "cylinder", "--domain", "0,1e-100,0,1"],
     "stencil derivatives overflow: grid spacing h_u = 3.13e-102, h_v = 0.0312"
     " is too fine for the chart"),
    # the profile speed overflows; the quadrature used to recurse for ever
    (["analyze", "revolution_profile", "--zslope", "1e200"],
     "profile quadrature is not finite: speed / rho = inf at t = 0"),
    (["analyze", "revolution_profile", "--cos1", "1e300"],
     "profile quadrature is not finite: speed / rho = inf at t = -1"),
    # R^2 - r^2 underflows to 0
    (["analyze", "torus_revolution", "--R", "1e-300", "--r", "1e-301"],
     "torus needs R^2 - r^2 > 0 in floating point, got R = 1e-300, r = 1e-301"),
    # finite jets whose E, F and G overflow
    (["analyze", "sphere", "--R", "1e200"],
     "first fundamental form overflows: E + G or F is not finite"),
    (["analyze", "hyperbolic_cylinder", "--d", "400"],
     "first fundamental form overflows: E + G or F is not finite"),
    (["transform", "catenoid", "--word", "dil:700"],
     "first fundamental form overflows: E + G or F is not finite"),
    (["transform", "cylinder", "--word", "dil:500"],
     "first fundamental form overflows: E + G or F is not finite"),
    (["transform", "clifford_torus", "--word", "dil:500"],
     "first fundamental form overflows: E + G or F is not finite"),
    # the jet functions overflow; the chart names the field
    (["analyze", "hyperbolic_cylinder", "--d", "800"],
     "jet has non-finite values in pos of the h3 chart"),
    (["analyze", "revolution_profile", "--rho0", "1e300"],
     "jet has non-finite values in duu of the r3 chart"),
    (["analyze", "catenoid", "--domain=-1e50,1e50,0,1"],
     "jet has non-finite values in pos of the r3 chart"),
    (["analyze", "cylinder", "--domain", "inf,1,0,1"],
     "domain bounds must be finite, got inf,1,0,1"),
    # a finite R^3 chart whose S^3 image overflows
    (["analyze", "cylinder", "--rho", "1e300"],
     "jet has non-finite values in pos of the s3 chart"),
    # the profile radius itself overflows
    (["analyze", "revolution_profile", "--rho0", "1e308", "--cos1", "1e308"],
     "profile radius is not finite on |t| <= 1.5"),
])
def test_far_out_input_exits_1(capsys, argv, message):
    # RuntimeWarnings are errors in the test run: an overflow warning fails it
    code, out, err = run_cli(capsys, *argv, "--grid", "33")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_overflow_on_a_pool_thread_is_named(capsys, monkeypatch):
    """At N = 300 each band's row blocks run on two threads, and a pool
    thread starts in numpy's default error state unless it takes the
    caller's; at N = 129 the bands are the whole view, reduced serially."""
    monkeypatch.setattr(classify, "_pool_size", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "analyze", "cylinder", "--domain", "0,1e-100,0,1",
                                 "--grid", "300")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: stencil derivatives overflow: grid spacing"
                                " h_u = 3.34e-103, h_v = 0.00334 is too fine for the chart"]


@pytest.mark.parametrize("grid", ["-3", "0"])
def test_grid_below_minimum_exits_1(capsys, grid):
    code, out, err = run_cli(capsys, "analyze", "cylinder", f"--grid={grid}")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: grid too small"]


def test_transform_word_with_a_tab_is_valid_json(capsys):
    word = "dil:0.5\ttra:1,0,0"
    code, out, _ = run_cli(capsys, "transform", "cylinder", "--word", word,
                           "--grid", "33")
    assert code == 0
    assert json.loads(out)["word"] == word


def test_nan_in_report_exits_1(capsys, monkeypatch):
    to_dict = ClassificationReport.to_dict

    def with_nan_eta(self):
        payload = to_dict(self)
        return {**payload, "hyperplane": {**payload["hyperplane"], "eta": float("nan")}}

    monkeypatch.setattr(ClassificationReport, "to_dict", with_nan_eta)
    code, out, err = run_cli(capsys, "analyze", "cylinder", "--grid", "33")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: hyperplane.eta is nan, which JSON cannot hold"]


def test_memory_error_exits_1(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. TiB for an array")

    # analyze streams the sampler's row blocks through classify.classify,
    # transform through cli, analyze --out samples through cli
    monkeypatch.setattr(cli, "sample", out_of_memory)
    monkeypatch.setattr(cli, "sample_rows", out_of_memory)
    monkeypatch.setattr(zoo, "sample_rows", out_of_memory)
    for argv in (["analyze", "cylinder"], ["transform", "cylinder", "--word", "inv"]):
        code, out, err = run_cli(capsys, *argv, "--grid", "10000000")
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


def test_transform_has_no_out_flag(tmp_path, capsys):
    target = tmp_path / "t"
    code, out, err = run_cli(capsys, "transform", "cylinder", "--word", "inv",
                             "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "unrecognized arguments: --out" in err
    assert not target.exists()


def test_list_surfaces_has_no_grid_flag(capsys):
    code, out, err = run_cli(capsys, "list-surfaces", "--grid", "5")
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "unrecognized arguments: --grid 5" in err


def _record_analysis_work(monkeypatch):
    """Record by stage the model of every Gauss map built and every axis
    pass input (``d_u``, ``d_v`` and ``d_u_rows`` with its rows): one list
    of each for each ``classify_data`` call of the CLI, and one for the
    work before, between and after them."""
    maps, stages = [[]], [[]]
    orig = conformal_gauss_map

    def counted_map(data):
        maps[-1].append(data.model)
        return orig(data)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("confgauss")
                and vars(mod).get("conformal_gauss_map") is orig):
            monkeypatch.setattr(mod, "conformal_gauss_map", counted_map)
    for axis, name in ((0, "d_u"), (1, "d_v"), (0, "d_u_rows")):
        def counted(self, f, *rows, _orig=getattr(ChartGrid, name), _axis=axis):
            field = np.ascontiguousarray(f)
            window = [(r.start, r.stop) for r in rows]
            stages[-1].append((_axis, *window, field.shape, field.dtype.str, field.tobytes()))
            return _orig(self, f, *rows)

        monkeypatch.setattr(ChartGrid, name, counted)

    def classified(*args, _orig=cli.classify_data, **kwargs):
        for seen in (maps, stages):
            seen.append([])
        report = _orig(*args, **kwargs)
        for seen in (maps, stages):
            seen.append([])
        return report

    monkeypatch.setattr(cli, "classify_data", classified)
    return maps, stages


def _count_axis_passes(monkeypatch):
    """Calls of ``ChartGrid.d_u`` and ``d_u_rows`` ("u") and of ``d_v``
    ("v"), the axis passes of a run."""
    counts = {"u": 0, "v": 0}
    for axis, name in (("u", "d_u"), ("u", "d_u_rows"), ("v", "d_v")):
        def counted(self, *args, _orig=getattr(ChartGrid, name), _axis=axis):
            counts[_axis] += 1
            return _orig(self, *args)

        monkeypatch.setattr(ChartGrid, name, counted)
    return counts


MOVE = ("--word", "tra:4,0,0 inv dil:0.3")


@pytest.mark.parametrize("run, u, v", [
    (("analyze", "torus_revolution", "--grid", "65", "--out"), 16, 19),
    (("analyze", "torus_revolution", "--grid", "300", "--out"), 46, 61),
    (("transform", "hyperbolic_cylinder", "--grid", "129", *MOVE), 34, 42),
    (("transform", "hyperbolic_cylinder", "--grid", "300", *MOVE), 104, 132),
    ("criterion_moebius_equivariance", 460, 544),
    ("criterion_conserved_blocks", 17, 17),
    ("criterion_q_consistency", 40, 46),
], ids=["analyze-out-65", "analyze-out-300", "transform-129", "transform-300",
        "criterion4-33", "criterion6-33", "criterion9-33"])
def test_axis_passes_are_pinned(tmp_path, capsys, monkeypatch, run, u, v):
    """The axis passes of analyze --out, transform and three acceptance
    criteria (at N = 33), pinned so that no change adds one; a u-pass of
    all rows may be a ``d_u`` or a ``d_u_rows`` call, so they count
    together."""
    counts = _count_axis_passes(monkeypatch)
    if isinstance(run, str):
        getattr(acceptance, run)(33)
    else:
        argv = run + (str(tmp_path),) if run[-1] == "--out" else run
        assert run_cli(capsys, *argv)[0] == 0
    assert counts == {"u": u, "v": v}


@pytest.mark.parametrize("name", MODEL_CHARTS)
def test_analyze_out_builds_one_gauss_map(tmp_path, capsys, monkeypatch, name):
    maps, stages = _record_analysis_work(monkeypatch)
    code, _, _ = run_cli(capsys, "analyze", name, "--grid", "33",
                         "--out", str(tmp_path))
    assert code == 0
    # the export builds one whole-grid Gauss map of the pushed S^3 chart,
    # which classify_data streams one row block (here one) at a time
    assert maps == [[], ["s3"], ["s3"]]
    # no pass repeated inside classify_data, nor inside the export, which
    # takes Y's and W_{S3}'s passes again after the bands freed theirs
    before, classified, export = stages
    assert not before and classified and export
    for passes in (classified, export):
        assert len(set(passes)) == len(passes)


@pytest.mark.parametrize("name", MODEL_CHARTS)
def test_analyze_out_classifies_one_band_on_its_own_view(tmp_path, capsys,
                                                         monkeypatch, name):
    # a one-band grid is reduced on a band sub-view of its streamed slab,
    # as every band is: the S^3 Gauss map runs once in classify_data, on
    # the one row block, and once in the export; the S^3 Willmore scalar
    # runs on the band, on the 2h band and once more in the export
    scalars = []
    orig = willmore_scalar

    def counted(data):
        scalars.append((data.model, data.grid.shape))
        return orig(data)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("confgauss")
                and vars(mod).get("willmore_scalar") is orig):
            monkeypatch.setattr(mod, "willmore_scalar", counted)
    maps, _ = _record_analysis_work(monkeypatch)
    code, _, _ = run_cli(capsys, "analyze", name, "--grid", "65",
                         "--out", str(tmp_path))
    assert code == 0
    assert maps == [[], ["s3"], ["s3"]]
    assert [shape for model, shape in scalars if model == "s3"] == [
        (65, 65), (33, 33), (65, 65)]


def _fit_digits(report):
    """The JSON ``report`` without its fits' v, eta and residual, and
    those, in the order they appear."""
    fits = []

    def strip(obj):
        if isinstance(obj, dict):
            plane = obj.get("hyperplane")
            if isinstance(plane, dict):
                fits.append((plane.pop("v"), plane.pop("eta"), plane.pop("residual")))
            for value in obj.values():
                strip(value)

    strip(report)
    return report, fits


def test_few_row_bands_write_the_one_band_output(tmp_path, capsys, monkeypatch):
    # at N = 65 the CLI's output does not depend on the band count, but for
    # the last digits of each fit, whose moments four bands add up
    def outputs(label):
        out = tmp_path / label
        code, text, err = run_cli(capsys, "analyze", "torus_revolution", "--grid", "65",
                                  "--out", str(out))
        csvs = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        moved = run_cli(capsys, "transform", "hyperbolic_cylinder", "--grid", "65",
                        "--word", "tra:4,0,0 inv dil:0.3")
        return (code, err, moved[0], moved[2], csvs), [_fit_digits(json.loads(text)),
                                                        _fit_digits(json.loads(moved[1]))]

    whole = outputs("whole")
    monkeypatch.setattr(jets, "BAND_ROWS", 20)
    assert len(jets.row_bands(65)) == 4
    banded = outputs("banded")
    assert len(whole[0][-1]) == 22
    assert banded[0] == whole[0]
    for (report, fits), (whole_report, whole_fits) in zip(banded[1], whole[1]):
        assert report == whole_report
        for (v, eta, rms), (whole_v, whole_eta, whole_rms) in zip(fits, whole_fits, strict=True):
            move = max(np.max(np.abs(np.subtract(v, whole_v))), abs(eta - whole_eta))
            assert move <= 1e-9
            # the rms of <Y, v> - eta moves with (v, eta) by at most
            # sqrt(6) |(Y, -1)| <= 60 times their largest move on these
            # charts, so an rms at the fit's own rounding level may double
            assert abs(rms - whole_rms) <= 1e-3 * whole_rms + 60.0 * move


@pytest.mark.parametrize("name", MODEL_CHARTS)
def test_transform_builds_two_gauss_maps(capsys, monkeypatch, name):
    maps, stages = _record_analysis_work(monkeypatch)
    code, _, _ = run_cli(capsys, "transform", name, "--grid", "33", "--word", WORD)
    assert code == 0
    # each view is streamed, one row block (here one) at a time, before
    # its classify_data
    assert maps == [["s3"], [], ["s3"], [], []]
    # no pass repeated inside either classify_data, nor inside the mu
    # check, which takes Y_u and Y_v of both views again
    before, base, between, moved, mu_check = stages
    assert not before and not between and base and moved and mu_check
    for passes in (base, moved, mu_check):
        assert len(set(passes)) == len(passes)


@pytest.mark.parametrize("name", ["clifford_torus", "cylinder", "hyperbolic_cylinder"])
def test_transform_base_is_the_analyze_report(capsys, name):
    _, analyzed, _ = run_cli(capsys, "analyze", name, "--grid", "33")
    _, moved, _ = run_cli(capsys, "transform", name, "--grid", "33", "--word", WORD)
    assert json.loads(moved)["base"] == json.loads(analyzed)


@pytest.mark.parametrize("n", [129, 300])
@pytest.mark.parametrize("word", ["tra:4,0,0 inv dil:0.3", "inv"])
@pytest.mark.parametrize("name", ["cylinder", "clifford_torus", "hyperbolic_cylinder"])
def test_transform_is_the_whole_grid_pipeline(capsys, name, word, n):
    """transform streams both views from one sampler, byte for byte as the
    whole sampled chart's view and the view of its whole pushed image; 300
    rows are two bands."""
    spec, moves = make_surface(name), parse_word(word)
    data = fundamental_data(sample(spec, n))
    view = s3_fields(data)
    base = classify_data(view, spec.name, spec.params)
    moved = s3_fields(transform_immersion(data, moves))
    rep = classify_data(moved, f"{spec.name} (transformed)", spec.params)
    y_err, mu_err = equivariance_residuals(view.cong, moved.cong, word_matrix(moves))
    payload = {
        "surface": spec.name,
        "word": word,
        "base": base.to_dict(),
        "transformed": rep.to_dict(),
        "verdict_unchanged": (base.kappa == rep.kappa
                              and base.hyperplane.vtype == rep.hyperplane.vtype),
        "gauss_map_equivariance": y_err,
        "mu_transport": mu_err,
    }
    code, out, err = run_cli(capsys, "transform", name, "--word", word, "--grid", str(n))
    assert (code, err) == (0, "")
    assert out == cli.to_json(payload) + "\n"


@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("name", ["cylinder", "clifford_torus", "hyperbolic_cylinder"])
def test_transform_peak_memory(capsys, name, n):
    """tracemalloc peak of a transform, sampling included, per node, on
    one band (N = 256) and on two (N = 257): measured 274-295, plus about
    30 (757-769 at N = 256 with the one band reduced on the views
    themselves, 759-951 with both charts sampled and pushed whole, and
    views that keep their jets)."""
    assert len(jets.row_bands(n)) == (1 if n == 256 else 2)
    tracemalloc.start()
    try:
        code = main(["transform", name, "--word", "tra:4,0,0 inv dil:0.3",
                     "--grid", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak / n ** 2 <= 320


@pytest.mark.parametrize("name", MODEL_CHARTS)
def test_y_csv_is_the_own_model_gauss_map(tmp_path, capsys, name):
    # the export writes the S^3 view's Y, one point of R^{4,1} per node in
    # every model (acceptance criterion 3)
    code, _, _ = run_cli(capsys, "analyze", name, "--grid", "33",
                         "--out", str(tmp_path))
    assert code == 0
    table = np.loadtxt(tmp_path / "Y.csv", delimiter=",", skiprows=1)
    data = fundamental_data(sample(make_surface(name), 33))
    y = conformal_gauss_map(data).Y.reshape(-1, 5)
    assert np.max(np.abs(table[:, 2:] - y)) <= 1e-13
