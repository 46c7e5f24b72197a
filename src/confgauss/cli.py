"""Command line driver: analyze, transform, check-invariants, list-surfaces.

JSON output uses 17-significant-digit floats and fixed field order, so an
identical configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .classify import HOLOMORPHY_TOL, classify_data
from .congruence import conformal_gauss_map, isotropic_frame, transform_immersion
from .grid import export_csv, fundamental_data
from .lorentz import parse_word, word_matrix
from .models import representation
from .willmore import direct_currents, equivariance_residuals, willmore_scalar
from .zoo import list_surfaces, make_surface, sample

DETERMINATE_VERDICT_PREFIXES = (
    "conformally CMC in",
    "conformally minimal in",
    "not conformally CMC",
)

_PARAM_FLAGS = ["R", "r", "rho", "d", "rho0", "cos1", "sin2", "zslope"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"unsupported scalar {type(value)}")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with %.17g floats and insertion field order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (np.floating,)):
        return _fmt(float(obj))
    return _fmt(obj)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _collect_params(args) -> dict:
    params = {}
    for flag in _PARAM_FLAGS:
        val = getattr(args, flag, None)
        if val is not None:
            params[flag] = val
    return params


def _parse_domain(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("domain needs u0,u1,v0,v1")
    return (parts[0], parts[1]), (parts[2], parts[3])


def _emit_report(report, args):
    payload = report.to_dict()
    if args.format == "pretty":
        hp = payload["hyperplane"]
        print(f"surface:            {payload['surface']} {payload['params']}")
        print(f"grid:               {payload['grid']}")
        print(f"willmore residual:  {payload['willmore_residual']:.3e}")
        print(f"Q holomorphy:       {payload['q_holomorphy']:.3e}")
        print(f"isothermic witness: {payload['isothermic_witness']:.3e}")
        print(f"kappa:              {payload['kappa']}")
        print(f"hyperplane normal:  {hp['type']} (eta={hp['eta']:.3e}, rms={hp['residual']:.3e})")
        print(f"verdict:            {payload['verdict']}")
    else:
        print(to_json(_sanitize(payload)))


def _export_fields(args, data, cong, report):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    g = data.grid
    fields = {"lam": data.lam, "H": data.H, "Omega": data.Omega, "n": data.n,
              "Y": cong.Y}
    data_s3 = representation(data, "s3")
    fields["W"] = willmore_scalar(data)
    fields["W_s3"] = fields["W"] if data_s3 is data else willmore_scalar(data_s3)
    if data.model == "r3":
        # block extraction of the currents is off-shell when the surface
        # is not Willmore; the report's willmore_residual says which
        cur = direct_currents(data)
        fields.update({
            "Vtra_x": cur.v_tra[0], "Vtra_y": cur.v_tra[1],
            "Vdil_x": cur.v_dil[0], "Vdil_y": cur.v_dil[1],
            "Vrot_x": cur.v_rot[0], "Vrot_y": cur.v_rot[1],
            "Vinv_x": cur.v_inv[0], "Vinv_y": cur.v_inv[1],
        })
    for name, value in fields.items():
        export_csv(out / f"{name}.csv", g, {name: value})

    frame = isotropic_frame(data_s3, conformal_gauss_map(data_s3))
    frame_fields = {"nu": frame.nu, "nustar": frame.nustar, "l": frame.l,
                    "H_nu": frame.H_nu, "H_nustar": frame.H_nustar,
                    "Omega_nu": frame.Omega_nu,
                    "Omega_nustar": frame.Omega_nustar}
    for name, value in frame_fields.items():
        export_csv(out / f"{name}.csv", data_s3.grid, {name: value})


def _exit_code_for(report) -> int:
    if report.verdict.startswith(DETERMINATE_VERDICT_PREFIXES):
        return 0
    return 2


def cmd_analyze(args) -> int:
    spec = make_surface(args.surface, **_collect_params(args))
    domain = _parse_domain(args.domain) if args.domain else None
    data = fundamental_data(sample(spec, args.grid, domain=domain))
    report = classify_data(data, surface=spec.name, params=spec.params,
                           holomorphy_tol=args.tol_holomorphy)
    _emit_report(report, args)
    if args.out:
        _export_fields(args, data, conformal_gauss_map(data), report)
    return _exit_code_for(report)


def cmd_transform(args) -> int:
    spec = make_surface(args.surface, **_collect_params(args))
    domain = _parse_domain(args.domain) if args.domain else None
    word = parse_word(args.word)
    grid = sample(spec, args.grid, domain=domain)
    data = representation(fundamental_data(grid), "r3")
    base = classify_data(data, surface=spec.name, params=spec.params,
                         holomorphy_tol=args.tol_holomorphy)
    moved = transform_immersion(data, word)
    rep = classify_data(moved, surface=f"{spec.name} (transformed)",
                        params=spec.params, holomorphy_tol=args.tol_holomorphy)
    y_err, mu_err = equivariance_residuals(
        conformal_gauss_map(data), conformal_gauss_map(moved), word_matrix(word))
    payload = {
        "surface": spec.name,
        "word": args.word,
        "base": base.to_dict(),
        "transformed": rep.to_dict(),
        "verdict_unchanged": (base.kappa == rep.kappa
                              and base.hyperplane.vtype == rep.hyperplane.vtype),
        "gauss_map_equivariance": y_err,
        "mu_transport": mu_err,
    }
    if args.format == "pretty":
        print(f"word:               {args.word or '(identity)'}")
        print(f"base verdict:       {base.verdict}")
        print(f"transformed:        {rep.verdict}")
        print(f"verdict unchanged:  {payload['verdict_unchanged']}")
        print(f"Y equivariance err: {y_err:.3e}")
        print(f"mu transport err:   {mu_err:.3e}")
    else:
        print(to_json(_sanitize(payload)))
    if not payload["verdict_unchanged"]:
        return 2
    return _exit_code_for(rep)


def cmd_check_invariants(args) -> int:
    results = acceptance.run_all(n=args.grid, echo=(args.format == "pretty"))
    payload = {
        "grid": args.grid,
        "passed": all(r.passed for r in results),
        "criteria": [
            {"name": r.name, "passed": r.passed, "details": _sanitize(r.details)}
            for r in results
        ],
    }
    if args.format == "pretty":
        print("all passed" if payload["passed"]
              else "tolerances not met at this resolution")
    else:
        print(to_json(payload))
    return 0 if payload["passed"] else 2


def cmd_list_surfaces(args) -> int:
    entries = list_surfaces()
    if args.format == "pretty":
        for e in entries:
            print(f"{e['name']:22s} model={e['model']:3s} domain={e['domain']}")
            if e["param_ranges"]:
                print(f"{'':22s} params: {e['param_ranges']}")
            if e["expected"]:
                print(f"{'':22s} expected: {e['expected']}")
    else:
        print(to_json(_sanitize(entries)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confgauss",
        description="Conformal Gauss map calculus and conformally-CMC classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_surface=True):
        if with_surface:
            p.add_argument("surface", help="catalog surface name")
            for flag in _PARAM_FLAGS:
                p.add_argument(f"--{flag}", type=float, default=None,
                               help=f"surface parameter {flag}")
            p.add_argument("--domain", default=None,
                           help="chart override u0,u1,v0,v1")
            p.add_argument("--tol-holomorphy", type=float, default=HOLOMORPHY_TOL,
                           dest="tol_holomorphy",
                           help="holomorphy gate for the CMC verdict")
            p.add_argument("--out", default=None, help="directory for CSV fields")
        p.add_argument("--grid", type=int, default=128, help="nodes per side")
        p.add_argument("--format", choices=["json", "pretty"], default="json")

    p_analyze = sub.add_parser("analyze", help="classify a surface patch")
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_transform = sub.add_parser(
        "transform", help="apply a Moebius word and re-run the analysis")
    common(p_transform)
    p_transform.add_argument(
        "--word", default="",
        help="generators, e.g. 'dil:0.5 rot:z,1.2 inv tra:1,0,0'")
    p_transform.set_defaults(func=cmd_transform)

    p_check = sub.add_parser("check-invariants", help="run the acceptance suite")
    common(p_check, with_surface=False)
    p_check.set_defaults(func=cmd_check_invariants)

    p_list = sub.add_parser("list-surfaces", help="print the surface catalog")
    common(p_list, with_surface=False)
    p_list.set_defaults(func=cmd_list_surfaces)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
