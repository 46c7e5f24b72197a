"""Command line driver: analyze, transform, check-invariants, list-surfaces.

JSON output uses shortest round-trip floats and fixed field order, so an
identical configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .classify import _SampledChart, classify, classify_data, s3_fields
from .congruence import conformal_gauss_map, isotropic_frame, transform_immersion
from .grid import export_csv, fundamental_data
from .lorentz import parse_word, word_matrix
from .models import representation
from .willmore import direct_currents, equivariance_residuals, willmore_scalar
from .zoo import SURFACES, list_surfaces, make_surface, sample, sample_rows

DETERMINATE_VERDICT_PREFIXES = (
    "conformally CMC in",
    "conformally minimal in",
    "not conformally CMC",
)

# one flag per float parameter of the catalog; offset (a 3-vector) is library-only
_PARAM_FLAGS = list(dict.fromkeys(
    key for kind in SURFACES.values()
    for key, default in kind.defaults.items() if isinstance(default, float)))


def _sanitize(obj):
    """Numpy arrays and scalars as Python values: the ``default`` hook of
    ``to_json``.  A whole payload (a dict or list) passes through."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, (dict, list)):
        return obj
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _leaves(obj, path=""):
    """(path, value) of each scalar of a payload, as ``hyperplane.v[0]``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, obj


def to_json(obj) -> str:
    """Deterministic JSON: insertion field order and shortest round-trip
    floats; a NaN or an infinity is a ValueError that names its field,
    not an invalid token."""
    try:
        return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False,
                          default=_sanitize)
    except ValueError:
        for path, value in _leaves(obj):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{path} is {value}, which JSON cannot hold") from None
        raise


def _collect_params(args) -> dict:
    given = {flag: getattr(args, flag) for flag in _PARAM_FLAGS}
    return {flag: value for flag, value in given.items() if value is not None}


def _parse_domain(text):
    try:  # a part that is not a number, or not four parts
        u0, u1, v0, v1 = (float(p) for p in text.split(","))
    except ValueError:
        raise ValueError("domain needs u0,u1,v0,v1") from None
    return (u0, u1), (v0, v1)


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
        print(to_json(payload))


def _export_fields(out: Path, data, s3):
    """CSV fields of ``data`` into the directory ``out``; Y, W_{S3} and the
    isotropic frame are read off its S^3 chart ``s3`` and the Gauss map of
    that, which have the same u and v."""
    cong, w_s3 = conformal_gauss_map(s3), willmore_scalar(s3)
    fields = {"lam": data.lam, "H": data.H, "Omega": data.Omega, "n": data.n,
              "Y": cong.Y, "W_s3": w_s3,
              "W": w_s3 if data.model == "s3" else willmore_scalar(data)}
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
    frame = isotropic_frame(s3, cong)
    fields.update({name: getattr(frame, name) for name in (
        "nu", "nustar", "l", "H_nu", "H_nustar", "Omega_nu", "Omega_nustar")})
    for name, value in fields.items():
        export_csv(out / f"{name}.csv", data.grid, {name: value})


def _exit_code_for(report) -> int:
    if report.verdict.startswith(DETERMINATE_VERDICT_PREFIXES):
        return 0
    return 2


def cmd_analyze(args) -> int:
    spec = make_surface(args.surface, **_collect_params(args))
    domain = _parse_domain(args.domain) if args.domain else None
    if not args.out:  # nothing reads the chart afterwards: classify frees it
        report = classify(spec, args.grid, domain=domain)
        _emit_report(report, args)
        return _exit_code_for(report)
    # a directory that cannot be made fails before any work, and the
    # report is printed only once the export is written
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = fundamental_data(sample(spec, args.grid, domain=domain))
    s3 = representation(data, "s3")
    report = classify_data(s3, surface=spec.name, params=spec.params)
    _export_fields(out, data, s3)
    _emit_report(report, args)
    return _exit_code_for(report)


def cmd_transform(args) -> int:
    spec = make_surface(args.surface, **_collect_params(args))
    domain = _parse_domain(args.domain) if args.domain else None
    word = parse_word(args.word)
    matrix = word_matrix(word)
    # both views stream from one sampler: each row block is pushed to S^3
    # as it is and moved by the word, as ``classify`` streams one chart
    axes, block = sample_rows(spec, args.grid, domain=domain)
    view = s3_fields(_SampledChart(axes, 1, lambda rows: fundamental_data(block(rows))))
    base = classify_data(view, surface=spec.name, params=spec.params)
    moved = s3_fields(_SampledChart(
        axes, 1, lambda rows: transform_immersion(fundamental_data(block(rows)), word)))
    rep = classify_data(moved, surface=f"{spec.name} (transformed)",
                        params=spec.params)
    y_err, mu_err = equivariance_residuals(view.cong, moved.cong, matrix)
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
        print(to_json(payload))
    if not payload["verdict_unchanged"]:
        return 2
    return _exit_code_for(rep)


def cmd_check_invariants(args) -> int:
    results = acceptance.run_all(n=args.grid, echo=(args.format == "pretty"))
    payload = {
        "grid": args.grid,
        "passed": all(r.passed for r in results),
        "criteria": [
            {"name": r.name, "passed": r.passed, "details": r.details}
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
        print(to_json(entries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confgauss",
        description="Conformal Gauss map calculus and conformally-CMC classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, with_surface=False, with_grid=True):
        """A subcommand with only the flags its handler reads."""
        p = sub.add_parser(name, help=help)
        if with_surface:
            p.add_argument("surface", help="catalog surface name")
            for flag in _PARAM_FLAGS:
                p.add_argument(f"--{flag}", type=float, default=None,
                               help=f"surface parameter {flag}")
            p.add_argument("--domain", default=None,
                           help="chart override u0,u1,v0,v1")
        if with_grid:
            p.add_argument("--grid", type=int, default=128, help="nodes per side")
        p.add_argument("--format", choices=["json", "pretty"], default="json")
        p.set_defaults(func=func)
        return p

    p_analyze = command("analyze", cmd_analyze, "classify a surface patch",
                        with_surface=True)
    p_analyze.add_argument("--out", default=None, help="directory for CSV fields")
    p_transform = command("transform", cmd_transform,
                          "apply a Moebius word and re-run the analysis",
                          with_surface=True)
    p_transform.add_argument(
        "--word", default="",
        help="generators, e.g. 'dil:0.5 rot:z,1.2 inv tra:1,0,0'")
    command("check-invariants", cmd_check_invariants, "run the acceptance suite")
    command("list-surfaces", cmd_list_surfaces, "print the surface catalog",
            with_grid=False)
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
