"""Command-line orchestration.

Subcommands: fit, compare, extrapolate, grid, report, perturb, measure,
wvec-pack, wvec-unpack. Every command resolves its flags into a run
manifest (command, flags, input digests, seed, version, timestamp)
embedded in JSON outputs or written beside non-JSON outputs. With a
fixed seed and --no-timestamp, outputs are byte-identical across runs.

Exit codes: 0 success, 2 usage or validation error (including bad
seeds and unreadable or unwritable files), 3 numerical failure. Errors
print a single machine-parsable line to stderr: "error[validation]: ..."
or "error[numeric]: ...".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dataset import Normalization, group_by_level, load_observations
from .errors import (
    DataValidationError,
    FitError,
    LawDomainError,
    ScaleLawsError,
    SplitError,
    UndefinedVarianceError,
)
from .extrapolation import SplitSpec, make_split, progressive_sweep
from .fitter import FitConfig, fit, fit_result_from_dict
from .landscape import GridSpec, detect_basin, exponent_report, grid_eval
from .laws import LAW_IDS, apply_orientation, get_law, law_registry, predict_dataset, with_orientation
from .metrics import STD_KIND, EvalPairs, r_squared, summarize_levels
from .perturb import (
    inject,
    inject_segmented,
    measure_snr,
    read_weights_text,
    read_wvec,
    write_weights_text,
    write_wvec,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "SCALELAWS_SEED"

_VALIDATION_ERRORS = (DataValidationError, SplitError, OSError)
_NUMERIC_ERRORS = (LawDomainError, FitError, UndefinedVarianceError)


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(args: argparse.Namespace, input_paths: list[str]) -> dict:
    flags = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    manifest = {
        "command": args.command,
        "flags": flags,
        "input_digests": {str(p): _sha256(p) for p in input_paths},
        "seed": getattr(args, "seed", None),
        "artifact_version": __version__,
    }
    if not getattr(args, "no_timestamp", False):
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


def _dump_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_sidecar_manifest(out_path: str, manifest: dict) -> None:
    _dump_json({"manifest": manifest}, str(out_path) + ".manifest.json")


def _resolve_seed(value: int | None) -> int:
    if value is None:
        env = os.environ.get(SEED_ENV_VAR, "")
        try:
            value = int(env) if env else 0
        except ValueError:
            raise DataValidationError(
                f"{SEED_ENV_VAR} must be an unsigned integer, got {env!r}"
            ) from None
    if value < 0:
        raise DataValidationError(f"seed must be an unsigned integer, got {value}")
    return value


def _parse_law_list(spec: str) -> list:
    if spec == "all":
        return law_registry()
    if not spec.strip():
        raise DataValidationError("empty law list")
    laws = []
    for law_id in spec.split(","):
        law_id = law_id.strip()
        if law_id not in LAW_IDS:
            raise DataValidationError(
                f"unknown law {law_id!r}; known: all, {', '.join(LAW_IDS)}"
            )
        laws.append(get_law(law_id))
    return laws


def _fit_config(args: argparse.Namespace) -> FitConfig:
    return FitConfig(
        starts=args.starts,
        random_starts=args.random_starts,
        seed=args.seed,
        max_iters=args.max_iters,
        objective_space=args.objective,
        x_orientation=getattr(args, "x_orientation", None),
    )


def _load_data(args: argparse.Namespace):
    norm = Normalization(n_scale=args.n_scale, d_scale=args.d_scale)
    return load_observations(args.data, level_key=args.level_key, normalization=norm)


def _require_x_orientation(args: argparse.Namespace, laws: list) -> None:
    if any(law.needs_x for law in laws) and getattr(args, "x_orientation", None) is None:
        raise DataValidationError(
            "an X-aware law was requested; --x-orientation mitigating|amplifying is required"
        )


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    law = get_law(args.law)
    _require_x_orientation(args, [law])
    data = _load_data(args)
    result = fit(law, data, _fit_config(args))
    payload = {"fit": result.to_dict(), "manifest": _manifest(args, [args.data])}
    _dump_json(payload, args.out)
    r2 = "n/a" if result.r2_train is None else f"{result.r2_train:.6f}"
    print(f"{result.law_id}: r2_train={r2} converged={result.converged} sse={result.sse:.6e}")
    return EXIT_OK


def _comparison_rows(data, laws, args) -> tuple[list, list]:
    """Per-law rows of (level, r2 | None, error | None) cells."""
    if args.group_by_level:
        groups = group_by_level(data)
    else:
        groups = [("all", data)]
    levels = [level for level, _ in groups]
    config = _fit_config(args)
    rows = []
    for law in laws:
        oriented = apply_orientation(law, getattr(args, "x_orientation", None))
        cells = []
        if law.needs_x and args.x_fit_mode == "joint" and args.group_by_level:
            try:
                joint = fit(oriented, data, config)
                for level, group in groups:
                    pred = predict_dataset(oriented, joint.params, group)
                    try:
                        cells.append((level, r_squared(EvalPairs.of(pred, group.losses())), None))
                    except ScaleLawsError as exc:
                        cells.append((level, None, str(exc)))
            except ScaleLawsError as exc:
                cells = [(level, None, str(exc)) for level in levels]
        else:
            for level, group in groups:
                try:
                    result = fit(oriented, group, config)
                    cells.append((level, result.r2_train, None))
                except ScaleLawsError as exc:
                    cells.append((level, None, str(exc)))
        rows.append(cells)
    return levels, rows


def _comparison_dict(levels, laws, rows, args) -> dict:
    table_rows = []
    for law, cells in zip(laws, rows):
        valid = [(level, r2) for level, r2, _ in cells if r2 is not None]
        avg = std = None
        if valid:
            avg, std = summarize_levels(valid)
        table_rows.append({
            "law_id": law.law_id,
            "cells": [
                {"level": str(level), "r2": r2, "error": err} for level, r2, err in cells
            ],
            "avg": avg,
            "std": std,
        })
    return {
        "levels": [str(level) for level in levels],
        "grouped_by_level": bool(args.group_by_level),
        "x_fit_mode": args.x_fit_mode,
        "std_kind": STD_KIND,
        "rows": table_rows,
    }


def _comparison_text(table: dict) -> str:
    levels = table["levels"]
    headers = levels + ["Avg ± Std"]
    best = []
    for idx in range(len(levels)):
        scores = [row["cells"][idx]["r2"] for row in table["rows"]
                  if row["cells"][idx]["r2"] is not None]
        best.append(max(scores) if scores else None)
    name_width = max([len("Law")] + [len(r["law_id"]) for r in table["rows"]])
    col_width = max([12] + [len(h) + 2 for h in headers])
    lines = ["Law".ljust(name_width) + "".join(h.rjust(col_width) for h in headers)]
    for row in table["rows"]:
        rendered = []
        for idx, cell in enumerate(row["cells"]):
            if cell["r2"] is None:
                rendered.append("n/a".rjust(col_width))
            else:
                mark = "*" if best[idx] is not None and cell["r2"] == best[idx] else " "
                rendered.append(f"{cell['r2']:.4f}{mark}".rjust(col_width))
        if row["avg"] is None:
            rendered.append("n/a".rjust(col_width))
        else:
            rendered.append(f"{row['avg']:.4f} ± {row['std']:.2f}".rjust(col_width))
        lines.append(row["law_id"].ljust(name_width) + "".join(rendered))
    return "\n".join(lines)


def cmd_compare(args: argparse.Namespace) -> int:
    laws = _parse_law_list(args.laws)
    _require_x_orientation(args, laws)
    data = _load_data(args)
    levels, rows = _comparison_rows(data, laws, args)
    if all(r2 is None for cells in rows for _, r2, _ in cells):
        raise FitError("every comparison cell failed")
    table = _comparison_dict(levels, laws, rows, args)
    payload = {"comparison": table, "manifest": _manifest(args, [args.data])}
    if args.out:
        _dump_json(payload, args.out)
    print(_comparison_text(table))
    return EXIT_OK


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise DataValidationError(f"{flag} expects an integer or comma list, got {text!r}")


def _build_split_specs(args: argparse.Namespace) -> list[SplitSpec]:
    if args.mode == "token":
        if args.j is None:
            raise DataValidationError("token mode requires --j")
        return [SplitSpec("token", j=j) for j in _parse_int_list(args.j, "--j")]
    if args.mode == "model":
        if args.k is None:
            raise DataValidationError("model mode requires --k")
        return [SplitSpec("model", k=k) for k in _parse_int_list(args.k, "--k")]
    if args.j is None or args.k is None:
        raise DataValidationError("joint mode requires both --j and --k")
    js = _parse_int_list(args.j, "--j")
    ks = _parse_int_list(args.k, "--k")
    if len(js) == 1:
        js = js * len(ks)
    if len(ks) == 1:
        ks = ks * len(js)
    if len(js) != len(ks):
        raise DataValidationError(
            f"--j and --k lists must align for joint mode, got {len(js)} vs {len(ks)}"
        )
    return [SplitSpec("joint", j=j, k=k) for j, k in zip(js, ks)]


def cmd_extrapolate(args: argparse.Namespace) -> int:
    laws = _parse_law_list(args.laws)
    _require_x_orientation(args, laws)
    data = _load_data(args)
    specs = _build_split_specs(args)
    for spec in specs:  # unsatisfiable splits are usage errors, not cell errors
        make_split(data, spec, joint_full_test=args.joint_full_test)
    sweep = progressive_sweep(
        data, laws, specs, _fit_config(args),
        fit_mode=args.fit_mode,
        joint_full_test=args.joint_full_test,
    )
    payload = {"sweep": sweep.to_dict(), "manifest": _manifest(args, [args.data])}
    if args.out:
        _dump_json(payload, args.out)
    print(sweep.to_text())
    return EXIT_OK


def _load_fit_payload(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataValidationError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"{path}: invalid JSON ({exc})")
    record = payload.get("fit", payload)
    if "law_id" not in record or "params" not in record:
        raise DataValidationError(f"{path}: not a fit JSON (missing law_id/params)")
    return record


def cmd_grid(args: argparse.Namespace) -> int:
    record = _load_fit_payload(args.fit)
    result = fit_result_from_dict(record)
    law = with_orientation(get_law(result.law_id), result.x_orientation)
    spec = GridSpec(
        n_min=args.n_min, n_max=args.n_max,
        d_min=args.d_min, d_max=args.d_max,
        n_steps=args.n_steps, d_steps=args.d_steps,
        spacing=args.spacing,
    )
    grid = grid_eval(law, result.params, spec, x=args.x, normalization=result.normalization)
    grid.to_csv(args.out)
    manifest = _manifest(args, [args.fit])
    _write_sidecar_manifest(args.out, manifest)
    if args.basin:
        report = detect_basin(grid)
        _dump_json({"basin": report.to_dict(), "manifest": manifest}, args.basin)
    print(f"{result.law_id}: grid {spec.n_steps}x{spec.d_steps} -> {args.out} "
          f"({grid.n_evaluable()} evaluable cells)")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    record = _load_fit_payload(args.fit)
    result = fit_result_from_dict(record)
    report = exponent_report(result)
    payload = {"exponents": report.to_dict(), "manifest": _manifest(args, [args.fit])}
    _dump_json(payload, args.out)
    print(
        f"{result.law_id}: N axis {report.n_axis_verdict} "
        f"(alpha={report.alpha:.4g}, gamma={report.gamma:.4g}); "
        f"D axis {report.d_axis_verdict} "
        f"(beta={report.beta:.4g}, delta={report.delta:.4g})"
    )
    return EXIT_OK


def cmd_perturb(args: argparse.Namespace) -> int:
    weights = read_wvec(args.infile)
    if args.segments:
        lengths = _parse_int_list(args.segments, "--segments")
        perturbed, reports = inject_segmented(weights, lengths, args.snr_db, args.seed)
        report_payload = [r.to_dict() for r in reports]
    else:
        perturbed, report = inject(weights, args.snr_db, args.seed)
        report_payload = report.to_dict()
    write_wvec(args.out, perturbed)
    manifest = _manifest(args, [args.infile])
    _write_sidecar_manifest(args.out, manifest)
    report_path = args.report or str(args.out) + ".report.json"
    _dump_json({"perturb": report_payload, "manifest": manifest}, report_path)
    if isinstance(report_payload, dict):
        print(
            f"injected {args.snr_db} dB into {weights.count} weights "
            f"(sigma2={report_payload['sigma2']:.6e}, "
            f"empirical={report_payload['empirical_snr_db']:.3f} dB)"
        )
    else:
        print(f"injected {args.snr_db} dB into {len(report_payload)} segments")
    return EXIT_OK


def cmd_measure(args: argparse.Namespace) -> int:
    original = read_wvec(args.original)
    perturbed = read_wvec(args.perturbed)
    snr_db = measure_snr(original, perturbed)
    if args.out:
        payload = {
            "measure": {"empirical_snr_db": snr_db, "count": original.count},
            "manifest": _manifest(args, [args.original, args.perturbed]),
        }
        _dump_json(payload, args.out)
    print(f"empirical_snr_db={snr_db:.6f}")
    return EXIT_OK


def cmd_wvec_pack(args: argparse.Namespace) -> int:
    weights = read_weights_text(args.infile, dtype_code=args.dtype)
    write_wvec(args.out, weights)
    _write_sidecar_manifest(args.out, _manifest(args, [args.infile]))
    print(f"packed {weights.count} {weights.dtype_code} values -> {args.out}")
    return EXIT_OK


def cmd_wvec_unpack(args: argparse.Namespace) -> int:
    weights = read_wvec(args.infile)
    write_weights_text(args.out, weights)
    _write_sidecar_manifest(args.out, _manifest(args, [args.infile]))
    print(f"unpacked {weights.count} {weights.dtype_code} values -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------

def _add_common_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="observations CSV or JSON")
    parser.add_argument("--level-key", default="x_level", choices=["x_level", "source_tag"])
    parser.add_argument("--n-scale", type=float, default=1e9,
                        help="divisor applied to n_params (default 1e9)")
    parser.add_argument("--d-scale", type=float, default=1e9,
                        help="divisor applied to d_tokens (default 1e9)")
    parser.add_argument("--starts", type=int, default=16)
    parser.add_argument("--random-starts", type=int, default=0)
    parser.add_argument("--max-iters", type=int, default=10000)
    parser.add_argument("--objective", default="loss", choices=["loss", "log_loss"])
    parser.add_argument("--x-orientation", default=None,
                        choices=["mitigating", "amplifying"],
                        help="required when fitting an X-aware law")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps from manifests (reproducible output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalelaws",
        description="Fit, compare, and extrapolate scaling laws; analyze loss "
                    "landscapes; SNR-calibrated weight perturbation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one law to observations")
    p.add_argument("--law", required=True, choices=list(LAW_IDS))
    p.add_argument("--out", default=None, help="output fit JSON (default: stdout)")
    _add_common_fit_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="per-level R^2 table across laws")
    p.add_argument("--laws", required=True,
                   help="'all' or a comma-separated list of law ids")
    p.add_argument("--group-by-level", action="store_true",
                   help="fit and score per perturbation level")
    p.add_argument("--x-fit-mode", default="joint", choices=["joint", "per_level"],
                   help="how X-aware laws are fit across level groups")
    p.add_argument("--out", default=None, help="output JSON path")
    _add_common_fit_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("extrapolate", help="held-out prediction with pooled R^2")
    p.add_argument("--laws", required=True)
    p.add_argument("--mode", required=True, choices=["token", "model", "joint"])
    p.add_argument("--j", default=None, help="token checkpoints kept (int or comma list)")
    p.add_argument("--k", default=None, help="smallest models kept (int or comma list)")
    p.add_argument("--fit-mode", dest="fit_mode", default=None,
                   choices=["per_level", "joint_x"],
                   help="override the per-law default fit mode")
    p.add_argument("--joint-full-test", action="store_true",
                   help="joint mode: test on all held-out-model observations")
    p.add_argument("--out", default=None, help="output JSON path")
    _add_common_fit_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("grid", help="dense loss grid CSV from a fit JSON")
    p.add_argument("--fit", required=True, help="fit JSON produced by the fit command")
    p.add_argument("--n-min", type=float, required=True)
    p.add_argument("--n-max", type=float, required=True)
    p.add_argument("--d-min", type=float, required=True)
    p.add_argument("--d-max", type=float, required=True)
    p.add_argument("--n-steps", type=int, default=32)
    p.add_argument("--d-steps", type=int, default=32)
    p.add_argument("--spacing", default="log", choices=["log", "linear"])
    p.add_argument("--x", type=float, default=None, help="perturbation level for X laws")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--basin", default=None, help="also write a basin report JSON here")
    _add_common_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("report", help="exponent report from a capacity-family fit")
    p.add_argument("--fit", required=True)
    p.add_argument("--out", default=None, help="output JSON (default: stdout)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("perturb", help="SNR-calibrated Gaussian weight perturbation")
    p.add_argument("--in", dest="infile", required=True, help="input WVEC file")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--out", required=True, help="output WVEC file")
    p.add_argument("--report", default=None,
                   help="report JSON path (default: <out>.report.json)")
    p.add_argument("--segments", default=None,
                   help="comma list of segment lengths for per-segment calibration")
    _add_common_flags(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("measure", help="empirical SNR between two WVEC files")
    p.add_argument("--original", required=True)
    p.add_argument("--perturbed", required=True)
    p.add_argument("--out", default=None, help="optional JSON output")
    _add_common_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("wvec-pack", help="text (one value per line) -> WVEC")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dtype", default="f64", choices=["f32", "f64"])
    _add_common_flags(p)
    p.set_defaults(func=cmd_wvec_pack)

    p = sub.add_parser("wvec-unpack", help="WVEC -> text (one value per line)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_wvec_unpack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.seed = _resolve_seed(args.seed)
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
