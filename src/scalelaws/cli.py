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
from .dataset import Normalization, load_observations
from .errors import (
    DataValidationError,
    FitError,
    LawDomainError,
    ScoreOverflowError,
    SplitError,
    UndefinedVarianceError,
)
from .extrapolation import SplitSpec, compare_laws, progressive_sweep
from .fitter import FitConfig, fit, read_fit
from .landscape import GridSpec, detect_basin, exponent_report, grid_eval
from .laws import LAW_IDS, get_law, law_registry, with_orientation
from .perturb import (
    _resolve,
    _write_weights_text,
    _write_wvec,
    _writing,
    measure_wvec,
    perturb_wvec,
    read_weights_text,
    read_wvec,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "SCALELAWS_SEED"

_VALIDATION_ERRORS = (DataValidationError, SplitError, OSError)
_NUMERIC_ERRORS = (LawDomainError, FitError, UndefinedVarianceError,
                   ScoreOverflowError)


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


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _dump_json(payload: dict, out: str | None) -> None:
    text = _json_text(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        with _writing(out) as [fh]:
            fh.write(text)


def _sidecar(out_path: str) -> str:
    return str(out_path) + ".manifest.json"


def _grid_outputs(args: argparse.Namespace) -> list[str]:
    return [args.out, _sidecar(args.out), *filter(None, [args.basin])]


def _perturb_report(args: argparse.Namespace) -> str:
    return args.report or str(args.out) + ".report.json"


def _run_paths(args: argparse.Namespace) -> tuple[list[str], list[str | None]]:
    """The files a run reads and the files it writes, the latter in the
    order it makes them (None where an optional output is not asked for).
    perturb reads all of --in before it replaces --out, so an --in at
    --out is not counted among the files it reads."""
    if args.command in ("fit", "compare", "extrapolate"):
        return [args.data], [args.out]
    if args.command == "report":
        return [args.fit], [args.out]
    if args.command == "measure":
        return [args.original, args.perturbed], [args.out]
    if args.command == "grid":
        return [args.fit], _grid_outputs(args)
    outputs = [args.out, _sidecar(args.out)]
    if args.command == "perturb":
        in_place = _resolve(args.infile) == _resolve(args.out)
        return [] if in_place else [args.infile], [*outputs, _perturb_report(args)]
    return [args.infile], outputs  # wvec-pack, wvec-unpack


def _refuse_shared_path(inputs: list[str], outputs: list[str | None]) -> None:
    """Refuse outputs of one run that resolve to one path, of which only
    the one written last would survive, or to an input's path, which the
    output would replace while the manifest records the input's digest."""
    read = {_resolve(path) for path in inputs}
    seen = set()
    for path in filter(None, outputs):
        resolved = _resolve(path)
        if resolved in seen:
            raise DataValidationError(f"{path}: two outputs at one path")
        if resolved in read:
            raise DataValidationError(f"{path}: an output at an input's path")
        seen.add(resolved)


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


def _emit_table(args: argparse.Namespace, key: str, table, failure: str) -> int:
    """Write a table to --out and stdout; one without any score is a numeric error."""
    if table.all_failed():
        raise FitError(failure)
    if args.out:
        _dump_json({key: table.to_dict(), "manifest": _manifest(args, [args.data])}, args.out)
    print(table.to_text())
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    laws = _parse_law_list(args.laws)
    _require_x_orientation(args, laws)
    table = compare_laws(
        _load_data(args), laws, _fit_config(args),
        group_by_level=args.group_by_level,
        fit_mode=None if args.x_fit_mode == "joint" else args.x_fit_mode,
    )
    return _emit_table(args, "comparison", table, "every comparison cell failed")


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise DataValidationError(f"{flag} expects an integer or comma list, got {text!r}")
    if not values:
        raise DataValidationError(f"{flag} expects at least one integer, got {text!r}")
    return values


def _build_split_specs(args: argparse.Namespace) -> list[SplitSpec]:
    """One split per (j, k) pair; `SplitSpec` decides which of j, k and
    joint_full_test a mode takes."""
    js = [None] if args.j is None else _parse_int_list(args.j, "--j")
    ks = [None] if args.k is None else _parse_int_list(args.k, "--k")
    if len(js) == 1:
        js = js * len(ks)
    if len(ks) == 1:
        ks = ks * len(js)
    if len(js) != len(ks):
        raise DataValidationError(f"--j and --k lists must align, got {len(js)} vs {len(ks)}")
    return [SplitSpec(args.mode, j=j, k=k, joint_full_test=args.joint_full_test)
            for j, k in zip(js, ks)]


def cmd_extrapolate(args: argparse.Namespace) -> int:
    laws = _parse_law_list(args.laws)
    _require_x_orientation(args, laws)
    specs = _build_split_specs(args)
    sweep = progressive_sweep(
        _load_data(args), laws, specs, _fit_config(args),
        fit_mode=args.fit_mode,
    )
    return _emit_table(args, "sweep", sweep, "every extrapolation cell failed")


def cmd_grid(args: argparse.Namespace) -> int:
    result = read_fit(args.fit)
    law = with_orientation(get_law(result.law_id), result.x_orientation)
    try:
        law.check_x(args.x)
    except LawDomainError as exc:  # an --x the fit's law refuses is a usage error
        raise DataValidationError(str(exc)) from None
    spec = GridSpec(
        n_min=args.n_min, n_max=args.n_max,
        d_min=args.d_min, d_max=args.d_max,
        n_steps=args.n_steps, d_steps=args.d_steps,
        spacing=args.spacing,
    )
    grid = grid_eval(law, result.params, spec, x=args.x, normalization=result.normalization)
    report = detect_basin(grid) if args.basin else None
    manifest = _manifest(args, [args.fit])
    with _writing(*_grid_outputs(args)) as files:
        grid.to_csv(files[0])
        files[1].write(_json_text({"manifest": manifest}))
        if report is not None:
            files[2].write(_json_text({"basin": report.to_dict(), "manifest": manifest}))
    print(f"{result.law_id}: grid {spec.n_steps}x{spec.d_steps} -> {args.out} "
          f"({grid.n_evaluable()} evaluable cells)")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    result = read_fit(args.fit)
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
    segments = _parse_int_list(args.segments, "--segments") if args.segments else None
    manifest = _manifest(args, [args.infile])
    with _writing(_sidecar(args.out), _perturb_report(args)) as (manifest_file, report_file):
        report = perturb_wvec(args.infile, args.out, args.snr_db, args.seed, segments)
        report_payload = report.to_dict() if segments is None else [r.to_dict() for r in report]
        manifest_file.write(_json_text({"manifest": manifest}))
        report_file.write(_json_text({"perturb": report_payload, "manifest": manifest}))
    if isinstance(report_payload, dict):
        print(
            f"injected {args.snr_db} dB into {report_payload['count']} weights "
            f"(sigma2={report_payload['sigma2']:.6e}, "
            f"empirical={report_payload['empirical_snr_db']:.3f} dB)"
        )
    else:
        print(f"injected {args.snr_db} dB into {len(report_payload)} segments")
    return EXIT_OK


def cmd_measure(args: argparse.Namespace) -> int:
    snr_db, count = measure_wvec(args.original, args.perturbed)
    if args.out:
        payload = {
            "measure": {"empirical_snr_db": snr_db, "count": count},
            "manifest": _manifest(args, [args.original, args.perturbed]),
        }
        _dump_json(payload, args.out)
    print(f"empirical_snr_db={snr_db:.6f}")
    return EXIT_OK


def cmd_wvec_pack(args: argparse.Namespace) -> int:
    weights = read_weights_text(args.infile, dtype_code=args.dtype)
    manifest = _manifest(args, [args.infile])
    with _writing(args.out, _sidecar(args.out)) as (out_file, manifest_file):
        _write_wvec(out_file.buffer, weights)
        manifest_file.write(_json_text({"manifest": manifest}))
    print(f"packed {weights.count} {weights.dtype_code} values -> {args.out}")
    return EXIT_OK


def cmd_wvec_unpack(args: argparse.Namespace) -> int:
    weights = read_wvec(args.infile)
    manifest = _manifest(args, [args.infile])
    with _writing(args.out, _sidecar(args.out)) as (out_file, manifest_file):
        _write_weights_text(out_file, weights)
        manifest_file.write(_json_text({"manifest": manifest}))
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are validation errors, reported on one
    line like every other error, without the usage block."""

    def error(self, message: str):
        raise DataValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        args.seed = _resolve_seed(args.seed)
        _refuse_shared_path(*_run_paths(args))
        return args.func(args)
    except SystemExit as exc:  # -h and --version print, then exit
        return int(exc.code or 0)
    except _VALIDATION_ERRORS as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
