"""Command-line entry point.

Subcommands:
  run        drive a configured simulation and write CSV outputs
  operators  dump difference/interpolation operators with certificates
  verify     run verification suites (energy, convergence, cfl, stability,
             agreement); exit code 4 on any failed check
  cfl        bisect the time-step limit of a named configuration

Exit codes: 0 success, 1 config error, 2 I/O error or usage error (argparse),
3 domain error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import (BlockOperators, SemiDiscreteSystem, assemble_1d_boundary_system,
                       assemble_1d_interface_system, assemble_single_block_system)
from .config import build_run, parse_config
from .errors import (ConfigError, StagwaveError, UnsupportedRatioError,
                     VerificationFailure)
from .exact import fraction_str
from .grids import build_block_2d
from .leapfrog import find_cfl, run as run_sim
from .sbp1d import build_periodic_1d, build_sbp_1d, verify_sbp_structure
from .transfer import (certify_pair, derive_elemental_pair,
                       tabulated_elemental_pair, tile_periodic)
from .verification import (convergence_study, energy_rate_oracle,
                           long_time_stability_run, ratio_system,
                           two_grid_agreement, uniform_standing_system)

_EXIT_CONFIG = 1
_EXIT_IO = 2
_EXIT_DOMAIN = 3
_EXIT_VERIFY = 4


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: str, rows) -> None:
    with path.open("w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _earlier_outputs(out_dir: Path) -> list[Path]:
    """The entries of out_dir that an earlier run's manifest.json there
    lists, and that manifest; nothing the manifest omits."""
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return []
    try:
        listed = {*json.loads(manifest.read_text())["files"], manifest.name}
    except (ValueError, KeyError, TypeError) as exc:
        raise FileExistsError(f"{manifest} is not a run manifest; not writing over it") from exc
    return [path for path in out_dir.iterdir() if path.name in listed]


def cmd_run(args) -> int:
    """Run a config; the output directory is made only once the run succeeds."""
    config = parse_config(args.config)
    built = build_run(config)

    out_dir = Path(args.out) if args.out else Path(Path(args.config).stem + ".out")
    if out_dir.exists() and not args.force:
        raise FileExistsError(f"{out_dir} exists; pass --force to write into it")
    if any(path.exists() and not path.is_dir() for path in (out_dir, *out_dir.parents)):
        raise NotADirectoryError(f"{out_dir} is or lies under a file that is not a directory")
    stale = _earlier_outputs(out_dir)
    result = run_sim(built.system, built.time_grid, sources=built.sources,
                     receivers=built.receivers,
                     record_energy=built.outputs["energy"])

    out_dir.mkdir(parents=True, exist_ok=args.force)
    for path in stale:
        path.unlink(missing_ok=True)
    (out_dir / "config.yaml").write_text(config.to_yaml())
    files = ["config.yaml"]
    if built.outputs["seismogram"]:
        for i in range(len(built.receivers)):
            name = "seismogram.csv" if len(built.receivers) == 1 else f"seismogram_{i}.csv"
            _write_csv(out_dir / name, "t,p",
                       zip(map(float, result.times), map(float, result.seismograms[i])))
            files.append(name)
    if built.outputs["energy"]:
        _write_csv(out_dir / "energy.csv", "step,t,E",
                   zip(range(built.time_grid.n_steps), map(float, result.energy_times),
                       map(float, result.energy)))
        files.append("energy.csv")
    if built.outputs["snapshot"]:
        for i, p in enumerate(result.final_state.pressures):
            name = f"snapshot_p{i}.bin"
            p.astype("<f8").tofile(out_dir / name)
            (out_dir / f"snapshot_p{i}.json").write_text(json.dumps(
                {"shape": list(p.shape), "dtype": "float64", "order": "C",
                 "field": "p", "block": i}, sort_keys=True))
            files += [name, f"snapshot_p{i}.json"]

    manifest = {
        "version": __version__,
        "files": {name: _sha256(out_dir / name) for name in sorted(files)},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(f"run complete: {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, Fraction):
        return fraction_str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _fmt(float(v))


def _dump_matrix(fh, name, rows):
    fh.write(f"# {name}\n")
    for row in rows:
        fh.write(",".join(_cell(v) for v in row) + "\n")


def cmd_operators(args) -> int:
    """Dump an operator set; the dump is rendered in full before --out is
    opened, so a failure leaves an existing file as it was."""
    out = io.StringIO()
    if args.kind == "sbp1d":
        ops = build_sbp_1d(args.n, args.dx)
        report = verify_sbp_structure(ops)
        _dump_matrix(out, "d_p (unit spacing)", ops.exact_d_p())
        _dump_matrix(out, "d_v (unit spacing)", ops.exact_d_v())
        _dump_matrix(out, "a_p (unit spacing)", [ops.exact_a_p()])
        _dump_matrix(out, "a_v (unit spacing)", [ops.exact_a_v()])
        from .sbp1d import PROJECTION
        proj = list(PROJECTION) + [Fraction(0)] * (ops.n_v - 3)
        _dump_matrix(out, "proj_left", [proj])
        _dump_matrix(out, "q_first_row", [[-v for v in proj]])
        out.write(f"# structure_residual,{_fmt(report.structure_residual)}\n")
        out.write(f"# exact_structure,{report.exact}\n")
        out.write(f"# dv_row_degrees,{' '.join(map(str, report.dv_row_degrees))}\n")
        out.write(f"# dp_row_degrees,{' '.join(map(str, report.dp_row_degrees))}\n")
    elif args.kind == "periodic":
        ops = build_periodic_1d(args.n, args.dx)
        _dump_matrix(out, "d_p", ops.dense_d_p())
        _dump_matrix(out, "d_v", ops.dense_d_v())
        q = ops.dx * ops.dense_d_v() + (ops.dx * ops.dense_d_p()).T
        out.write(f"# wraparound_residual,{_fmt(float(np.abs(q).max()))}\n")
    elif args.kind == "transfer":
        if args.derive or args.support is not None:
            elem = derive_elemental_pair(args.ratio, support=args.support)
        else:
            try:
                elem = tabulated_elemental_pair(args.ratio)
            except UnsupportedRatioError:
                elem = derive_elemental_pair(args.ratio)
        k = args.elements
        pair = tile_periodic(elem, elem.n * k, elem.m * k)
        cert = certify_pair(pair)
        for r, row in enumerate(elem.coarse_to_fine):
            _dump_matrix(out, f"coarse_to_fine row {r}",
                         [[k_ for k_ in sorted(row)], [row[k_] for k_ in sorted(row)]])
        for s, row in enumerate(elem.fine_to_coarse):
            _dump_matrix(out, f"fine_to_coarse row {s}",
                         [[k_ for k_ in sorted(row)], [row[k_] for k_ in sorted(row)]])
        out.write(f"# row_sum_error,{_fmt(cert.row_sum_error)}\n")
        out.write(f"# exactness_degree,{cert.exactness_degree}\n")
        out.write(f"# adjoint_residual,{_fmt(cert.adjoint_residual)}\n")
        out.write(f"# adjoint_exact,{cert.adjoint_exact}\n")
    if args.out:
        Path(args.out).write_text(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name, ok, detail, value=None, threshold=None) -> tuple[str, str, str, str]:
    """Print a PASS/FAIL line; return the (check, result, value, threshold)
    record written to the --csv report."""
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return (name, "pass" if ok else "fail",
            "" if value is None else repr(float(value)),
            "" if threshold is None else repr(float(threshold)))


def _verify_energy() -> list[tuple]:
    records = []
    rng_seed = 0
    ops = build_sbp_1d(33, 1 / 32)
    sys1 = assemble_1d_boundary_system(ops)
    r = energy_rate_oracle(sys1, seed=rng_seed)
    records.append(_check("energy/1d-boundary", r <= 1e-12, f"max rate {r:.3e}", r, 1e-12))
    sys2 = assemble_1d_interface_system(build_sbp_1d(17, 1 / 16), build_sbp_1d(33, 1 / 32))
    r = energy_rate_oracle(sys2, seed=rng_seed)
    records.append(_check("energy/1d-interface", r <= 1e-12, f"max rate {r:.3e}", r, 1e-12))
    r = energy_rate_oracle(uniform_standing_system(16), seed=rng_seed)
    records.append(_check("energy/2d-single", r <= 1e-12, f"max rate {r:.3e}", r, 1e-12))
    for ratio in ("2:1", "3:2", "4:3", "5:4", "6:5"):
        m, n = map(int, ratio.split(":"))
        r = energy_rate_oracle(ratio_system(m, n), seed=rng_seed)
        records.append(_check(f"energy/2d-two-block-{ratio}", r <= 1e-12,
                              f"max rate {r:.3e}", r, 1e-12))
    from .verification import with_random_coefficients
    sysh = with_random_coefficients(ratio_system(2, 1), np.random.default_rng(3))
    r = energy_rate_oracle(sysh, seed=rng_seed)
    records.append(_check("energy/2d-two-block-heterogeneous", r <= 1e-12,
                          f"max rate {r:.3e}", r, 1e-12))
    return records


def _verify_convergence() -> list[tuple]:
    records = []
    for scenario in ("uniform", "two_block"):
        report = convergence_study(scenario)
        print(report.table())
        in_range = all(3.0 <= r <= 4.0 for r in report.rates)
        records.append(_check(f"convergence/{scenario}", in_range,
                              "rates " + ", ".join(f"{r:.2f}" for r in report.rates),
                              min(report.rates), 3.0))
    return records


def _verify_cfl() -> list[tuple]:
    targets = {
        "1d-periodic": (6 / 7, 0.005),
        "1d-sat": (0.635, 0.01),
        "2d-periodic": (0.6061, 0.01),
        "2d-sat": (0.5105, 0.01),
    }
    records = []
    for name, (target, tol) in targets.items():
        res = _cfl_search(name)
        records.append(_check(f"cfl/{name}", abs(res.ratio - target) <= tol,
                              f"dt_max/dx = {res.ratio:.4f} (target {target} +- {tol})",
                              res.ratio, target))
    return records


def _cfl_search(name: str, n: int = 32):
    dx = 1.0 / n
    if name == "1d-periodic":
        system = SemiDiscreteSystem([BlockOperators([build_periodic_1d(n, dx)])])
    elif name == "1d-sat":
        system = assemble_1d_boundary_system(build_sbp_1d(n + 1, dx))
    elif name == "2d-periodic":
        system = SemiDiscreteSystem([BlockOperators([build_periodic_1d(n, dx)] * 2)])
    elif name == "2d-sat":
        system = assemble_single_block_system(build_block_2d(0, 1, n, 0, 1, n + 1))
    else:
        raise ConfigError(f"unknown cfl configuration {name!r}")
    return find_cfl(system, dx)


def _verify_stability(n_steps: int) -> list[tuple]:
    records = []
    for scenario in ("two_layer_2to1", "smooth_gradient_6to5"):
        res = long_time_stability_run(scenario, n_steps=n_steps)
        records.append(_check(
            f"stability/{scenario}", res.verdict == "stable",
            f"verdict {res.verdict}, tail ratio {res.tail_amplitude_ratio:.3f}, "
            f"energy drift {res.energy_drift:.2e}",
            res.energy_drift, 1e-3))
    return records


def _verify_agreement() -> list[tuple]:
    records = []
    m = two_grid_agreement("6:5")
    records.append(_check("agreement/6:5-vs-uniform", m <= 0.05, f"misfit {m:.4f}", m, 0.05))
    m = two_grid_agreement("2:1")
    records.append(_check("agreement/2:1-vs-uniform", m <= 0.1, f"misfit {m:.4f}", m, 0.1))
    m = two_grid_agreement("1:1")
    records.append(_check("agreement/1:1-vs-single-grid", m <= 1e-8, f"misfit {m:.3e}",
                          m, 1e-8))
    return records


def cmd_verify(args) -> int:
    suites = {
        "energy": _verify_energy,
        "convergence": _verify_convergence,
        "cfl": _verify_cfl,
        "stability": lambda: _verify_stability(args.steps),
        "agreement": _verify_agreement,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    records = [record for name in names for record in suites[name]()]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("check,result,value,threshold\n")
            for record in records:
                fh.write(",".join(record) + "\n")
    if any(result == "fail" for _, result, _, _ in records):
        raise VerificationFailure("one or more verification checks failed")
    return 0


def cmd_cfl(args) -> int:
    res = _cfl_search(args.configuration, n=args.n)
    print(f"{args.configuration}: dt_max/dx = {res.ratio:.6f} "
          f"(bracket [{res.dt_stable:.6e}, {res.dt_unstable:.6e}])")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _ratio(text: str) -> Fraction:
    """argparse type of --ratio: coarse:fine, two positive integers."""
    coarse, _, fine = text.partition(":")
    if not (coarse.isdecimal() and fine.isdecimal() and int(coarse) > 0 and int(fine) > 0):
        raise argparse.ArgumentTypeError(f"expected two positive integers, got {text!r}")
    return Fraction(int(coarse), int(fine))


def _count(text: str) -> int:
    """argparse type of the count options (--n, --elements, --steps): a
    positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagwave",
        description="staggered-grid acoustic wave engine on block-wise uniform grids")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="drive a configured simulation")
    p_run.add_argument("config", help="YAML run configuration")
    p_run.add_argument("--out", help="output directory (default: <config>.out)")
    p_run.add_argument("--force", action="store_true",
                       help="allow writing into an existing directory")
    p_run.set_defaults(func=cmd_run)

    p_ops = sub.add_parser("operators", help="dump operators and certificates")
    ops_sub = p_ops.add_subparsers(dest="kind", required=True)
    p_sbp = ops_sub.add_parser("sbp1d")
    p_sbp.add_argument("--n", type=_count, default=9)
    p_sbp.add_argument("--dx", type=float, default=1.0)
    p_per = ops_sub.add_parser("periodic")
    p_per.add_argument("--n", type=_count, default=8)
    p_per.add_argument("--dx", type=float, default=1.0)
    p_tr = ops_sub.add_parser("transfer")
    p_tr.add_argument("--ratio", required=True, type=_ratio, help="coarse:fine, e.g. 3:2")
    p_tr.add_argument("--derive", action="store_true",
                      help="solve the constraint system instead of using tables")
    p_tr.add_argument("--support", type=int, default=None,
                      help="width of the non-coincident stencils (even, >= 4); "
                           "implies --derive")
    p_tr.add_argument("--elements", type=_count, default=4,
                      help="elemental intervals to tile for the certificate")
    for sp in (p_sbp, p_per, p_tr):
        sp.add_argument("--out", help="write to file instead of stdout")
    p_ops.set_defaults(func=cmd_operators)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("suite", choices=["energy", "convergence", "cfl",
                                         "stability", "agreement", "all"])
    p_ver.add_argument("--steps", type=_count, default=50_000,
                       help="steps for the stability scenarios")
    p_ver.add_argument("--csv", help="also write a machine-readable report")
    p_ver.set_defaults(func=cmd_verify)

    p_cfl = sub.add_parser("cfl", help="bisect a time-step limit")
    p_cfl.add_argument("configuration",
                       choices=["1d-periodic", "1d-sat", "2d-periodic", "2d-sat"])
    p_cfl.add_argument("--n", type=_count, default=32)
    p_cfl.set_defaults(func=cmd_cfl)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return _EXIT_VERIFY
    except StagwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
