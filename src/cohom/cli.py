"""Command-line front end.

Exit codes: 0 success, 1 malformed input (with a field diagnostic),
2 mathematical invariant violation (message names the violated law) or
a failed selftest.  JSON reports are canonical (sorted keys, no volatile
fields) so identical inputs produce byte-identical output; `main` adds
the schema version and the subcommand to each.  Wall-clock timing is
shown only in table mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .exact import CohomError, rat_to_str

SCHEMA_VERSION = "1"


class InputError(Exception):
    """Malformed file or argument; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as InputError (exit 1), keeping exit 2 for violated laws."""

    def error(self, message):
        raise InputError(message)


def _load_json(path: str) -> dict:
    """The JSON object in the file, read as UTF-8 (RFC 8259 section 8.1) whatever the locale."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: invalid JSON ({e.msg})")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")
    if not isinstance(data, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    return data


def _rep_listing(report) -> list:
    out = []
    for section in report.representatives:
        degree_reps: list = [[] for _ in range(section.domain.dim)]
        for lab, row in zip(section.codomain.labels, section.rows):
            for j, c in row:
                degree_reps[j].append([str(lab), rat_to_str(c)])
        out.append(degree_reps)
    return out


def _print_report(report: dict, fmt: str, elapsed: float, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {elapsed * 1000:.1f} ms")


def _gen_name(I) -> str:
    return "1" if not I else "w_" + "".join(str(i) for i in I)


def _dims_line(name: str, dims) -> str:
    return f"{name}: " + " ".join(str(d) for d in dims)


def cmd_complex(args) -> tuple[dict, list[str]]:
    from .complexes import cohomology, complex_from_json

    data = _load_json(args.file)
    cx = complex_from_json(data)
    rep = cohomology(cx)
    report = {
        "lo": cx.lo,
        "hi": cx.hi,
        "space_dims": list(cx.dims()),
        "cohomology_dims": list(rep.dims),
        "representatives": _rep_listing(rep),
    }
    lines = [
        f"cochain complex, degrees {cx.lo}..{cx.hi}",
        _dims_line("space dims", cx.dims()),
        _dims_line("cohomology", rep.dims),
    ]
    return report, lines


def cmd_cech(args) -> tuple[dict, list[str]]:
    from .cech import cech_complex, cover_from_json
    from .complexes import cohomology

    nerve, sheaf = cover_from_json(_load_json(args.file))
    cx = cech_complex(nerve, sheaf)
    rep = cohomology(cx)
    report = {
        "opens": nerve.opens,
        "cochain_dims": list(cx.dims()),
        "cohomology_dims": list(rep.dims),
        "representatives": _rep_listing(rep),
    }
    lines = [
        f"cover with {nerve.opens} opens, nerve dimension {nerve.max_dim}",
        _dims_line("Cech cochain dims", cx.dims()),
        _dims_line("Cech cohomology", rep.dims),
    ]
    return report, lines


def cmd_hyper(args) -> tuple[dict, list[str]]:
    from .cech import cech_hyper, hyper_from_json
    from .spectral import page_to_json

    nerve, sheaves, level_maps = hyper_from_json(_load_json(args.file))
    res = cech_hyper(nerve, sheaves, level_maps)
    cert = res.certificate
    report = {
        "P": res.double.P,
        "Q": res.double.Q,
        "total_dims": list(res.dims),
        "first_pages": [page_to_json(p) for p in res.first],
        "second_pages": [page_to_json(p) for p in res.second],
        "degeneration": {"first": cert.first_degeneration,
                         "second": cert.second_degeneration},
    }
    lines = [
        f"Cech-sheaf double complex, P={res.double.P}, Q={res.double.Q}",
        _dims_line("hypercohomology", res.dims),
        f"degeneration pages: first filtration {cert.first_degeneration}, "
        f"second filtration {cert.second_degeneration}",
    ]
    return report, lines


def cmd_spectral(args) -> tuple[dict, list[str]]:
    from .grid import double_complex_from_json
    from .spectral import first_pages, page_to_json, second_pages

    dc = double_complex_from_json(_load_json(args.file))
    if not 1 <= args.pages <= dc.P + dc.Q + 2:
        raise InputError(f"--pages must be in 1..{dc.P + dc.Q + 2}, got {args.pages}")
    pages_fn = first_pages if args.filtration == "first" else second_pages
    pages = pages_fn(dc, args.pages)
    report = {"filtration": args.filtration, "pages": [page_to_json(p) for p in pages]}
    lines = [f"{args.filtration} filtration, pages 1..{args.pages}"]
    for p in pages:
        nonzero = {f"({a},{b})": d for (a, b), d in sorted(p.dims().items())}
        lines.append(f"E_{p.r}: {nonzero if nonzero else '0'}")
    return report, lines


def cmd_derham(args) -> tuple[dict, list[str]]:
    from .forms import (TorusSpec, check_closed, check_window_budget, derham_cohomology,
                        form_to_text, log_representative, parse_form)

    try:
        spec = TorusSpec(args.n, args.invert, args.window)
        check_window_budget(spec)
    except ValueError as e:
        raise InputError(str(e))
    rep = derham_cohomology(spec)
    report = {
        "n": spec.n,
        "invert": spec.k,
        "window": spec.window,
        "dims": list(rep.dims),
        "generators": [[_gen_name(I) for I in gens] for gens in rep.generators],
    }
    lines = [
        f"torus de Rham model: n={spec.n}, inverted={spec.k}, window={spec.window}",
        _dims_line("cohomology dims", rep.dims),
    ]
    if args.reduce is not None:
        # a bad form is input error; only a failure inside the reduction exits 2
        try:
            phi = parse_form(args.reduce, spec.n)
            check_closed(phi, spec)
        except (ValueError, CohomError) as e:
            raise InputError(f"--reduce: {e}")
        found, xi = log_representative(phi, spec)
        coeffs = sorted(found.items())
        report["reduce"] = {
            "input": form_to_text(phi),
            "log_coefficients": [{"I": list(I), "c": rat_to_str(c)} for I, c in coeffs],
            "witness": form_to_text(xi),
        }
        lines.append(f"reduce {form_to_text(phi)}:")
        lines.append(f"  log coefficients: "
                     + (", ".join(f"{_gen_name(I)} -> {rat_to_str(c)}"
                                  for I, c in coeffs) or "all 0"))
        lines.append(f"  exactness witness: {form_to_text(xi)}")
    return report, lines


def cmd_preset(args) -> tuple[dict, list[str]]:
    from .cech import cech_complex
    from .complexes import cohomology
    from .presets import _W_DEFAULT, build_circle, check_p1_window, p1_report, torus_report

    name = args.name
    if args.window is not None and name != "p1":
        raise InputError(f"--window applies to the p1 preset only, not {name!r}")
    if name == "circle":
        nerve, sheaf = build_circle()
        rep = cohomology(cech_complex(nerve, sheaf))
        report = {"name": "circle", "dims": list(rep.dims)}
        lines = [_dims_line("circle Cech cohomology", rep.dims)]
        return report, lines
    if name.startswith("torus:"):
        try:
            k, n = (int(x) for x in name[len("torus:"):].split(","))
        except ValueError:
            raise InputError("torus preset syntax: torus:k,n")
        tr = torus_report(k, n)
        report = {
            "name": "torus",
            "k": k,
            "n": n,
            "dims": list(tr.derham_dims),
            "hyper_dims": list(tr.hyper_dims),
            "generators": [[_gen_name(I) for I in gens]
                           for gens in tr.log_generators],
        }
        lines = [
            _dims_line(f"torus({k},{n}) de Rham dims", tr.derham_dims),
            _dims_line("trivial-cover hypercohomology", tr.hyper_dims),
        ]
        return report, lines
    if name == "p1":
        window = _W_DEFAULT if args.window is None else args.window
        check_p1_window(window)
        pr = p1_report(window)
        report = {
            "name": "p1",
            "window": pr.window,
            "dims": list(pr.dims),
            "e1_second": [{"p": p, "q": q, "dim": d}
                          for (p, q), d in sorted(pr.e1_second.items())],
            "h2_representative": pr.h2_representative,
        }
        lines = [
            _dims_line(f"p1 hypercohomology (window {pr.window}, stable)", pr.dims),
            "E_1 of the second spectral sequence: "
            + ", ".join(f"({p},{q})={d}" for (p, q), d in sorted(pr.e1_second.items()) if d),
            f"H^2 generator: {pr.h2_representative}",
        ]
        return report, lines
    raise InputError(f"unknown preset {name!r} (expected circle | torus:k,n | p1)")


def cmd_selftest(args) -> tuple[dict, list[str]]:
    import random

    from .cech import cech_complex
    from .complexes import cohomology
    from .forms import TorusSpec, derham_cohomology
    from .generators import (
        nonzero_d2_double_complex,
        random_cochain_complex,
        random_function_sheaf,
        random_tensor_double_complex,
        random_tensor_triple_complex,
    )
    from .grid import total, totals_agree
    from .spectral import certify_convergence

    rng = random.Random(args.seed)
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append({"name": name, "ok": True})
        except Exception as e:  # noqa: BLE001 - report, do not crash
            checks.append({"name": name, "ok": False, "error": str(e)})

    def complexes_check():
        for _ in range(10):
            cx, h = random_cochain_complex(rng)
            assert cohomology(cx).dims == h

    def cech_check():
        for _ in range(10):
            sheaf = random_function_sheaf(rng)
            cech_complex(sheaf.nerve, sheaf)  # checks delta^2 = 0 when built

    def tensor_check():
        for _ in range(5):
            dc, a, b, ha, hb = random_tensor_double_complex(rng)
            ht = cohomology(total(dc)).dims
            for deg in range(len(ht)):
                expect = sum(ha[p] * hb[deg - p] for p in range(len(ha))
                             if 0 <= deg - p < len(hb))
                assert ht[deg] == expect

    def triple_check():
        for _ in range(5):
            assert totals_agree(random_tensor_triple_complex(rng)).agree

    def spectral_check():
        certify_convergence(nonzero_d2_double_complex())

    def derham_check():
        assert derham_cohomology(TorusSpec(2, 2, 4)).dims == (1, 2, 1)

    check("random complexes have expected cohomology", complexes_check)
    check("Cech coboundary squares to zero", cech_check)
    check("tensor totals match the product formula", tensor_check)
    check("triple-complex flattenings share one total", triple_check)
    check("spectral convergence certificate", spectral_check)
    check("torus de Rham dims", derham_check)

    report = {"seed": args.seed, "checks": checks, "ok": all(c["ok"] for c in checks)}
    lines = [("PASS " if c["ok"] else "FAIL ") + c["name"] for c in checks]
    return report, lines


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")

    parser = _Parser(
        prog="cohom",
        description="Exact rational cohomology engine",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("complex", parents=[common],
                       help="cohomology of a cochain complex from JSON")
    p.add_argument("file")
    p.set_defaults(fn=cmd_complex)

    p = sub.add_parser("cech", parents=[common],
                       help="Cech cohomology of a cover from JSON")
    p.add_argument("file")
    p.set_defaults(fn=cmd_cech)

    p = sub.add_parser("hyper", parents=[common],
                       help="Cech hypercohomology of a complex of sheaves")
    p.add_argument("file")
    p.set_defaults(fn=cmd_hyper)

    p = sub.add_parser("spectral", parents=[common],
                       help="spectral pages of a double complex")
    p.add_argument("file")
    p.add_argument("--pages", type=int, default=2)
    p.add_argument("--filtration", choices=("first", "second"), default="first")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("derham", parents=[common],
                       help="algebraic de Rham cohomology of a torus model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--invert", type=int, required=True)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--reduce", default=None, metavar="FORM")
    p.set_defaults(fn=cmd_derham)

    p = sub.add_parser("preset", parents=[common],
                       help="landmark examples: circle | torus:k,n | p1")
    p.add_argument("name")
    p.add_argument("--window", type=int, default=None, help="p1 only (default 4)")
    p.set_defaults(fn=cmd_preset)

    p = sub.add_parser("selftest", parents=[common],
                       help="generator-backed self checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    start = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        report, lines = args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CohomError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as e:
        # schema-level problems from the JSON loaders
        print(f"error: malformed input: {e}", file=sys.stderr)
        return 1
    report = {"schema_version": SCHEMA_VERSION, "command": args.subcommand, **report}
    _print_report(report, args.format, time.monotonic() - start, lines)
    return 0 if report.get("ok", True) else 2  # a failed selftest exits 2


if __name__ == "__main__":
    sys.exit(main())
