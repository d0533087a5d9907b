"""Batch command-line front end.

Subcommands: sat count, coloring, channel convert/check, mps factor,
invariants, fidelity.  Output is plain text, one `name = value` line per
result with 12 significant digits.  Exit codes: 0 success, 1 usage,
2 parse or input error (out of memory included), 3 numerical failure.
Floating-point overflow and invalid operations print no NumPy warning:
a computation whose result is not finite fails with exit code 3.

``run(argv, out, err)`` is reentrant: the parser is built once per process
and keeps no state between calls, and ``-h``/``--help`` writes the help
to ``out`` and returns 0.
"""

from __future__ import annotations

import argparse
import cmath
import sys

import numpy as np

from . import boolean, channels, counting, decomp, invariants
from . import tensor as tz
from .errors import NumericalError, ParseError, ShapeError, TnqError


class _UsageError(Exception):
    pass


class _Help(Exception):
    """``-h``/``--help`` was given; carries the help text for ``run``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # + 0.0 turns -0.0 into 0.0, so no value prints as -0
    if isinstance(value, complex):
        if abs(value.imag) < 1e-12:
            return _fmt(float(value.real))
        return f"{value.real + 0.0:.12g}{value.imag:+.12g}j"
    return f"{float(value) + 0.0:.12g}"


def _emit_all(out, results):
    """Write ``(name, value)`` lines once no float value is inf or NaN, so
    an overflow leaves stdout empty."""
    for name, value in results:
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise NumericalError(f"{name} is {value}: the input overflows")
    for name, value in results:
        out.write(f"{name} = {_fmt(value)}\n")


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    except (OSError, ValueError) as exc:      # ValueError: a NUL in the path
        raise _UsageError(f"cannot read {path}: {exc}")


def _build_parser():
    parser = _Parser(prog="tnq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sat = sub.add_parser("sat", help="Boolean satisfiability counting")
    sat_sub = sat.add_subparsers(dest="sat_command", required=True)
    sat_count = sat_sub.add_parser("count", help="#SAT of a DIMACS file")
    sat_count.add_argument("cnf")
    sat_count.set_defaults(run=_cmd_sat)

    col = sub.add_parser("coloring", help="count 3-edge-colorings")
    col.add_argument("graph")
    col.add_argument("--oracle", action="store_true",
                     help="use the brute-force enumerator")
    col.set_defaults(run=_cmd_coloring)

    chan = sub.add_parser("channel", help="channel representation tools")
    chan_sub = chan.add_subparsers(dest="channel_command", required=True)
    conv = chan_sub.add_parser("convert")
    conv.add_argument("--from", dest="src_rep", required=True,
                      choices=channels.REPS)
    conv.add_argument("--to", dest="dst_rep", required=True,
                      choices=channels.REPS)
    conv.add_argument("--in", dest="infile", required=True)
    conv.add_argument("--out", dest="outfile", required=True)
    conv.set_defaults(run=_cmd_channel_convert)
    chk = chan_sub.add_parser("check")
    chk.add_argument("--in", dest="infile", required=True)
    chk.set_defaults(run=_cmd_channel_check)

    mps = sub.add_parser("mps", help="matrix product state tools")
    mps_sub = mps.add_subparsers(dest="mps_command", required=True)
    fac = mps_sub.add_parser("factor")
    fac.add_argument("--in", dest="infile", required=True)
    fac.add_argument("--out", dest="outdir", required=True)
    fac.add_argument("--truncate", type=int, default=None)
    fac.set_defaults(run=_cmd_mps)

    inv = sub.add_parser("invariants", help="state invariants")
    inv.add_argument("--in", dest="infile", required=True)
    inv.set_defaults(run=_cmd_invariants)

    fid = sub.add_parser("fidelity", help="channel fidelities")
    fid.add_argument("--in", dest="infile", required=True)
    fid.add_argument("--state", dest="state", default=None)
    fid.set_defaults(run=_cmd_fidelity)

    return parser


def _cmd_sat(args):
    cnf = boolean.parse_dimacs(_read_text(args.cnf))
    return [("count", boolean.count_sat(cnf, engine="tensor"))]


def _cmd_coloring(args):
    g = counting.parse_edgelist(_read_text(args.graph))
    if args.oracle:
        return [("K", counting.count_colorings_bruteforce(g))]
    return [("K", counting.count_colorings_epsilon(g))]


def _cmd_channel_check(args):
    # convert returns a Choi channel as is: one conversion, four checks
    ch = channels.convert(channels.read_chx(_read_text(args.infile)), "choi")
    return [(prop, channels.check(ch, prop)[0])
            for prop in ("CP", "TP", "HP", "unital")]


def _cmd_channel_convert(args):
    ch = channels.read_chx(_read_text(args.infile))
    if ch.rep != args.src_rep:
        raise ParseError(
            f"file holds a {ch.rep} channel, --from says {args.src_rep}",
            code="bad-header",
        )
    # a chi file is written in default_basis, the basis every reader assumes
    converted = channels.convert(ch, args.dst_rep)
    try:
        with open(args.outfile, "w") as fh:
            fh.write(channels.write_chx(converted))
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot write {args.outfile}: {exc}")
    return [("rep", converted.rep)]


def _cmd_mps(args):
    state = tz.read_tntx(_read_text(args.infile))
    if args.truncate is not None and args.truncate < 1:
        raise _UsageError("--truncate must be >= 1")
    m = decomp.mps_factor(state, max_rank=args.truncate)
    try:
        decomp.save_mps(m, args.outdir)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot write {args.outdir}: {exc}")
    return [("sites", len(m.sites))] + [
        (f"chi_{k}", site.dims[-1]) for k, site in enumerate(m.sites[:-1])]


def _cmd_invariants(args):
    state = tz.read_tntx(_read_text(args.infile))
    if state.order < 2:
        raise ShapeError("invariants need a state with at least two legs")
    # J1 = sum sigma^2 and J2 = Tr rho_A^2 = sum sigma^4 of the half cut
    sigma, chi = decomp.schmidt_spectrum(state)
    results = [("J1", decomp.power_sum(sigma, 1)),
               ("J2", decomp.power_sum(sigma, 2))]
    if state.dims == (2, 2):
        results.append(("K1", invariants.k1(state)))
    return results + [("entropy", decomp.entropy(sigma, normalize=True)),
                      ("chi", chi)]


def _cmd_fidelity(args):
    ch = channels.read_chx(_read_text(args.infile))
    results = [("avg_gate_fidelity", channels.avg_gate_fidelity(ch))]
    if args.state is not None:
        rho = tz.read_tntx(_read_text(args.state))
        results.append(("entanglement_fidelity",
                         channels.entanglement_fidelity(ch, rho)))
    return results


# built once per process: parsing keeps no state in the parser
_PARSER = _build_parser()


# one floating-point policy: no RuntimeWarning lines on stderr; a
# non-finite result raises NumericalError where it is computed
@np.errstate(all="ignore")
def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _PARSER.parse_args(argv)
        # every value is computed before the first line is written, so a
        # failure anywhere leaves stdout empty
        _emit_all(out, args.run(args))
        return 0
    except _Help as exc:
        out.write(exc.args[0])
        return 0
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 1
    except ParseError as exc:
        loc = f" (line {exc.line})" if exc.line else ""
        err.write(f"parse error [{exc.code}]{loc}: {exc}\n")
        return 2
    except NumericalError as exc:
        err.write(f"numerical failure: {exc}\n")
        return 3
    except TnqError as exc:
        err.write(f"input error: {exc}\n")
        return 2
    except MemoryError:
        # SIZE_CAP bounds each tensor, not a contraction's working set
        err.write("input error: out of memory\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
