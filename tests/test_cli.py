"""Batch CLI: subcommands, output format, exit codes."""

import io
import math
import time
import warnings

import numpy as np
import pytest

import tnq
from tnq import channels as cx, cli, tensor as tz

rng = np.random.default_rng(37)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_kv(text):
    pairs = {}
    for line in text.splitlines():
        name, _, value = line.partition(" = ")
        pairs[name] = value
    return pairs


def test_sat_count(tmp_path):
    p = tmp_path / "f.cnf"
    p.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    code, out, err = run_cli(["sat", "count", str(p)])
    assert code == 0 and err == ""
    assert parse_kv(out)["count"] == "4"


def test_sat_parse_error_exit_code(tmp_path):
    p = tmp_path / "bad.cnf"
    p.write_text("p cnf 2 1\n1 z 0\n")
    code, out, err = run_cli(["sat", "count", str(p)])
    assert code == 2
    assert "bad-token" in err


def test_sat_count_wide_clause_is_input_error(tmp_path):
    # a 40-literal clause needs 2^40 entries: refused before allocation
    p = tmp_path / "wide.cnf"
    p.write_text("p cnf 40 1\n" + " ".join(map(str, range(1, 41))) + " 0\n")
    code, out, err = run_cli(["sat", "count", str(p)])
    assert code == 2 and out == ""
    assert "clause with 40 legs and 1099511627776 entries exceeds cap" in err


def test_sat_count_past_float_exactness_is_exact(tmp_path):
    # chains of (x_i or x_i+1) have F(n + 2) models
    for n, want in ((54, "225851433717"), (80, "61305790721611591")):
        p = tmp_path / f"chain{n}.cnf"
        p.write_text(f"p cnf {n} {n - 1}\n"
                     + "".join(f"{i} {i + 1} 0\n" for i in range(1, n)))
        code, out, err = run_cli(["sat", "count", str(p)])
        assert code == 0 and err == ""
        assert parse_kv(out)["count"] == want


def test_sat_count_variable_cap(tmp_path):
    huge = tmp_path / "huge.cnf"
    huge.write_text("p cnf 100000000 1\n1 0\n")
    start = time.perf_counter()
    code, out, err = run_cli(["sat", "count", str(huge)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error [bad-header] (line 1)")
    # at the cap, 2^(n - 1) models print in full
    n = tnq.boolean.DIMACS_MAX_VARS
    at_cap = tmp_path / "at_cap.cnf"
    at_cap.write_text(f"p cnf {n} 1\n1 0\n")
    code, out, err = run_cli(["sat", "count", str(at_cap)])
    assert code == 0 and parse_kv(out)["count"] == str(2**(n - 1))


def test_out_of_memory_is_input_error(tmp_path, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(tnq.boolean, "count_sat", no_memory)
    p = tmp_path / "f.cnf"
    p.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    code, out, err = run_cli(["sat", "count", str(p)])
    assert code == 2 and out == ""
    assert err == "input error: out of memory\n"


def test_missing_file_is_usage_error():
    code, _, err = run_cli(["sat", "count", "/nonexistent/f.cnf"])
    assert code == 1


def test_coloring(tmp_path):
    p = tmp_path / "theta.txt"
    p.write_text("0 1\n0 1\n0 1\n")
    code, out, _ = run_cli(["coloring", str(p)])
    assert code == 0
    assert abs(int(parse_kv(out)["K"])) == 6
    code, out, _ = run_cli(["coloring", str(p), "--oracle"])
    assert code == 0
    assert parse_kv(out)["K"] == "6"


def test_coloring_empty_graph(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    for extra in ([], ["--oracle"]):
        code, out, err = run_cli(["coloring", str(p)] + extra)
        assert (code, out, err) == (0, "K = 1\n", "")


def test_coloring_non_cubic_exit_code(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 1\n")
    code, _, err = run_cli(["coloring", str(p)])
    assert code == 2


@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_coloring_huge_node_id_is_input_error(tmp_path, monkeypatch, extra):
    p = tmp_path / "far.txt"
    p.write_text("0 3000000000\n")

    def no_degrees(self):
        raise AssertionError("degree list built before the edge count check")

    monkeypatch.setattr(tnq.counting.ColorGraph, "degrees", no_degrees)
    code, out, err = run_cli(["coloring", str(p)] + extra)
    assert (code, out) == (2, "")
    assert "not 3-regular" in err


@pytest.mark.parametrize("seed", [0, 1])
def test_coloring_over_cap_plan_fails_before_any_kernel(tmp_path, monkeypatch,
                                                        seed):
    # the greedy plans for these graphs reach 3^17-3^18 entries; the
    # whole plan is checked first, so tnq exits 2 without running a step
    nx = pytest.importorskip("networkx")
    g = nx.random_regular_graph(3, 80, seed)
    p = tmp_path / "cubic80.txt"
    p.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    calls = []
    for name in ("_dot", "_reduce"):
        monkeypatch.setattr(tz, name, lambda *a, _n=name: calls.append(_n))
    start = time.perf_counter()
    code, out, err = run_cli(["coloring", str(p)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "exceeds cap" in err
    assert calls == []


def test_coloring_prism_past_float_exactness(tmp_path):
    m = 64
    edges = [e for i in range(m) for e in ((i, (i + 1) % m),
                                           (m + i, m + (i + 1) % m),
                                           (i, m + i))]
    p = tmp_path / "prism128.txt"
    p.write_text("".join(f"{u} {v}\n" for u, v in edges))
    code, out, _ = run_cli(["coloring", str(p)])
    assert code == 0
    assert abs(int(parse_kv(out)["K"])) == 2**64 + 8


def test_channel_convert_and_check(tmp_path):
    ch = cx.amplitude_damping_channel(0.3)
    src = tmp_path / "ad.chx"
    dst = tmp_path / "ad_choi.chx"
    src.write_text(cx.write_chx(ch))
    code, out, _ = run_cli(["channel", "convert", "--from", "kraus",
                            "--to", "choi", "--in", str(src),
                            "--out", str(dst)])
    assert code == 0
    assert parse_kv(out)["rep"] == "choi"
    back = cx.read_chx(dst.read_text())
    want = cx.convert(ch, "choi").matrix()
    np.testing.assert_allclose(back.matrix(), want, atol=1e-10)

    code, out, _ = run_cli(["channel", "check", "--in", str(dst)])
    assert code == 0
    kv = parse_kv(out)
    assert kv["CP"] == "true" and kv["TP"] == "true"
    assert kv["unital"] == "false"


def test_channel_convert_rep_mismatch(tmp_path):
    ch = cx.amplitude_damping_channel(0.3)
    src = tmp_path / "ad.chx"
    src.write_text(cx.write_chx(ch))
    code, _, err = run_cli(["channel", "convert", "--from", "choi",
                            "--to", "kraus", "--in", str(src),
                            "--out", str(src) + ".out"])
    assert code == 2


def test_channel_convert_pauli_basis(tmp_path):
    ch = cx.unitary_channel(np.eye(2))
    src = tmp_path / "id.chx"
    dst = tmp_path / "id_chi.chx"
    src.write_text(cx.write_chx(ch))
    code, out, _ = run_cli(["channel", "convert", "--from", "kraus",
                            "--to", "chi", "--in", str(src),
                            "--out", str(dst)])
    assert code == 0
    chi = cx.read_chx(dst.read_text(), basis=cx.pauli_basis())
    np.testing.assert_allclose(chi.matrix()[0, 0], 2.0, atol=1e-10)


def test_mps_factor(tmp_path):
    ghz = tnq.standard_tensor("GHZ", 4, normalized=True)
    src = tmp_path / "ghz.tntx"
    src.write_text(tz.write_tntx(ghz))
    outdir = tmp_path / "mps"
    code, out, _ = run_cli(["mps", "factor", "--in", str(src),
                            "--out", str(outdir)])
    assert code == 0
    kv = parse_kv(out)
    assert kv["sites"] == "4"
    assert kv["chi_0"] == "2" and kv["chi_1"] == "2" and kv["chi_2"] == "2"
    from tnq import decomp
    back = decomp.mps_contract(decomp.load_mps(outdir))
    np.testing.assert_allclose(back.data, ghz.data, atol=1e-10)


def test_mps_factor_truncate(tmp_path):
    ghz = tnq.standard_tensor("GHZ", 3, normalized=True)
    src = tmp_path / "ghz.tntx"
    src.write_text(tz.write_tntx(ghz))
    code, out, _ = run_cli(["mps", "factor", "--in", str(src),
                            "--out", str(tmp_path / "m"), "--truncate", "1"])
    assert code == 0
    kv = parse_kv(out)
    assert kv["chi_0"] == "1"
    code, _, err = run_cli(["mps", "factor", "--in", str(src),
                            "--out", str(tmp_path / "m2"),
                            "--truncate", "0"])
    assert code == 1


@pytest.mark.parametrize("where", ["existing file", "under a file",
                                   "empty path"])
def test_mps_factor_unwritable_out_is_usage_error(tmp_path, where):
    src = tmp_path / "ghz.tntx"
    src.write_text(tz.write_tntx(tnq.standard_tensor("GHZ", 3)))
    blocker = tmp_path / "taken"
    blocker.write_text("x")
    outdir = {"existing file": str(blocker),
              "under a file": str(blocker / "mps"),
              "empty path": ""}[where]
    code, out, err = run_cli(["mps", "factor", "--in", str(src),
                              "--out", outdir])
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: cannot write {outdir}")
    assert blocker.read_text() == "x"


def test_invariants_on_rank_deficient_state(tmp_path):
    ghz = tnq.standard_tensor("GHZ", 5, normalized=True)
    src = tmp_path / "ghz.tntx"
    src.write_text(tz.write_tntx(ghz))
    code, out, _ = run_cli(["invariants", "--in", str(src)])
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["entropy"]) == pytest.approx(math.log(2))
    assert kv["chi"] == "2"


def test_invariants_of_a_one_leg_state_is_input_error(tmp_path):
    src = tmp_path / "one.tntx"
    src.write_text("tntx 1\nlegs 1\n2\nd\n0.6 0 0.8 0\n")
    code, out, err = run_cli(["invariants", "--in", str(src)])
    assert (code, out) == (2, "")
    assert err == ("input error: invariants need a state with at least "
                   "two legs\n")


def test_invariants(tmp_path):
    bell = tnq.standard_tensor("BELL", "PHI+", normalized=True)
    src = tmp_path / "bell.tntx"
    src.write_text(tz.write_tntx(bell))
    code, out, _ = run_cli(["invariants", "--in", str(src)])
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["J1"]) == pytest.approx(1.0)
    assert float(kv["J2"]) == pytest.approx(0.5)
    assert float(kv["K1"]) == pytest.approx(1.0)
    assert float(kv["entropy"]) == pytest.approx(math.log(2))
    assert kv["chi"] == "2"


def test_invariants_of_a_product_state_print_no_negative_zero(tmp_path):
    # the entropy of |000> is computed as -0.0 and prints as 0
    src = tmp_path / "zero.tntx"
    src.write_text(tz.write_tntx(tz.state(np.eye(8)[0], (2, 2, 2))))
    code, out, _ = run_cli(["invariants", "--in", str(src)])
    assert code == 0
    assert out == "J1 = 1\nJ2 = 1\nentropy = 0\nchi = 1\n"
    assert cli._fmt(-0.0) == "0" and cli._fmt(np.float64(-0.0)) == "0"
    assert cli._fmt(complex(-0.0, 2.0)) == "0+2j"
    assert cli._fmt(complex(-0.0, -0.0)) == "0"


@pytest.mark.parametrize("n", range(2, 15))
def test_invariants_prints_the_j2_of_invariants_j2(tmp_path, n):
    # J2 is read from the half-cut spectrum, sum sigma^4; it agrees with
    # the Gram form Tr rho_A^2 of invariants.j2, normalized state or not
    gen = np.random.default_rng(n)
    for scale in (1.0, 3.0):
        amps = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
        psi = tz.state(amps / np.linalg.norm(amps) * scale, (2,) * n)
        src = tmp_path / "psi.tntx"
        src.write_text(tz.write_tntx(psi))
        args = cli._PARSER.parse_args(["invariants", "--in", str(src)])
        j2 = dict(args.run(args))["J2"]
        assert j2 == pytest.approx(tnq.invariants.j2(psi), rel=1e-12)
        code, out, _ = run_cli(["invariants", "--in", str(src)])
        assert code == 0 and parse_kv(out)["J2"] == cli._fmt(j2)


def test_fidelity(tmp_path):
    ch = cx.depolarizing_channel(1.0)
    src = tmp_path / "dep.chx"
    src.write_text(cx.write_chx(ch))
    code, out, _ = run_cli(["fidelity", "--in", str(src)])
    assert code == 0
    assert float(parse_kv(out)["avg_gate_fidelity"]) == pytest.approx(0.5)

    rho = tmp_path / "rho.tntx"
    rho.write_text(tz.write_tntx(tz.operator(np.eye(2) / 2)))
    code, out, _ = run_cli(["fidelity", "--in", str(src),
                            "--state", str(rho)])
    assert code == 0
    assert (float(parse_kv(out)["entanglement_fidelity"])
            == pytest.approx(0.25))


@pytest.mark.parametrize("d, identity", [(2, True), (2, False), (3, True),
                                         (3, False), (4, False)])
def test_fidelity_of_a_converted_chi_file_matches_kraus(tmp_path, d,
                                                        identity):
    # a chi file is in default_basis: Pauli for d = 2, matrix units above
    q, _ = np.linalg.qr(rng.normal(size=(2 * d, d))
                        + 1j * rng.normal(size=(2 * d, d)))
    ops = [np.eye(d)] if identity else [q[:d], q[d:]]
    src, dst = tmp_path / "k.chx", tmp_path / "chi.chx"
    src.write_text(cx.write_chx(cx.kraus_channel(ops)))
    code, out, err = run_cli(["channel", "convert", "--from", "kraus",
                              "--to", "chi", "--in", str(src),
                              "--out", str(dst)])
    assert code == 0 and err == ""
    fids = []
    for path in (src, dst):
        code, out, err = run_cli(["fidelity", "--in", str(path)])
        assert code == 0 and err == ""
        fids.append(parse_kv(out)["avg_gate_fidelity"])
    if identity:
        assert fids == ["1", "1"]
    assert float(fids[1]) == pytest.approx(float(fids[0]), abs=1e-11)
    code, out, err = run_cli(["channel", "check", "--in", str(dst)])
    assert (code, err) == (0, "")
    assert parse_kv(out)["CP"] == parse_kv(out)["TP"] == "true"


@pytest.mark.parametrize("argv", [
    ["channel", "check"], ["fidelity"],
    ["channel", "convert", "--from", "kraus", "--to", "stinespring"],
    ["channel", "convert", "--from", "kraus", "--to", "chi"],
])
def test_overflow_in_a_channel_computation_is_numerical_failure(tmp_path,
                                                                argv):
    # finite Kraus entries whose Choi matrix and |Tr K|^2 overflow; no
    # NumPy RuntimeWarning may reach stderr on the way
    src = tmp_path / "big.chx"
    src.write_text("chx 1 kraus 2 2 1\n1e200 0 0 0 0 0 1e200 0\n")
    argv = argv + ["--in", str(src)]
    if "convert" in argv:
        argv += ["--out", str(tmp_path / "out.chx")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["channel", "convert", "--from", "choi", "--to", "kraus"],
    ["channel", "convert", "--from", "choi", "--to", "stinespring"],
    ["channel", "check"],
])
def test_overflowing_eigendecomposition_is_numerical_failure(tmp_path, argv):
    # a Choi matrix of 1e308 entries has an inf eigenvalue; a Kraus
    # threshold scaled by it would drop every operator
    src = tmp_path / "huge.chx"
    src.write_text("chx 1 choi 2 2\n" + " ".join(["1e308 0"] * 16) + "\n")
    dst = tmp_path / "out.chx"
    argv = argv + ["--in", str(src)]
    if "convert" in argv:
        argv += ["--out", str(dst)]
    code, out, err = run_cli(argv)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure") and not dst.exists()


def test_overflowing_mps_factor_is_numerical_failure(tmp_path):
    # finite entries whose first QR factor overflows: not bad input (2)
    src = tmp_path / "huge.tntx"
    src.write_text(tz.write_tntx(tz.state(np.full((2,) * 4, 1e308))))
    outdir = tmp_path / "mps"
    code, out, err = run_cli(["mps", "factor", "--in", str(src),
                              "--out", str(outdir)])
    assert code == 3 and out == ""
    assert err.startswith("numerical failure") and not outdir.exists()


def test_overflowing_invariants_are_numerical_failure(tmp_path):
    src = tmp_path / "big.tntx"
    src.write_text(tz.write_tntx(tz.Tensor(np.full((2, 2), 1e300), "dd")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["invariants", "--in", str(src)])
    assert code == 3 and out == ""
    assert err == "numerical failure: J1 is inf: the input overflows\n"


def test_fidelity_overflow_is_numerical_failure(tmp_path):
    # finite entries whose |Tr K|^2 overflows float64
    src = tmp_path / "big.chx"
    src.write_text("chx 1 kraus 2 2 1\n1e154 0 0 0 0 0 1e154 0\n")
    code, out, err = run_cli(["fidelity", "--in", str(src)])
    assert code == 3 and out == ""
    assert err.startswith("numerical failure")
    # entanglement fidelity overflows on a finite state the same way
    one = tmp_path / "one.chx"
    one.write_text(cx.write_chx(cx.unitary_channel(np.eye(2))))
    rho = tmp_path / "rho.tntx"
    rho.write_text(tz.write_tntx(tz.operator(np.eye(2) * 1e160)))
    code, out, err = run_cli(["fidelity", "--in", str(one),
                              "--state", str(rho)])
    assert code == 3 and out == ""
    assert "entanglement fidelity" in err


@pytest.mark.parametrize("state", [np.eye(3) / 3, np.ones(4) / 2])
def test_fidelity_wrong_size_state_is_input_error(tmp_path, state):
    src = tmp_path / "id.chx"
    src.write_text(cx.write_chx(cx.unitary_channel(np.eye(2))))
    rho = tmp_path / "rho.tntx"
    rho.write_text(tz.write_tntx(tz.Tensor(state, [tz.DOWN] * state.ndim)))
    code, out, err = run_cli(["fidelity", "--in", str(src),
                              "--state", str(rho)])
    assert code == 2 and out == ""
    assert err.startswith("input error")


@pytest.mark.parametrize("argv", [
    ["sat", "count", "f\x00.cnf"],
    ["channel", "convert", "--from", "kraus", "--to", "choi", "--in", "{src}",
     "--out", "out\x00.chx"],
    ["mps", "factor", "--in", "{psi}", "--out", "mps\x00"],
])
def test_nul_in_a_path_is_usage_error(tmp_path, argv):
    src = tmp_path / "ad.chx"
    src.write_text(cx.write_chx(cx.amplitude_damping_channel(0.3)))
    psi = tmp_path / "psi.tntx"
    psi.write_text(tz.write_tntx(tz.state(np.ones(4), (2, 2))))
    code, out, err = run_cli([a.format(src=src, psi=psi) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("usage error: cannot ")


def test_unknown_subcommand_usage_error():
    code, _, err = run_cli(["frobnicate"])
    assert code == 1
    assert err != ""


def test_oversized_tntx_header_is_input_error(tmp_path):
    src = tmp_path / "huge.tntx"
    src.write_text("tntx 1\nlegs 2\n1000000 1000000\nd d\n")
    code, out, err = run_cli(["invariants", "--in", str(src)])
    assert code == 2 and out == ""
    assert ("declared block with 2 legs and 1000000000000 entries exceeds "
            "cap") in err


@pytest.mark.parametrize("header", [
    "chx 1 kraus 2 2 x",
    "chx 1 kraus 2 2 0",
    "chx 1 stinespring 2 2 y",
    "chx 1 stinespring 2 2 0",
    "chx 1 superop 100000 100000",
    "chx 1 kraus 2 2 1000000000000000",
])
def test_chx_bad_header_is_input_error(tmp_path, header):
    src = tmp_path / "bad.chx"
    src.write_text(header + "\n")
    code, out, err = run_cli(["channel", "check", "--in", str(src)])
    assert code == 2 and out == ""
    assert err.startswith(("parse error", "input error"))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["channel", "check"],
    ["channel", "convert", "--from", "kraus", "--to", "chi"],
    ["fidelity"],
])
def test_chx_nonfinite_entry_is_input_error(tmp_path, bad, argv):
    src = tmp_path / "bad.chx"
    src.write_text(f"chx 1 kraus 2 2 1\n1 0 0 0 0 0 {bad} 0\n")
    dst = tmp_path / "out.chx"
    extra = ["--out", str(dst)] if "convert" in argv else []
    code, out, err = run_cli(argv + ["--in", str(src)] + extra)
    assert code == 2 and out == ""
    assert err.startswith("input error") and "finite" in err
    assert not dst.exists()


@pytest.mark.parametrize("basis", ["pauli", "elem"])
def test_basis_option_is_a_usage_error(tmp_path, basis):
    # a chi file records no basis: every one is written in default_basis
    src, dst = tmp_path / "ad.chx", tmp_path / "chi.chx"
    src.write_text(cx.write_chx(cx.amplitude_damping_channel(0.3)))
    code, out, err = run_cli(["channel", "convert", "--from", "kraus",
                              "--to", "chi", "--in", str(src),
                              "--out", str(dst), "--basis", basis])
    assert code == 1 and out == ""
    assert err.startswith("usage error")
    assert not dst.exists()


def test_tol_option_is_a_usage_error(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 1\n0 1\n0 1\n")
    code, out, err = run_cli(["--tol", "5", "coloring", str(g)])
    assert code == 1 and out == ""
    assert err.startswith("usage error")


def test_output_format_significant_digits(tmp_path):
    # values print as plain `name = value` with 12 significant digits
    bell = tnq.standard_tensor("BELL", "PHI+", normalized=True)
    src = tmp_path / "bell.tntx"
    src.write_text(tz.write_tntx(bell))
    _, out, _ = run_cli(["invariants", "--in", str(src)])
    line = [l for l in out.splitlines() if l.startswith("entropy")][0]
    assert line == f"entropy = {math.log(2):.12g}"


# ------------------------------------------------- one parser per process

CNF = "p cnf 3 2\n1 2 0\n-1 3 0\n"


def test_help_is_written_to_out_and_returns_zero(capsys):
    for argv, usage in ((["--help"], "usage: tnq [-h]"),
                        (["-h"], "usage: tnq [-h]"),
                        (["sat", "count", "-h"], "usage: tnq sat count"),
                        (["channel", "convert", "--help"],
                         "usage: tnq channel convert")):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage) and "show this help" in out
    assert capsys.readouterr() == ("", "")      # nothing on sys.stdout


def test_run_never_rebuilds_the_parser(tmp_path, monkeypatch):
    def rebuild():
        raise AssertionError("run built a second parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    cnf = tmp_path / "f.cnf"
    cnf.write_text(CNF)
    theta = tmp_path / "theta.txt"
    theta.write_text("0 1\n0 1\n0 1\n")
    assert run_cli(["sat", "count", str(cnf)]) == (0, "count = 4\n", "")
    assert run_cli(["coloring", str(theta), "--oracle"]) == (0, "K = 6\n", "")


def _fresh_parser_run(monkeypatch, argv):
    """``argv`` on a newly built parser, as in a first run of a process."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_PARSER", cli._build_parser())
        return run_cli(argv)


def test_no_option_leaks_into_the_next_run(tmp_path, monkeypatch):
    psi = tz.state(rng.normal(size=16) + 0j, (2, 2, 2, 2))
    state = tmp_path / "psi.tntx"
    state.write_text(tz.write_tntx(psi))
    factor = ["mps", "factor", "--in", str(state), "--out",
              str(tmp_path / "mps")]
    want = _fresh_parser_run(monkeypatch, factor)
    assert run_cli(factor + ["--truncate", "1"]) != want
    assert run_cli(factor) == want


def test_usage_error_leaves_the_next_run_unchanged(tmp_path, monkeypatch):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(CNF)
    argv = ["sat", "count", str(cnf)]
    want = _fresh_parser_run(monkeypatch, argv)
    for bad in (["sat", "count"], ["sat", "count", str(cnf), "--oracle"],
                ["coloring"], ["sat", "--help"]):
        assert run_cli(bad)[0] in (0, 1)
        assert run_cli(argv) == want == (0, "count = 4\n", "")


def test_channel_check_converts_once(tmp_path, monkeypatch):
    ch = cx.kraus_channel([rng.normal(size=(3, 3)) for _ in range(2)])
    src = tmp_path / "k.chx"
    src.write_text(cx.write_chx(ch))
    convert, reps = cx.convert, []

    def counted(c, target, basis=None):
        if c.rep != target:
            reps.append((c.rep, target))
        return convert(c, target, basis=basis)

    monkeypatch.setattr(cx, "convert", counted)
    code, out, err = run_cli(["channel", "check", "--in", str(src)])
    assert reps == [("kraus", "choi")]
    assert (code, err) == (0, "")
    assert out == "".join(f"{p} = {cli._fmt(cx.check(ch, p)[0])}\n"
                          for p in ("CP", "TP", "HP", "unital"))


def test_failure_after_a_computed_value_leaves_stdout_empty(tmp_path,
                                                            monkeypatch):
    # CP and TP are computed before HP fails; none of them is written
    src = tmp_path / "ad.chx"
    src.write_text(cx.write_chx(cx.amplitude_damping_channel(0.3)))
    check = cx.check

    def failing(ch, prop):
        if prop == "HP":
            raise tnq.NumericalError("HP check failed")
        return check(ch, prop)

    monkeypatch.setattr(cx, "check", failing)
    code, out, err = run_cli(["channel", "check", "--in", str(src)])
    assert (code, out) == (3, "")
    assert err == "numerical failure: HP check failed\n"
