"""Command-line surface: payloads, determinism, exit codes, custom bases."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conetorsion
from conetorsion import cli
from conetorsion.basemanifold import circle, custom, torus2
from conetorsion.errors import ConvergenceError, ValidationError
from conetorsion.torsion import (ConeOverS1Config, log_torsion,
                                 nu_continuation_data, theorem_main)
from conetorsion.zetacont import (SpectrumStream, shifted_from_base, zeta_data_exact,
                                  zeta_data_lattice)

import oracles


def run_json(argv):
    text, code = cli.run(argv)
    assert code == 0, text
    return json.loads(text)


def exit_code(argv):
    """Exit code as the console script would report it (stderr captured)."""
    return cli.main(argv)


# ---------------------------------------------------------------------------
# cold start: numpy is loaded only by the layers that need arrays, scipy only
# where a Bessel function is evaluated.
# ---------------------------------------------------------------------------

def _fresh_process(code: str, *args: str) -> list:
    """The JSON value ``code`` prints last, run in a fresh interpreter that
    imports the package from this checkout."""
    src = str(Path(conetorsion.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_ARRAYS = "numpy"
_QUADRATURE = "numpy numpy.polynomial"
_BESSEL = "numpy numpy.polynomial scipy"


def _case(argv, loads, id, status=0):
    return pytest.param(argv, loads, status, id=id)


@pytest.mark.parametrize("argv,loads,status", [
    _case([], "", id="import"),
    _case(["torsion", "disc", "--nu", "2.5", "--radius", "1.5"], "", id="torsion-disc"),
    # the circle's progression route is scalar arithmetic; a refused scale stops before it
    _case(["torsion", "cone", "--base", "s1", "--scale", "3.0"], "", id="torsion-cone-s1"),
    _case(["zeta", "--base", "s1", "--scale", "3", "--degree", "0", "--shift", "0.3"], "",
          id="zeta-s1"),
    _case(["torsion", "cone", "--base", "s1", "--scale", "0.5"], "",
          id="torsion-cone-s1-refused", status=2),
    # the lattice route builds no quadrature
    _case(["torsion", "cone", "--base", "torus2", "--scale", "2"], _ARRAYS,
          id="torsion-cone-torus2"),
    _case(["torsion", "cone", "--base", "torus2", "--scale", "2.885",
           "--lattice", "6.283185307179586,0,2.821150202923634,6.283185307179586"],
          _ARRAYS, id="torsion-cone-torus2-sheared"),
    _case(["torsion", "cone", "--base", "torus2", "--scale", "7"], _QUADRATURE,
          id="torsion-cone-torus2-numeric"),
    _case(["olver", "--order", "5"], "", id="olver"),
    _case(["modeldet", "--nu", "3.83", "--alpha", "1.2"], "", id="modeldet"),
    _case(["modeldet", "--nu", "3.082", "--alpha", "inf"], "", id="modeldet-dirichlet"),
    _case(["modeldet", "--nu", "1.5", "--alpha", "0", "--numeric"], _BESSEL,
          id="modeldet-numeric"),
    _case(["zeros", "--kind", "j", "--nu", "2.0", "--count", "5"], _BESSEL, id="zeros"),
])
def test_fresh_process_loads_scipy_only_for_bessel_zeros(argv, loads, status):
    code = ("import json, sys\n"
            "from conetorsion.cli import main\n"
            "argv = json.loads(sys.argv[1])\n"
            "status = main(argv) if argv else 0\n"
            "print(json.dumps([status] + [m for m in ('numpy', 'numpy.polynomial', 'scipy')\n"
            "                             if m in sys.modules]))")
    assert _fresh_process(code, json.dumps(argv)) == [status, *loads.split()]


@pytest.mark.parametrize("solve", [
    pytest.param("from conetorsion.basemanifold import circle\n"
                 "from conetorsion.torsion import log_torsion\n"
                 "value = log_torsion(circle(3.0)).log_torsion\n", id="library"),
    pytest.param("from conetorsion.cli import run\n"
                 "argv = ['torsion', 'cone', '--base', 's1', '--scale', '3.0']\n"
                 "value = json.loads(run(argv)[0])['log_torsion']\n", id="cli"),
])
def test_fresh_circle_solve_loads_neither_numpy_nor_zetacont(solve):
    # the exact route reads the circle's progression; its listing stream (numpy,
    # zetacont) is built only when something reads it, as this process does
    code = ("import json, sys\n" + solve
            + "print(json.dumps([value, [m for m in ('numpy', 'conetorsion.zetacont')\n"
              "                          if m in sys.modules]]))")
    value, loaded = _fresh_process(code)
    assert loaded == []
    assert value == log_torsion(circle(3.0)).log_torsion


def test_fresh_cli_import_loads_neither_numpy_nor_the_battery():
    # the battery stays reachable as a module attribute, loaded on first read
    code = ("import json, sys\n"
            "import conetorsion.cli\n"
            "before = ['numpy' in sys.modules, 'conetorsion.selftest' in sys.modules]\n"
            "from conetorsion.cli import ACCEPTANCE_CHECKS\n"
            "print(json.dumps([before, 'conetorsion.selftest' in sys.modules,\n"
            "                  [name for name, _, _ in ACCEPTANCE_CHECKS]]))")
    before, loaded, names = _fresh_process(code)
    assert before == [False, False] and loaded
    assert names == [name for name, _, _ in cli.ACCEPTANCE_CHECKS]


# ---------------------------------------------------------------------------
# torsion disc / cone.
# ---------------------------------------------------------------------------

def test_disc_command_value():
    payload = run_json(["torsion", "disc", "--nu", "1", "--radius", "1"])
    want = 0.5 * (-math.log(math.pi) - 1.0)
    assert payload["log_torsion"] == pytest.approx(want, abs=1e-15)
    assert payload["source"] == "closed-form"
    assert payload["nu"] == 1.0 and payload["radius"] == 1.0


def test_cone_s1_matches_disc():
    cone = run_json(["torsion", "cone", "--base", "s1", "--scale", "2"])
    disc = run_json(["torsion", "disc", "--nu", "2", "--radius", "1"])
    assert abs(cone["log_torsion"] - disc["log_torsion"]) <= 1e-10
    assert cone["parity"] == "even"
    assert cone["base_id"].startswith("circle")
    assert set(cone["per_degree"].keys()) == {"0"}
    assert cone["error_estimate"] >= 0.0


def test_cone_torus_payload():
    payload = run_json(["torsion", "cone", "--base", "torus2", "--scale", "2"])
    assert payload["parity"] == "odd"
    assert payload["harmonic_term"] == pytest.approx(-0.5 * math.log(3.0),
                                                     abs=1e-15)
    assert payload["error_estimate"] <= 1e-8
    # odd-parity sum runs over k = 0 .. n/2 - 1 = {0} for the torus
    assert set(payload["per_degree"].keys()) == {"0"}


def test_cone_rejects_sub_unit_scale():
    with pytest.raises(ValidationError, match="scaling"):
        cli.run(["torsion", "cone", "--base", "s1", "--scale", "0.5"])
    assert exit_code(["torsion", "cone", "--base", "s1", "--scale", "0.5"]) == 2


def test_cone_lattice_flag():
    square = run_json(["torsion", "cone", "--base", "torus2", "--scale", "2"])
    explicit = run_json(["torsion", "cone", "--base", "torus2", "--scale", "2",
                         "--lattice",
                         "6.283185307179586,0,0,6.283185307179586"])
    assert explicit["log_torsion"] == pytest.approx(square["log_torsion"],
                                                    abs=1e-12)
    # lattice is a torus-only flag
    assert exit_code(["torsion", "cone", "--base", "s1", "--scale", "2",
                      "--lattice", "1,0,0,1"]) == 2


# ---------------------------------------------------------------------------
# zeros.
# ---------------------------------------------------------------------------

def test_zeros_dirichlet():
    payload = run_json(["zeros", "--kind", "j", "--nu", "1", "--count", "5"])
    assert payload["kind"] == "j"
    assert len(payload["zeros"]) == 5
    assert payload["zeros"][0] == pytest.approx(oracles.j_zero(1.0, 1), rel=1e-13)
    assert payload["max_residual"] <= 1e-10
    assert "alpha" not in payload


def test_zeros_mixed_echoes_alpha():
    payload = run_json(["zeros", "--kind", "mixed", "--nu", "2", "--alpha", "1",
                        "--count", "3"])
    assert payload["alpha"] == 1.0
    refined = oracles.mixed_zero_refine(2.0, 1.0, payload["zeros"][0])
    assert payload["zeros"][0] == pytest.approx(refined, rel=1e-12)


def test_zeros_mixed_alpha_nu_zero_is_the_order_zero_jprime_list():
    # alpha = nu = 0 is the alpha = +nu point of the mixed family at nu = 0:
    # 0*J_0 + z*J_0' vanishes where J_0' = -J_1 does
    argv = ["zeros", "--nu", "0", "--count", "12"]
    mixed_argv = argv + ["--kind", "mixed", "--alpha", "0"]
    assert exit_code(mixed_argv) == 0
    mixed = run_json(mixed_argv)
    jprime = run_json(argv + ["--kind", "jprime"])
    assert [z.hex() for z in mixed["zeros"]] == [z.hex() for z in jprime["zeros"]]
    assert mixed["max_residual"] == jprime["max_residual"]
    for k, z in enumerate(mixed["zeros"], start=1):
        assert z == pytest.approx(oracles.j_zero(1.0, k), rel=5e-14)


def test_zeros_alpha_misuse_is_validation_error():
    assert exit_code(["zeros", "--kind", "j", "--nu", "1", "--alpha", "0.5",
                      "--count", "3"]) == 2


# ---------------------------------------------------------------------------
# zeta.
# ---------------------------------------------------------------------------

def test_zeta_exact_circle():
    payload = run_json(["zeta", "--base", "s1", "--scale", "2", "--degree", "0"])
    assert payload["source"] == "closed-form"
    assert payload["deriv0"] == pytest.approx(
        2.0 * (0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)), abs=1e-14)
    assert payload["zeta0"] == -1.0
    assert payload["residues"]["1"] == pytest.approx(1.0, abs=1e-15)
    assert payload["alpha"] == 0.0
    assert payload["error_estimate"] == 0.0


def test_zeta_exact_circle_with_shift():
    payload = run_json(["zeta", "--base", "s1", "--scale", "2", "--degree", "0",
                        "--shift", "0.5"])
    want = 2.0 * (math.log(2.0) * 0.75 + oracles.hurwitz_zeta_prime0(1.25))
    assert payload["shift"]["deriv0_shifted"] == pytest.approx(want, abs=1e-13)
    assert payload["shift"]["error_estimate"] == 0.0


def _torus_listing(tmp_path) -> str:
    """The custom: flag of torus2(2.0)'s export at nu_max = 256, which
    solves on the numeric route."""
    path = tmp_path / "torus2_listing.json"
    path.write_text(json.dumps(torus2(2.0, nu_max=256).as_custom_mapping()), encoding="utf-8")
    return f"custom:{path}"


def test_zeta_numeric_torus_with_shift(tmp_path):
    exact = run_json(["zeta", "--base", "torus2", "--scale", "2",
                      "--degree", "0", "--shift", "0.5"])
    payload = run_json(["zeta", "--base", _torus_listing(tmp_path),
                        "--degree", "0", "--shift", "0.5"])
    assert (exact["source"], payload["source"]) == ("closed-form", "numeric")
    assert payload["alpha"] == 0.5
    assert payload["error_estimate"] <= 1e-8
    assert payload["shift"]["error_estimate"] <= 1e-8
    # frequency-side residues: Res(1) = 0 and Res(2) = pi/2 for the flat
    # square torus at scale 2 (twice the q-side residue at half the index)
    assert payload["residues"]["1"] == pytest.approx(0.0, abs=1e-9)
    assert payload["residues"]["2"] == pytest.approx(math.pi / 2.0, abs=1e-9)
    # both read Res(2) = 2A from the same heat coefficient A of t^-1
    assert exact["residues"] == payload["residues"]
    # the listing's numeric data lie within its estimates of the exact route
    assert abs(payload["deriv0"] - exact["deriv0"]) <= payload["error_estimate"]
    assert (abs(payload["shift"]["deriv0_shifted"] - exact["shift"]["deriv0_shifted"])
            <= payload["shift"]["error_estimate"] + exact["shift"]["error_estimate"])



def _reference_zeta_payload(base, k, shift):
    """The zeta payload assembled with its own exact-versus-numeric branch
    over the degree's frequency set, independently of the cached
    continuation record the command reads."""
    deg = base.coclosed_spectrum(k)
    progression = deg.progression
    a = (base.dim - 1) / 2 - k
    pole_top = max(base.dim, 1)
    if deg.lattice is not None and a != 0.0:
        data = zeta_data_lattice(deg, a)
        source = "closed-form"
        if shift is not None:
            shift_value, shift_error = shifted_from_base(
                SpectrumStream(np.sqrt(deg.values + a * a), deg.mults), data, float(shift))
    elif progression is not None and a == 0.0:
        step, mult = progression
        data = zeta_data_exact(step, mult,
                               alphas=(shift,) if shift is not None else (),
                               pole_range=pole_top)
        source = "closed-form"
        if shift is not None:
            shift_value, shift_error = data.deriv0_shifted[float(shift)], 0.0
    else:
        q_stream = deg.shifted(a * a)
        nu_stream = SpectrumStream(np.sqrt(deg.values + a * a), deg.mults)
        data, _engine = nu_continuation_data(q_stream)
        source = "numeric"
        if shift is not None:
            shift_value, shift_error = shifted_from_base(
                nu_stream, data, float(shift))
    payload = {
        "base_id": base.name,
        "scale": base.scale,
        "dim": base.dim,
        "degree": k,
        "alpha": a,
        "deriv0": data.deriv0,
        "zeta0": data.zeta0,
        "residues": {str(i): data.residues.get(i, 0.0)
                     for i in range(1, pole_top + 1)},
        "error_estimate": data.error_estimate,
        "source": source,
    }
    if shift is not None:
        payload["shift"] = {"alpha": float(shift),
                            "deriv0_shifted": shift_value,
                            "error_estimate": shift_error}
    return payload


@pytest.mark.parametrize("base_flag, build, k, shift", [
    ("s1", circle, 0, None),
    ("s1", circle, 0, 0.0),        # +-alpha_0 = 0 on the circle
    ("s1", circle, 0, 0.5),
    ("torus2", torus2, 0, None),
    ("torus2", torus2, 0, 0.5),    # +alpha_0
    ("torus2", torus2, 0, -0.5),   # -alpha_0
    ("torus2", torus2, 0, -0.3),
    ("torus2", torus2, 1, None),
    ("torus2", torus2, 1, 0.5),    # -alpha_1
    ("torus2", torus2, 1, 0.3),
])
def test_zeta_payload_matches_reference_assembly(base_flag, build, k, shift):
    argv = ["zeta", "--base", base_flag, "--scale", "2", "--degree", str(k)]
    if shift is not None:
        argv += ["--shift", repr(shift)]
    text, code = cli.run(argv)
    assert code == 0
    want = _reference_zeta_payload(build(2.0), k, shift)
    got = json.loads(text)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
    assert text == cli.render_json(want)


# ---------------------------------------------------------------------------
# olver.
# ---------------------------------------------------------------------------

def test_olver_order_two_exact_payload():
    payload = run_json(["olver", "--order", "2"])
    assert payload["order"] == 2 and payload["max_order"] == 12
    d = {row["t_power"]: row["coefficient"] for row in payload["D"]}
    assert d == {2: "1/16", 4: "-3/8", 6: "5/16"}
    m = {row["t_power"]: row["alpha_coefficients"] for row in payload["M"]}
    assert m == {2: ["-3/16", "1/2", "-1/2"],
                 4: ["5/8", "-1/2"],
                 6: ["-7/16"]}


# (bytes, SHA-256) of the default `olver --order r` output with its newline,
# recorded before the D_r/M_r polynomial classes were merged into one
OLVER_BYTES = {
    1: (390, "b7c8c480c642507daae3a9dc2a66f212828bee151b5023978c6d3004ad4b59b4"),
    2: (572, "0f73a921af2d9fa7d4fa0fa5170ba4a44c5ba7df3c967a298ac4b682c0d39902"),
    3: (793, "298bb14fe711cea23c7f9e96bff83ae217a64f8b781c678e66c0b2c16be3b3e0"),
    4: (1005, "06f324feca9d196aeae5fbd7c0e2f37fd8ac77fd5bd4091f1760c440183a113a"),
    5: (1306, "c144370876a7ff7f44059d8ff70c519535fcfc97d07b7ce50b3236b0f5a6992e"),
    6: (1525, "f1d9a1b2f322498835391efcf0437a1c041b16026bd6176b549286af7fbe3c16"),
    7: (1997, "63c714ebb8b06abda3ea34a317032735cf82216a55ba2cb77c2c7ae91a30eaad"),
    8: (2242, "ebcee0b0e7dfe8412ccf0cc98c6d30bda8d5fc68308d2176add4399280630ff4"),
    9: (2855, "b941dda84ca76ed3ced34cca6acf6c23d6cc92d14f4c42178685920a7aae0135"),
    10: (3087, "68e108789d179361973b8a308ee74425daabcaa348d2253332842f4011260335"),
    11: (3992, "6f22e1e65d1943eaf97dc1f72ac6108635d7befd18f2ee3dfbefd59f4626487c"),
    12: (4137, "b2c97f77286fc4c6a1d5d83edb389959cedb1b47a55cfdbcd74ac51d2c8d1423"),
}


@pytest.mark.parametrize("order", sorted(OLVER_BYTES))
def test_olver_output_bytes_are_pinned(order):
    text, code = cli.run(["olver", "--order", str(order)])
    out = (text + "\n").encode()
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (0, *OLVER_BYTES[order])


def test_olver_order_limit():
    assert exit_code(["olver", "--order", "13"]) == 2
    assert exit_code(["olver", "--order", "0"]) == 2


# ---------------------------------------------------------------------------
# modeldet.
# ---------------------------------------------------------------------------

def test_modeldet_closed_only():
    payload = run_json(["modeldet", "--nu", "0.5", "--alpha", "inf"])
    assert payload["log_det"] == pytest.approx(math.log(2.0), abs=1e-14)
    assert payload["alpha"] == "inf"
    assert payload["source"] == "closed-form"
    assert "log_det_numeric" not in payload


def test_modeldet_numeric_dual_route():
    payload = run_json(["modeldet", "--nu", "1.5", "--alpha", "0", "--numeric"])
    assert payload["source"] == "closed-form+numeric"
    assert abs(payload["difference"]) <= 1e-7
    assert abs(payload["difference"]) <= payload["error_estimate"] + 1e-10


def test_modeldet_singular_and_invalid():
    assert exit_code(["modeldet", "--nu", "2", "--alpha", "-2"]) == 2
    assert exit_code(["modeldet", "--nu", "2", "--alpha", "5"]) == 2


# ---------------------------------------------------------------------------
# Output formats and determinism.
# ---------------------------------------------------------------------------

def test_json_output_is_byte_deterministic():
    a, _ = cli.run(["torsion", "cone", "--base", "torus2", "--scale", "2"])
    b, _ = cli.run(["torsion", "cone", "--base", "torus2", "--scale", "2"])
    assert a == b
    c, _ = cli.run(["zeros", "--kind", "j", "--nu", "2.7", "--count", "64"])
    d, _ = cli.run(["zeros", "--kind", "j", "--nu", "2.7", "--count", "64"])
    assert c == d


ONESHOT = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                      / "reference.json").read_text(encoding="utf-8"))["cli_oneshot"]


@pytest.mark.parametrize("entry", ONESHOT, ids=[e["id"] for e in ONESHOT])
def test_default_output_bytes_match_the_benchmark_reference(entry):
    # the benchmark's cli_oneshot workload checks the console bytes of these
    # commands against recorded digests; this pins them in the tests too
    text, code = cli.run(entry["argv"])
    out = (text + "\n").encode()
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
        0, entry["ref"]["bytes"], entry["ref"]["sha256"])


def test_json_floats_round_trip():
    text, code = cli.run(["torsion", "disc", "--nu", "3", "--radius", "2"])
    assert code == 0
    payload = json.loads(text)
    direct = theorem_main(ConeOverS1Config(radius=2.0, nu_angle=3.0))
    # '%.17g' serialization is lossless for doubles
    assert payload["log_torsion"] == direct


def test_json_keys_are_sorted():
    text, _ = cli.run(["torsion", "cone", "--base", "s1", "--scale", "2"])
    payload = json.loads(text)
    assert list(payload.keys()) == sorted(payload.keys())


def test_table_format():
    text, code = cli.run(["torsion", "disc", "--nu", "1", "--radius", "1",
                          "--format", "table"])
    assert code == 0
    assert "log_torsion" in text
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)
    text2, code2 = cli.run(["torsion", "cone", "--base", "torus2", "--scale",
                            "2", "--format", "table"])
    assert code2 == 0
    assert "per_degree.0" in text2


def test_tolerance_flag_validation():
    assert exit_code(["torsion", "disc", "--nu", "1", "--radius", "1",
                      "--tolerance", "1e-13"]) == 2
    assert exit_code(["torsion", "disc", "--nu", "1", "--radius", "1",
                      "--tolerance", "1e-3"]) == 2


def test_tight_tolerance_on_numeric_route_exits_3(tmp_path):
    # the torus listing's assembly carries a ~1.8e-9 error estimate:
    # demanding 1e-10 must fail loudly with the convergence exit code
    listing = _torus_listing(tmp_path)
    with pytest.raises(ConvergenceError):
        cli.run(["torsion", "cone", "--base", listing, "--tolerance", "1e-10"])
    assert exit_code(["torsion", "cone", "--base", listing, "--tolerance", "1e-10"]) == 3
    # the lattice route's ~4.3e-14 meets the tightest tolerance
    assert exit_code(["torsion", "cone", "--base", "torus2", "--scale", "2",
                      "--tolerance", "1e-12"]) == 0


def test_format_choices_and_default_tolerance():
    # argparse's choices refuse an unknown format with the usage exit code
    with pytest.raises(SystemExit) as exc:
        cli.run(["zeta", "--base", "s1", "--scale", "2", "--degree", "0",
                 "--format", "yaml"])
    assert exc.value.code == 2
    with pytest.raises(ValidationError,
                       match=r"^tolerance must lie in \[1e-12, 0.0001\], got 1e-13$"):
        cli.run(["zeta", "--base", "s1", "--scale", "2", "--degree", "0",
                 "--tolerance", "1e-13"])
    parser = cli._build_parser()
    for argv in (["torsion", "disc", "--nu", "1", "--radius", "1"],
                 ["zeta", "--base", "s1", "--scale", "2", "--degree", "0"],
                 ["selftest"]):
        assert parser.parse_args(argv).tolerance == 1e-8


# ---------------------------------------------------------------------------
# Custom bases through the CLI.
# ---------------------------------------------------------------------------

def test_custom_base_round_trip(tmp_path):
    blob = circle(2.0).as_custom_mapping()
    path = tmp_path / "circle_listing.json"
    path.write_text(json.dumps(blob))
    payload = run_json(["torsion", "cone", "--base", f"custom:{path}"])
    closed = theorem_main(ConeOverS1Config(radius=1.0, nu_angle=2.0))
    assert payload["error_estimate"] <= 1e-8
    assert abs(payload["log_torsion"] - closed) <= 1e-7
    assert abs(payload["log_torsion"] - closed) <= payload["error_estimate"] + 1e-10


def test_custom_base_rejects_scale_flag(tmp_path):
    blob = circle(2.0).as_custom_mapping()
    path = tmp_path / "circle_listing.json"
    path.write_text(json.dumps(blob))
    assert exit_code(["torsion", "cone", "--base", f"custom:{path}",
                      "--scale", "2"]) == 2


def test_malformed_custom_listing_exits_2(tmp_path, capsys):
    blob = circle(2.0).as_custom_mapping()
    blob["degrees"][0]["k"] = "x"
    path = tmp_path / "bad_listing.json"
    path.write_text(json.dumps(blob))
    assert exit_code(["torsion", "cone", "--base", f"custom:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree entry 'k' must be an integer")
    assert "Traceback" not in err


def test_sparse_custom_listing_fails_honestly(tmp_path, capsys):
    # a short torus listing (largest eigenvalue ~4096) cannot support the
    # heat fit; the refusal states the largest eigenvalue the fit needs
    blob = torus2(2.0).as_custom_mapping()
    with pytest.raises(ConvergenceError, match="at least 45000"):
        log_torsion(custom(blob))
    path = tmp_path / "torus_listing.json"
    path.write_text(json.dumps(blob))
    assert exit_code(["torsion", "cone", "--base", f"custom:{path}"]) == 3
    assert "at least 45000" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# main() wrapper.
# ---------------------------------------------------------------------------

def test_main_exit_codes_and_streams(capsys):
    assert cli.main(["torsion", "disc", "--nu", "1", "--radius", "1"]) == 0
    out = capsys.readouterr()
    json.loads(out.out)
    assert out.err == ""

    assert cli.main(["modeldet", "--nu", "2", "--alpha", "-2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    pytest.param(["torsion", "cone", "--base", "torus2", "--scale", "2",
                  "--lattice", "nan,0,0,1"], "lattice entries must be finite",
                 id="lattice-nan"),
    pytest.param(["torsion", "cone", "--base", "torus2", "--scale", "2",
                  "--lattice", "inf,0,0,1"], "lattice entries must be finite",
                 id="lattice-inf"),
    pytest.param(["torsion", "disc", "--nu", "1", "--radius", "1e200"],
                 "cone length 1e+200 puts the disc area", id="radius-1e200"),
    pytest.param(["torsion", "disc", "--nu", "1", "--radius", "1e-320"],
                 "cone length 1e-320 puts the disc area", id="radius-1e-320"),
    pytest.param(["zeta", "--base", "torus2", "--scale", "2", "--degree", "0",
                  "--shift", "nan"], "shift must be a finite real", id="shift-nan-numeric"),
    pytest.param(["zeta", "--base", "s1", "--scale", "2", "--degree", "0",
                  "--shift", "nan"], "shift must be a finite real", id="shift-nan-exact"),
    pytest.param(["zeta", "--base", "s1", "--scale", "2", "--degree", "0",
                  "--shift=-inf"], "shift must be a finite real", id="shift-inf-exact"),
])
def test_non_finite_inputs_exit_2(argv, message, capsys):
    # these crashed with a traceback, or printed -inf or nan with exit 0
    assert exit_code(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {message}")


def test_selftest_tol_validation():
    assert exit_code(["selftest", "--tol", "1e-3"]) == 2


def test_selftest_tol_is_a_spelling_of_tolerance(monkeypatch):
    # one cheap check keeps this about parsing: both spellings must reach
    # the battery, and its payload, as the same tolerance
    monkeypatch.setattr(cli, "ACCEPTANCE_CHECKS", tuple(
        row for row in cli.ACCEPTANCE_CHECKS if row[0] == "harmonic-sector"))
    short, _ = cli.run(["selftest", "--tol", "1e-6"])
    spelled_out, _ = cli.run(["selftest", "--tolerance", "1e-6"])
    assert short == spelled_out
    payload = json.loads(spelled_out)
    assert payload["tolerance"] == 1e-6
    # run_selftest reads the battery through the module, so the patch is what ran
    assert [row["check"] for row in payload["checks"]] == ["harmonic-sector"]
    assert exit_code(["selftest", "--tolerance", "1e-3"]) == 2
