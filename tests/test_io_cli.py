import json
import os
import random
import re
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centersvar
from centersvar import io as cio, linalg, loci
from centersvar.cli import main
from centersvar.datagen import CENTER_KINDS, generate_reconstruction
from centersvar import errors
from centersvar.errors import Inconclusive, InvalidInput, ToolkitError
from centersvar.loci import centers_variety
from centersvar.projective import (Configuration, ProjectivePoint, apply_matrix,
                                   decide_equivalence, pp)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(centersvar.__file__)))


def run_cli(*args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "centersvar.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return proc


def write_config(path, cfg):
    cio.atomic_write_json(str(path), cio.configuration_to_json(cfg))


STD5 = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])


class TestFormats:
    def test_fraction_round_trip(self):
        for f in [Fraction(0), Fraction(-7), Fraction(22, 7), Fraction(-3, 11)]:
            assert cio.parse_fraction(cio.format_fraction(f)) == f

    def test_integer_strings_parse_to_ints_and_round_trip(self):
        big = 2 ** 63 + 12345
        cases = {str(big): big, str(-big): -big, "-7": -7, "+3": 3, " 7 ": 7, "0": 0,
                 "22/7": Fraction(22, 7), " -3 / 12 ": Fraction(-1, 4), f"{big}/1": big}
        for text, value in cases.items():
            parsed = cio.parse_fraction(text)
            assert parsed == value and type(parsed) is (Fraction if "/" in text else int)
            assert cio.format_fraction(parsed) == cio.format_fraction(Fraction(value))
            assert cio.parse_fraction(cio.format_fraction(parsed)) == value
        point = cio.point_from_json([str(big), "-2", "+3", " 7 "])
        assert point == ProjectivePoint([big, -2, 3, 7])
        assert cio.point_to_json(point) == [str(big), "-2", "3", "7"]
        assert cio.parse_inline_point(f"{big}:1/2:-3:0") == ProjectivePoint([2 * big, 1, -6, 0])
        for bad in ("", "1.5", "1e3", "x", "1/0", "1/2/3", "--1", "1 2"):
            with pytest.raises(InvalidInput, match="not a fraction string"):
                cio.parse_fraction(bad)
            with pytest.raises(InvalidInput):
                cio.point_from_json([bad, "1", "0", "0"])
        # each coordinate is read as parse_fraction(str(c)) reads it, JSON
        # numbers and bools included
        coords = json.loads('[" 7 ", "-0", "1_000", "007", "3/6", 5, 2.0, true]')
        read = {" 7 ": 7, "-0": 0, "1_000": 1000, "007": 7, "3/6": Fraction(1, 2), 5: 5}
        for c in coords:
            try:
                expected = ProjectivePoint([cio.parse_fraction(str(c)), 1, 0, 0])
            except InvalidInput as exc:
                assert c not in read
                with pytest.raises(InvalidInput, match=f"^{re.escape(str(exc))}$"):
                    cio.point_from_json([c, "1", "0", "0"])
            else:
                assert expected == ProjectivePoint([read[c], 1, 0, 0])
                assert cio.point_from_json([c, "1", "0", "0"]) == expected
                assert cio.point_from_json(["1", c, "0", "0"]) == ProjectivePoint([1, read[c], 0, 0])

    def test_configuration_round_trip(self, tmp_path):
        rng = random.Random(1)
        cfg = Configuration([[Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                              for _ in range(4)] for _ in range(6)])
        path = tmp_path / "c.json"
        write_config(path, cfg)
        assert cio.load_configuration(str(path)) == cfg

    @pytest.mark.parametrize("data", [
        b'{"point": ["1", "2", "3", "4"]}', b'{"point":\r\n ["1",\r\n "2"]}',
        b'{"point":\r ["1",\r "2"]}', b'{"a": "\xc3\xa9"}', b'{"point":\r\n ["1",\r\n "2"',
        b'{"point":\r ["1",\r "2" 3]}', b'{"a": "x\ry"}', b'\xef\xbb\xbf{}', b'{"a": "\xc3"}',
        b'[1,\r\n\xff]', b''])
    def test_json_files_are_read_as_text_mode_reads_them(self, tmp_path, data):
        # the value, or the InvalidInput message, of a file read with
        # open(path, encoding="utf-8"): line endings, BOM and bad bytes alike
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as fh:
            try:
                expected = json.load(fh)
            except ValueError as exc:
                with pytest.raises(InvalidInput) as caught:
                    cio._read_json(str(path))
                assert str(caught.value) == f"{path} is not a JSON document: {exc}"
                return
        assert cio._read_json(str(path)) == expected

    def test_inline_point_parsing(self):
        assert cio.parse_inline_point("43,-50,6,-5") == pp(43, -50, 6, -5)
        assert cio.parse_inline_point("1/2:3:0:9") == ProjectivePoint([Fraction(1, 2), 3, 0, 9])

    def test_ambient_dim_mismatch(self):
        with pytest.raises(Exception):
            cio.configuration_from_json({"ambient_dim": 2,
                                         "points": [["1", "0", "0", "0"]]})


class TestProjectCommand:
    def test_golden_projection(self, tmp_path):
        world = tmp_path / "w.json"
        out = tmp_path / "img.json"
        write_config(world, STD5)
        proc = run_cli("project", "-i", str(world), "--center", "43,-50,6,-5",
                       "-o", str(out))
        assert proc.returncode == 0
        img = cio.load_configuration(str(out))
        assert img.points == (pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1),
                              pp(43, -50, 6), pp(-5 - 43, -5 + 50, -5 - 6))

    def test_seven_point_projection_columns(self, tmp_path):
        # world points with two free columns r, s; images follow the bilinear rule
        r, s = (2, 3, 5, 7), (11, -4, 9, 13)
        world = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                               (1, 1, 1, 1), r, s])
        a = (3, -8, 2, 5)
        path = tmp_path / "w7.json"
        out = tmp_path / "img7.json"
        write_config(path, world)
        proc = run_cli("project", "-i", str(path), "--center", ",".join(map(str, a)),
                       "-o", str(out))
        assert proc.returncode == 0
        img = cio.load_configuration(str(out))
        assert img[5] == ProjectivePoint([r[3] * a[i] - r[i] * a[3] for i in range(3)])
        assert img[6] == ProjectivePoint([s[3] * a[i] - s[i] * a[3] for i in range(3)])

    def test_center_at_world_point_exits_2(self, tmp_path):
        world = tmp_path / "w.json"
        write_config(world, STD5)
        proc = run_cli("project", "-i", str(world), "--center", "0,0,1,0")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["code"] == "InadmissibleCenter"


class TestInvariantsCommand:
    def test_size_mismatch_exits_2(self, tmp_path):
        img = tmp_path / "img.json"
        write_config(img, Configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))
        proc = run_cli("invariants", "-i", str(img), "--kind", "N5")
        assert proc.returncode == 2

    def test_n6_output_shape(self, tmp_path):
        img = tmp_path / "img.json"
        write_config(img, Configuration([(1, t, t * t) for t in (0, 1, 2, 3, 5, 7)]))
        out = tmp_path / "v.json"
        proc = run_cli("invariants", "-i", str(img), "--kind", "N6", "-o", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "N6" and len(doc["values"]) == 6
        assert doc["values"][5] == "0"  # conic points
        assert doc["non_semistable"] is False

    def test_n6_weight_two_entry_is_exact(self, tmp_path):
        # t_0..t_4 have the common factor 4; t_5 / 4^2 is past 2^53, so a float
        # scale would change its last digits
        img = tmp_path / "img.json"
        write_config(img, Configuration([(3, 0, 1), (0, 3, 1), (1, 1, 3), (99991, 12345, 3),
                                         (31337, 27183, 3), (7, 5, 3)]))
        out = tmp_path / "v.json"
        assert main(["invariants", "-i", str(img), "--kind", "N6", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["values"] == [
            "36709358994", "9540269091", "-42904126926", "15679054493", "30247882568",
            "-1736713983245601389310"]

    def test_n7_conic_canonicalizes_to_all_ones(self, tmp_path):
        img = tmp_path / "img.json"
        write_config(img, Configuration([(1, t, t * t) for t in (0, 1, 2, 3, 5, 7, 11)]))
        out = tmp_path / "v.json"
        assert run_cli("invariants", "-i", str(img), "--kind", "N7",
                       "-o", str(out)).returncode == 0
        doc = json.loads(out.read_text())
        assert doc["values"] == ["1"] * 15

    def test_zero_vector_is_flagged(self, tmp_path):
        img = tmp_path / "img.json"
        pts = [(1, 2, 3), (1, 2, 3), (0, 1, 0), (0, 0, 1), (1, 1, 1), (5, 1, 2), (3, 3, 1)]
        write_config(img, Configuration(pts))
        out = tmp_path / "v.json"
        assert run_cli("invariants", "-i", str(img), "--kind", "N7",
                       "-o", str(out)).returncode == 0
        doc = json.loads(out.read_text())
        assert doc["non_semistable"] is True
        assert set(doc["values"]) == {"0"}


class TestEquivCommand:
    def test_transformed_configuration_is_equivalent(self):
        rng = random.Random(5)
        p = Configuration([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 7), (5, 1, 4)])
        h = [[2, 1, 0], [0, 3, -1], [1, 0, 1]]
        verdict = decide_equivalence(p, p.transformed(h))
        assert verdict.equivalent is True
        assert verdict.certainty == "ExactWitness"
        assert verdict.witness is not None

    def test_unrelated_configurations_differ(self):
        rng = random.Random(6)
        p = Configuration([[rng.randint(-9, 9) or 1 for _ in range(3)] for _ in range(6)])
        q = Configuration([[rng.randint(-9, 9) or 2 for _ in range(3)] for _ in range(6)])
        verdict = decide_equivalence(p, q)
        assert verdict.equivalent is False

    def test_two_conic_heptads_are_separated_by_the_witness_path(self):
        # both map to the all-ones invariant direction, so invariants alone
        # cannot distinguish them; the homography route must decide "no"
        p = Configuration([(1, t, t * t) for t in (0, 1, 2, 3, 4, 5, 6)])
        q = Configuration([(1, t, t * t) for t in (0, 1, 2, 3, 4, 5, 7)])
        from centersvar.invariants import fano15
        assert fano15(p).proportional(fano15(q))  # the Goepel relaxation collapses
        verdict = decide_equivalence(p, q)
        assert verdict.equivalent is False
        assert verdict.certainty == "ExactWitness"

    def test_totally_degenerate_is_inconclusive(self):
        p = Configuration([(1, 0, c) for c in range(5)])
        q = Configuration([(1, 0, c * c + 1) for c in range(5)])
        with pytest.raises(Inconclusive):
            decide_equivalence(p, q)

    def test_exit_codes(self, tmp_path):
        f1, f2 = tmp_path / "p.json", tmp_path / "q.json"
        write_config(f1, Configuration([(1, 0, c) for c in range(5)]))
        write_config(f2, Configuration([(1, 0, c * c + 1) for c in range(5)]))
        proc = run_cli("equiv", "-i", str(f1), "-j", str(f2))
        assert proc.returncode == 3


class TestCentersCommand:
    def test_golden_quadric_span_through_cli(self, tmp_path):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        out = tmp_path / "c.json"
        proc = run_cli("centers", "-i", str(xfile), "-j", str(xfile),
                       "--center", "43,-50,6,-5", "-o", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["variant"] == "CubicFibrationN5"
        from centersvar.forms import Form, same_span
        quadrics = [Form(2, tuple(cio.parse_fraction(c) for c in q))
                    for q in doc["cubic"]["quadrics"]]
        from test_loci_n5 import GOLDEN_QUADRICS
        assert same_span(quadrics, GOLDEN_QUADRICS)

    def test_n5_without_center_exits_2(self, tmp_path):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        proc = run_cli("centers", "-i", str(xfile), "-j", str(xfile))
        assert proc.returncode == 2

    def test_reports_embed_config_and_are_deterministic(self, tmp_path):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for o in (o1, o2):
            assert run_cli("centers", "-i", str(xfile), "-j", str(xfile),
                           "--center", "43,-50,6,-5", "-o", str(o)).returncode == 0
        assert o1.read_text() == o2.read_text()
        doc = json.loads(o1.read_text())
        assert doc["config"]["command"] == "centers"
        assert "seed" not in doc["config"]

    def test_seed_env_fallback(self, tmp_path):
        # in a fresh process CENTERSVAR_SEED seeds generate; centers reads no seed
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        inst, out = tmp_path / "inst.json", tmp_path / "r.json"
        for argv in (["generate", "--n", "5", "-o", str(inst)],
                     ["centers", "-i", str(xfile), "-j", str(xfile), "--center", "43,-50,6,-5",
                      "-o", str(out)]):
            proc = subprocess.run(
                [sys.executable, "-m", "centersvar.cli", *argv], capture_output=True, text=True,
                env={"CENTERSVAR_SEED": "7", "PATH": "/usr/bin:/bin", "PYTHONPATH": SRC})
            assert proc.returncode == 0
        assert json.loads(inst.read_text())["config"]["seed"] == 7
        assert "seed" not in json.loads(out.read_text())["config"]


@pytest.mark.parametrize("n", range(5, 9))
def test_a_center_the_computation_does_not_read_is_refused(tmp_path, capsys, n):
    # a is read for n <= 6 and b for n <= 4; the true a rides along where it is read
    rec = generate_reconstruction(n, seed=0)
    xfile, yfile = tmp_path / "x.json", tmp_path / "y.json"
    write_config(xfile, rec.x)
    write_config(yfile, rec.y)
    given_a = {"a": rec.a_true} if n <= 6 else {}
    unread = [("b", "--center-b", rec.b_true)] + ([("a", "--center", rec.a_true)] if n >= 7 else [])
    for name, flag, point in unread:
        message = f"n = {n} reads no center {name} ({flag})"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            centers_variety(rec.x, rec.y, **{**given_a, name: point})
        argv = ["centers", "-i", str(xfile), "-j", str(yfile), f"{flag}=" + ",".join(
            map(str, point.coords))]
        if given_a and name == "b":
            argv.append("--center=" + ",".join(map(str, rec.a_true.coords)))
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "InvalidInput" and error["message"].startswith(message)


class TestCentersOracleRuns:
    def _instance(self, tmp_path, n, seed):
        inst = tmp_path / "inst.json"
        assert run_cli("generate", "--n", str(n), "--seed", str(seed),
                       "-o", str(inst)).returncode == 0
        doc = json.loads(inst.read_text())
        xfile, yfile = tmp_path / "x.json", tmp_path / "y.json"
        cio.atomic_write_json(str(xfile), doc["X"])
        cio.atomic_write_json(str(yfile), doc["Y"])
        return doc, str(xfile), str(yfile)

    def test_n6_recovers_ground_truth(self, tmp_path):
        doc, xfile, yfile = self._instance(tmp_path, 6, 1)
        out = tmp_path / "c6.json"
        proc = run_cli("centers", "-i", xfile, "-j", yfile,
                       "--center", ",".join(doc["ground_truth"]["a"]), "-o", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["variant"] == "SurfacePairN6"
        assert report["matched_b"] == doc["ground_truth"]["b"]

    def test_n7_reports_three_pairs_with_certificate(self, tmp_path):
        doc, xfile, yfile = self._instance(tmp_path, 7, 1)
        out = tmp_path / "c7.json"
        proc = run_cli("centers", "-i", xfile, "-j", yfile, "-o", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["variant"] == "ThreePairsN7"
        assert len(report["pairs"]) == 3
        exacts = [p["a"]["exact"] for p in report["pairs"]]
        assert doc["ground_truth"]["a"] in exacts


class TestGenerateCommand:
    def test_round_trip_through_files(self, tmp_path):
        inst = tmp_path / "inst.json"
        proc = run_cli("generate", "--n", "5", "--seed", "3", "-o", str(inst))
        assert proc.returncode == 0
        doc = json.loads(inst.read_text())
        x = cio.configuration_from_json(doc["X"])
        a = cio.point_from_json(doc["ground_truth"]["a"])
        assert x.n == 5 and a.dim == 3

    def test_degenerate_kind(self, tmp_path):
        out = tmp_path / "d.json"
        proc = run_cli("generate", "--degenerate", "OnConic", "--seed", "1", "-o", str(out))
        assert proc.returncode == 0
        cfg = cio.configuration_from_json(json.loads(out.read_text()))
        assert cfg.n == 7

    def test_degenerate_center_kind_feeds_classify(self, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("generate", "--degenerate", "CoplanarCenter", "--seed", "2",
                       "-o", str(out)).returncode == 0
        doc = json.loads(out.read_text())
        verdict = tmp_path / "v.json"
        assert run_cli("classify", "-i", str(out), "--center", ",".join(doc["center"]),
                       "-o", str(verdict)).returncode == 0
        assert json.loads(verdict.read_text())["tag"] == "LinePlusConic"

    def test_text_format(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert run_cli("generate", "--n", "5", "--seed", "3", "-o", str(inst)).returncode == 0
        doc = json.loads(inst.read_text())
        xfile = tmp_path / "x.json"
        cio.atomic_write_json(str(xfile), doc["X"])
        proc = run_cli("classify", "-i", str(xfile), "--center",
                       ",".join(doc["ground_truth"]["a"]), "--format", "text")
        assert proc.returncode == 0
        assert "tag:" in proc.stdout


# generate at n = 7, then centers on its X and Y, in one fresh process; prints
# which of the modules numpy's generator would bring in are loaded afterwards
_N7_MODULES_SCRIPT = """
import json, os, sys
from centersvar import io as cio
from centersvar.cli import main
d = sys.argv[1]
inst, xf, yf = (os.path.join(d, f) for f in ("inst.json", "x.json", "y.json"))
assert main(["generate", "--n", "7", "--seed", "0", "-o", inst]) == 0
doc = json.load(open(inst))
cio.atomic_write_json(xf, doc["X"])
cio.atomic_write_json(yf, doc["Y"])
assert main(["centers", "-i", xf, "-j", yf, "-o", os.path.join(d, "r.json")]) == 0
assert json.load(open(os.path.join(d, "r.json")))["variant"] == "ThreePairsN7"
print(json.dumps(sorted(m for m in ("numpy.random", "secrets", "hashlib") if m in sys.modules)))
"""


def test_n7_centers_loads_no_numpy_random(tmp_path):
    # a subprocess, as pytest and its plugins may import these themselves
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _N7_MODULES_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


class TestMainEntry:
    def test_main_returns_exit_code(self, tmp_path, capsys):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        code = main(["classify", "-i", str(xfile), "--center", "43,-50,6,-5"])
        assert code == 0
        assert "SmoothCubic" in capsys.readouterr().out

    def test_seed_falls_back_to_the_environment_on_every_call(self, tmp_path, monkeypatch):
        # the parser is built once per process; the fallback is read per call
        out = tmp_path / "r.json"
        assert main(["generate", "--n", "5", "--seed", "5", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 5
        monkeypatch.setenv("CENTERSVAR_SEED", "7")
        assert main(["generate", "--n", "5", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 7

    def test_missing_center_is_invalid(self, tmp_path, capsys):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        assert main(["classify", "-i", str(xfile)]) == 2

    @pytest.mark.parametrize("command", ["centers", "classify"])
    def test_center_outside_p3_is_invalid(self, tmp_path, capsys, command):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        second = ["-j", str(xfile)] if command == "centers" else []
        assert main([command, "-i", str(xfile), *second, "--center", "1,2,3"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"

    def test_degenerate_kind_with_zero_points_is_invalid(self, capsys):
        assert main(["generate", "--degenerate", "OnConic", "--n", "0"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"

    def test_center_kind_reports_its_five_points(self, tmp_path):
        default, explicit = tmp_path / "d.json", tmp_path / "e.json"
        assert main(["generate", "--degenerate", "GenericCenter", "--seed", "4",
                     "-o", str(default)]) == 0
        assert main(["generate", "--degenerate", "GenericCenter", "--seed", "4", "--n", "5",
                     "-o", str(explicit)]) == 0
        doc = json.loads(default.read_text())
        assert doc["config"]["n"] == 5 and len(doc["points"]) == 5
        assert doc == json.loads(explicit.read_text())

    @pytest.mark.parametrize("n", ["0", "4", "7"])
    def test_center_kind_with_another_n_is_invalid(self, capsys, n):
        assert main(["generate", "--degenerate", "GenericCenter", "--n", n]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"

    def test_plane_kind_reports_its_n(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["generate", "--degenerate", "CoincidentPair", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["n"] == 7
        assert main(["generate", "--degenerate", "FiveCollinear", "--n", "300",
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["n"] == 300

    def test_plane_kind_beyond_the_box_is_invalid(self, capsys):
        assert main(["generate", "--degenerate", "CoincidentPair", "--n", "2883"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_nonpositive_tol_is_invalid(self, tmp_path, capsys, tol):
        # centers has no --tol flag: any value of it is an argument error
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        code = main(["centers", "-i", str(xfile), "-j", str(xfile),
                     "--center", "43,-50,6,-5", f"--tol={tol}"])
        assert code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "InvalidInput"
        assert f"unrecognized arguments: --tol={tol}" in error["message"]

    @pytest.mark.parametrize("argv, message", [
        (["centers", "-i", "X", "-j", "X", "--center", "-43,50,-6,5"],
         "argument --center: expected one argument"),
        (["centers", "-i", "X", "-j", "X", "--center", "43,-50,6,-5", "--format", "yaml"],
         "argument --format: invalid choice"),
        (["generate", "--n", "5", "--seed", "x"], "argument --seed: invalid int value"),
    ], ids=["negative-center", "choice", "type"])
    def test_argument_errors_end_in_an_invalid_input_document(self, tmp_path, capsys, argv,
                                                              message):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        assert main([str(xfile) if arg == "X" else arg for arg in argv]) == 2
        out, err = capsys.readouterr()
        error = json.loads(out)["error"]
        assert error["code"] == "InvalidInput" and message in error["message"]
        assert err == ""

    def test_a_negative_center_is_read_after_an_equals_sign(self, tmp_path, capsys):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        assert main(["classify", "-i", str(xfile), "--center=-43,50,-6,5"]) == 0
        assert json.loads(capsys.readouterr().out)["tag"] == "SmoothCubic"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["centers", "-h"])
        assert caught.value.code == 0
        assert "--center" in capsys.readouterr().out

    @pytest.mark.parametrize("text, argv", [
        ('{"ambient_dim": 2, "points": [["1", "0"', ["invariants", "-i", "BAD", "--kind", "N5"]),
        ('{"ambient_dim": "x", "points": [["1", "0", "0"]]}',
         ["invariants", "-i", "BAD", "--kind", "N5"]),
        ('{"ambient_dim": 2, "points": [1, 2]}', ["invariants", "-i", "BAD", "--kind", "N5"]),
        ('{"point": 5}', ["project", "-i", "WORLD", "--center", "BAD"]),
        ('{"point": [1, 2', ["project", "-i", "WORLD", "--center", "BAD"]),
        (b'{"ambient_dim": 3, "points": [["1\xff", "0", "0", "0"]]}',
         ["invariants", "-i", "BAD", "--kind", "N5"]),
        (b'\xef\xbb\xbf{"point": ["1", "2", "3", "4"]}', ["project", "-i", "WORLD", "--center", "BAD"]),
    ], ids=["truncated", "ambient-dim", "points", "center-point", "center-truncated", "not-utf8",
            "bom"])
    def test_malformed_input_file_is_invalid(self, tmp_path, capsys, text, argv):
        bad, world = tmp_path / "bad.json", tmp_path / "w.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        write_config(world, STD5)
        files = {"BAD": str(bad), "WORLD": str(world)}
        assert main([files.get(arg, arg) for arg in argv]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"

    @pytest.fixture
    def seven_point_files(self, tmp_path):
        xfile, yfile = tmp_path / "x.json", tmp_path / "y.json"
        rec = generate_reconstruction(7, seed=1)
        write_config(xfile, rec.x)
        write_config(yfile, rec.y)
        return str(xfile), str(yfile)

    def test_negative_seed_is_invalid(self, seven_point_files, capsys):
        # generate alone takes a seed; centers has no --seed flag at all
        xfile, yfile = seven_point_files
        assert main(["generate", "--n", "7", "--seed", "-3"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "InvalidInput" and "must be non-negative" in error["message"]
        assert main(["centers", "-i", xfile, "-j", yfile, "--seed", "-1"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "InvalidInput" and "unrecognized arguments" in error["message"]

    def test_negative_seed_from_the_environment_is_invalid(self, seven_point_files, capsys,
                                                           monkeypatch):
        xfile, yfile = seven_point_files
        monkeypatch.setenv("CENTERSVAR_SEED", "-5")
        assert main(["generate", "--n", "7"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"
        # centers reads no seed, so the bad value does not stop it
        assert main(["centers", "-i", xfile, "-j", yfile, "-o", xfile + ".out"]) == 0


IDENTITY = [[int(i == j) for j in range(4)] for i in range(4)]
SHEAR = [[1, 10 ** 320, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
SHEARED = {"X": (SHEAR, IDENTITY), "Y": (IDENTITY, SHEAR), "both": (SHEAR, SHEAR)}


def _sheared_centers_argv(tmp_path, n, side):
    """centers on generated seed 0 with X, Y or both sheared past the float
    range; the true a is given for n <= 6 and the true b for n <= 4, moved
    with their sides."""
    rec = generate_reconstruction(n, seed=0)
    hx, hy = SHEARED[side]
    xfile, yfile = tmp_path / "x.json", tmp_path / "y.json"
    write_config(xfile, rec.x.transformed(hx))
    write_config(yfile, rec.y.transformed(hy))
    argv = ["centers", "-i", str(xfile), "-j", str(yfile)]
    for flag, h, point, n_max in (("--center", hx, rec.a_true, 6),
                                  ("--center-b", hy, rec.b_true, 4)):
        if n <= n_max:
            argv.append(f"{flag}=" + ",".join(map(str, apply_matrix(h, point).coords)))
    return argv


@pytest.mark.parametrize("side", sorted(SHEARED))
@pytest.mark.parametrize("n", range(4, 10))
def test_centers_of_sheared_inputs_end_in_one_json_document(tmp_path, capsys, n, side):
    # a report, or a ToolkitError document with its exit code: never a traceback
    code = main(_sheared_centers_argv(tmp_path, n, side))
    assert code in (0, 2, 3, 4)
    doc = json.loads(capsys.readouterr().out)
    assert ("error" in doc) == (code != 0)


def test_a_sheared_seven_point_input_writes_no_traceback(tmp_path):
    proc = run_cli(*_sheared_centers_argv(tmp_path, 7, "X"))
    assert proc.stderr == ""
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["code"] == "Inconclusive"


def _generated_centers_argv(tmp_path, rec, swapped=False):
    """centers on a generated instance, its sides swapped or not, with the
    first center given for n = 5 alone, the one n that needs it."""
    x, y, a = (rec.y, rec.x, rec.b_true) if swapped else (rec.x, rec.y, rec.a_true)
    xfile, yfile = tmp_path / "x.json", tmp_path / "y.json"
    write_config(xfile, x)
    write_config(yfile, y)
    argv = ["centers", "-i", str(xfile), "-j", str(yfile), "-o", str(tmp_path / "r.json")]
    return argv + (["--center=" + ",".join(map(str, a.coords))] if x.n == 5 else [])


@pytest.mark.parametrize("n", range(4, 9))
def test_centers_report_does_not_depend_on_the_seed(tmp_path, capsys, monkeypatch, n):
    # ROADMAP item 17: every report is a function of its input alone, so the
    # file is the same bytes with CENTERSVAR_SEED unset, 0 and 5
    for seed in range(3):
        rec = generate_reconstruction(n, seed=seed)
        for swapped in (False, True):
            argv = _generated_centers_argv(tmp_path, rec, swapped)
            reports = set()
            for value in (None, "0", "5"):
                monkeypatch.delenv("CENTERSVAR_SEED", raising=False)
                if value is not None:
                    monkeypatch.setenv("CENTERSVAR_SEED", value)
                assert main(argv) == 0, (seed, swapped, value)
                reports.add((tmp_path / "r.json").read_bytes())
            assert len(reports) == 1, (seed, swapped)
    assert main(argv + ["--seed", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"


@pytest.mark.parametrize("n", range(4, 9))
def test_centers_draws_no_random_number(tmp_path, monkeypatch, n):
    # loci.random raises on any use, so a draw put back on the centers path fails here
    class NoRandom:
        def __getattr__(self, name):
            raise AssertionError(f"centers used random.{name}")

    argv = _generated_centers_argv(tmp_path, generate_reconstruction(n, seed=0))
    monkeypatch.setattr(loci, "random", NoRandom())
    assert main(argv) == 0


def test_error_documents_carry_the_details_of_the_error(tmp_path, capsys):
    # D6: with Y's first coordinate scaled by 10^8 the b-side solver finds
    # one of the three zeros, and its error says so in its details
    rec = generate_reconstruction(7, seed=1)
    xfile, yfile = tmp_path / "x.json", tmp_path / "y.json"
    write_config(xfile, rec.x)
    write_config(yfile, rec.y.transformed([[10 ** 8, 0, 0, 0]] + IDENTITY[1:]))
    assert main(["centers", "-i", str(xfile), "-j", str(yfile)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "Inconclusive", "message": "the floats placed 1 of the H(3) = 3 zeros",
        "details": {"h3": 3, "found": 1}}
    # an error without details writes code and message only: n = 7 reads no center a
    assert main(["centers", "-i", str(xfile), "-j", str(yfile), "--center", "1,2,3,4"]) == 2
    assert set(json.loads(capsys.readouterr().out)["error"]) == {"code", "message"}


def test_reports_are_the_bytes_of_the_chunked_json_dump(tmp_path, monkeypatch):
    # one report of every kind; json.dump with an indent writes the same text
    # as json.dumps, chunk by chunk
    monkeypatch.delenv("CENTERSVAR_SEED", raising=False)
    written = []
    write = cio.atomic_write_json
    monkeypatch.setattr(cio, "atomic_write_json",
                        lambda path, doc: written.append((path, doc)) or write(path, doc))

    def run(*argv):
        out = str(tmp_path / f"r{len(written)}.json")
        assert main([*argv, "-o", out]) == 0
        return json.loads(open(out).read()), out

    for n in range(4, 9):
        doc, _ = run("generate", "--n", str(n), "--seed", "1")
        files = {}
        for key, value in (("X", doc["X"]), ("Y", doc["Y"]), ("a", doc["ground_truth"]["a"])):
            files[key] = str(tmp_path / f"{key}{n}.json")
            write(files[key], value)
        center = ["--center", files["a"]] if n in (5, 6) else []
        run("centers", "-i", files["X"], "-j", files["Y"], *center)
    degenerate, world = run("generate", "--degenerate", "CoplanarCenter", "--seed", "2")
    center = ",".join(degenerate["center"])
    run("classify", "-i", world, "--center", center)
    _, image = run("project", "-i", world, "--center", center)
    run("invariants", "-i", image, "--kind", "N5")
    run("equiv", "-i", image, "-j", image)
    assert len(written) == 15
    for path, doc in written:
        with open(tmp_path / "chunked.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        assert open(path, "rb").read() == (tmp_path / "chunked.json").read_bytes()


JSON_LEAVES = st.one_of(
    st.text(), st.text(alphabet='a"\\/\n\t\x00\x1f\x7fé€\U0001f600'),
    st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner),
    st.lists(st.text(), min_size=1)), max_leaves=20)


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_json_text_is_the_indented_json_dumps(value):
    assert cio.json_text(value) == json.dumps(value, indent=2)


def test_json_text_leaves_what_it_does_not_write_to_json_dumps():
    # non-str keys are converted by json.dumps; a value it refuses raises
    # its error
    for value in ({1: "a", "b": [True, {None: 2.5}]}, [{"a": 1}, {2.5: []}], ("x", {False: ()})):
        assert cio.json_text(value) == json.dumps(value, indent=2)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        cio.json_text({"a": [Fraction(1, 2)]})
    loop = ["a"]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        cio.json_text({"a": loop})


def test_a_write_that_takes_a_few_bytes_at_a_time_completes_the_file(tmp_path, monkeypatch):
    fdopen = os.fdopen
    writes = []

    class FewBytes:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            writes.append(len(data))
            return self.fh.write(data[:3])

    monkeypatch.setattr(os, "fdopen", lambda *a, **k: FewBytes(fdopen(*a, **k)))
    text = "é€ " * 40 + "\n"
    cio._atomic_write(str(tmp_path / "r"), text)
    assert (tmp_path / "r").read_bytes() == text.encode("utf-8")
    assert len(writes) == -(-len(text.encode("utf-8")) // 3)


@pytest.mark.parametrize("n", range(4, 9))
def test_a_report_on_stdout_is_the_indented_json_dumps(tmp_path, capsys, monkeypatch, n):
    # written by json_text alone: a report never falls back to json.dumps
    rec = generate_reconstruction(n, seed=1)
    files = []
    for name, side in (("x", rec.x), ("y", rec.y)):
        files.append(str(tmp_path / f"{name}.json"))
        write_config(files[-1], side)
    center = ["--center", ",".join(cio.point_to_json(rec.a_true))] if n in (5, 6) else []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: pytest.fail("json.dumps ran"))
    assert main(["centers", "-i", files[0], "-j", files[1], *center]) == 0
    out = capsys.readouterr().out
    assert out == dumps(json.loads(out), indent=2) + "\n"


def test_exact_integer_routes_need_no_fraction_elimination(tmp_path, monkeypatch):
    # n = 5 and n = 8 centers, the center kinds and classify on each run in
    # integers: no Fraction inverse, echelon form or kernel basis
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction elimination ran")

    for name in ("inverse", "rref", "kernel_basis"):
        monkeypatch.setattr(linalg, name, refuse)

    def run(*argv, out="report.json"):
        out = str(tmp_path / out)
        assert main([*argv, "-o", out]) == 0
        return json.loads(open(out).read())

    def write(key, value):
        path = str(tmp_path / f"{key}.json")
        cio.atomic_write_json(path, value)
        return path

    for n in (5, 8):
        doc = run("generate", "--n", str(n), "--seed", "1", "--bound", str(10 ** 6))
        x, y, a = (write(k, v) for k, v in (("X", doc["X"]), ("Y", doc["Y"]),
                                            ("a", doc["ground_truth"]["a"])))
        report = run("centers", "-i", x, "-j", y, *(["--center", a] if n == 5 else []))
        assert report["variant"] == {5: "CubicFibrationN5", 8: "EmptyN8"}[n]
    tags = set()
    for kind in CENTER_KINDS:
        doc = run("generate", "--degenerate", kind, "--seed", "3", out="world.json")
        center = ",".join(doc["center"])
        tags.add(run("classify", "-i", str(tmp_path / "world.json"), "--center", center)["tag"])
    assert len(tags) == len(CENTER_KINDS)


def _output_argv(tmp_path, command):
    """A centers run (n = 5, with a center) or a generate run, without -o."""
    if command == "generate":
        return ["generate", "--n", "5", "--seed", "1"]
    xfile = tmp_path / "x.json"
    write_config(xfile, STD5)
    return ["centers", "-i", str(xfile), "-j", str(xfile), "--center", "43,-50,6,-5"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["centers", "generate"])
def test_output_into_a_missing_directory_ends_in_an_io_error_document(tmp_path, capsys,
                                                                      monkeypatch, command, fmt):
    # the message names the path given, not a temporary file, so two runs agree
    argv = _output_argv(tmp_path, command)
    monkeypatch.chdir(tmp_path)
    errors = []
    for _ in range(2):
        assert main([*argv, "--format", fmt, "-o", "nodir/out.json"]) == 2
        out, err = capsys.readouterr()
        errors.append(json.loads(out)["error"])
        assert err == ""
    assert errors[0] == errors[1] == {
        "code": "IOError", "message": "[Errno 2] No such file or directory: 'nodir/out.json'"}
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("argv", [["generate", "--n", "7", "--seed", "1"],
                                  ["generate", "--n", "2"],
                                  ["generate", "--n", "5", "--format", "text"]])
def test_a_closed_stdout_ends_in_exit_2_and_no_traceback(argv):
    # a report and an error document alike: the reader is gone before either
    # is written, so neither is, and the exit-time flush stays quiet
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "centersvar", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b""


def test_every_error_document_is_written_alike(tmp_path, capsys):
    # an OSError and a ToolkitError: indented, with the keys code and message
    xfile = tmp_path / "x.json"
    write_config(xfile, STD5)
    for argv, code in ((["classify", "-i", str(tmp_path / "missing.json"), "--center", "1,2,3,4"],
                        "IOError"),
                       (["classify", "-i", str(xfile)], "InvalidInput")):
        assert main(argv) == 2
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert set(doc["error"]) == {"code", "message"} and doc["error"]["code"] == code


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_failed_write_leaves_the_old_file_and_no_temporary_file(tmp_path, capsys,
                                                                  monkeypatch, fmt):
    # the file object writes half of the report, then fails
    argv = _output_argv(tmp_path, "centers")
    target = tmp_path / "report"
    target.write_text("old\n")
    before = sorted(os.listdir(tmp_path))
    fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fdopen", lambda *a, **k: HalfWriter(fdopen(*a, **k)))
    assert main([*argv, "--format", fmt, "-o", str(target)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "IOError"
    assert target.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == before


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_new_report_gets_the_mode_open_gives_it(tmp_path, umask, fmt):
    old = os.umask(umask)
    try:
        assert main(["generate", "--n", "4", "--format", fmt, "-o", str(tmp_path / "r")]) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    assert _mode(tmp_path / "r") == _mode(tmp_path / "plain") == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o600, 0o664])
def test_an_overwritten_report_keeps_its_mode(tmp_path, mode):
    out = tmp_path / "r.json"
    out.write_text("old\n")
    os.chmod(out, mode)
    old = os.umask(0o077)
    try:
        assert main(["generate", "--n", "4", "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert _mode(out) == mode
    assert json.loads(out.read_text())["config"]["n"] == 4
    assert os.listdir(tmp_path) == ["r.json"]


def _error_classes():
    found, todo = [], [ToolkitError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if cls.__module__.startswith("centersvar")]


def test_the_error_contract():
    # one code per error, exit 4 for a failed exact verification alone, and
    # the README's exit-code paragraph names every error that exits 3 or 4
    classes = _error_classes()
    assert {cls.__name__ for cls in classes} >= {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, ToolkitError)}
    codes = [cls.code for cls in classes] + ["IOError"]
    assert len(codes) == len(set(codes))
    assert all(cls.exit_code in (2, 3, 4) for cls in classes)
    assert [cls for cls in classes if cls.exit_code == 4] == [errors.Inconsistent]
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    paragraph = text[text.index("Exit codes"):].split("\n\n")[0]
    for cls in classes:
        if cls.exit_code in (3, 4):
            assert f"`{cls.code}`" in paragraph, cls.code
