import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import centersvar
from centersvar import io as cio
from centersvar.cli import main
from centersvar.datagen import generate_reconstruction
from centersvar.errors import Inconclusive
from centersvar.projective import Configuration, ProjectivePoint, decide_equivalence, pp


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "centersvar.cli", *args],
                          capture_output=True, text=True)
    return proc


def write_config(path, cfg):
    cio.atomic_write_json(str(path), cio.configuration_to_json(cfg))


STD5 = Configuration([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)])


class TestFormats:
    def test_fraction_round_trip(self):
        for f in [Fraction(0), Fraction(-7), Fraction(22, 7), Fraction(-3, 11)]:
            assert cio.parse_fraction(cio.format_fraction(f)) == f

    def test_configuration_round_trip(self, tmp_path):
        rng = random.Random(1)
        cfg = Configuration([[Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                              for _ in range(4)] for _ in range(6)])
        path = tmp_path / "c.json"
        write_config(path, cfg)
        assert cio.load_configuration(str(path)) == cfg

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
        assert doc["config"]["seed"] == 0

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        out = tmp_path / "r.json"
        src = os.path.dirname(os.path.dirname(os.path.abspath(centersvar.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "centersvar.cli", "centers", "-i", str(xfile),
             "-j", str(xfile), "--center", "43,-50,6,-5", "-o", str(out)],
            capture_output=True, text=True,
            env={"CENTERSVAR_SEED": "7", "PATH": "/usr/bin:/bin", "PYTHONPATH": src})
        assert proc.returncode == 0
        assert json.loads(out.read_text())["config"]["seed"] == 7


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


class TestMainEntry:
    def test_main_returns_exit_code(self, tmp_path, capsys):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        code = main(["classify", "-i", str(xfile), "--center", "43,-50,6,-5"])
        assert code == 0
        assert "SmoothCubic" in capsys.readouterr().out

    def test_missing_center_is_invalid(self, tmp_path, capsys):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        assert main(["classify", "-i", str(xfile)]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_nonpositive_tol_is_invalid(self, tmp_path, capsys, tol):
        xfile = tmp_path / "x.json"
        write_config(xfile, STD5)
        code = main(["centers", "-i", str(xfile), "-j", str(xfile),
                     "--center", "43,-50,6,-5", f"--tol={tol}"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"

    @pytest.fixture
    def seven_point_files(self, tmp_path):
        xfile, yfile = tmp_path / "x.json", tmp_path / "y.json"
        rec = generate_reconstruction(7, seed=1)
        write_config(xfile, rec.x)
        write_config(yfile, rec.y)
        return str(xfile), str(yfile)

    def test_negative_seed_is_invalid(self, seven_point_files, capsys):
        xfile, yfile = seven_point_files
        assert main(["centers", "-i", xfile, "-j", yfile, "--seed", "-1"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"
        assert main(["generate", "--n", "7", "--seed", "-3"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"

    def test_negative_seed_from_the_environment_is_invalid(self, seven_point_files, capsys,
                                                           monkeypatch):
        xfile, yfile = seven_point_files
        monkeypatch.setenv("CENTERSVAR_SEED", "-5")
        assert main(["centers", "-i", xfile, "-j", yfile]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidInput"
        monkeypatch.setenv("CENTERSVAR_SEED", "0")
        assert main(["centers", "-i", xfile, "-j", yfile, "-o", xfile + ".out"]) == 0
