import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bifree
import bifree.measure as ms
from bifree.cli import main
from bifree.fullness import default_fullness_probes
from bifree.measure import PlanarMeasure, dirac
from bifree.serialize import (
    CSV_FMT,
    SchemaError,
    array_from_dict,
    array_to_dict,
    measure_from_dict,
    measure_to_dict,
    stable_spec_from_dict,
    triplet_from_dict,
    triplet_to_dict,
    write_grid_csv,
    write_table_csv,
)
from bifree.biconv import bi_free_convolve
from bifree.freeconv import FreeConvRep
from bifree.idlaw import make_compound_poisson
from bifree.limits import make_array
from bifree.measure import MERGE_TOL
from bifree.transforms import GridDensity, cone_for
from test_freeconv import kesten_mckay_g
from test_limits import noniid_rows
from test_measure import assert_same_laws, merge_coords, merge_weights


def write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


DIRAC_JSON = {"atoms": [{"x": [1.0, 1.0], "w": 1.0}]}
TRUNCATED_JSON = {
    "v": [0.0, 0.0], "A": [[0.0, 0.0], [0.0, 0.0]],
    "tau": {"atoms": [], "radial": {"alpha": 1.2, "r_min": 0.2, "r_max": 5.0,
                                    "theta": [{"angle": 0.4, "m": 0.25}, {"angle": 2.0, "m": 0.5}]}},
}
TWO_ATOM_JSON = {
    "atoms": [{"x": [1.0, 1.0], "w": 0.5}, {"x": [-1.0, -1.0], "w": 0.5}]
}


class TestSchemas:
    def test_measure_round_trip(self):
        m = PlanarMeasure([((0.25, -1.5), 0.125), ((2.0, 0.0), 0.875)])
        assert measure_from_dict(measure_to_dict(m)).close_to(m)

    def test_measure_rejects_bad_weight(self):
        with pytest.raises(SchemaError):
            measure_from_dict({"atoms": [{"x": [0, 0], "w": -1.0}]})
        with pytest.raises(SchemaError):
            measure_from_dict({"atoms": [{"x": [0, 0], "w": 0.5}]})

    def test_triplet_round_trip(self):
        t = make_compound_poisson(2.0, PlanarMeasure([((1, 0), 0.5), ((0, 1), 0.5)]))
        back = triplet_from_dict(triplet_to_dict(t))
        assert back.v == pytest.approx(t.v)
        assert back.tau.atoms.close_to(t.tau.atoms)

    def test_triplet_radial_round_trip(self):
        payload = {
            "v": [0.0, 0.0],
            "A": [[0.0, 0.0], [0.0, 0.0]],
            "tau": {
                "atoms": [],
                "radial": {"alpha": 0.5, "theta": [{"angle": 0.0, "m": 1.0}], "r_min": 0.0, "r_max": None},
            },
        }
        t = triplet_from_dict(payload)
        assert t.tau.radial.alpha == 0.5
        assert math.isinf(t.tau.radial.r_max)
        assert triplet_to_dict(t)["tau"]["radial"]["r_max"] is None

    def test_triplet_requires_symmetry(self):
        with pytest.raises(SchemaError):
            triplet_from_dict({"v": [0, 0], "A": [[1, 0.5], [0.2, 1]], "tau": {"atoms": []}})

    def test_array_round_trip(self):
        arr = make_array(
            [[dirac((1.0, 0.0))] * 2, [dirac((0.5, 0.0))] * 4],
            shifts=[(0.0, 0.0), (1.0, -1.0)],
            L=2.0,
        )
        back = array_from_dict(array_to_dict(arr))
        assert back.L == 2.0
        assert back.shifts == arr.shifts
        assert back.rows[1][3].close_to(arr.rows[1][3])

    def test_stable_spec(self):
        spec = stable_spec_from_dict({"alpha": 2.0, "gaussian_A": [[1, 0], [0, 1]], "v": [0, 0]})
        assert spec.gaussian_a.a == 1.0
        with pytest.raises(SchemaError):
            stable_spec_from_dict({"alpha": 3.0})


def measure_payload(atoms) -> dict:
    return {"atoms": [{"x": list(p), "w": w} for p, w in atoms]}


GOOD = measure_payload([((0.0, 0.0), 1.0)])


def with_bad_law(bad) -> dict:
    """Two rows of good laws, with ``bad`` in place of rows[1].measures[2]."""
    return {"rows": [{"measures": [GOOD] * 2}, {"measures": [GOOD, GOOD, bad, GOOD]}]}


BAD_MEASURES = [
    ({"atoms": [{"x": [0, 0], "w": 0.5}, [1, 1]]}, "atoms[1]: atom entries must be objects"),
    ({"atoms": [{"w": 1.0}]}, "atoms[0]: missing key 'x'"),
    ({"atoms": [{"x": [0, 0, 0], "w": 1.0}]}, "atoms[0]: expected a 2-vector, got [0, 0, 0]"),
    ({"atoms": [{"x": [None, 0], "w": 1.0}]}, "atoms[0]: expected a 2-vector of numbers, got [None, 0]"),
    ({"atoms": [{"x": [0, 0], "w": "1"}]}, "atoms[0]: key 'w' has wrong type str"),
    ({"atoms": [{"x": [0, 0], "w": 0}]}, "atoms[0]: atom weight 0 must be positive"),
    ({"atoms": [{"x": [math.nan, 0], "w": 1.0}]}, "atom coordinates must be finite"),
    ({"atoms": [{"x": [0, 0], "w": math.nan}]}, "atom weights must be positive"),
    ({"atoms": [{"x": [0, 0], "w": 0.4}, {"x": [1, 1], "w": 0.5}]}, "weights sum to 0.9, not 1"),
    ({"atoms": []}, "measure needs at least one atom"),
]


def normalised(atoms):
    total = sum(w for _, w in atoms)
    return [(p, w / total) for p, w in atoms]


# exact duplicates, chains of gaps at or below MERGE_TOL, near misses,
# atoms sharing an axis coordinate and signed zeros
row_coords = st.one_of(merge_coords, st.just(-0.0))
row_laws = st.lists(st.lists(st.tuples(st.tuples(row_coords, row_coords), merge_weights),
                             min_size=1, max_size=5).map(normalised), min_size=1, max_size=8)


class TestGridCsv:
    def test_bytes_equal_the_per_value_format(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((128, 96)) * 10.0 ** rng.integers(-300, 300, (128, 96))
        values[0, :6] = [0.0, -0.0, 1e-320, math.inf, -math.inf, math.nan]
        s_axis, t_axis = np.linspace(-5.0, 5.0, 128), np.linspace(-1.0 / 3.0, 2.0, 96)
        write_grid_csv(tmp_path / "g.csv", GridDensity(s_axis, t_axis, values, 0.1))
        rows = [["s_axis", *(CSV_FMT % v for v in s_axis)], ["t_axis", *(CSV_FMT % v for v in t_axis)]]
        rows += [[CSV_FMT % v for v in row] for row in values]
        assert (tmp_path / "g.csv").read_bytes() == "".join(",".join(r) + "\n" for r in rows).encode()


class TestArrayLoading:
    @given(row_laws, st.randoms(use_true_random=False))
    def test_rows_load_as_one_law_at_a_time(self, laws, rnd):
        laws = [rnd.sample(atoms, len(atoms)) for atoms in laws]
        arr = array_from_dict({"rows": [{"measures": [measure_payload(a) for a in laws]}]})
        assert_same_laws(arr.rows[0], [PlanarMeasure(a) for a in laws])

    def test_large_law_among_small_ones(self):
        rng = np.random.default_rng(7)
        big = rng.uniform(-1.0, 1.0, (2000, 2))
        big[1000:1010] = big[:10] + 0.5 * MERGE_TOL  # ten pairs to merge
        big_w = rng.uniform(0.5, 1.0, 2000)
        laws = [list(zip(big.tolist(), (big_w / big_w.sum()).tolist()))]
        laws += [[((1.0 + k / 1000, 0.0), 0.5), ((0.0, -1.0 - k / 1000), 0.5)] for k in range(1000)]
        arr = array_from_dict({"rows": [{"measures": [measure_payload(a) for a in laws]}]})
        assert len(arr.rows[0][0]) == 1990
        assert_same_laws(arr.rows[0], [PlanarMeasure(a) for a in laws])

    def test_non_identical_array_builds_no_law_alone(self, monkeypatch):
        payload = array_to_dict(make_array(noniid_rows()))
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(PlanarMeasure, "__init__", counting(PlanarMeasure.__init__))
        for name in ("_probability", "_merge"):
            monkeypatch.setattr(ms, name, counting(getattr(ms, name)))
        arr = array_from_dict(payload)
        assert sum(arr.row_sizes()) == 5440
        # no law is checked or merged alone; each row's tau_n is merged once
        assert [fn.__name__ for fn in calls] == ["_merge"] * len(arr.rows)

    @pytest.mark.parametrize("bad,message", BAD_MEASURES)
    def test_errors_keep_their_text_and_gain_a_position(self, bad, message):
        with pytest.raises(SchemaError) as err:
            measure_from_dict(bad)
        assert str(err.value) == message
        with pytest.raises(SchemaError) as err:
            array_from_dict(with_bad_law(bad))
        assert str(err.value) == f"rows[1].measures[2]: {message}"

    def test_empty_row(self):
        payload = with_bad_law(GOOD)
        payload["rows"][1]["measures"] = []
        with pytest.raises(SchemaError, match=r"^rows\[1\]\.measures: rows must not be empty$"):
            array_from_dict(payload)

    def test_earlier_invalid_law_reported_first(self):
        payload = with_bad_law({"atoms": [{"w": 1.0}]})
        payload["rows"][1]["measures"][1] = BAD_MEASURES[-2][0]
        with pytest.raises(SchemaError, match=r"^rows\[1\]\.measures\[1\]: weights sum to 0\.9, not 1$"):
            array_from_dict(payload)


SQUARE_SPEC = {"alpha": 2.0, "gaussian_A": [[1.0, 0.0], [0.0, 1.0]]}
ZERO_TRIPLET = {"v": [0.0, 0.0], "A": [[0.0, 0.0], [0.0, 0.0]], "tau": {"atoms": []}}


class TestMalformedInputs:
    """A malformed input file exits 2 with a schema error, no traceback, naming what is at fault."""

    @pytest.mark.parametrize("command,payload,key", [
        ("stable", {**SQUARE_SPEC, "gaussian_A": [[1.0]]}, "'gaussian_A'"),
        ("stable", {**SQUARE_SPEC, "gaussian_A": [[1.0, 0.5], [0.2, 1.0]]}, "'gaussian_A'"),
        ("stable", {**SQUARE_SPEC, "alpha": 1.0, "theta": [5]}, "'theta'"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [5]}}, "'tau.atoms'"),
        ("idlaw", {**ZERO_TRIPLET, "A": [1, 2]}, "'A'"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [], "radial": {"alpha": 1.0, "theta": [[0.0, 1.0]]}}},
         "'tau.radial.theta'"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [], "radial": {"alpha": 3.0, "theta": []}}}, "radial index"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [], "radial": {"alpha": 1.0, "theta": [], "r_min": "abc"}}},
         "'abc'"),
        ("config", {"epsilon": "abc"}, "'epsilon'"),
        ("probes", [1], "'z'"),
        ("limit", {"rows": [1, 2, 3]}, "'measures'"),
        ("fullness", {"terms": [1]}, "'terms'"),
        ("shift", "1,x", "--shift"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [], "radial": {"alpha": 1.0, "theta": [], "r_min": [1]}}},
         "'tau.radial.r_min'"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [], "radial": {"alpha": 1.0, "theta": [], "r_max": "abc"}}},
         "'tau.radial.r_max'"),
        ("limit", {"L": [1], "rows": [{"measures": [DIRAC_JSON]}]}, "'L'"),
        ("fullness", {"terms": []}, "'terms'"),
        ("flag", "--grid=5:-5:16,-5:5:16", "--grid"),
        ("flag", "--grid=nan:5:16,-5:5:16", "--grid"),
        ("flag", "--epsilon=nan", "--epsilon"),
        ("flag", "--epsilon=inf", "--epsilon"),
        ("shift", "nan,0", "--shift"),
        ("shift", "0,-inf", "--shift"),
        ("config", {"stability_threshold": "nan"}, "'stability_threshold'"),
        ("config", {"stability_threshold": -1}, "'stability_threshold'"),
        ("config", {"stability_threshold": "inf"}, "'stability_threshold'"),
        ("stable", {"alpha": 1.0, "theta": [{"angle": 0.0, "m": math.nan}]}, "'theta'"),
        ("stable", {"alpha": 1.0, "theta": [{"angle": math.nan, "m": 1.0}]}, "'theta'"),
        ("stable", {"alpha": 1.0, "theta": [{"angle": 0.0, "m": math.inf}]}, "'theta'"),
        ("stable", {**SQUARE_SPEC, "v": [0.0, math.nan]}, "'v'"),
        ("limit", {"L": math.nan, "rows": [{"measures": [DIRAC_JSON]}]}, "'L'"),
        ("limit", {"L": -math.inf, "rows": [{"measures": [DIRAC_JSON]}]}, "'L'"),
        ("limit", {"rows": [{"measures": [DIRAC_JSON], "shift": [math.nan, 0.0]}]}, "'shift'"),
        ("fullness", {"terms": [{"measure": TWO_ATOM_JSON}], "shift": [0.0, math.inf]}, "'shift'"),
        ("idlaw", {**ZERO_TRIPLET, "v": [math.nan, 0.0]}, "'v'"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [], "radial": {"alpha": 1.0, "theta": [], "r_min": math.nan}}},
         "'tau.radial.r_min'"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [], "radial": {"alpha": 1.0, "theta": [], "r_max": math.inf}}},
         "'tau.radial.r_max'"),
        ("probes", [{"z": [0.0, math.inf], "w": [0.0, 5.0]}], "'z'"),
        ("idlaw", {**ZERO_TRIPLET, "tau": {"atoms": [{"x": [1.0, 0.5], "m": math.nan}]}}, "'tau.atoms'"),
        ("idlaw", {**ZERO_TRIPLET, "A": [[math.inf, 0.0], [0.0, 1.0]]}, "'A'"),
        ("stable", {**SQUARE_SPEC, "gaussian_A": [[1.0, 0.0], [0.0, math.inf]]}, "'gaussian_A'"),
        ("probes", [{"z": [1.0, 2.0], "w": [1.0, 0.0]}], "probes entry 0"),
        ("probes", [{"z": [0.0, 5.0], "w": [0.0, 5.0]}, {"z": [3.0, 0.0], "w": [0.0, -5.0]}], "probes entry 1"),
        ("stable-probes", [{"z": [1.0, 2.0], "w": [1.0, 0.0]}, {"z": [0.0, 4.0], "w": [0.0, 4.0]}], "probes entry 0"),
        ("config", {"epsilon": True}, "'epsilon'"),
        ("config", {"grid": False}, "'grid'"),
    ])
    def test_exit_2_names_the_key(self, tmp_path, capsys, command, payload, key):
        out = str(tmp_path / "out")
        if command == "config":
            args = ["--config", write(tmp_path / "cfg.json", payload), "--out", out,
                    "convolve", write(tmp_path / "m.json", TWO_ATOM_JSON)]
        elif command == "probes":
            args = ["--probes", write(tmp_path / "p.json", payload), "--out", out,
                    "convolve", write(tmp_path / "m.json", TWO_ATOM_JSON)]
        elif command == "shift":
            args = ["--out", out, "convolve", write(tmp_path / "m.json", TWO_ATOM_JSON), "--shift", payload]
        elif command == "flag":
            args = ["--out", out, payload, "convolve", write(tmp_path / "m.json", TWO_ATOM_JSON)]
        elif command == "stable":
            args = ["--out", out, "stable", write(tmp_path / "s.json", payload), "--a", "2", "--b", "0"]
        elif command == "stable-probes":
            args = ["--probes", write(tmp_path / "p.json", payload), "--out", out,
                    "stable", write(tmp_path / "s.json", {"alpha": 1.0, "theta": [{"angle": 0.0, "m": 1.0}]}),
                    "--a", "1", "--b", "2"]
        elif command in ("limit", "fullness"):
            args = ["--out", out, command, write(tmp_path / "in.json", payload)]
        else:
            args = ["--out", out, "idlaw", write(tmp_path / "t.json", payload)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and key in err

    @pytest.mark.parametrize("grid", ["--grid=5:-5:16,-5:5:16", "--grid=nan:5:16,-5:5:16", "--grid=-5:5:4,-5:5:16"])
    def test_rejected_grid_writes_no_file(self, tmp_path, grid):
        out = tmp_path / "out"
        assert main(["--out", str(out), grid, "convolve", write(tmp_path / "m.json", TWO_ATOM_JSON)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_rejected_shift_writes_no_file(self, tmp_path):
        out = tmp_path / "out"
        m = write(tmp_path / "m.json", TWO_ATOM_JSON)
        assert main(["--out", str(out), "--grid=-3:3:8,-3:3:8", "convolve", m, m, "--shift", "nan,0"]) == 2
        assert not out.exists() or not any(out.iterdir())


class TestCliConvolve:
    def test_basic_run(self, tmp_path):
        f1 = write(tmp_path / "m1.json", DIRAC_JSON)
        f2 = write(tmp_path / "m2.json", DIRAC_JSON)
        out = tmp_path / "out"
        code = main([
            "--out", str(out), "--grid=-4:4:16,-4:4:16", "--epsilon", "0.1",
            "convolve", f1, f2,
        ])
        assert code == 0
        assert (out / "density.csv").exists()
        probes = json.loads((out / "phi_probes.json").read_text())
        # delta_(1,1) ++ delta_(1,1) = delta_(2,2): phi = 2/z + 2/w
        entry = probes["probes"][0]
        z = complex(*entry["z"])
        w = complex(*entry["w"])
        expect = 2.0 / z + 2.0 / w
        assert complex(*entry["phi"]) == pytest.approx(expect, abs=1e-10)

    def test_deterministic(self, tmp_path):
        f1 = write(tmp_path / "m.json", TWO_ATOM_JSON)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "--out", str(out), "--grid=-3:3:12,-3:3:12", "--epsilon", "0.2",
                "convolve", f1,
            ]) == 0
            outs.append((out / "density.csv").read_bytes() + (out / "phi_probes.json").read_bytes())
        assert outs[0] == outs[1]

    def test_default_probes_above_the_cone_height(self, tmp_path):
        f1 = write(tmp_path / "m.json", TWO_ATOM_JSON)
        out = tmp_path / "out"
        assert main(["--out", str(out), "--grid=-3:3:12,-3:3:12", "convolve", f1, f1]) == 0
        rows = json.loads((out / "phi_probes.json").read_text())["probes"]
        height = cone_for(PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])).M
        assert len(rows) == len(default_fullness_probes())
        for row in rows:
            assert min(abs(row["z"][1]), abs(row["w"][1])) >= height

    def test_convolution_power(self, tmp_path):
        # B2 given 8 times is one law with count 8, and its s-marginal is the
        # Kesten-McKay law of degree 8, smoothed at the default epsilon 0.05
        f1 = write(tmp_path / "m.json", TWO_ATOM_JSON)
        out = tmp_path / "out"
        assert main(["--out", str(out), "convolve", *[f1] * 8]) == 0
        assert json.loads((out / "summary.json").read_text())["terms"] == 8
        rows = np.loadtxt(out / "marginal1.csv", delimiter=",", skiprows=1)
        assert len(rows) == 64
        want = -kesten_mckay_g(8, rows[:, 0] + 0.05j).imag / math.pi
        assert np.max(np.abs(rows[:, 1] - want)) <= 1e-9

    def test_marginals_come_from_the_density_solves(self, tmp_path, monkeypatch):
        m2 = {"atoms": [{"x": [-0.3, 0.6], "w": 0.25}, {"x": [0.8, -0.8], "w": 0.35},
                        {"x": [-1.1, -1.0], "w": 0.4}]}
        files = [write(tmp_path / "m1.json", TWO_ATOM_JSON), write(tmp_path / "m2.json", m2)]
        calls = []
        real = FreeConvRep.f_value
        monkeypatch.setattr(FreeConvRep, "f_value", lambda self, *a, **k: calls.append(1) or real(self, *a, **k))
        out = tmp_path / "out"
        assert main(["--out", str(out), "--grid=-4:4:16,-3:3:12", "--epsilon", "0.1", "convolve", *files]) == 0
        assert len(calls) == 2  # F_1 and F_2, once each
        # the files equal those of the marginal reps' own solves, byte for byte
        rep = bi_free_convolve([measure_from_dict(TWO_ATOM_JSON), measure_from_dict(m2)])
        for axis, ax in ((1, np.linspace(-4, 4, 16)), (2, np.linspace(-3, 3, 12))):
            want = tmp_path / f"want{axis}.csv"
            write_table_csv(want, ["x", "density"], list(zip(ax, rep.marginal(axis).density(ax, 0.1))))
            assert (out / f"marginal{axis}.csv").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("laws", [
        [TWO_ATOM_JSON], [DIRAC_JSON], [TWO_ATOM_JSON, DIRAC_JSON],
    ])
    def test_single_law_marginals_come_from_the_density_solves(self, tmp_path, monkeypatch, laws):
        # one law up to a shift: the grid takes the closed form, the marginals the grid's own solves
        files = [write(tmp_path / f"m{k}.json", law) for k, law in enumerate(laws)]
        calls = []
        real = FreeConvRep.f_value
        monkeypatch.setattr(FreeConvRep, "f_value", lambda self, *a, **k: calls.append(1) or real(self, *a, **k))
        out = tmp_path / "out"
        argv = ["--out", str(out), "--grid=-4:4:16,-3:3:12", "--epsilon", "0.1", "convolve", "--shift", "0.1,0.2"]
        assert main(argv + files) == 0
        assert len(calls) == 2
        rep = bi_free_convolve([measure_from_dict(law) for law in laws], shift=(0.1, 0.2))
        for axis, ax in ((1, np.linspace(-4, 4, 16)), (2, np.linspace(-3, 3, 12))):
            want = tmp_path / f"want{axis}.csv"
            write_table_csv(want, ["x", "density"], list(zip(ax, rep.marginal(axis).density(ax, 0.1))))
            assert (out / f"marginal{axis}.csv").read_bytes() == want.read_bytes()

    def test_schema_error_exit_2(self, tmp_path):
        bad = write(tmp_path / "bad.json", {"atoms": [{"x": [0, 0], "w": 0.4}]})
        assert main(["--out", str(tmp_path / "o"), "convolve", bad]) == 2

    def test_dirac_shift_translates_grid(self, tmp_path):
        f1 = write(tmp_path / "m.json", TWO_ATOM_JSON)
        fd = write(tmp_path / "d.json", {"atoms": [{"x": [1.0, 0.0], "w": 1.0}]})
        out1, out2 = tmp_path / "base", tmp_path / "shifted"
        # aligned windows: the shifted law on [-3,5] equals the base law on [-4,4]
        assert main(["--out", str(out1), "--grid=-4:4:33,-4:4:33", "convolve", f1]) == 0
        assert main(["--out", str(out2), "--grid=-3:5:33,-4:4:33", "convolve", f1, fd]) == 0
        a = (out1 / "density.csv").read_text().splitlines()[2:]
        b = (out2 / "density.csv").read_text().splitlines()[2:]
        va = np.array([[float(x) for x in row.split(",")] for row in a])
        vb = np.array([[float(x) for x in row.split(",")] for row in b])
        assert np.max(np.abs(va - vb)) <= 1e-9

    def test_numeric_error_exit_3(self, tmp_path):
        f1 = write(tmp_path / "m.json", TWO_ATOM_JSON)
        probes = write(
            tmp_path / "probes.json",
            [{"z": [0.0, 1e-9], "w": [0.0, 1e-9]} for _ in range(1)],
        )
        code = main([
            "--out", str(tmp_path / "o"), "--probes", probes,
            "convolve", f1,
        ])
        assert code == 3


class TestCliConfig:
    def test_known_key_applied(self, tmp_path):
        f1 = write(tmp_path / "m.json", TWO_ATOM_JSON)
        cfg = write(tmp_path / "cfg.json", {"epsilon": 0.25})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--grid=-3:3:12,-3:3:12", "convolve", f1]) == 0
        assert json.loads((out / "summary.json").read_text())["epsilon"] == 0.25

    @pytest.mark.parametrize("payload,key", [
        ({"epsilon": 0.25, "threads": 4}, "threads"),
        ({"epsilon": None}, "epsilon"),
        ({"seed": 0}, "seed"),
    ])
    def test_bad_key_exit_2(self, tmp_path, capsys, payload, key):
        f1 = write(tmp_path / "m.json", TWO_ATOM_JSON)
        cfg = write(tmp_path / "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "convolve", f1]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()


class TestCliIdlaw:
    def test_phi_mode(self, tmp_path):
        trip = write(
            tmp_path / "t.json",
            {"v": [0.0, 0.0], "A": [[1.0, 1.0], [1.0, 1.0]], "tau": {"atoms": []}},
        )
        out = tmp_path / "out"
        assert main(["--out", str(out), "idlaw", trip, "--mode", "phi"]) == 0
        payload = json.loads((out / "idlaw.json").read_text())
        entry = payload["probes"][0]
        z = complex(*entry["z"])
        w = complex(*entry["w"])
        assert complex(*entry["phi"]) == pytest.approx(1 / z**2 + 1 / (z * w) + 1 / w**2, abs=1e-12)

    def test_sigma_form_mode(self, tmp_path):
        trip = write(
            tmp_path / "t.json",
            {"v": [1.0, 2.0], "A": [[1.0, 0.0], [0.0, 2.0]],
             "tau": {"atoms": [{"x": [1.0, 1.0], "m": 0.5}]}},
        )
        out = tmp_path / "out"
        assert main(["--out", str(out), "idlaw", trip, "--mode", "sigma-form"]) == 0
        payload = json.loads((out / "idlaw.json").read_text())
        assert payload["round_trip_ok"] is True

    def test_drift_mode(self, tmp_path):
        trip = write(
            tmp_path / "t.json",
            {"v": [0.0, 0.0], "A": [[0.0, 0.0], [0.0, 0.0]],
             "tau": {"atoms": [], "radial": {"alpha": 0.5, "theta": [{"angle": 0.0, "m": 1.0}]}}},
        )
        out = tmp_path / "out"
        assert main(["--out", str(out), "idlaw", trip, "--mode", "drift"]) == 0
        payload = json.loads((out / "idlaw.json").read_text())
        assert payload["drift"] is not None

    def test_quadrature_failure_exit_3_names_integral(self, tmp_path, capsys, monkeypatch):
        trip = write(tmp_path / "t.json", TRUNCATED_JSON)
        monkeypatch.setattr(bifree.idlaw, "QUAD_ERR_TOL", -1.0)  # every estimate fails
        assert main(["--out", str(tmp_path / "out"), "idlaw", trip, "--mode", "cf"]) == 3
        err = capsys.readouterr().err
        assert "integral=cf worst_estimate=" in err and "worst_point=(" in err

    def test_drift_none_for_heavy_radial(self, tmp_path):
        trip = write(
            tmp_path / "t.json",
            {"v": [0.0, 0.0], "A": [[0.0, 0.0], [0.0, 0.0]],
             "tau": {"atoms": [], "radial": {"alpha": 1.5, "theta": [{"angle": 0.0, "m": 1.0}]}}},
        )
        out = tmp_path / "out"
        assert main(["--out", str(out), "idlaw", trip, "--mode", "drift"]) == 0
        assert json.loads((out / "idlaw.json").read_text())["drift"] is None


class TestCliLimit:
    def _poisson_array_payload(self, ns=(8, 32, 128)):
        rows = []
        for n in ns:
            m = {"atoms": [{"x": [0.0, 0.0], "w": 1 - 1 / n}, {"x": [1.0, 1.0], "w": 1 / n}]}
            rows.append({"measures": [m] * n, "shift": [0.0, 0.0]})
        return {"L": 1.0, "rows": rows}

    def test_poisson(self, tmp_path):
        arr = write(tmp_path / "arr.json", self._poisson_array_payload())
        out = tmp_path / "out"
        assert main(["--out", str(out), "limit", arr]) == 0
        trip = json.loads((out / "limit_triplet.json").read_text())
        assert trip["v"][0] == pytest.approx(1 / 3, abs=1e-6)
        report = json.loads((out / "condition_report.json").read_text())
        assert report["verdicts_agree"] is True
        assert (out / "bifree_residuals.csv").exists()

    def test_row_data_built_once(self, tmp_path, monkeypatch):
        calls, diagnostics = [], []
        real_diagnostic = bifree.limits.infinitesimality_diagnostic

        for name in ("build_row_data", "center_row", "row_accumulators"):
            real = getattr(bifree.limits, name)
            monkeypatch.setattr(bifree.limits, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        monkeypatch.setattr(bifree.limits, "infinitesimality_diagnostic",
                            lambda a: diagnostics.append(1) or real_diagnostic(a))
        arr = write(tmp_path / "arr.json", self._poisson_array_payload())
        assert main(["--out", str(tmp_path / "out"), "limit", arr]) == 0
        # once, with the array: each of its three rows centered, then accumulated
        assert calls == ["build_row_data"] + ["center_row", "row_accumulators"] * 3
        assert len(diagnostics) == 1  # one infinitesimality check for both

    def test_bad_law_exit_2_names_its_position(self, tmp_path, capsys):
        arr = write(tmp_path / "arr.json", with_bad_law(BAD_MEASURES[-2][0]))
        assert main(["--out", str(tmp_path / "o"), "limit", arr]) == 2
        assert "rows[1].measures[2]: weights sum to 0.9, not 1" in capsys.readouterr().err

    def test_non_infinitesimal_exit_4(self, tmp_path):
        m = {"atoms": [{"x": [1.0, 1.0], "w": 0.5}, {"x": [0.0, 0.0], "w": 0.5}]}
        payload = {"rows": [{"measures": [m] * n, "shift": [0, 0]} for n in (2, 4, 8)]}
        arr = write(tmp_path / "arr.json", payload)
        assert main(["--out", str(tmp_path / "o"), "limit", arr]) == 4


class TestCliStable:
    def test_gaussian(self, tmp_path):
        spec = write(tmp_path / "s.json", {"alpha": 2.0, "gaussian_A": [[1, 0], [0, 1]]})
        out = tmp_path / "out"
        assert main(["--out", str(out), "stable", spec, "--a", "1.0", "--b", "1.0"]) == 0
        rep = json.loads((out / "stability_report.json").read_text())
        assert rep["is_stable"] is True
        assert rep["c"] == pytest.approx(math.sqrt(2))

    def test_eight_ray_cauchy_type(self, tmp_path):
        # alpha = 1 on rays at 2 pi k/8: cos(pi/4) and sin(pi/4) differ by one
        # ulp, so z = w probes sit next to the confluent case omega1 w = omega2 z
        theta = [{"angle": 2 * math.pi * k / 8, "m": 0.125} for k in range(8)]
        spec = write(tmp_path / "s.json", {"alpha": 1.0, "theta": theta})
        out = tmp_path / "out"
        assert main(["--out", str(out), "stable", spec, "--a", "1", "--b", "2"]) == 0
        rep = json.loads((out / "stability_report.json").read_text())
        assert rep["is_stable"] is True
        assert rep["max_residual"] <= 1e-6
        assert rep["c"] == pytest.approx(3.0)

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_dilation_exit_4(self, tmp_path, a):
        spec = write(tmp_path / "s.json", {"alpha": 2.0, "gaussian_A": [[1, 0], [0, 1]]})
        out = tmp_path / "out"
        assert main(["--out", str(out), "stable", spec, "--a", a, "--b", "2"]) == 4
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["stable", "doa"])
    def test_one_probe_exit_4(self, tmp_path, capsys, command):
        # one probe fits the two-parameter shift exactly, so no verdict can be read from it
        probes = write(tmp_path / "p.json", [{"z": [1.0, 2.0], "w": [-1.0, 3.0]}])
        spec = write(tmp_path / "s.json", {"alpha": 1.0, "theta": [{"angle": 0.0, "m": 1.0}]})
        out = tmp_path / "out"
        args = (["stable", spec, "--a", "1", "--b", "2"] if command == "stable"
                else ["doa", write(tmp_path / "nu.json", TWO_ATOM_JSON), spec, "--ns", "8,32,128"])
        assert main(["--probes", probes, "--out", str(out), *args]) == 4
        assert "need at least two probes" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("ns", ["-8,32", "0,8"])
    def test_doa_sizes_below_one_exit_4(self, tmp_path, capsys, ns):
        spec = write(tmp_path / "s.json", {"alpha": 2.0, "gaussian_A": [[1, 1], [1, 1]]})
        out = tmp_path / "out"
        assert main(["--out", str(out), "doa", write(tmp_path / "nu.json", TWO_ATOM_JSON), spec, f"--ns={ns}"]) == 4
        assert "sample sizes must be at least 1" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_doa(self, tmp_path):
        nu = write(tmp_path / "nu.json", TWO_ATOM_JSON)
        spec = write(tmp_path / "s.json", {"alpha": 2.0, "gaussian_A": [[1, 1], [1, 1]]})
        out = tmp_path / "out"
        assert main(["--out", str(out), "doa", nu, spec, "--ns", "8,16,32,64"]) == 0
        rep = json.loads((out / "doa_report.json").read_text())
        assert rep["agree"] is True
        assert rep["bifree_converged"] is True


class TestCliFullness:
    def test_measure_g(self, tmp_path):
        f = write(tmp_path / "m.json", TWO_ATOM_JSON)
        out = tmp_path / "out"
        assert main(["--out", str(out), "fullness", f, "--method", "g"]) == 0
        rep = json.loads((out / "fullness_report.json").read_text())
        assert rep["is_full"] is False
        assert rep["line"][0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_triplet_method(self, tmp_path):
        f = write(
            tmp_path / "t.json",
            {"v": [0.5, -0.5], "A": [[1.0, 1.0], [1.0, 1.0]], "tau": {"atoms": []}},
        )
        out = tmp_path / "out"
        assert main(["--out", str(out), "fullness", f, "--method", "triplet"]) == 0
        rep = json.loads((out / "fullness_report.json").read_text())
        assert rep["is_full"] is False

    @pytest.mark.parametrize("payload,full", [
        ({"v": [0.5, 0.5], "A": [[1.0, 1.0], [1.0, 1.0]], "tau": {"atoms": [{"x": [1.0, 1.0], "m": 0.5}]}}, False),
        ({"v": [0.5, -0.5], "A": [[1.0, 0.0], [0.0, 1.0]], "tau": {"atoms": [{"x": [1.0, 1.0], "m": 0.5}]}}, True),
    ])
    def test_triplet_g(self, tmp_path, payload, full):
        # a triplet file under --method g is convolved alone and fitted on its Cauchy transforms
        f = write(tmp_path / "t.json", payload)
        out = tmp_path / "out"
        assert main(["--out", str(out), "fullness", f, "--method", "g"]) == 0
        rep = json.loads((out / "fullness_report.json").read_text())
        assert rep["method"] == "cauchy"
        assert rep["is_full"] is full
        if not full:
            assert rep["line"] == pytest.approx([1 / math.sqrt(2), -1 / math.sqrt(2), 0.0], abs=1e-9)

    def test_rep_phi_default_probes_in_cone(self, tmp_path):
        # B2 ++ a three-atom diagonal law has cone height 13.6; invert_f
        # fails (exit 3) at the unscaled default probes, |Im| ~ 2
        b2 = [{"x": [1.0, 1.0], "w": 0.5}, {"x": [-1.0, -1.0], "w": 0.5}]
        diag = [{"x": [-0.8, -0.8], "w": 0.3}, {"x": [0.2, 0.2], "w": 0.3}, {"x": [1.2, 1.2], "w": 0.4}]
        f = write(tmp_path / "rep.json", {"terms": [{"measure": {"atoms": b2}}, {"measure": {"atoms": diag}}],
                                          "shift": [0.0, 0.0]})
        out = tmp_path / "out"
        assert main(["--out", str(out), "fullness", f, "--method", "phi"]) == 0
        rep = json.loads((out / "fullness_report.json").read_text())
        assert rep["is_full"] is False
        assert abs(rep["line"][0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_unknown_file_schema_exit(self, tmp_path):
        assert main(["--out", str(tmp_path), "fullness", str(tmp_path / "nope.json")]) == 2


def test_cli_import_leaves_scipy_integrate_out():
    # a fresh interpreter: the test process has imported scipy.integrate already
    src = str(Path(bifree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, bifree.cli; print('scipy.integrate' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_truncated_rays_leave_scipy_out():
    # a fresh interpreter: truncated-ray phi, CF and drift import no scipy module
    src = str(Path(bifree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, json, bifree.serialize as io; "
            f"t = io.triplet_from_dict(json.loads({json.dumps(json.dumps(TRUNCATED_JSON))})); "
            "t.bi_free_phi(2j, 3j); t.classical_cf((0.5, -1.0)); t.drift(); "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"
