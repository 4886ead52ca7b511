import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdgcd.cli
from hdgcd.cli import (STUDIES, RunConfig, StudyError, dump_field_grid, dump_trace, main,
                       run_study)
from hdgcd.mesh import Mesh, _locate_points, build_uniform_triangulation
from hdgcd.problems import case_smooth
from hdgcd.solver import SingularSystemError, solve_hdg


def data_rows(text):
    return [line for line in text.strip().splitlines() if not line.startswith("#")]


def test_run_config_validation():
    config = RunConfig(study="skeleton_compare").validate()
    assert (config.problem, config.degree, config.mesh_sizes, config.eta) == (
        "layer", 1, (10,), 10.0)
    with pytest.raises(ValueError):
        RunConfig(study="sweep").validate()
    with pytest.raises(ValueError):
        RunConfig(problem="ramp").validate()
    with pytest.raises(ValueError):
        RunConfig(method="fem").validate()
    with pytest.raises(ValueError):
        RunConfig(method="supg", degree=2).validate()
    with pytest.raises(ValueError):
        RunConfig(skeleton="cg", degree=2).validate()
    with pytest.raises(ValueError):
        RunConfig(epsilon=0.0).validate()
    with pytest.raises(ValueError):
        RunConfig(mesh_sizes=()).validate()
    with pytest.raises(ValueError):
        RunConfig(eta=-1.0).validate()
    # the P1 baseline has no penalty and no trace space to set
    with pytest.raises(ValueError, match="^--eta 3.0 does not apply to --method supg"):
        RunConfig(method="supg", eta=3.0).validate()
    with pytest.raises(ValueError, match="^--skeleton cg does not apply to --method supg"):
        RunConfig(method="supg", skeleton="cg").validate()
    # a repeated mesh size would divide by log(1) in the rates
    for sizes in ((4, 4), (8, 4)):
        with pytest.raises(ValueError, match=f"^--n {sizes[0]},{sizes[1]} "):
            RunConfig(mesh_sizes=sizes).validate()
    supg = RunConfig(study="convergence", method="supg").validate()
    assert (supg.eta, supg.skeleton) == (10.0, "dg") and supg.validate() == supg


@pytest.mark.parametrize("study,flag,value", [
    ("layer", "--method", "supg"),
    ("reduced_limit", "--method", "supg"),
    ("skeleton_compare", "--method", "supg"),
    ("layer", "--problem", "smooth"),
    ("reduced_limit", "--epsilon", "1e-3"),
    ("reduced_limit", "--n", "2,4"),
    ("skeleton_compare", "--degree", "2"),
    ("skeleton_compare", "--skeleton", "cg"),
], ids=lambda v: v.lstrip("-") if v.startswith("--") else v)
def test_main_rejects_flag_the_study_fixes(study, flag, value, capsys):
    # --n 2 keeps a wrongly accepted run short; a later --n overrides it
    code = main(["--study", study, "--n", "2", flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ") and study in captured.err


def test_convergence_study_schema():
    config = RunConfig(study="convergence", problem="smooth", epsilon=1e-3,
                       mesh_sizes=(4, 8))
    text = run_study(config)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# hdgcd convergence v1: n,h,dofs_total,")
    assert lines[1].startswith("# config:")
    rows = data_rows(text)
    assert len(rows) == 2
    first = rows[0].split(",")
    assert first[0] == "4"
    assert first[7] == "" and first[8] == ""  # no rates on the first row
    second = rows[1].split(",")
    assert float(second[7]) == pytest.approx(2.0, abs=0.3)
    assert float(second[8]) == pytest.approx(1.0, abs=0.2)
    # dofs columns match the solver's accounting
    mesh = build_uniform_triangulation(4)
    assert int(first[1 + 1]) == 2 * 4 * 4 * 3 + 2 * (mesh.n_edges - 16)


def test_convergence_study_supg_has_blank_hdg_column():
    config = RunConfig(method="supg", epsilon=1.0, mesh_sizes=(4,))
    text = run_study(config)
    row = data_rows(text)[0].split(",")
    assert row[3] == ""  # no skeleton dofs
    assert row[6] == ""  # no scheme norm
    assert float(row[4]) > 0.0


def test_convergence_study_rerun_identical():
    config = RunConfig(mesh_sizes=(4, 8), epsilon=1e-3)
    assert run_study(config) == run_study(config)


def test_convergence_study_writes_file(tmp_path):
    out = tmp_path / "table.csv"
    config = RunConfig(mesh_sizes=(4,), out=str(out))
    text = run_study(config)
    assert out.read_text() == text


def test_layer_study_columns_and_dumps(tmp_path):
    out = tmp_path / "layer.csv"
    config = RunConfig(study="layer", epsilon=1e-6, mesh_sizes=(5,),
                       out=str(out))
    text = run_study(config)
    header = text.splitlines()[0]
    assert "overshoot_hdg" in header and "overshoot_supg" in header
    row = data_rows(text)[0].split(",")
    over_hdg, over_supg = float(row[9]), float(row[10])
    assert over_supg > over_hdg
    for stem in ("layer_uh_hdg_n5.npy", "layer_uhat_hdg_n5.npy",
                 "layer_uh_supg_n5.npy"):
        cols = np.load(tmp_path / stem)
        assert cols.dtype == np.float64 and cols.ndim == 2 and cols.shape[1] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "layer.csv", "layer_uh_hdg_n5.npy", "layer_uh_supg_n5.npy", "layer_uhat_hdg_n5.npy"]
    grid = np.load(tmp_path / "layer_uh_hdg_n5.npy")
    assert grid.shape[0] == 101 * 101
    assert grid[:, 0].min() == 0.0 and grid[:, 0].max() == 1.0


def test_reduced_limit_study_bounded():
    config = RunConfig(study="reduced_limit", mesh_sizes=(8,))
    text = run_study(config)
    rows = data_rows(text)
    assert len(rows) == 6
    dists = [float(r.split(",")[3]) for r in rows]
    # the pure-diffusion entry dominates; the tail is epsilon-robust
    assert dists[0] == max(dists)
    assert max(dists[-2:]) / min(dists[-2:]) <= 2.0
    assert "# last_two_ratio_l2=" in text


def test_reduced_limit_study_raises_on_divergence(monkeypatch):
    config = RunConfig(study="reduced_limit", mesh_sizes=(2,))
    # a diverging artificial sweep: epsilons whose distances differ wildly,
    # because the small-epsilon tail is removed
    monkeypatch.setattr(hdgcd.cli, "REDUCED_EPSILONS", (1.0, 1e-2))
    with pytest.raises(StudyError):
        run_study(config)


def test_last_two_ratio_skips_a_zero_distance():
    rows = [{"err_l2": 0.0}, {"err_l2": 1.0}]
    assert hdgcd.cli._last_two_ratio(rows) == ([], None)
    assert hdgcd.cli._last_two_ratio(rows[1:]) == ([], None)
    # a ratio between 2 and 3 already fails
    comments, failure = hdgcd.cli._last_two_ratio([{"err_l2": 1.0}, {"err_l2": 2.5}])
    assert comments == ["# last_two_ratio_l2=2.500000"]
    assert failure == "distance to the reduced solution is not bounded: last-two ratio 2.500 > 2"


def test_overflowing_field_fails_by_name_without_a_warning(capsys):
    # the layer source at epsilon = 1e-300 divides inf by inf, and at 1e308
    # the source check's own eps * lap overflows before f is read; the
    # warning would be an error here (filterwarnings = error)
    for argv in (["--study", "layer", "--epsilon", "1e-300", "--n", "2,4"],
                 ["--epsilon", "1e308", "--n", "2"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: field f has non-finite values\n")


@pytest.mark.parametrize("argv", [["--problem", "layer", "--epsilon", "1e160"],
                                  ["--study", "layer", "--epsilon", "1e308"]])
def test_a_field_that_raises_overflow_fails_by_name(argv, capsys):
    # eps ** 2 of a Python float raises OverflowError in the layer source;
    # the gradient forms no eps ** 2, so f is the first field to overflow
    assert main(argv + ["--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: field f fails to evaluate: OverflowError: ")
    assert captured.err.count("\n") == 1


def test_out_of_memory_fails_by_name(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(hdgcd.cli, "solve_hdg", no_memory)
    assert main(["--n", "4"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory; lower --n or --degree\n")


def test_skeleton_comparison_rows():
    config = RunConfig(study="skeleton_compare", epsilon=1e-6, mesh_sizes=(5,))
    text = run_study(config)
    rows = data_rows(text)
    assert len(rows) == 2
    by_mode = {r.split(",")[0]: r.split(",") for r in rows}
    assert set(by_mode) == {"dg", "cg"}
    assert int(by_mode["cg"][4]) < int(by_mode["dg"][4])
    assert float(by_mode["cg"][6]) > float(by_mode["dg"][6])


def test_dump_field_grid_matches_solution(tmp_path):
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(4, case.problem.boundary)
    sol = solve_hdg(case.problem, mesh, degree=1)
    path = tmp_path / "field.npy"
    dump_field_grid(sol, path)
    data = np.load(path)
    assert data.shape == (101 * 101, 3)
    # compare a handful of rows against direct evaluation; on element
    # boundaries the broken field is multivalued, so accept any candidate
    from hdgcd.fespace import get_element_basis
    basis = get_element_basis(1)
    for i in (0, 57, 200, 5100, 10200):
        x, y, v = data[i]
        candidates = []
        for t in range(mesh.n_elements):
            v0 = mesh.vertices[mesh.triangles[t, 0]]
            ref = np.linalg.solve(mesh.jacobians[t], np.array([x, y]) - v0)
            if ref.min() >= -1e-12 and ref.sum() <= 1 + 1e-12:
                candidates.append((basis.values(ref[None, :]) @ sol.u[t]).item())
        assert candidates
        assert min(abs(v - c) for c in candidates) < 1e-12
    # sample points are located on the uniform grid only
    generic = solve_hdg(case.problem, Mesh(mesh.vertices, mesh.triangles), degree=1)
    with pytest.raises(ValueError, match="build_uniform_triangulation"):
        dump_field_grid(generic, tmp_path / "generic.npy")


def _same_bits(path, pts, vals):
    """The dump at ``path`` holds exactly the float64 rows (x, y, value),
    compared bit for bit so that NaN, -0.0 and subnormals count."""
    data = np.load(path)
    expected = np.column_stack([pts, vals])
    return data.dtype == np.float64 and np.array_equal(data.view(np.uint64),
                                                       expected.view(np.uint64))


def test_dumps_write_the_formatted_samples(tmp_path):
    # The dumps hold exactly (x, y, value) on the 101 x 101 grid, x fastest,
    # and at three samples per edge, edge by edge, also for non-finite,
    # negative-zero and subnormal values.
    from hdgcd.fespace import get_edge_basis, get_element_basis
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(4, case.problem.boundary)
    smooth = solve_hdg(case.problem, mesh, degree=2)
    odd = solve_hdg(case.problem, mesh, degree=2)
    odd.u[0], odd.u[5], odd.u[9] = np.nan, -0.0, 1e-310
    odd.uhat[:3] = np.nan, -0.0, 5e-324
    xs = np.linspace(0.0, 1.0, 101)
    pts = np.column_stack([np.tile(xs, 101), np.repeat(xs, 101)])
    elems, ref = _locate_points(mesh, pts)
    ts = np.array([0.0, 0.5, 1.0])
    for sol in (smooth, odd):
        vals = (sol.u[elems] * get_element_basis(2).values(ref)).sum(axis=1)
        dump_field_grid(sol, tmp_path / "grid.npy")
        assert _same_bits(tmp_path / "grid.npy", pts, vals)
        skel = sol.dofmap.skeleton_edges
        vals = sol.edge_traces()[skel] @ get_edge_basis(2).values(ts).T
        dump_trace(sol, tmp_path / "trace.npy")
        assert _same_bits(tmp_path / "trace.npy",
                          mesh.edge_points(ts, skel).reshape(-1, 2), vals.ravel())
    grid, trace = np.load(tmp_path / "grid.npy"), np.load(tmp_path / "trace.npy")
    assert np.isnan(grid[:, 2]).any() and (np.abs(grid[:, 2]) == 1e-310).any()
    assert np.isnan(trace[:, 2]).any()
    # no sum of products gives -0.0, so the writer sees it directly
    pts, vals = np.array([[-0.0, 5e-324]]), np.array([-0.0])
    hdgcd.cli._write_samples(tmp_path / "odd.npy", pts, vals)
    assert _same_bits(tmp_path / "odd.npy", pts, vals)
    # the dump goes to exactly the given name, with no .npy appended
    dump_field_grid(odd, tmp_path / "field.dat")
    assert (tmp_path / "field.dat").exists() and not (tmp_path / "field.dat.npy").exists()
    assert (tmp_path / "field.dat").read_bytes() == (tmp_path / "grid.npy").read_bytes()
    # and a rerun writes the same bytes
    first = (tmp_path / "trace.npy").read_bytes()
    dump_trace(odd, tmp_path / "trace.npy")
    assert (tmp_path / "trace.npy").read_bytes() == first


def test_a_row_sampler_samples_as_each_dump_did_alone():
    # One GridSampler serves solutions of several degrees on its mesh and
    # gives what a dump that located the grid by itself gives: bit for bit
    # at k <= 2; at k = 3 within 1e-15 of the largest |value|, so that a
    # sampler may sum the basis terms in another order.
    from hdgcd.fespace import get_element_basis
    from hdgcd.supg import solve_supg
    case = case_smooth(1e-2)
    mesh = build_uniform_triangulation(5, case.problem.boundary)
    grid = hdgcd.cli.GridSampler(mesh)
    xs = np.linspace(0.0, 1.0, 101)
    pts = np.column_stack([np.tile(xs, 101), np.repeat(xs, 101)])
    elems, ref = _locate_points(mesh, pts)
    sols = [solve_hdg(case.problem, mesh, degree=k) for k in (1, 2, 3)]
    for sol in sols + [solve_supg(case.problem, mesh)]:
        expected = (sol.u[elems] * get_element_basis(sol.degree).values(ref)).sum(axis=1)
        got_pts, got = grid.sample(sol)
        assert np.array_equal(got_pts, pts)
        if sol.degree <= 2:
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        else:
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


def test_main_writes_csv_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["--study", "convergence", "--n", "4", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("# hdgcd convergence v1:")
    assert capsys.readouterr().out == ""

    code = main(["--study", "convergence", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("# hdgcd convergence v1:")

    code = main(["--epsilon", "-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_main_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("study = convergence\nn = 4\nepsilon = 1e-3\n# note\n")
    code = main(["--config", str(cfg), "--epsilon", "1.0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "epsilon=1.000000e+00" in captured.out
    assert "n=4" in captured.out

    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not key value\n")
    assert main(["--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")

    bad.write_text("n = 4\nepsilom = 1e-3\n")
    assert main(["--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: unknown config key 'epsilom'; available: ")

    # a bad value fails the same way from the file and from the flag
    bad.write_text("n = 4\ndegree = two\n")
    for argv in (["--config", str(bad)], ["--n", "4", "--degree", "two"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: bad value for degree: ")


@pytest.mark.parametrize("flag,value,message", [
    ("--eta", "inf", "penalty eta must be positive and finite, got inf"),
    ("--epsilon", "inf", "diffusion coefficient must be positive and finite, got inf"),
    ("--study", "foo", "unknown study 'foo'; available: convergence, "),
    ("--degree", "11", "polynomial degree 11 exceeds supported maximum 10"),
    ("--n", ",,10", "bad value for n: could not parse mesh sizes from ',,10'"),
    ("--problem", "ramp", "unknown case 'ramp'; available: smooth, layer, reduced_limit"),
    ("--skeleton", "cgx", "unknown skeleton mode 'cgx'"),
    ("--degree", "0", "polynomial degree must be >= 1, got 0"),
], ids=["eta", "epsilon", "study", "degree", "n", "problem", "skeleton", "degree0"])
def test_main_rejects_bad_flag_value(flag, value, message, capsys):
    assert main(["--n", "2,4", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("study,epsilon,degree", [
    ("convergence", 1.0, 7), ("convergence", 1.0, 8), ("layer", 1e-2, 7), ("layer", 1e-2, 8)])
def test_high_degree_rows_use_a_quadrature_that_follows_k(study, epsilon, degree):
    # fixed order-12 rules ignored k: err_hdg read 3.8e3 at k = 7 and the
    # rows of k = 8 were "# error: n=2: Singular matrix"
    text = run_study(RunConfig(study=study, epsilon=epsilon, degree=degree, mesh_sizes=(2, 4)))
    assert "# error:" not in text
    columns = text.splitlines()[0].split(": ")[1].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in data_rows(text)]
    assert len(rows) == 2
    assert all(np.isfinite(float(row["err_hdg"])) for row in rows)
    if study == "convergence":
        assert max(float(row["err_hdg"]) for row in rows) <= 1e-2


@pytest.mark.parametrize("study", ["convergence", "layer"])
def test_failing_row_becomes_error_comment_in_sweep_order(study, monkeypatch, capsys):
    solve = hdgcd.cli.solve_hdg

    def singular_at_n8(problem, mesh, **kwargs):
        if mesh.generator_n == 8:
            raise SingularSystemError("skeleton system is singular")
        return solve(problem, mesh, **kwargs)

    monkeypatch.setattr(hdgcd.cli, "solve_hdg", singular_at_n8)
    assert main(["--study", study, "--n", "4,8,16"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == [
        "4", "# error: n=8: skeleton system is singular", "16"]
    assert rows[2].split(",")[7:9] == ["", ""]  # rates restart after the error


RECORDED = json.loads((Path(__file__).parent / "data" / "study_outputs.json").read_text())
EXACT_COLUMNS = ("n", "mode", "dofs_total", "dofs_skeleton")


def _assert_same_table(got, want):
    assert len(got) == len(want)
    columns = want[0].split(": ", 1)[1].split(",")
    for g, w in zip(got, want):
        if w.startswith("#"):
            assert g == w
            continue
        for col, gv, wv in zip(columns, g.split(","), w.split(","), strict=True):
            if col.startswith("rate") or col in EXACT_COLUMNS or not wv:
                assert gv == wv, col
            else:
                assert abs(float(gv) - float(wv)) <= 1e-12 * abs(float(wv)), (col, gv, wv)


def test_every_study_has_recorded_outputs():
    studies = {argv[argv.index("--study") + 1] for argv in (r["argv"].split() for r in RECORDED)}
    assert studies == set(STUDIES)


@pytest.mark.parametrize("run", RECORDED, ids=[r["argv"] for r in RECORDED])
def test_study_outputs_match_recorded(run, capsys):
    # Same answers: small studies reproduce their recorded CSVs (comments,
    # integer and rate columns exactly, other numbers to 1e-12 relative).
    assert main(run["argv"].split()) == 0
    _assert_same_table(capsys.readouterr().out.splitlines(), run["lines"])


# scipy subpackages no hdgcd module needs at run time (it uses scipy.sparse
# and scipy.sparse.linalg); importing any of them costs every process tenths
# of a second and megabytes of RSS
UNUSED_SCIPY = ("scipy.optimize", "scipy.special", "scipy.spatial", "scipy.fft",
                "scipy.integrate", "scipy.interpolate", "scipy.stats")


def test_cli_import_leaves_unused_scipy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hdgcd.cli; print(hdgcd.cli.__file__); print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    origin, modules = proc.stdout.splitlines()
    assert Path(origin).resolve().is_relative_to(src)
    assert sorted(set(modules.split()) & set(UNUSED_SCIPY)) == []
