import inspect
import math
import re

import numpy as np
import pytest

from bicavity import (
    ERROR_CODES,
    BicavityError,
    DegenerateSteadyStateError,
    FIGURE_NAMES,
    Axis,
    ResultTable,
    SystemParams,
    SteadyStateSolverError,
    SweepError,
    SweepSpec,
    UndefinedCorrelationError,
    emit_csv,
    figure_preset,
    linear_axis,
    reference_baseline,
    read_csv,
    run_sweep,
    solve_weak_drive,
    spectrum,
    value_axis,
)
from bicavity.weakdrive import abs2, solve_weak_drive_rows
from bicavity import errors, sweep


def small_spec(**overrides):
    kwargs = dict(
        base=reference_baseline(),
        axes=(value_axis("delta", [-40.0, 0.0, 40.0]),),
        outputs=("g2_ccw",),
        cutoff=2,
        tie_delta_a=True,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("bogus", (1.0,))
    with pytest.raises(ValueError):
        linear_axis("delta", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        linear_axis("delta", 1.0, 1.0, 5)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(outputs=("nope",))
    with pytest.raises(ValueError):
        small_spec(axes=())
    with pytest.raises(ValueError):
        small_spec(cutoff=0)


@pytest.mark.parametrize("cutoff", [True, False, 2.0, "2", None])
def test_cutoff_must_be_an_integer(cutoff):
    with pytest.raises(errors.InvalidTruncationError, match="photon cutoff must be an integer"):
        small_spec(cutoff=cutoff)


def test_numpy_integer_cutoff_is_an_integer():
    table = run_sweep(small_spec(cutoff=np.int64(2)))
    assert table == run_sweep(small_spec(cutoff=2))
    assert table.metadata["cutoff_n_a"] == "2"


def test_repeated_output_rejected():
    with pytest.raises(ValueError, match="output 'g2_analytic' is requested twice"):
        small_spec(outputs=("g2_analytic", "c1_abs2", "g2_analytic"))


@pytest.mark.parametrize(
    "first, second, tie, shared",
    [
        ("delta", "delta", False, "delta"),
        ("g", "g_a", False, "g_a"),
        ("g_b", "g", False, "g_b"),
        ("delta", "delta_a", True, "delta_a"),
    ],
)
def test_axes_setting_one_field_rejected(first, second, tie, shared):
    axes = (value_axis(first, [0.0, 40.0]), value_axis(second, [-40.0]))
    with pytest.raises(ValueError, match=f"^axes '{first}' and '{second}' both set {shared}$"):
        small_spec(axes=axes, tie_delta_a=tie)


@pytest.mark.parametrize("label", ["a\nb", "a\rb"])
def test_multiline_label_rejected(label):
    with pytest.raises(ValueError, match="label must be one line"):
        small_spec(label=label)


def test_run_sweep_basic():
    table = run_sweep(small_spec(outputs=("g2_ccw", "n_ccw")))
    assert table.columns == ["delta", "g2_ccw", "n_ccw", "error"]
    assert len(table.rows) == 3
    assert np.all(table.column("error") == 0.0)
    assert list(table.column("delta")) == [-40.0, 0.0, 40.0]
    # tied detuning keeps the blockade dip symmetric
    g2 = table.column("g2_ccw")
    assert g2[0] == pytest.approx(g2[2], rel=1e-6)
    assert table.metadata["points_failed"] == "0"
    assert table.metadata["tie_delta_a"] == "true"


def test_g_alias_sets_both_couplings():
    spec = SweepSpec(
        base=reference_baseline(g_a=0.0, g_b=0.0),
        axes=(value_axis("g", [0.0, 20.0]),),
        outputs=("g2_analytic",),
    )
    g2 = run_sweep(spec).column("g2_analytic")
    assert g2[0] == pytest.approx(1.0, abs=1e-12)  # no emitter -> coherent
    assert g2[1] == pytest.approx(0.46970546250487405, rel=1e-12)


def test_two_axes_row_order_first_axis_outer():
    spec = SweepSpec(
        base=reference_baseline(),
        axes=(value_axis("j_coupling", [0.0, 800.0]),
              value_axis("delta", [-40.0, 40.0])),
        outputs=("g2_analytic",),
    )
    table = run_sweep(spec)
    assert [tuple(r[:2]) for r in table.rows] == [
        (0.0, -40.0), (0.0, 40.0), (800.0, -40.0), (800.0, 40.0)
    ]


def test_failed_points_tagged_not_dropped():
    spec = SweepSpec(
        base=reference_baseline(),
        axes=(value_axis("drive", [0.0, 1.0]),),
        outputs=("g2_ccw",),
        cutoff=2,
    )
    table = run_sweep(spec)
    assert len(table.rows) == 2
    codes = table.column("error")
    assert codes[0] == ERROR_CODES["undefined_correlation"]
    assert codes[1] == ERROR_CODES["ok"]
    assert math.isnan(table.column("g2_ccw")[0])
    assert table.metadata["points_failed"] == "1"


def test_analytic_zero_drive_is_undefined_correlation():
    for g_b in (31.0, 12.0):  # 12 is the common-coupling case g_a == g_b
        spec = SweepSpec(
            base=reference_baseline(g_a=12.0, g_b=g_b),
            axes=(value_axis("drive", [0.0, 1.0]),),
            outputs=("g2_analytic",),
        )
        table = run_sweep(spec)
        codes = [ERROR_CODES["undefined_correlation"], ERROR_CODES["ok"]]
        assert list(table.column("error")) == codes
        assert table.metadata["points_failed"] == "1"


def test_weak_drive_domain_is_invalid_point():
    spec = SweepSpec(
        base=reference_baseline(g_a=12.0, g_b=31.0),
        axes=(value_axis("gamma_p", [0.0, 1.0]),),
        outputs=("g2_analytic",),
    )
    codes = run_sweep(spec).column("error")
    assert list(codes) == [ERROR_CODES["ok"], ERROR_CODES["invalid_point"]]


def test_programming_errors_propagate(monkeypatch):
    def broken(thetas):
        raise ValueError("bug")

    monkeypatch.setattr(sweep, "normalized_spectrum", broken)
    spec = SweepSpec(
        base=reference_baseline(),
        axes=(value_axis("delta", [0.0, 1.0]),),
        outputs=("p_t",),
    )
    with pytest.raises(ValueError, match="bug"):
        run_sweep(spec)


def test_every_package_error_names_a_row_code():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BicavityError)]
    assert len(classes) >= 8
    for cls in classes:
        assert cls.code in ERROR_CODES and cls.code != "ok", cls


@pytest.mark.parametrize("error, code", [
    (DegenerateSteadyStateError, 4),
    (SteadyStateSolverError, 3),
    (UndefinedCorrelationError, 1),
    (BicavityError, 9),
], ids=["degenerate", "solver", "undefined", "bare"])
def test_master_equation_error_gives_its_row_code(monkeypatch, error, code):
    solve = sweep.solve_steady

    def failing_at_resonance(params, *cutoffs):
        if params.delta == 0.0:
            raise error("forced failure")
        return solve(params, *cutoffs)

    monkeypatch.setattr(sweep, "solve_steady", failing_at_resonance)
    table = run_sweep(small_spec())
    assert list(table.column("error")) == [0.0, code, 0.0]
    assert math.isnan(table.rows[1][1])


def test_master_equation_programming_error_propagates(monkeypatch):
    def broken(params, *cutoffs):
        raise KeyError("bug")

    monkeypatch.setattr(sweep, "solve_steady", broken)
    with pytest.raises(KeyError, match="bug"):
        run_sweep(small_spec())


def test_mean_field_overflow_is_invalid_point():
    # delta / kappa overflows at the second point
    spec = SweepSpec(
        base=SystemParams(kappa=1e-10, j_coupling=1.0, drive=1.0),
        axes=(value_axis("delta", [0.0, 1e300]),),
        outputs=("p_t", "p_r"),
    )
    table = run_sweep(spec)
    assert list(table.column("error")) == [ERROR_CODES["ok"], ERROR_CODES["invalid_point"]]
    assert np.isnan(table.rows[1][1:3]).all()
    p_t, p_r, _, _ = spectrum(spec.base, [0.0])
    assert table.rows[0][1:3] == [p_t[0], p_r[0]]


def test_each_engine_fails_its_own_rows_and_later_engines_skip_them(monkeypatch):
    spec = SweepSpec(
        base=reference_baseline(),
        axes=(value_axis("gamma_p", [0.0, 3.0]), value_axis("delta", [-40.0, 0.0, 40.0])),
        outputs=("n_ccw", "g2_ccw", "g2_analytic", "c1_abs2", "p_t", "p_r"),
        cutoff=2,
        tie_delta_a=True,
    )
    master, analytic, spectra = slice(2, 4), slice(4, 6), slice(6, 8)
    gamma_p, delta = (sweep.FIELDS.index(name) for name in ("gamma_p", "delta"))
    want = run_sweep(spec).cells
    solve, normalized, seen = sweep.solve_steady, sweep.normalized_spectrum, []

    def failing_below_resonance(params, *cutoffs):
        if params.delta == -40.0 and params.gamma_p == 0.0:
            raise SteadyStateSolverError("forced failure")
        return solve(params, *cutoffs)

    def overflowing_above_resonance(thetas):
        seen.extend(thetas[:, [gamma_p, delta]].tolist())
        columns = normalized(thetas)
        columns[0][thetas[:, delta] == 40.0] = np.inf
        return columns

    monkeypatch.setattr(sweep, "solve_steady", failing_below_resonance)
    monkeypatch.setattr(sweep, "normalized_spectrum", overflowing_above_resonance)
    table = run_sweep(spec)
    # rows (gamma_p, delta): the master equation fails (0, -40), the weak-drive
    # domain (3, *) and the spectrum (0, 40); the spectrum sees only live rows
    assert table.column("error").tolist() == [
        ERROR_CODES["solver_failure"], ERROR_CODES["ok"], *[ERROR_CODES["invalid_point"]] * 4,
    ]
    assert seen == [[0.0, 0.0], [0.0, 40.0]]
    assert table.metadata["points_failed"] == "5"
    cells = table.cells
    assert np.isnan(cells[0, 2:8]).all()
    assert np.isnan(cells[3:, analytic]).all() and np.isnan(cells[3:, spectra]).all()
    assert np.isnan(cells[2, spectra]).all()
    kept = [(1, slice(2, 8)), (2, master), (2, analytic), (3, master), (4, master), (5, master)]
    for row, columns in kept:
        assert cells[row, columns].tolist() == want[row, columns].tolist()


def test_weak_drive_solved_once_per_point(monkeypatch):
    rows, amplitudes = [], []

    def counting(thetas):
        c, residual = solve_weak_drive_rows(thetas)
        rows.extend(thetas.tolist())
        amplitudes.extend(c)
        return c, residual

    monkeypatch.setattr(sweep, "solve_weak_drive_rows", counting)
    for g_b in (31.0, 12.0):  # 12 is the common-coupling case g_a == g_b
        rows.clear()
        amplitudes.clear()
        spec = SweepSpec(
            base=reference_baseline(g_a=12.0, g_b=g_b),
            axes=(value_axis("delta", [-40.0, 0.0, 40.0]),),
            outputs=("g2_analytic", "c1_abs2", "c2_abs2"),
        )
        table = run_sweep(spec)
        assert sorted(row[1] for row in rows) == [-40.0, 0.0, 40.0]
        for row, theta, c in zip(table.rows, rows, amplitudes):
            amps = solve_weak_drive(SystemParams(*theta))
            assert list(c) == [amps.c_100m, amps.c_010m, amps.c_000p, amps.c_200m,
                               amps.c_020m, amps.c_110m, amps.c_100p, amps.c_010p]
            assert row[1:4] == [amps.g2_ccw, *abs2(np.array([amps.c_100m, amps.c_200m]))]


def test_hierarchy_warning_reaches_the_caller():
    spec = SweepSpec(
        base=reference_baseline(),
        axes=(value_axis("drive", [1.0, 100.0, 200.0]),),
        outputs=("g2_analytic",),
    )
    with pytest.warns(UserWarning, match="weak-drive hierarchy violated at 2 of 3") as caught:
        run_sweep(spec, threads=2)
    assert len(caught) == 1


@pytest.mark.parametrize(
    "name, values, message",
    [
        ("kappa", [40.0, 0.0], "kappa must be positive, got 0.0"),
        ("g", [20.0, -1.0], "g_a must be non-negative, got -1.0"),
        ("delta", [0.0, math.nan], "delta must be finite, got nan"),
    ],
)
@pytest.mark.parametrize("outputs", [("g2_analytic",), ("g2_ccw",)])
def test_invalid_axis_value_raises(name, values, message, outputs):
    spec = small_spec(axes=(value_axis(name, values),), outputs=outputs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_sweep(spec)


def test_analytic_csv_deterministic(tmp_path):
    # 45 x 45 = 2025 rows: more than one stacked chunk
    spec = SweepSpec(
        base=reference_baseline(j_coupling=800.0),
        axes=(linear_axis("g_a", 0.0, 80.0, 45), linear_axis("g_b", 0.0, 80.0, 45)),
        outputs=("g2_analytic", "c1_abs2", "c2_abs2"),
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(spec), p1)
    emit_csv(run_sweep(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_all_points_failing_raises():
    spec = SweepSpec(
        base=reference_baseline(drive=0.0),
        axes=(value_axis("delta", [0.0, 1.0]),),
        outputs=("g2_ccw",),
        cutoff=2,
    )
    with pytest.raises(SweepError):
        run_sweep(spec)


def test_parallel_matches_serial():
    spec = small_spec(axes=(value_axis("delta", list(np.linspace(-80, 80, 8))),))
    serial = run_sweep(spec, threads=1)
    parallel = run_sweep(spec, threads=4)
    assert serial.rows == parallel.rows
    assert serial.columns == parallel.columns


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_raise(threads):
    with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
        run_sweep(small_spec(), threads=threads)


def test_with_log10():
    table = run_sweep(small_spec())
    out = table.with_log10(["g2_ccw"])
    assert out.columns[-1] == "log10_g2_ccw"
    for row in out.rows:
        assert row[-1] == pytest.approx(math.log10(row[1]))


def test_csv_round_trip(tmp_path):
    table = run_sweep(small_spec(outputs=("g2_ccw", "n_ccw", "n_cw")))
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    back = read_csv(path)
    assert back.columns == table.columns
    assert back.rows == table.rows
    assert back.metadata == table.metadata


def test_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(small_spec()), p1)
    emit_csv(run_sweep(small_spec()), p2)
    assert p1.read_bytes() == p2.read_bytes()


def analytic_csv(path, kappa, values):
    spec = SweepSpec(
        base=SystemParams(kappa=kappa, g_a=20.0, g_b=20.0, drive=1.0, gamma_a=1.0),
        axes=(Axis("delta", values),),
        outputs=("c1_abs2",),
    )
    emit_csv(run_sweep(spec), path)
    return path.read_bytes()


@pytest.mark.parametrize("kappa, values", [
    (40, (0.0, 1.0)),
    (np.float64(40.0), (0.0, 1.0)),
    (40.0, (np.float64(0.0), 1)),
    (40.0, np.array([0.0, 1.0])),
    (40.0, np.linspace(-1.0, 1.0, 17)),
], ids=["int-kappa", "numpy-kappa", "mixed-axis", "array-axis", "linspace-axis"])
def test_equal_inputs_write_equal_csv_bytes(tmp_path, kappa, values):
    reference = analytic_csv(tmp_path / "a.csv", 40.0, tuple(float(v) for v in values))
    assert analytic_csv(tmp_path / "b.csv", kappa, values) == reference


def test_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(ResultTable(["x", "y"], [], {"note": "empty"}), path)
    back = read_csv(path)
    assert back.columns == ["x", "y"]
    assert back.rows == []
    assert back.metadata == {"note": "empty"}


@pytest.mark.parametrize("metadata", [
    {" label ": " padded "},
    {"note": "a = b = c", "empty": "", "": "no key", "tab": "\tx\t"},
], ids=["padded", "separators"])
def test_csv_metadata_keeps_its_whitespace(tmp_path, metadata):
    path = tmp_path / "t.csv"
    emit_csv(ResultTable(["x"], [[1.0]], metadata), path)
    assert read_csv(path).metadata == metadata


def test_padded_label_reads_back_as_written(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(run_sweep(small_spec(label=" x")), path)
    assert read_csv(path).metadata["label"] == " x"


@pytest.mark.parametrize("line", ["#key = value", "# key=value", "# key"])
def test_read_csv_rejects_a_metadata_line_it_did_not_write(tmp_path, line):
    path = tmp_path / "bad.csv"
    path.write_text(f"{line}\nx\n1.0\n")
    with pytest.raises(ValueError, match="not '# key = value'"):
        read_csv(path)


def test_read_csv_rejects_headerless(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# only = metadata\n")
    with pytest.raises(ValueError):
        read_csv(path)


def per_cell_csv(columns, rows, metadata):
    """The bytes of the plain writer: one repr(float(v)) per cell, row by row."""
    lines = [f"# {key} = {value}" for key, value in metadata.items()] + [",".join(columns)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _long_rows():
    """More rows than one block, with a partial last block: a repeating column
    (with 0.0 and -0.0), a distinct one and an error-code column."""
    n = 2 * sweep._CHUNK + 37
    return [[(k // 7) * 0.1 * (-1) ** (k // 3) * (k % 5 != 0), math.sqrt(k) + 1e-3 * k, 9 * (k % 11 == 0)]
            for k in range(n)]


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0]],
    [[math.nan, math.inf], [-math.inf, 5e-324], [1e16, 0.1 + 0.2], [math.nan, 5e-324], [-0.0, -math.inf]],
    [[1, 2], [3, -4], [1, 2]],
    _long_rows(),
    [],
], ids=["signed-zeros", "specials", "ints", "blocks", "empty"])
def test_emit_csv_bytes_match_per_cell_repr(tmp_path, rows):
    columns = ["x", "y", "error"][:len(rows[0]) if rows else 2]
    metadata = {"label": "bytes", "note": "a=b"}
    path = tmp_path / "t.csv"
    emit_csv(ResultTable(columns, rows, metadata), path)
    assert path.read_bytes() == per_cell_csv(columns, rows, metadata)


def test_table_rows_and_column():
    rows = [[1.0, 2.0], [3, -0.5]]
    table = ResultTable(["x", "y"], rows, {"k": "v"})
    assert table.rows == rows
    x = table.column("x")
    x[0] = 99.0
    assert list(table.column("x")) == [1.0, 3.0]
    assert table.rows == rows


def test_table_cells_and_equality():
    rows = [[1.0, -0.0], [3, math.nan]]
    table = ResultTable(["x", "y"], rows, {"k": "v"})
    assert table.cells.shape == (2, 2) and table.cells.dtype == np.float64
    assert all(type(v) is float for row in table.rows for v in row)
    assert table == ResultTable(["x", "y"], np.array(rows, dtype=float), {"k": "v"})
    assert table != ResultTable(["x", "y"], rows, {"k": "w"})
    assert table != ResultTable(["x", "z"], rows, {"k": "v"})


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0], [3.0]],
    [[1.0, 2.0, 3.0]],
    np.zeros((2, 3)),
    np.zeros(2),
], ids=["ragged", "too-wide", "wide-array", "flat-array"])
def test_table_rejects_rows_that_do_not_fit_the_columns(rows):
    with pytest.raises(ValueError, match="columns"):
        ResultTable(["x", "y"], rows)


@pytest.mark.parametrize("columns, metadata, named", [
    (["x", "y"], {"note\nx": "1"}, "note\\nx"),
    (["x", "y"], {"note": "one\ntwo"}, "'note'"),
    (["x", "y"], {"note": "one\rtwo"}, "'note'"),
    (["x", "y"], {"a=b": "1"}, "a=b"),
    (["x,z", "y"], {}, "x,z"),
    (["x\ny", "z"], {}, "x\\ny"),
    ([""], {}, "''"),
    (["#x", "y"], {}, "#x"),
], ids=["key-newline", "value-newline", "value-return", "key-equals", "column-comma",
        "column-newline", "empty-header", "hash-header"])
def test_emit_csv_rejects_what_read_csv_would_misread(tmp_path, columns, metadata, named):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(named)):
        emit_csv(ResultTable(columns, [[1.0] * len(columns)], metadata), path)
    assert not path.exists()


def test_all_presets_construct():
    for name in FIGURE_NAMES:
        spec = figure_preset(name)
        assert 1 <= len(spec.axes) <= 2
        assert spec.label == name
    with pytest.raises(ValueError):
        figure_preset("fig99")


def test_preset_details():
    fig2 = figure_preset("fig2")
    assert fig2.engine == "spectrum"
    assert figure_preset("fig3").engine == "master_equation,analytic"
    assert figure_preset("fig7").engine == "analytic"
    assert figure_preset("fig4a").engine == "master_equation"
    assert fig2.axes[0].values == (32.0, 240.0)
    assert fig2.axes[1].values[0] == -400.0 and fig2.axes[1].values[-1] == 400.0

    fig9a = figure_preset("fig9a")
    assert fig9a.base.gamma_p == 3.0
    assert fig9a.tie_delta_a
    assert fig9a.axes[0].values == (0.0, 400.0)

    fig15d = figure_preset("fig15d")
    assert fig15d.base.j_coupling == 800.0
    assert fig15d.base.delta == 0.0
    assert [ax.name for ax in fig15d.axes] == ["g_a", "g_b"]

    fig4a = figure_preset("fig4a")
    assert min(fig4a.axes[1].values) > 0.0  # g scan excludes the singular g = 0
    assert max(fig4a.axes[1].values) == pytest.approx(60.0)


def test_engine_follows_outputs():
    assert small_spec(outputs=("g2_ccw", "p_t")).engine == "master_equation,spectrum"
    assert small_spec(outputs=("p_t",)).engine == "spectrum"
    # run order, whatever the order of the outputs
    assert small_spec(outputs=("p_r", "c1_abs2", "n_cw")).engine == "master_equation,analytic,spectrum"
    with pytest.raises(TypeError):
        small_spec(engine="analytic")


def test_metadata_documents_the_run():
    table = run_sweep(small_spec(label="demo"))
    md = table.metadata
    assert md["tool"] == "bicavity"
    assert md["label"] == "demo"
    assert md["engine"] == "master_equation"
    assert md["cutoff_n_a"] == "2" and md["cutoff_n_b"] == "2"
    assert md["base.kappa"] == repr(40.0)
    assert md["axis1"].startswith("delta:")
    assert "0=ok" in md["error_codes"]
    assert float(md["max_residual"]) <= 1e-10


def test_metadata_writes_linspace_only_for_a_linspace_axis():
    def axis_line(values):
        spec = SweepSpec(
            base=reference_baseline(),
            axes=(value_axis("g_a", values),),
            outputs=("c1_abs2",),
        )
        return run_sweep(spec).metadata["axis1"]

    uneven = list(range(16)) + [100]
    assert axis_line(uneven) == "g_a: " + ",".join(repr(float(v)) for v in uneven)
    assert axis_line(np.linspace(0.0, 100.0, 17)) == "g_a: linspace(0.0, 100.0, 17)"
