"""Driver tests: config parsing, overrides, output files, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptladder import (
    BoundaryTopology,
    LatticeSpec,
    OutOfBandError,
    build_real_space_hamiltonian,
    complex_rotation_angle,
    mode_weights,
    transmission_map,
)
from ptladder import cli, spectral
from ptladder.cli import (
    ConfigError,
    GridSpec,
    PRESETS,
    config_to_text,
    default_config,
    emit_csv,
    emit_json,
    main,
    parse_config,
)


def test_empty_document_is_the_default_config():
    assert parse_config("") == default_config()


def test_top_level_keys_resolve_without_sections():
    config = parse_config("n_cells = 8\ndelta = 0.5\nexperiment = zero_energy_trace\ntopology = twisted\n")
    assert config.lattice.n_cells == 8
    assert config.lattice.delta == 0.5
    assert config.experiment == "zero_energy_trace"


def test_unknown_key_reports_the_line():
    text = "[lattice]\nn_cells = 12\nbogus = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 3" in str(err.value)
    assert "bogus" in str(err.value)


def test_key_in_wrong_section_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[lattice]\nv0 = 5.0\n")
    assert "[leads]" in str(err.value)
    assert "[lattice]" in str(err.value)


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[contacts]\nv0 = 5.0\n")


def test_run_header_is_accepted():
    assert parse_config("[run]\nworkers = 2\n").workers == 2


def test_key_set_twice_names_its_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("workers = 2\nworkers = 3\n")


def test_key_set_under_run_then_its_section_names_both_lines():
    with pytest.raises(ConfigError, match="line 3: n_cells is already set on line 1"):
        parse_config("n_cells = 4\n[lattice]\nn_cells = 6\n")


def test_key_set_under_its_section_then_run_names_both_lines():
    with pytest.raises(ConfigError, match="line 4: n_cells is already set on line 2"):
        parse_config("[lattice]\nn_cells = 6\n[run]\nn_cells = 4\n")


def test_default_section_is_unknown_and_names_its_line():
    with pytest.raises(ConfigError, match="unknown section") as err:
        parse_config("workers = 2\n[DEFAULT]\nn_cells = 4\n")
    assert "line 2" in str(err.value)


def test_line_without_a_separator_names_its_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("workers = 2\nn_cells\n")


def test_comments_colons_and_case_parse_like_the_plain_form():
    plain = "workers = 2\n[lattice]\nn_cells = 8\ndelta = 0.5\n[output]\npath = out#1.csv\n"
    mixed = (
        "# full-line comment\n"
        "[RUN]\n"
        "Workers: 2  ; two\n"
        "[Lattice] # header comment\n"
        "N_CELLS = 8 # eight\n"
        "  ; indented comment\n"
        "DELTA:0.5\n"
        "[output]\n"
        "path = out#1.csv\n"
    )
    assert parse_config(mixed) == parse_config(plain)


def test_zero_workers_counts_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_config().resolved_workers() == 1


def test_unparseable_value_reports_the_type():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("[grid]\ngamma_count = few\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("[output]\nwith_weights = maybe\n")


def test_moebius_needs_even_cell_count():
    with pytest.raises(ConfigError, match="even"):
        parse_config("topology = moebius\nn_cells = 5\n")


def test_grid_bounds_are_validated():
    with pytest.raises(ConfigError, match="single-point"):
        parse_config("gamma_count = 1\n")
    with pytest.raises(ConfigError, match="gamma_min must be <="):
        parse_config("gamma_min = 2\ngamma_max = 1\n")
    with pytest.raises(ConfigError, match="e_count"):
        parse_config("e_count = 0\n")


def test_transport_experiments_need_open_boundaries():
    with pytest.raises(ConfigError, match="open or twisted"):
        parse_config("experiment = transmission_map\n")


def test_ep_search_needs_delta_zero():
    with pytest.raises(ConfigError, match="delta = 0"):
        parse_config("experiment = ep_search\ndelta = 0.5\n")
    assert parse_config("experiment = ep_search\ndelta = 0.0\n").experiment == "ep_search"


def test_detangle_check_preconditions():
    with pytest.raises(ConfigError, match="delta = 0"):
        parse_config("experiment = detangle_check\ntopology = open\ndelta = 0.5\n")
    with pytest.raises(ConfigError, match="topology = open"):
        parse_config("experiment = detangle_check\ntopology = twisted\n")
    with pytest.raises(ConfigError, match="e_count"):
        parse_config("experiment = detangle_check\ntopology = open\ne_count = 8\n")


def test_canonical_text_round_trips():
    text = "\n".join(
        [
            "experiment = transmission_map",
            "workers = 2",
            "[lattice]",
            "topology = twisted",
            "n_cells = 8",
            "delta = 0.25",
            "[leads]",
            "v0 = 8.0",
            "coupling_upper_out = 0.5",
            "[grid]",
            "e_min = -1.5",
            "e_max = 1.5",
            "e_count = 21",
            "gamma_max = 1.0",
            "gamma_count = 11",
            "[output]",
            "format = json",
            "with_zero_trace = true",
        ]
    )
    config = parse_config(text)
    assert parse_config(config_to_text(config)) == config


def test_keys_before_any_header_set_every_section():
    config = parse_config("delta = 1.5\ntopology = open\n")
    assert config.lattice.delta == 1.5
    assert config.lattice.topology is BoundaryTopology.OPEN
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("gamma\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("nope = 1\n")


# Valid non-default values for the keys whose type gives no rule for one.
_STRING_VALUES = {"experiment": "ep_search", "format": "json", "path": "out/run.csv"}


@pytest.mark.parametrize("key", list(cli._KEY_TABLE))
def test_every_key_sets_its_attribute_and_round_trips(key):
    _, attr, typ = cli._KEY_TABLE[key]
    default = attrgetter(attr)(default_config())
    if typ is bool:
        value = not default
    elif typ in (int, float):
        value = default + (2 if typ is int else 0.5)
    elif typ is BoundaryTopology:
        value = next(t for t in BoundaryTopology if t is not default)
    else:
        value = _STRING_VALUES[key]
    raw = value.value if typ is BoundaryTopology else str(value)
    assert value != default
    config = parse_config(f"{key} = {raw}\n")
    assert attrgetter(attr)(config) == value
    assert parse_config(config_to_text(config)) == config


def test_keys_name_distinct_attributes():
    attrs = [attr for _, attr, _ in cli._KEY_TABLE.values()]
    assert len(set(attrs)) == len(attrs)


FIG6_TWISTED_TEXT = """\
experiment = transmission_map
workers = 0
coarse_steps = 400

[lattice]
n_cells = 100
intra_hop = 1.0
inter_hop = 1.0
delta = 0.0
topology = twisted

[leads]
v0 = 10.0
coupling_upper_in = 1.0
coupling_lower_in = 1.0
coupling_upper_out = 1.0
coupling_lower_out = 1.0

[grid]
gamma_min = 0.0
gamma_max = 3.0
gamma_count = 601
e_min = -4.0
e_max = 4.0
e_count = 801

[output]
format = csv
with_weights = false
with_zero_trace = true
"""


def test_canonical_text_of_a_preset_is_pinned():
    # the manifest's config_text format
    preset = PRESETS["fig6-twisted"]
    config = parse_config("".join(f"{k} = {v}\n" for k, v in preset.items()))
    assert config_to_text(config) == FIG6_TWISTED_TEXT


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme[readme.index("| section | key | type | default |") :].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        section, key, _, default = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((section, key.strip("`"), default))
    defaults = dict(
        line.split(" = ") for line in config_to_text(default_config()).splitlines() if " = " in line
    )
    assert [row[:2] for row in rows] == [(home, key) for key, (home, _, _) in cli._KEY_TABLE.items()]
    for _, key, default in rows:
        assert default == (f"`{defaults[key]}`" if key in defaults else "unset")


def test_grid_spec_points():
    single = GridSpec(0.3, 0.3, 1).points()
    assert single.shape == (1,) and single[0] == 0.3
    assert GridSpec(0.0, 1.0, 5).points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_emitters_format_nan(tmp_path):
    rows = [(1.0, float("nan")), (2, 0.5)]
    path = tmp_path / "x.csv"
    emit_csv(path, ["a", "b"], rows)
    assert path.read_text().splitlines() == ["a,b", "1,nan", "2,0.5"]
    path = tmp_path / "x.json"
    emit_json(path, "demo", ["a", "b"], rows)
    payload = json.loads(path.read_text())
    assert payload["schema"] == "demo"
    assert payload["rows"] == [[1.0, None], [2, 0.5]]


# Frozen copies of the value-by-value writers the row templates replaced:
# the oracle that emit_csv and emit_json must match byte for byte.
def _oracle_fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.15g}"


def _oracle_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_oracle_fmt(v) for v in row) + "\n")


def _oracle_json(path, schema, columns, rows):
    def clean(v):
        if isinstance(v, (int, np.integer)):
            return int(v)
        if isinstance(v, str):
            return v
        v = float(v)
        return v if math.isfinite(v) else None

    payload = {"schema": schema, "columns": columns, "rows": [[clean(v) for v in row] for row in rows]}
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _assert_emitters_match_oracle(directory, schema, columns, rows):
    for name, emit, oracle, args in (
        ("csv", emit_csv, _oracle_csv, (columns, rows)),
        ("json", emit_json, _oracle_json, (schema, columns, rows)),
    ):
        got, want = directory / f"got.{name}", directory / f"want.{name}"
        emit(got, *args)
        oracle(want, *args)
        assert got.read_bytes() == want.read_bytes(), (name, rows)


_EDGE_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.225e-308 / 3, 1e16, 1e-5, 1e15 + 0.5]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_INTS = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
)
_COLUMN_CELLS = {
    "float": _FLOATS,
    "float64": _FLOATS.map(np.float64),
    "int": _INTS,
    "str": st.text(st.sampled_from('ab,"\\\'\t\u00e9\u20ac\U0001f600')),
    "int-or-float": st.one_of(_FLOATS, _INTS),
}
_COLUMN_CELLS["any"] = st.one_of(*_COLUMN_CELLS.values())


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_CELLS)), max_size=5))
    rows = draw(st.lists(st.tuples(*(_COLUMN_CELLS[k] for k in kinds)), max_size=6))
    return [f"{k}_{i}" for i, k in enumerate(kinds)], rows


@given(table=_tables())
@settings(max_examples=300, deadline=None)
def test_emitters_match_the_value_by_value_oracle(table, tmp_path_factory):
    columns, rows = table
    _assert_emitters_match_oracle(tmp_path_factory.mktemp("emit"), "demo\u00e9", columns, rows)


@pytest.mark.parametrize(
    "columns, rows",
    [
        (["a", "b"], []),
        ([], []),
        ([], [(), ()]),
        (["x"], [(1.0,), (2,), (np.int64(3),), (True,), (np.float64(math.nan),)]),
        (["x", "y"], [(np.float32(0.1), np.bool_(True)), (np.uint64(2**64 - 1), np.float64(-0.0))]),
    ],
    ids=["empty-rows", "no-columns", "empty-tuples", "mixed-column", "other-numpy-types"],
)
def test_emitters_match_the_oracle_on_edge_tables(columns, rows, tmp_path):
    _assert_emitters_match_oracle(tmp_path, "demo", columns, rows)


def test_emitters_match_the_oracle_on_an_ep_search_table(tmp_path):
    # kind is a string and gamma_star an np.float64, whose repr under
    # numpy 2 is not a JSON number
    config = parse_config("experiment = ep_search\ntopology = moebius\nn_cells = 8\n")
    columns, rows, _, _ = cli._ep_rows(config)
    assert rows and all(type(row[0]) is np.float64 and type(row[3]) is str for row in rows)
    _assert_emitters_match_oracle(tmp_path, "ep_search", columns, rows)
    assert json.loads((tmp_path / "got.json").read_text())["rows"][0][3] == "MergePoint"


def test_table_rows_match_the_per_cell_loops():
    # the rows come from numpy columns; the per-cell loops they replaced
    # are the reference, value and order
    config = parse_config("n_cells = 4\ntopology = moebius\ngamma_count = 5\nwith_weights = true\nworkers = 1\n")
    _, rows, _, _ = cli._sweep_rows(config)
    grid = config.gamma_grid.points()
    sweep, weights = spectral._weighted_sweep(
        config.lattice, grid, partial(cli._point_weights, config.lattice), workers=1
    )
    want = [
        (float(g), b, sweep.branches[b, j].real, sweep.branches[b, j].imag, *weights[b, j].tolist())
        for j, g in enumerate(grid)
        for b in range(sweep.n_branches)
    ]
    assert rows == want

    config = parse_config(
        "experiment = transmission_map\ntopology = twisted\nn_cells = 4\n"
        "e_min = -1\ne_max = 1\ne_count = 3\ngamma_max = 1\ngamma_count = 2\nworkers = 1\n"
    )
    _, rows, _, _ = cli._map_rows(config)
    m = transmission_map(
        config.lattice, config.leads, config.e_grid.points(), config.gamma_grid.points()
    )
    want = [
        (float(e), float(g), float(m.t_values[i, j]), float(m.r_values[i, j]))
        for i, e in enumerate(m.e_grid)
        for j, g in enumerate(m.gamma_grid)
    ]
    assert rows == want and all(type(v) is float for row in rows for v in row)


@pytest.mark.parametrize("argv", [
    ["fig4", "--set", "n_cells=6", "--set", "gamma_count=9", "--format", "json"],
    ["fig6-twisted", "--set", "n_cells=4", "--set", "e_count=5", "--set", "gamma_count=3"],
], ids=["fig4-json", "fig6-twisted-csv"])
def test_manifest_reports_stage_seconds_and_workers(argv, tmp_path):
    out = tmp_path / ("out.json" if "json" in argv else "out.csv")
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    summary = manifest["summary"]
    assert summary["workers"] == 1
    assert summary["compute_s"] >= 0 and summary["emit_s"] >= 0
    assert summary["compute_s"] + summary["emit_s"] <= manifest["duration_s"] + 1e-6
    for path in manifest["outputs"]:
        assert manifest["checksums"][path] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_main_writes_data_and_manifest(tmp_path, capsys):
    out = tmp_path / "tiny.csv"
    code = main(
        [
            "transmission_map",
            "--set", "topology=open",
            "--set", "n_cells=6",
            "--set", "e_min=0.3", "--set", "e_max=0.3", "--set", "e_count=1",
            "--set", "gamma_min=0", "--set", "gamma_max=0", "--set", "gamma_count=1",
            "--out", str(out),
            "--workers", "1",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "e,gamma,t,r"
    assert len(lines) == 2
    e, g, t, r = (float(v) for v in lines[1].split(","))
    assert (e, g) == (0.3, 0.0)
    assert abs(1.0 - t - r) < 1e-10  # hermitian point conserves flux

    manifest = json.loads((tmp_path / "tiny.manifest.json").read_text())
    assert manifest["experiment"] == "transmission_map"
    assert manifest["n_failed"] == 0
    assert manifest["checksums"][str(out)] == hashlib.sha256(out.read_bytes()).hexdigest()
    reparsed = parse_config(manifest["config_text"])
    assert reparsed.lattice.n_cells == 6
    assert reparsed.e_grid == GridSpec(0.3, 0.3, 1)
    assert f"wrote {out}" in capsys.readouterr().out


def test_manifest_config_text_reruns_the_same_data(tmp_path):
    first = tmp_path / "first.csv"
    argv = ["fig2-mll", "--set", "n_cells=6", "--set", "gamma_count=9", "--out", str(first)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "first.manifest.json").read_text())
    conf = tmp_path / "first.conf"
    conf.write_text(manifest["config_text"])
    second = tmp_path / "second.csv"
    assert main(["spectrum_sweep", "--config", str(conf), "--out", str(second)]) == 0
    assert hashlib.sha256(second.read_bytes()).hexdigest() == manifest["checksums"][str(first)]


def test_main_output_is_identical_across_worker_counts(tmp_path):
    def run(name, workers):
        out = tmp_path / name
        code = main(
            [
                "transmission_map",
                "--set", "topology=twisted",
                "--set", "n_cells=4",
                "--set", "e_min=-1", "--set", "e_max=1", "--set", "e_count=7",
                "--set", "gamma_min=0", "--set", "gamma_max=1", "--set", "gamma_count=5",
                "--out", str(out),
                "--workers", str(workers),
            ]
        )
        assert code == 0
        return out.read_bytes()

    assert run("w1.csv", 1) == run("w2.csv", 2)


def test_main_config_errors_exit_1(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["spectrum_sweep", "--set", "nope=1"]) == 1
    assert "unknown key 'nope'" in capsys.readouterr().err
    assert main(["spectrum_sweep", "--set", "gamma"]) == 1
    assert "--set needs key=value" in capsys.readouterr().err
    assert main(["spectrum_sweep", "--workers", "-1"]) == 1
    capsys.readouterr()
    # removed key: EP brackets end on their width alone
    assert main(["ep_search", "--set", "ep_tol=1e-8"]) == 1
    assert "unknown key 'ep_tol'" in capsys.readouterr().err


def test_main_numerical_failures_exit_2(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise OutOfBandError("synthetic failure")

    monkeypatch.setattr(cli, "sweep_spectrum", boom)
    code = main(
        [
            "spectrum_sweep",
            "--set", "n_cells=4",
            "--set", "gamma_max=1", "--set", "gamma_count=3",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_main_io_failures_exit_3(tmp_path, capsys):
    code = main(["spectrum_sweep", "--config", str(tmp_path / "missing.conf")])
    assert code == 3
    assert "cannot read config" in capsys.readouterr().err

    code = main(
        [
            "spectrum_sweep",
            "--set", "n_cells=4",
            "--set", "gamma_max=1", "--set", "gamma_count=2",
            "--out", str(tmp_path / "no_such_dir" / "x.csv"),
            "--workers", "1",
        ]
    )
    assert code == 3
    assert "I/O failure" in capsys.readouterr().err


def test_default_output_name_uses_experiment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "spectrum_sweep",
            "--set", "n_cells=4",
            "--set", "gamma_max=1", "--set", "gamma_count=2",
            "--workers", "1",
        ]
    )
    assert code == 0
    assert (tmp_path / "spectrum_sweep.csv").exists()
    assert (tmp_path / "spectrum_sweep.manifest.json").exists()


def test_main_flag_beats_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "[lattice]\nn_cells = 4\n"
        "[grid]\ngamma_max = 1.0\ngamma_count = 3\n"
        "[output]\nformat = json\n"
    )
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "spectrum_sweep",
            "--config", str(conf),
            "--out", str(out),
            "--format", "csv",
            "--workers", "1",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,branch,re_e,im_e"
    assert len(lines) == 1 + 3 * 8  # three gammas, eight branches of the 4-cell ring


def test_set_mends_a_cross_key_error_left_by_the_config_file(tmp_path):
    # the file alone leaves a transport experiment on the default ring;
    # the config is validated once, after --set has moved it to open
    conf = tmp_path / "t.conf"
    conf.write_text("experiment = transmission_map\n")
    out = tmp_path / "map.csv"
    code = main(
        [
            "transmission_map",
            "--config", str(conf),
            "--set", "topology=open", "--set", "n_cells=4",
            "--set", "e_count=5", "--set", "gamma_count=3",
            "--out", str(out),
            "--workers", "1",
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "map.manifest.json").read_text())
    assert "topology = open" in manifest["config_text"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fig2-mll", "--set", "gamma_min=1", "--set", "gamma_max=1", "--set", "gamma_count=5"],
         "5-point gamma grid needs gamma_min < gamma_max"),
        (["spectrum_sweep", "--set", "e_min=0", "--set", "e_max=0"],
         "801-point e grid needs e_min < e_max"),
        (["ep_search", "--set", "gamma_min=1", "--set", "gamma_max=1"],
         "gamma_min < gamma_max"),
        (["ep_search", "--set", "gamma_min=1", "--set", "gamma_max=1", "--set", "gamma_count=1"],
         "ep_search needs gamma_min < gamma_max"),
    ],
    ids=["fig2-gamma-grid", "sweep-e-grid", "ep-search", "ep-search-single-point"],
)
def test_main_rejects_an_empty_range_as_a_config_error(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "x.csv").exists()


def test_zero_energy_trace_json_output(tmp_path):
    out = tmp_path / "trace.json"
    code = main(
        [
            "zero_energy_trace",
            "--set", "topology=open",
            "--set", "n_cells=5",
            "--set", "gamma_min=0", "--set", "gamma_max=1", "--set", "gamma_count=5",
            "--out", str(out),
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "zero_energy_trace"
    assert payload["columns"] == ["gamma", "t"]
    assert len(payload["rows"]) == 5
    assert all(row[1] is not None for row in payload["rows"])


def test_ep_search_cli_finds_the_ring_merges(tmp_path):
    out = tmp_path / "eps.csv"
    code = main(
        [
            "ep_search",
            "--set", "n_cells=6",
            "--set", "gamma_min=1.5", "--set", "gamma_max=2.5",
            "--set", "coarse_steps=40",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma_star,re_e,im_e,kind,pair_lo,pair_hi,self_orth"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    assert all(row[3] == "MergePoint" for row in rows)
    assert all(abs(float(row[0]) - 2.0) < 1e-6 for row in rows)
    manifest = json.loads((tmp_path / "eps.manifest.json").read_text())
    assert manifest["summary"]["n_points"] == 6


TINY_PRESET_OVERRIDES = {
    "fig2-cll": ["n_cells=6", "gamma_count=5"],
    "fig2-mll": ["n_cells=6", "gamma_count=5"],
    "fig3": ["n_cells=6", "gamma_count=4"],
    "fig4": ["n_cells=6", "gamma_count=4"],
    "fig6-ladder": ["n_cells=4", "e_min=-1", "e_max=1", "e_count=5",
                    "gamma_max=1", "gamma_count=3"],
    "fig6-twisted": ["n_cells=4", "e_min=-1", "e_max=1", "e_count=5",
                     "gamma_max=1", "gamma_count=3"],
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_run_end_to_end(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    argv = [preset, "--out", str(out), "--workers", "1"]
    for item in TINY_PRESET_OVERRIDES[preset]:
        argv += ["--set", item]
    assert main(argv) == 0

    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    if preset in ("fig2-cll", "fig2-mll"):
        assert header == ["gamma", "branch", "re_e", "im_e"]
        assert len(lines) == 1 + 5 * 12
    if preset in ("fig3", "fig4"):
        assert header[-2:] == ["alpha_sq", "alpha_theta_sq"]
        assert len(lines) == 1 + 4 * 12
    if preset.startswith("fig6"):
        assert header == ["e", "gamma", "t", "r"]
        assert len(lines) == 1 + 5 * 3
        trace = tmp_path / f"{preset}.trace.csv"
        assert trace.exists()
        assert len(trace.read_text().splitlines()) == 1 + 3
        manifest = json.loads((tmp_path / f"{preset}.manifest.json").read_text())
        assert [str(out), str(trace)] == manifest["outputs"]


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
def test_weights_match_dense_eigenvectors(preset, tmp_path):
    # gamma_max = 2.9 keeps the grid off the collective EP at gamma = 2d;
    # degenerate levels have no unique eigenvector, so only rows whose
    # eigenvalue is isolated by 1e-6 are compared
    out = tmp_path / f"{preset}.csv"
    overrides = ["n_cells=6", "gamma_max=2.9", "gamma_count=4"]
    argv = [preset, "--out", str(out), "--workers", "1"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    topology = BoundaryTopology.from_name(PRESETS[preset]["topology"])
    checked = 0
    for gamma in np.unique(rows[:, 0]):
        spec = LatticeSpec(n_cells=6, gamma=gamma, topology=topology)
        values, vectors = np.linalg.eig(build_real_space_hamiltonian(spec))
        angle = complex_rotation_angle(spec.intra_hop, spec.delta, gamma)
        for row in rows[rows[:, 0] == gamma]:
            dist = np.abs(values - complex(row[2], row[3]))
            nearest = int(np.argmin(dist))
            if np.partition(dist, 1)[1] < 1e-6:
                continue
            w = mode_weights(vectors[:, nearest], spec, angle)
            assert abs(row[4] - w.alpha_sq) <= 1e-9
            assert abs(row[5] - w.alpha_theta_sq) <= 1e-9
            checked += 1
    assert checked >= 8


def test_weighted_sweep_solves_each_gamma_once(tmp_path, monkeypatch):
    # two vector solves per grid point (one per sector block, each matrix
    # of a stack counted), one branch match per step, and nothing else,
    # ambiguous steps included
    solves = {True: 0, False: 0}
    matches = 0
    solve_stack, match_step = spectral._solve_stack, spectral._match_step

    def counted_solve(stack, want_vectors=False):
        solves[want_vectors] += len(stack)
        return solve_stack(stack, want_vectors)

    def counted_match(*args):
        nonlocal matches
        matches += 1
        return match_step(*args)

    monkeypatch.setattr(spectral, "_solve_stack", counted_solve)
    monkeypatch.setattr(spectral, "_match_step", counted_match)
    count = 21
    argv = ["fig4", "--set", "n_cells=6", "--set", f"gamma_count={count}"]
    assert main(argv + ["--workers", "1", "--out", str(tmp_path / "fig4.csv")]) == 0
    assert solves == {True: 2 * count, False: 0}
    assert matches == count - 1
    manifest = json.loads((tmp_path / "fig4.manifest.json").read_text())
    assert manifest["summary"]["ambiguous_steps"] > 0  # this grid has forks


@pytest.mark.pool
@pytest.mark.parametrize("preset", ["fig3", "fig4"])
def test_weighted_output_is_identical_across_worker_counts(preset, tmp_path):
    # 9 points, so the pool engages (it stays serial below 8)
    def run(workers):
        out = tmp_path / f"{preset}-w{workers}.csv"
        argv = [preset, "--set", "n_cells=6", "--set", "gamma_count=9"]
        assert main(argv + ["--workers", str(workers), "--out", str(out)]) == 0
        return out.read_bytes()

    assert run(1) == run(2)


@pytest.mark.parametrize("gamma_min", ["1.99999999", "2.0"])
def test_weights_at_the_exceptional_point_are_nan(gamma_min, tmp_path):
    # at gamma = 2d no rotation angle exists, and 1e-8 below it the
    # rotation matrix loses det = 1; both give NaN weights, not a failure
    out = tmp_path / "fig3.csv"
    argv = ["fig3", "--set", "n_cells=4", "--set", f"gamma_min={gamma_min}",
            "--set", "gamma_max=2.5", "--set", "gamma_count=2"]
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    near = rows[rows[:, 0] == float(gamma_min)]
    assert near.shape == (8, 6)
    assert np.all(np.isnan(near[:, 4:]))
    assert np.all(np.isfinite(rows[rows[:, 0] == 2.5]))


def test_import_does_not_load_scipy():
    # scipy loads at the first branch match, not at import, and a
    # zero-energy search matches no branches
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, ptladder, ptladder.cli\n"
        "print('scipy' in sys.modules)\n"
        "spec = ptladder.LatticeSpec(n_cells=20, topology=ptladder.BoundaryTopology.TWISTED_OPEN)\n"
        "print(len(ptladder.locate_zero_energy_eps(spec, (0.05, 1.95), 200)), 'scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.split() == ["False", "6", "False"]
