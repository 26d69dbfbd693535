"""Experiment driver: spec validation, presets, checks, manifest determinism."""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

import mvflow.experiments
import mvflow.solver
from helpers import read_csv
from mvflow.configio import format_kv, read_spec
from mvflow.errors import SpecParseError
from mvflow.experiments import (CHECK_NAMES, _SETTINGS, _build_ensemble,
                                _solver_config, _text, cmd_certify,
                                cmd_convergence, cmd_run, presets,
                                resolve_out_dir, run_experiment,
                                spec_from_config, spec_to_config)
from mvflow.solver import make_reference, perturb_density, reference_from_run, run


def minimal_cfg(**over):
    cfg = {"schema": "1", "name": "t", "law.kind": "power", "law.a": "1.0",
           "law.gamma": "2.0"}
    cfg.update(over)
    return cfg


# -- spec validation ------------------------------------------------------------

def test_minimal_spec_gets_defaults():
    spec = spec_from_config(minimal_cfg())
    assert spec.grid_n == 96
    assert spec.members == 1
    assert spec.mode == "none"
    assert spec.checks == ()
    assert spec.residual_tol == 1e-10


def test_unknown_key_rejected():
    with pytest.raises(SpecParseError, match="unknown"):
        spec_from_config(minimal_cfg(**{"grid.m": "8"}))


def test_unknown_check_name_rejected():
    with pytest.raises(SpecParseError, match="unknown check 'enery'"):
        spec_from_config(minimal_cfg(checks="energy,enery"))


def test_unknown_mode_rejected():
    with pytest.raises(SpecParseError, match="ensemble.mode"):
        spec_from_config(minimal_cfg(**{"ensemble.mode": "chaos"}))


def test_density_noise_needs_eps():
    with pytest.raises(SpecParseError, match="eps"):
        spec_from_config(minimal_cfg(**{"ensemble.mode": "density-noise"}))


def test_members_at_least_one():
    with pytest.raises(SpecParseError, match="ensemble.k"):
        spec_from_config(minimal_cfg(**{"ensemble.k": "0"}))


def test_delta_sequence_must_decrease():
    bad = minimal_cfg(**{"ensemble.mode": "delta-sequence",
                         "ensemble.deltas": "1e-4,1e-3"})
    with pytest.raises(SpecParseError, match="decreasing"):
        spec_from_config(bad)


def test_delta_sequence_needs_two_values():
    bad = minimal_cfg(**{"ensemble.mode": "delta-sequence",
                         "ensemble.deltas": "1e-3"})
    with pytest.raises(SpecParseError, match="deltas"):
        spec_from_config(bad)


def test_delta_sequence_k_mismatch():
    bad = minimal_cfg(**{"ensemble.mode": "delta-sequence",
                         "ensemble.deltas": "1e-2,1e-3", "ensemble.k": "5"})
    with pytest.raises(SpecParseError, match="disagrees"):
        spec_from_config(bad)


def test_delta_sequence_sets_member_count():
    cfg = minimal_cfg(**{"ensemble.mode": "delta-sequence",
                         "ensemble.deltas": "1e-2,1e-3,1e-4"})
    spec = spec_from_config(cfg)
    assert spec.members == 3
    assert spec.deltas == (1e-2, 1e-3, 1e-4)


def test_bad_solver_number_is_a_parse_error():
    with pytest.raises(SpecParseError, match="solver configuration"):
        spec_from_config(minimal_cfg(**{"solver.lam": "-1.0"}))


def test_non_numeric_field_names_the_field():
    with pytest.raises(SpecParseError, match="grid.n"):
        spec_from_config(minimal_cfg(**{"grid.n": "many"}))


@pytest.mark.parametrize("key", ["solver.delta", "solver.cfl", "init.base",
                                 "init.width_frac", "tol.residual"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_names_the_field(key, value):
    with pytest.raises(SpecParseError, match=rf"'{key}': must be finite"):
        spec_from_config(minimal_cfg(**{key: value}))


def test_delta_sequence_rejects_non_finite_deltas():
    for deltas in ("1e-2,nan", "inf,1e-3"):
        bad = minimal_cfg(**{"ensemble.mode": "delta-sequence",
                             "ensemble.deltas": deltas})
        with pytest.raises(SpecParseError, match="finite"):
            spec_from_config(bad)


@pytest.mark.parametrize("key,value", [("init.center_frac", "-0.1"),
                                       ("init.center_frac", "1.5"),
                                       ("init.width_frac", "0.0"),
                                       ("init.width_frac", "1.01")])
def test_init_fractions_are_bounded(key, value):
    with pytest.raises(SpecParseError, match=key):
        spec_from_config(minimal_cfg(**{key: value}))
    for ok in ("0.0", "1.0") if key == "init.center_frac" else ("1e-3", "1.0"):
        spec_from_config(minimal_cfg(**{key: ok}))


def test_bad_law_is_a_parse_error():
    with pytest.raises(SpecParseError, match="law"):
        spec_from_config({"schema": "1", "name": "t", "law.kind": "power",
                          "law.gamma": "2.0"})


def test_init_kind_validated():
    with pytest.raises(SpecParseError, match="init.kind"):
        spec_from_config(minimal_cfg(**{"init.kind": "vortex"}))


def test_spec_round_trips_through_config():
    cfg = minimal_cfg(**{"law.bump.q1": "1.0", "law.bump.q2": "2.0",
                         "law.bump.A": "0.05", "grid.n": "32",
                         "checks": "energy,lemmas", "seed": "9",
                         "ensemble.k": "3", "ensemble.mode": "density-noise",
                         "ensemble.eps": "0.01"})
    spec = spec_from_config(cfg)
    again = spec_from_config(spec_to_config(spec))
    assert spec_to_config(again) == spec_to_config(spec)


def test_presets_all_parse():
    for name, cfg in presets().items():
        spec = spec_from_config(cfg)
        assert spec.name == name
        assert set(spec.checks) <= set(CHECK_NAMES)


# sha256 of each preset's resolved spec text: a key, order or format slip in
# the schema table changes one of them
RESOLVED_PRESET_SHA256 = {
    "constant-state": "b70ec880e886878512127c1be0f768f2af08666df42dc69e17c0f506da23b962",
    "convergence-pulse": "a8903778a49724723dac1dd4e8680d35a6298f6fbd5ebc59337bac1485f6b1c3",
    "delta-sequence": "8c6b6a3e97cd3f69a0017109dc3d1982d1edcc5b23ab634b03a91b66c02bb978",
    "weak-strong-bump": "b04bbf8acae12953813e36dffdf90a6798824ad863e051f1e1907e3648527566",
    "weak-strong-monotone": "35c5d8efa732c2f0b71c8428ed7c55915bd58cb6d94c2da85b6fc42d5ac30cba",
    "weak-strong-tabulated": "d382f39a0c2bdd48181f9f67c26699b424e11e9003d8b93d328db39331e429a9",
}


def test_resolved_presets_keep_their_bytes():
    got = {name: hashlib.sha256(
               format_kv(spec_to_config(spec_from_config(cfg))).encode()).hexdigest()
           for name, cfg in presets().items()}
    assert got == RESOLVED_PRESET_SHA256


def test_spec_without_checks_reads_back_from_its_resolved_file(tmp_path):
    # an empty list writes no line, so spec.resolved parses back
    spec = spec_from_config(minimal_cfg(**{"grid.n": "16", "solver.T": "0.01",
                                           "solver.n_samples": "3"}))
    assert spec.checks == ()
    run_experiment(spec, out_dir=str(tmp_path))
    resolved = read_spec(str(tmp_path / "spec.resolved"))
    assert "checks" not in resolved
    assert spec_to_config(spec_from_config(resolved)) == spec_to_config(spec)


def _readme_lines():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "README.md")
    with open(path) as fh:
        return fh.read().splitlines()


def _readme_spec_keys():
    """(key, default) of each row of README's spec-key table."""
    lines = _readme_lines()
    start = lines.index("| key | default | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default = (c.strip() for c in line.strip("|").split("|")[:2])
        rows.append((key, default))
    return rows


def test_readme_spec_key_table_matches_the_schema():
    want = [(f"`{key}`", f"`{_text(default)}`" if default != () else "empty")
            for key, _, default, _ in _SETTINGS]
    assert _readme_spec_keys() == want


def test_readme_library_quickstart_runs():
    # the python block under README's "Library quickstart" heading, as written
    lines = _readme_lines()
    begin = lines.index("```python", lines.index("## Library quickstart")) + 1
    end = lines.index("```", begin)
    exec(compile("\n".join(lines[begin:end]), "README.md", "exec"), {})


# -- output directory resolution --------------------------------------------------

def test_out_dir_precedence(monkeypatch):
    spec = spec_from_config(minimal_cfg(out="from-spec"))
    monkeypatch.delenv("MVFLOW_OUT", raising=False)
    assert resolve_out_dir("from-flag", spec.out, spec.name) == "from-flag"
    assert resolve_out_dir(None, spec.out, spec.name) == "from-spec"
    monkeypatch.setenv("MVFLOW_OUT", "from-env")
    assert resolve_out_dir(None, spec.out, spec.name) == "from-env"
    assert resolve_out_dir("from-flag", spec.out, spec.name) == "from-flag"
    monkeypatch.delenv("MVFLOW_OUT")
    bare = spec_from_config(minimal_cfg())
    assert resolve_out_dir(None, bare.out, bare.name) == os.path.join("runs", "t")


# -- full runs --------------------------------------------------------------------

def test_constant_state_preset_all_checks_pass(tmp_path):
    spec = spec_from_config(presets()["constant-state"])
    man = run_experiment(spec, out_dir=str(tmp_path))
    assert man.all_passed
    names = [r.name for r in man.results]
    assert names == list(spec.checks)  # manifest order follows the spec
    for r in man.results:
        if r.name in ("continuity", "renorm", "momentum", "compatibility"):
            assert abs(r.value) < 1e-10


def test_emitted_files_exist_and_hashes_match(tmp_path):
    spec = spec_from_config(presets()["constant-state"])
    man = run_experiment(spec, out_dir=str(tmp_path))
    assert ("spec.resolved", ) not in man.files  # entries are (name, sha) pairs
    for fname, digest in man.files:
        path = tmp_path / fname
        assert path.exists()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # the resolved spec parses back to the canonical config
    resolved = read_spec(str(tmp_path / "spec.resolved"))
    assert resolved == spec_to_config(spec)


def test_manifest_deterministic_across_runs(tmp_path):
    spec = spec_from_config(presets()["constant-state"])
    m1 = run_experiment(spec, out_dir=str(tmp_path / "a"))
    m2 = run_experiment(spec, out_dir=str(tmp_path / "b"))
    assert m1.manifest_hash == m2.manifest_hash
    assert (tmp_path / "a" / "manifest.txt").read_bytes() == \
           (tmp_path / "b" / "manifest.txt").read_bytes()


def test_seed_changes_the_manifest(tmp_path):
    cfg = presets()["weak-strong-monotone"]
    p = tmp_path / "ws.spec"
    p.write_text(format_kv(cfg))
    m1 = cmd_run(str(p), out=str(tmp_path / "a"), seed=7)
    m2 = cmd_run(str(p), out=str(tmp_path / "b"), seed=8)
    assert m1.spec_hash != m2.spec_hash
    assert m1.manifest_hash != m2.manifest_hash


def test_weak_strong_monotone_preset_passes(tmp_path):
    spec = spec_from_config(presets()["weak-strong-monotone"])
    man = run_experiment(spec, out_dir=str(tmp_path))
    assert man.all_passed
    hdr, rows = read_csv(str(tmp_path / "gronwall.csv"))
    assert len(hdr) == 15
    assert len(rows) == spec.n_samples
    verdict = (tmp_path / "gronwall_verdict.txt").read_text()
    assert verdict.startswith("verdict=pass")
    hdr2, rows2 = read_csv(str(tmp_path / "relative_energy.csv"))
    assert hdr2[0] == "tau" and len(rows2) == spec.n_samples


def _small_weak_strong(**over):
    cfg = dict(presets()["weak-strong-bump"],
               **{"grid.n": "32", "solver.T": "0.02", "solver.n_samples": "5"})
    cfg.update(over)
    return spec_from_config(cfg)


def test_ensemble_members_equal_single_runs():
    spec = _small_weak_strong()
    grid, base, members, base_run = _build_ensemble(spec)
    rng = np.random.default_rng(spec.seed)
    cfg = _solver_config(spec)
    assert len(members) == spec.members
    for traj in members:
        ini = perturb_density(base, spec.length, spec.eps, rng)
        single = run(cfg, ini.sample(grid), grid)
        for name in ("rho", "u", "energy", "cum_dissipation"):
            assert np.array_equal(getattr(traj, name), getattr(single, name))
        assert (traj.n_steps, traj.n_trials, traj.min_step_slack) == \
            (single.n_steps, single.n_trials, single.min_step_slack)


def test_base_row_reference_equals_factor_one_reference():
    spec = _small_weak_strong()
    grid, base, _, base_run = _build_ensemble(spec)
    got = reference_from_run(base_run, grid)
    want = make_reference(_solver_config(spec), base, grid, factor=1)
    for name in ("times", "x", "r", "U", "dr_dx", "dU_dx", "dU_dt", "d2U_dx2"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.min_r == want.min_r


def test_base_row_only_when_a_factor_one_reference_is_needed():
    assert _build_ensemble(_small_weak_strong())[3] is not None
    assert _build_ensemble(_small_weak_strong(**{"ref.factor": "2"}))[3] is None
    assert _build_ensemble(_small_weak_strong(checks="energy,lemmas"))[3] is None


def test_none_mode_runs_one_row_for_every_member(monkeypatch):
    # every member and the factor-1 reference start from the base state
    spec = _small_weak_strong(**{"ensemble.mode": "none", "ensemble.k": "3"})
    rows = []
    real_run_stack = mvflow.solver.run_stack

    def counting_run_stack(cfgs, states, grid):
        rows.append(len(states))
        return real_run_stack(cfgs, states, grid)

    monkeypatch.setattr(mvflow.solver, "run_stack", counting_run_stack)
    monkeypatch.setattr(mvflow.experiments, "run_stack", counting_run_stack)
    grid, base, members, base_run = _build_ensemble(spec)
    assert rows == [1]
    assert len(members) == 3
    assert all(traj is base_run for traj in members)
    single = run(_solver_config(spec), base.sample(grid), grid)
    for name in ("rho", "u", "energy", "cum_dissipation"):
        assert np.array_equal(getattr(base_run, name), getattr(single, name))

    # a delta sequence is one stack too, one row per delta under its own
    # config, each row equal to the run of that delta alone
    rows.clear()
    spec = spec_from_config(dict(presets()["delta-sequence"],
                                 **{"grid.n": "32", "solver.T": "0.02"}))
    grid, base, members, base_run = _build_ensemble(spec)
    assert rows == [3] and base_run is None
    for d, traj in zip(spec.deltas, members):
        cfg = dataclasses.replace(_solver_config(spec), delta=d)
        assert traj.cfg == cfg
        single = run(cfg, base.sample(grid), grid)
        for name in ("rho", "u", "energy", "cum_dissipation"):
            assert np.array_equal(getattr(traj, name), getattr(single, name))
        assert (traj.n_steps, traj.n_trials, traj.min_step_slack) == \
            (single.n_steps, single.n_trials, single.min_step_slack)


def test_factor_one_reference_runs_no_extra_solve(tmp_path, monkeypatch):
    def no_reference_run(*args, **kwargs):
        raise AssertionError("the base row already holds the reference")

    monkeypatch.setattr(mvflow.experiments, "make_reference", no_reference_run)
    man = run_experiment(_small_weak_strong(), out_dir=str(tmp_path))
    assert [r.name for r in man.results] == \
        ["energy", "lemmas", "relative-energy", "gronwall"]


def test_delta_sequence_preset_passes(tmp_path):
    spec = spec_from_config(presets()["delta-sequence"])
    man = run_experiment(spec, out_dir=str(tmp_path))
    assert man.all_passed
    hdr, rows = read_csv(str(tmp_path / "energy.csv"))
    assert hdr == ["tau", "slack"]
    assert all(r[1] >= -1e-8 for r in rows)


def test_failing_check_flips_the_manifest(tmp_path):
    cfg = dict(presets()["constant-state"], **{"tol.residual": "1e-30"})
    spec = spec_from_config(cfg)
    man = run_experiment(spec, out_dir=str(tmp_path))
    by_name = {r.name: r for r in man.results}
    assert not by_name["continuity"].passed  # 1e-16 floor beats 1e-30
    assert by_name["energy"].passed
    assert not man.all_passed
    text = (tmp_path / "manifest.txt").read_text()
    assert "check.continuity = fail" in text
    assert "check.energy = pass" in text


def test_lemma_certificates_see_only_the_convex_part(tmp_path):
    # the lower/ratio bounds are statements about the monotone part of the
    # pressure; the bump is controlled elsewhere, so its size must not move them
    vals = {}
    for amp in ("0.05", "5.0"):
        cfg = minimal_cfg(**{"law.bump.q1": "1.0", "law.bump.q2": "2.0",
                             "law.bump.A": amp, "grid.n": "16",
                             "solver.T": "0.01", "solver.n_samples": "3",
                             "init.kind": "constant", "checks": "lemmas"})
        man = run_experiment(spec_from_config(cfg),
                             out_dir=str(tmp_path / amp))
        assert man.all_passed
        vals[amp] = man.results[0].value
    assert vals["0.05"] == vals["5.0"]


# -- convergence and certify -------------------------------------------------------

def conv_spec(tmp_path, **over):
    cfg = dict(presets()["convergence-pulse"],
               **{"solver.n_samples": "9", "solver.T": "0.06"}, **over)
    p = tmp_path / "conv.spec"
    p.write_text(format_kv(cfg))
    return str(p)


def test_convergence_mesh_mode(tmp_path):
    path, header, rows = cmd_convergence(conv_spec(tmp_path),
                                         levels=(16, 32, 64),
                                         out=str(tmp_path / "out"))
    assert header[0] == "n" and header[-1] == "E_mv"
    data = [r for r in rows if isinstance(r[0], int)]
    orders = [r for r in rows if isinstance(r[0], str)]
    assert [r[0] for r in data] == [16, 32, 64]
    assert len(orders) == 2
    e_mv = [r[-1] for r in data]
    assert e_mv[0] > e_mv[1] > e_mv[2] > 0.0
    hdr2, back = read_csv(path)
    assert hdr2 == header and len(back) == len(rows)


def test_convergence_runs_the_fine_grid_once(tmp_path, monkeypatch):
    # every level and the one fine size are rows of a single stacked solve
    stacks = []
    real_run_stack = mvflow.experiments.run_stack

    def recording_run_stack(cfgs, states, grids):
        stacks.append([g.n for g in grids])
        return real_run_stack(cfgs, states, grids)

    monkeypatch.setattr(mvflow.experiments, "run_stack", recording_run_stack)
    cmd_convergence(conv_spec(tmp_path), levels=(16, 32, 64),
                    out=str(tmp_path / "out"))
    assert len(stacks) == 1 and sorted(stacks[0]) == [16, 32, 64, 128]


def _per_level_convergence_csv(spec_path, levels) -> str:
    """The refinement table as one run per level and per fine size: the
    oracle of the stacked cmd_convergence."""
    from mvflow.configio import format_csv
    from mvflow.experiments import (_RESIDUALS, _initial_data, _order_cell,
                                    _worst_residual)
    from mvflow.measures import assemble, estimate_defect
    from mvflow.relative_energy import relative_energy_series
    from mvflow.solver import Grid1D

    spec = spec_from_config(read_spec(spec_path))
    base, cfg = _initial_data(spec), _solver_config(spec)
    fine_runs, per_level = {}, []
    for n in levels:
        grid = Grid1D(n=n, length=spec.length)
        traj = run(cfg, base.sample(grid), grid)
        measure = assemble([traj])
        defect = estimate_defect([traj, traj], measure, spec.law, spec.lam, tail=1)
        tau = float(measure.times[-1])
        lib = [_worst_residual(rows_of(spec, measure, defect, tau)[0])
               for _, rows_of in _RESIDUALS.values()]
        fine = Grid1D(n=(2 * max(levels) // n) * n, length=spec.length)
        if fine.n not in fine_runs:
            fine_runs[fine.n] = run(cfg, base.sample(fine), fine)
        ref = reference_from_run(fine_runs[fine.n], grid)
        e_gap = float(relative_energy_series(measure, spec.law, ref)[-1])
        per_level.append((n, grid.dx, *lib, e_gap))
    rows = list(per_level)
    for a, b in zip(per_level, per_level[1:]):
        rows.append((f"order:{a[0]}->{b[0]}", "n/a",
                     *[_order_cell(a[j], b[j]) for j in range(2, 7)]))
    return format_csv(["n", "dx", *_RESIDUALS, "E_mv"], rows)


def test_convergence_with_two_fine_sizes_equals_per_level_runs(tmp_path, monkeypatch):
    # levels 40, 64, 96 compare against runs on 160 and 192 cells: five rows
    # of one stack, and the table is byte for byte the per-level runs'
    stacks = []
    real_run_stack = mvflow.experiments.run_stack

    def recording_run_stack(cfgs, states, grids):
        stacks.append([g.n for g in grids])
        return real_run_stack(cfgs, states, grids)

    monkeypatch.setattr(mvflow.experiments, "run_stack", recording_run_stack)
    spec = conv_spec(tmp_path)
    path, _, _ = cmd_convergence(spec, levels=(40, 64, 96), out=str(tmp_path / "out"))
    assert len(stacks) == 1 and sorted(stacks[0]) == [40, 64, 96, 160, 192]
    monkeypatch.undo()
    with open(path) as fh:
        assert fh.read() == _per_level_convergence_csv(spec, (40, 64, 96))


def test_convergence_needs_three_levels(tmp_path):
    with pytest.raises(SpecParseError, match="3 levels"):
        cmd_convergence(conv_spec(tmp_path), levels=(16, 32),
                        out=str(tmp_path / "out"))


def test_convergence_delta_mode(tmp_path):
    cfg = dict(presets()["delta-sequence"],
               **{"solver.n_samples": "5", "grid.n": "48"})
    p = tmp_path / "d.spec"
    p.write_text(format_kv(cfg))
    path, header, rows = cmd_convergence(str(p), out=str(tmp_path / "out"))
    assert header[0] == "delta"
    data = [r for r in rows if isinstance(r[0], float)]
    zetas = [r[1] for r in data]
    assert zetas[0] > zetas[1] > zetas[2] > 0.0
    orders = [r for r in rows if isinstance(r[0], str)]
    # zeta scales linearly with delta, so each decade is a log2(10) step
    assert all(abs(r[1] - np.log2(10.0)) < 0.2 for r in orders)


def test_convergence_delta_mode_solves_one_stack_of_members(tmp_path, monkeypatch):
    # a weak-strong check in the spec adds no reference row: the table reads
    # only the members
    stacks = []
    real_run_stack = mvflow.solver.run_stack

    def counting_run_stack(cfgs, states, grid):
        stacks.append([c.delta for c in cfgs])
        return real_run_stack(cfgs, states, grid)

    monkeypatch.setattr(mvflow.experiments, "run_stack", counting_run_stack)
    cfg = dict(presets()["delta-sequence"], checks="energy,gronwall",
               **{"solver.n_samples": "5", "grid.n": "48"})
    p = tmp_path / "d.spec"
    p.write_text(format_kv(cfg))
    _, _, rows = cmd_convergence(str(p), out=str(tmp_path / "out"))
    assert stacks == [[1e-2, 1e-3, 1e-4]]
    assert [r[0] for r in rows[:3]] == [1e-2, 1e-3, 1e-4]


def test_certify_command(tmp_path):
    cfg = {"schema": "1", "name": "law-check", "law.kind": "power",
           "law.a": "1.0", "law.gamma": "2.0", "law.bump.q1": "1.0",
           "law.bump.q2": "2.0", "law.bump.A": "0.05",
           "certify.r_min": "0.5", "certify.r_max": "2.0"}
    p = tmp_path / "c.spec"
    p.write_text(format_kv(cfg))
    path, header, rows = cmd_certify(str(p), out=str(tmp_path / "out"))
    assert header[0] == "r" and header[-1] == "valid"
    assert len(rows) == 33
    assert all(r[-1] is True for r in rows)
    hdr2, back = read_csv(path)
    assert all(r[-1] is True for r in back)


def test_certify_requires_r_range(tmp_path):
    cfg = {"schema": "1", "name": "x", "law.kind": "power", "law.a": "1.0",
           "law.gamma": "2.0"}
    p = tmp_path / "c.spec"
    p.write_text(format_kv(cfg))
    with pytest.raises(SpecParseError, match="certify"):
        cmd_certify(str(p), out=str(tmp_path / "out"))
