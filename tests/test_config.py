import json
import re
from pathlib import Path

import numpy as np
import pytest

from levyinvest.boundary import BoundaryTable
from levyinvest.config import _MODELS, _PROFITS, load_config, parse_config
from levyinvest.errors import ParseError, ValidationError
from levyinvest.levy import Family, LevyModel
from levyinvest.policy import exponential_time_values
from levyinvest.profit import log_profit

MINIMAL = {
    "model": {"family": "brownian_drift", "mu": 0.0, "sigma": 1.0},
    "profit": {"kind": "cobb_douglas", "alpha": 0.5, "beta": 0.5},
    "r": 2.0,
}


# one valid parameter set per family and profit kind
MODELS = {
    "brownian_drift": {"sigma": 1.0},
    "merton": {"sigma": 0.3, "jump_intensity": 2.0, "jump_mean": -0.05, "jump_sd": 0.2},
    "kou": {"sigma": 0.2, "jump_intensity": 1.0, "p_up": 0.5, "eta_plus": 10.0,
            "eta_minus": 10.0},
    "symmetric_stable": {"stable_index": 1.5, "stable_scale": 0.5},
}
PROFITS = {"cobb_douglas": {"alpha": 0.5, "beta": 0.5},
           "ces": {"alpha": 0.5, "gamma": 0.5},
           "log": {}}
MODEL_OUT_OF_RANGE = [
    ("brownian_drift", "sigma", 0.0), ("brownian_drift", "sigma", -1.0),
    ("merton", "sigma", 0.0), ("merton", "jump_intensity", 0.0),
    ("merton", "jump_sd", -0.1),
    ("kou", "sigma", -0.2), ("kou", "jump_intensity", -1.0), ("kou", "p_up", 0.0),
    ("kou", "p_up", 1.0), ("kou", "eta_plus", 0.0), ("kou", "eta_minus", -1.0),
    ("symmetric_stable", "stable_index", 0.5), ("symmetric_stable", "stable_index", 2.0),
    ("symmetric_stable", "stable_scale", 0.0),
]
PROFIT_OUT_OF_RANGE = [
    ("cobb_douglas", "alpha", 0.0), ("cobb_douglas", "alpha", 1.0),
    ("cobb_douglas", "beta", -0.5), ("cobb_douglas", "beta", 1.5),
    ("ces", "alpha", 1.0), ("ces", "gamma", 0.0), ("ces", "gamma", 1.5),
]
README = Path(__file__).resolve().parents[1] / "README.md"


def resolved_grid(step, t_max, r):
    """The stepped grid's (step, t_max) as the policy engines resolve them at
    rate r, read off an exponential-time result, which runs no time grid."""
    flat = BoundaryTable(grid=[-1.0, 1.0], values=[1.0, 1.0], provenance="flat")
    res = exponential_time_values(log_profit(), LevyModel.brownian(0.0, 0.5), r, flat, 0.0,
                                  1.0, [1.0], 1000, np.random.default_rng(0), step=step,
                                  t_max=t_max)
    return res.step, res.t_max


def cfg_text(**overrides) -> str:
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(cfg_text())
        assert cfg.seed == 0
        assert cfg.step is None and cfg.t_max is None
        assert resolved_grid(cfg.step, cfg.t_max, cfg.r) == pytest.approx((1e-3 / 2.0, 10.0))
        assert cfg.u_min == -2.0 and cfg.u_max == 2.0 and cfg.grid_n == 41
        assert cfg.x == 0.0 and cfg.y == 1.0
        assert cfg.scales == (0.5, 0.8, 1.0, 1.25, 2.0)
        assert cfg.out_dir == "out"
        assert len(cfg.verify_u0) == 3

    def test_model_and_profit_constructed(self):
        cfg = parse_config(cfg_text())
        assert cfg.model.family is Family.BROWNIAN_DRIFT
        assert cfg.profit.kind == "cobb_douglas"

    def test_sha_tracks_text(self):
        a = parse_config(cfg_text())
        b = parse_config(cfg_text(seed=7))
        assert a.config_sha256 != b.config_sha256
        assert a.config_sha256 == parse_config(cfg_text()).config_sha256

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(cfg_text(), encoding="utf-8")
        assert load_config(path).r == 2.0


class TestValidation:
    def test_negative_rate_names_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(r=-1))
        assert err.value.key == "r"

    def test_ces_gamma_interval_cited(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(profit={"kind": "ces", "alpha": 0.5, "gamma": 1.5}))
        assert err.value.key == "profit.gamma"
        assert "(0, 1)" in err.value.message

    def test_missing_required_keys(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"profit": MINIMAL["profit"], "r": 1.0}))
        assert err.value.key == "model"
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"model": MINIMAL["model"], "r": 1.0}))
        assert err.value.key == "profit"

    def test_model_subkeys_named(self):
        bad = dict(MINIMAL["model"])
        bad["sigma"] = -2.0
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(model=bad))
        assert err.value.key == "model.sigma"

    def test_kou_p_up_range(self):
        kou = {"family": "kou", "mu": 0.0, "sigma": 0.2, "jump_intensity": 1.0,
               "p_up": 1.5, "eta_plus": 10.0, "eta_minus": 10.0}
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(model=kou))
        assert err.value.key == "model.p_up"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(bogus=1))
        assert err.value.key == "bogus"
        bad = dict(MINIMAL["model"])
        bad["sgima"] = 1.0
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(model=bad))
        assert err.value.key == "model.sgima"

    def test_unknown_family_and_kind(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(model={"family": "gamma_ou", "sigma": 1.0}))
        assert err.value.key == "model.family"
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(profit={"kind": "quadratic"}))
        assert err.value.key == "profit.kind"

    def test_mc_block_validation(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(mc={"n_paths": 0}))
        assert err.value.key == "mc.n_paths"
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(mc={"step": -0.1}))
        assert err.value.key == "mc.step"

    @pytest.mark.parametrize("n_paths", [1, 999])
    def test_n_paths_below_replicate_floor(self, n_paths):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(mc={"n_paths": n_paths}))
        assert err.value.key == "mc.n_paths" and ">= 1000" in err.value.message

    def test_n_paths_at_replicate_floor_parses(self):
        assert parse_config(cfg_text(mc={"n_paths": 1000})).n_paths == 1000

    def test_grid_ordering(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(grid={"u_min": 2.0, "u_max": -2.0}))
        assert err.value.key == "grid.u_min"

    def test_state_capacity_positive(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(state={"y": -1.0}))
        assert err.value.key == "state.y"

    def test_scales_positive(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(scales=[1.0, -2.0]))
        assert err.value.key == "scales[1]"

    def test_seed_bounds(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(seed=-3))
        assert err.value.key == "seed"
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(seed=2 ** 64))
        assert err.value.key == "seed"

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(r=True))
        assert err.value.key == "r"

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_config("not json {")
        with pytest.raises(ParseError):
            parse_config("[1, 2]")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "nope.json")


class TestParameterTables:
    def test_tables_cover_every_family_and_kind(self):
        assert {f: tuple(p) for f, p in MODELS.items()} == {
            f: names for f, (_, names) in _MODELS.items()}
        assert {k: tuple(p) for k, p in PROFITS.items()} == {
            k: names for k, (_, names) in _PROFITS.items()}

    @pytest.mark.parametrize("family", sorted(MODELS))
    def test_every_family_parses(self, family):
        cfg = parse_config(cfg_text(model={"family": family, **MODELS[family]}))
        assert cfg.model.family.value == family and cfg.model.mu == 0.0

    @pytest.mark.parametrize("kind", sorted(PROFITS))
    def test_every_kind_parses(self, kind):
        cfg = parse_config(cfg_text(profit={"kind": kind, **PROFITS[kind]}))
        assert cfg.profit.kind == kind

    @pytest.mark.parametrize("family, name, value", MODEL_OUT_OF_RANGE)
    def test_model_range_names_key(self, family, name, value):
        model = {"family": family, **MODELS[family], name: value}
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(model=model))
        assert err.value.key == f"model.{name}"
        assert name in err.value.message

    @pytest.mark.parametrize("kind, name, value", PROFIT_OUT_OF_RANGE)
    def test_profit_range_names_key(self, kind, name, value):
        profit = {"kind": kind, **PROFITS[kind], name: value}
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(profit=profit))
        assert err.value.key == f"profit.{name}"
        assert name in err.value.message

    @pytest.mark.parametrize("family", sorted(MODELS))
    def test_model_shape_names_key(self, family):
        for name in ("mu", *MODELS[family]):
            model = {"family": family, **MODELS[family], name: "1.0"}
            with pytest.raises(ValidationError) as err:
                parse_config(cfg_text(model=model))
            assert err.value.key == f"model.{name}"
        for name in MODELS[family]:
            model = {"family": family, **MODELS[family]}
            del model[name]
            with pytest.raises(ValidationError) as err:
                parse_config(cfg_text(model=model))
            assert err.value.key == f"model.{name}"

    @pytest.mark.parametrize("tag", [["kou"], 1, None, {"kind": "ces"}])
    def test_non_string_family_and_kind(self, tag):
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(model={"family": tag, "sigma": 1.0}))
        assert err.value.key == "model.family"
        with pytest.raises(ValidationError) as err:
            parse_config(cfg_text(profit={"kind": tag, "alpha": 0.5, "beta": 0.5}))
        assert err.value.key == "profit.kind"

    def test_degenerate_merton_jumps_parse(self):
        # the constructor's rule is jump_sd >= 0: fixed-size jumps are allowed
        model = {"family": "merton", **MODELS["merton"], "jump_sd": 0.0}
        assert parse_config(cfg_text(model=model)).model.jump_sd == 0.0

    def test_readme_family_table_matches_parser(self):
        text = README.read_text(encoding="utf-8")
        table = text[text.index("| family "):].split("\n\n")[0]
        rows = re.findall(r"^\| `(\w+)`\s*\|(.*)\|\s*$", table, flags=re.MULTILINE)
        listed = {family: re.findall(r"`(\w+)", cell) for family, cell in rows}
        assert listed == {f: ["mu", *names] for f, (_, names) in _MODELS.items()}
