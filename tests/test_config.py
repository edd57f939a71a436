"""The config schema: the dataclass fields are the only list of keys, so the
CLI, the checkpoint header and the README must all agree with them."""

import re
import tempfile
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cadts.cli import make_train_config
from cadts.errors import ConfigError
from cadts.model import VARIANTS, ModelConfig, build_model
from cadts.train import TrainConfig, load_checkpoint, save_checkpoint

README = Path(__file__).resolve().parents[1] / "README.md"

# values by annotation, kept small so that a drawn model builds quickly; a
# field whose valid values are narrower than its type gets an entry in DOMAINS
BY_TYPE = {
    int: st.integers(1, 8),
    float: st.floats(0.0, 1.0),
    bool: st.booleans(),
    int | None: st.none() | st.integers(1, 8),
}
DOMAINS = {
    "variant": st.sampled_from(VARIANTS),
    "dtype": st.sampled_from(("float32", "float64")),
    "epsilon": st.floats(0.5, 1.0, exclude_min=True),
    "dropout_rate": st.floats(0.0, 1.0, exclude_max=True),
    "lr0": st.floats(1e-9, 1.0),
    "val_fraction": st.floats(0.0, 0.5),
    "seed": st.integers(0, 2**32 - 1),
}


def configs(cls):
    hints = get_type_hints(cls)
    return st.builds(
        cls,
        **{f.name: DOMAINS[f.name] if f.name in DOMAINS else BY_TYPE[hints[f.name]] for f in fields(cls)},
    )


@given(configs(TrainConfig))
def test_set_overrides_roundtrip(cfg):
    cfg.validate()
    overrides = [f"{key}={value}" for key, value in asdict(cfg).items()]
    assert make_train_config(overrides=overrides) == cfg


@settings(max_examples=30, deadline=None)
@given(configs(ModelConfig), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_checkpoint_header_roundtrip(config, n_metrics, seed):
    model = build_model(config, n_metrics=n_metrics, rng_seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, None, path)
        loaded, scaler = load_checkpoint(path)
    assert loaded.config == config
    assert (loaded.n_metrics, loaded.seed, scaler) == (n_metrics, seed, None)


def test_cli_accepts_exactly_the_train_config_fields():
    default = TrainConfig()
    for f in fields(TrainConfig):
        assert make_train_config(overrides=[f"{f.name}={getattr(default, f.name)}"]) == default


@given(st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True))
def test_cli_rejects_other_keys(key):
    assume(key not in {f.name for f in fields(TrainConfig)})
    with pytest.raises(ConfigError, match="unknown config keys"):
        make_train_config(overrides=[f"{key}=1"])


@pytest.mark.parametrize("key, text", [("l", "1x"), ("epsilon", "abc"), ("scale", "maybe"),
                                       ("early_stop_patience", "never")])
def test_cli_rejects_unparseable_values(key, text):
    with pytest.raises(ConfigError, match=f"^--set {key}={text}: bad value '{text}' for key '{key}'$"):
        make_train_config(overrides=[f"{key}={text}"])


@pytest.mark.parametrize("key, text", [("lr0", "nan"), ("lr0", "inf"), ("lr0", "-inf"), ("lr0", "0"),
                                       ("lr_min", "nan"), ("lr_min", "inf"), ("lr_min", "-1")])
def test_learning_rates_must_be_finite(key, text):
    need = "> 0" if key == "lr0" else ">= 0"
    with pytest.raises(ConfigError, match=rf"^invalid train config: {key}={float(text)} \(need finite {need}\)$"):
        make_train_config(overrides=[f"{key}={text}"])


def configuration_section() -> str:
    return README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]


def test_readme_table_lists_the_train_config_fields():
    keys = set()
    for row in re.findall(r"^\| (`.*?) \|", configuration_section(), flags=re.M):
        keys.update(re.findall(r"`(\w+)`", row))
    assert keys == {f.name for f in fields(TrainConfig)}


def test_readme_variant_row_lists_the_variants():
    (row,) = re.findall(r"^\| `variant` \|.*$", configuration_section(), flags=re.M)
    meaning = row.split(" | ")[2]
    assert tuple(re.findall(r"`(\w+)`", meaning)) == VARIANTS
