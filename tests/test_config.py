import pytest

from resgrow.config import DEFAULT_CONFIG, RunConfig, config_from_dict, load_config


def test_defaults():
    cfg = RunConfig()
    assert cfg == DEFAULT_CONFIG
    assert cfg.tol_singular == 1e-12
    assert cfg.max_steps == 10000


def test_replace_builds_new_config():
    cfg = DEFAULT_CONFIG.replace(max_steps=5)
    assert cfg.max_steps == 5
    assert DEFAULT_CONFIG.max_steps == 10000
    assert cfg.tol_svd == DEFAULT_CONFIG.tol_svd


def test_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_CONFIG.max_steps = 1  # type: ignore[misc]


def test_from_dict_overrides():
    cfg = config_from_dict({"tol_zero": 1e-6, "s_seg": 65})
    assert cfg.tol_zero == 1e-6
    assert cfg.s_seg == 65


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"tol_typo": 1.0})
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"s_cert": 129})
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"seed": 0})


def test_from_dict_type_checks():
    with pytest.raises(ValueError):
        config_from_dict({"s_seg": 1.5})
    with pytest.raises(ValueError):
        config_from_dict({"s_seg": True})
    with pytest.raises(ValueError):
        config_from_dict({"tol_svd": "tiny"})
    # the same type rule holds for a RunConfig built directly or replaced
    with pytest.raises(ValueError, match="must be an integer"):
        RunConfig(s_seg=2.5)
    with pytest.raises(ValueError, match="must be an integer"):
        DEFAULT_CONFIG.replace(max_steps=True)
    with pytest.raises(ValueError, match="must be a number"):
        RunConfig(tol_svd="x")
    # values of the right type but outside the legal range
    for bad in (
        {"tol_singular": float("nan")},
        {"tol_eig": float("inf")},
        {"tol_zero": -1e-9},
        {"max_halvings": -5},
        {"max_steps": 0},
        {"s_seg": 0},
        {"s_seg": 1},
    ):
        with pytest.raises(ValueError):
            config_from_dict(bad)
    with pytest.raises(ValueError):
        DEFAULT_CONFIG.replace(s_seg=1)
    # the smallest legal values
    cfg = config_from_dict({"s_seg": 2, "max_steps": 1, "max_halvings": 0, "tol_zero": 0})
    assert (cfg.s_seg, cfg.max_steps, cfg.max_halvings, cfg.tol_zero) == (2, 1, 0, 0.0)
    # ints are acceptable where floats are expected, and stored as floats
    assert config_from_dict({"tol_svd": 1}).tol_svd == 1.0
    assert isinstance(RunConfig(tol_svd=1).tol_svd, float)


def test_integer_too_large_for_a_float_is_not_finite():
    with pytest.raises(ValueError, match="tol_svd' must be a number >= 0.0 and finite"):
        RunConfig(tol_svd=10**400)
    with pytest.raises(ValueError, match="must be a number >= 0.0 and finite"):
        config_from_dict({"tol_zero": -(10**400)})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"max_halvings": 7, "tol_eig": 1e-6}')
    cfg = load_config(str(path))
    assert cfg.max_halvings == 7
    assert cfg.tol_eig == 1e-6


def test_load_config_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_config(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_config(str(path))
