"""Config file parsing and overrides."""

import pytest

from frontal_lab.config import Config, load_config


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg == Config()

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("# comment\neps_rank = 1e-7\nquad_nodes = 16\n")
        cfg = load_config(str(path), overrides={"tol_path": "1e-3"})
        assert cfg.eps_rank == 1e-7
        assert cfg.quad_nodes == 16
        assert cfg.tol_path == 1e-3
        assert cfg.eps_dec == Config().eps_dec

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_knob = 3\n")
        with pytest.raises(ValueError):
            load_config(str(path))

