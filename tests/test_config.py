"""Config file parsing and overrides."""

import re

import pytest

from frontal_lab.config import Config, load_config
from frontal_lab.errors import InputError


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
        with pytest.raises(InputError):
            load_config(str(path))

    @pytest.mark.parametrize("text, message", [
        (b"quad_nodes = 1.5\n", "invalid literal for int()"),
        (b"eps_rank = small\n", "could not convert string to float"),
        (b"eps_rank\n", "expected key = value"),
        (b"eps_rank = \xff\n", "can't decode byte 0xff"),
    ], ids=["int", "float", "no-equals", "not-utf-8"])
    def test_unreadable_file_is_input_error(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_bytes(text)
        with pytest.raises(InputError, match=re.escape(message)):
            load_config(str(path))

    def test_unreadable_override_is_input_error(self):
        with pytest.raises(InputError, match="unknown config key 'knob'"):
            load_config(overrides={"knob": "1"})
        with pytest.raises(InputError, match="could not convert"):
            load_config(overrides={"tol_path": "x"})

