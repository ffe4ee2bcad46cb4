"""Config parsing and validation."""

from fractions import Fraction

import pytest

from pruw.config import ExperimentConfig, parse_config_text
from pruw.errors import ConfigError


class TestParsing:
    def test_round_trip(self):
        text = """
        # comment
        scheme=topr
        n=10
        p=5
        q=127
        r=2/5
        r_prime=0.4
        perm=2,5,1,3,4
        v_tilde=2,3
        seed=9
        """
        cfg = parse_config_text(text)
        assert cfg.scheme == "topr"
        assert cfg.r == Fraction(2, 5)
        assert cfg.r_prime == Fraction(2, 5)
        assert cfg.perm == (2, 5, 1, 3, 4)
        assert cfg.v_tilde == (2, 3)

    def test_decimal_fractions_are_exact(self):
        cfg = parse_config_text("scheme=random\nd_read=0.1\nd_write=0.2\n")
        assert cfg.d_read == Fraction(1, 10)
        assert cfg.d_write == Fraction(1, 5)

    def test_bool_values(self):
        assert parse_config_text("disable_noise=true\n").disable_noise
        assert not parse_config_text("disable_noise=off\n").disable_noise
        with pytest.raises(ConfigError):
            parse_config_text("disable_noise=maybe\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("colour=blue\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("scheme basic\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            parse_config_text("n=ten\n")

    def test_repeated_key_names_the_second_line(self):
        with pytest.raises(ConfigError, match=r"^line 3: key 'n' is set twice$"):
            parse_config_text("scheme=basic\nn=4\nn=10\n")


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            parse_config_text("scheme=nope\n")

    def test_theta_bounds(self):
        cfg = ExperimentConfig(m=2, theta=3)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_budget_bounds(self):
        cfg = ExperimentConfig(scheme="random", d_read=Fraction(3, 2))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rate_bounds(self):
        cfg = ExperimentConfig(scheme="topr", r=Fraction(3, 2))
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("base", [-2, 0, 1])
    def test_position_base_below_two_rejected(self, base):
        # a base below 2 never covers p indices: position_symbols would not end
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="topr", p=3, position_base=base).validate()

    def test_as_dict_serializes_fractions(self):
        d = ExperimentConfig(scheme="random", d_read=Fraction(1, 10)).as_dict()
        assert d["d_read"] == "1/10"

    def test_topr_fixture_overrides_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="topr", p=3, perm=(1, 1, 2)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="topr", p=3, v_tilde=(2, 2)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="topr", p=3, v_tilde=(4,)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="topr", p=3, scores=(1, 2)).validate()
        ExperimentConfig(scheme="topr", p=3, perm=(2, 3, 1), v_tilde=(1, 3),
                         scores=(5, 0, 9)).validate()
