"""Exact finite-field simulator for private read-update-write (PRUW) over
replicated databases, covering the basic scheme, top-r sparsification with
noisy permuted positions, and random sparsification with budgeted
distortion."""

from .config import ExperimentConfig, load_config, parse_config_text
from .errors import (
    ConfigError,
    DomainError,
    InconclusiveError,
    IntegrityError,
    ProtocolError,
    PruwError,
)
from .field import FieldParams, PrimeField, allocate_eval_points
from .harness import Session, run_session, verify_costs

__all__ = [
    "ConfigError",
    "DomainError",
    "ExperimentConfig",
    "FieldParams",
    "InconclusiveError",
    "IntegrityError",
    "PrimeField",
    "ProtocolError",
    "PruwError",
    "Session",
    "allocate_eval_points",
    "load_config",
    "parse_config_text",
    "run_session",
    "verify_costs",
]
