"""Semantic exceptions shared across the package."""


class TaiWelfareError(Exception):
    """Base class for all package errors."""


class DomainError(TaiWelfareError, ValueError):
    """An input violates its documented domain (named field, stated bound)."""


class DivergenceError(TaiWelfareError, ArithmeticError):
    """An infinite-horizon welfare integral does not converge for these rates."""


class ConvergenceError(TaiWelfareError, RuntimeError):
    """An iterative method exhausted its budget without meeting tolerance."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature exhausted its subdivision budget."""


class ConfigError(TaiWelfareError, ValueError):
    """A config file or CLI flag is malformed or out of range."""
