"""Exception types shared across the package."""


class OutOfDomainError(ValueError):
    """A point or measure atom lies outside the closed unit square."""


class ConfigError(ValueError):
    """An experiment configuration file is malformed or inconsistent."""


class NumericalError(RuntimeError):
    """A linear solve or factorization produced an unusable result."""
