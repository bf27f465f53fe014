"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A numeric argument is outside its valid domain."""


class ConfigError(ValueError):
    """An experiment configuration failed validation.

    ``errors`` holds one message per offending field, each prefixed with
    the field path.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DivergedError(RuntimeError):
    """A round cannot go on: a model's norm exceeded the configured divergence ceiling, or
    its median clip bound, median-clipped sigma or a float32 upload left its domain."""
