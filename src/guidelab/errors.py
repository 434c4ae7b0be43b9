"""Error classes shared by several layers."""


class NumericalError(RuntimeError):
    """A computation produced a non-finite value: a sampler state, a
    classifier gradient or a training loss.  The CLI exits 4 on it."""
