"""Exception types shared across the package."""


class QuadGaitError(Exception):
    """Base class for all package errors."""


class Unreachable(QuadGaitError):
    """IK target lies outside the leg workspace."""


class Diverged(QuadGaitError):
    """Simulation state became non-finite or left the sane region, or
    (with a reason) the robot left the survival band."""

    def __init__(self, time, reason="non-finite or runaway state"):
        self.time = time
        self.reason = reason
        super().__init__(f"simulation diverged at t={time:.4f} s: {reason}")


class CollectionFailed(QuadGaitError, RuntimeError):
    """A collection campaign failed: the expert failed a gait's
    competence gate, or more than 10% of the cells fell."""


class EmptyDataset(QuadGaitError):
    """Operation requires at least one (or two) records."""


class UnknownTask(QuadGaitError):
    """Task id or gait name not covered by the network/config."""


class DegenerateTruth(QuadGaitError):
    """R^2 undefined: ground truth has (near-)zero variance."""


class NonFiniteLoss(QuadGaitError):
    """Training loss became NaN or infinite."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}")

    def __reduce__(self):
        # rebuilt from the epoch when it crosses a process boundary
        return type(self), (self.epoch,)


class ConfigError(QuadGaitError):
    """Malformed config file, unknown key, or invalid value."""


class FileFormatError(QuadGaitError):
    """Base class for binary file format errors."""


class BadMagic(FileFormatError):
    pass


class VersionMismatch(FileFormatError):
    pass


class TruncatedFile(FileFormatError):
    pass


class ChecksumMismatch(FileFormatError):
    pass


class ShapeMismatch(FileFormatError):
    pass
