"""Exception types shared across the simulator."""


class HmlbnError(Exception):
    """Base class for all simulator errors."""


class LabelSpaceExhausted(HmlbnError):
    """20-bit label allocator ran out of values."""


class UnknownInterface(HmlbnError):
    pass


class NotRegistered(HmlbnError):
    pass


class NoRouteToNextHop(HmlbnError):
    pass


class DecodeError(HmlbnError):
    """Malformed or truncated control-message byte sequence."""


class ScenarioInvalid(HmlbnError):
    """Scenario file failed schema or invariant validation.

    ``problems`` is a list of (field_path, message) pairs.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.problems)
        super().__init__(lines or "invalid scenario")


class VertexNotFound(HmlbnError):
    pass


class InvalidDm(HmlbnError):
    """Markov-chain size parameter out of range."""
