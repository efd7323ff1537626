"""Exception types shared across the package."""


class BadParams(ValueError):
    """Raised when a parameter is outside its admissible range."""


class SingularSystem(ArithmeticError):
    """Raised when a Markov chain has no unique answer.

    Reachable only at boundary protocol parameters (q or r in {0, 1}); the
    cases are listed in the critmac.markov module docstring.  Interior
    parameters always yield a finite answer.
    """


class ScenarioUnsatisfiable(RuntimeError):
    """Raised when a simulation scenario's preconditions are not met."""
