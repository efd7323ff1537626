"""Exception types shared across the package."""


class BadParams(ValueError):
    """Raised when a parameter is outside its admissible range."""


class SingularSystem(ArithmeticError):
    """Raised where the analysis gives no answer.

    Reachable only at boundary protocol parameters (q or r in {0, 1}).  The
    analysis refuses the whole boundary by convention, though its chains
    have no finite answer only at q = 0 or r = 1 (T_c; D_crit only at
    r = 1); the cases are listed in the critmac.markov module docstring.
    Interior parameters always yield a finite answer.
    """


class ScenarioUnsatisfiable(RuntimeError):
    """Raised when a simulation scenario's preconditions are not met."""
